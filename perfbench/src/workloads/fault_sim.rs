//! `fault-sim`: the `faults --plan` path over sampled fault plans, at
//! fan-out 1. Each job is one pass over 24 cells; per cell one sampled
//! `FaultPlan` is replayed through the oblivious, adaptive, exchange and
//! coded families, plus one fault-free execution. The unit is
//! executions (5 per cell).

use hetero_clustergen::{random_profile, rng_from_seed, GenConfig, Shape};
use hetero_core::{xmeasure, Params, Profile};
use hetero_faults::{FaultConfig, FaultPlan};
use hetero_par::seed;
use hetero_protocol::{alloc, coded, exchange, exec, fault_exec, replan, ExchangePolicy};

use super::{ensure, exact_check, rel_err, Stats, Workload};
use crate::rec::Rec;

const SIZES: [usize; 2] = [8, 64];
const CRASH_PS: [f64; 3] = [0.0, 0.1, 0.3];
const STRAGGLER_FACTORS: [f64; 2] = [1.5, 4.0];
const SPREADS: [f64; 2] = [0.9, 0.3];
const LOSS_P: f64 = 0.2;
const LIFESPAN: f64 = 600.0;
const MARGIN: f64 = 0.1;
const EXECUTIONS_PER_CELL: usize = 5;

struct Cell {
    n: usize,
    crash_p: f64,
    factor: f64,
    lo: f64,
}

fn cells() -> Vec<Cell> {
    let mut out = Vec::new();
    for n in SIZES {
        for crash_p in CRASH_PS {
            for factor in STRAGGLER_FACTORS {
                for lo in SPREADS {
                    out.push(Cell {
                        n,
                        crash_p,
                        factor,
                        lo,
                    });
                }
            }
        }
    }
    out
}

pub struct FaultSim {
    seed: u64,
    cells: Vec<Cell>,
}

impl FaultSim {
    pub fn new(seed: u64) -> Self {
        FaultSim {
            seed,
            cells: cells(),
        }
    }
}

fn err(what: &str) -> impl Fn(hetero_protocol::ProtocolError) -> String + '_ {
    move |e| format!("{what}: {e}")
}

impl Workload for FaultSim {
    fn run_job(&mut self, idx: u64, rec: &mut Rec, stats: &mut Stats) -> Result<f64, String> {
        let params = Params::paper_table1();
        let job = seed::derive(self.seed, idx);
        for (c, cell) in self.cells.iter().enumerate() {
            let cell_seed = seed::derive(job, c as u64);
            let profile: Profile = rec.untimed(|| {
                let mut rng = rng_from_seed(seed::derive(cell_seed, 1));
                random_profile(
                    &mut rng,
                    GenConfig::new(cell.n).with_lo(cell.lo),
                    Shape::Uniform,
                )
            });
            let fcfg = FaultConfig {
                crash_p: cell.crash_p,
                straggler_count: 1,
                straggler_factor: cell.factor,
                loss_p: LOSS_P,
                loss_max: 1,
                ..FaultConfig::default()
            };
            let faults = rec
                .call("faults.sample", || {
                    FaultPlan::sample(&fcfg, cell.n, LIFESPAN, seed::derive(cell_seed, 2))
                })
                .map_err(|e| format!("fault plan: {e}"))?;
            let plan = rec
                .call("protocol.alloc", || {
                    alloc::fifo_plan(&params, &profile, LIFESPAN)
                })
                .map_err(err("plan"))?;
            let hedge = replan::HedgePolicy {
                margin: MARGIN,
                ..replan::HedgePolicy::default()
            };
            let hedged_plan = rec
                .call("protocol.alloc", || {
                    alloc::fifo_plan(&params, &profile, LIFESPAN / (1.0 + MARGIN))
                })
                .map_err(err("hedged plan"))?;
            // Each call keeps only the work delivered by L, so that the
            // execution's trace is dropped inside the layer's span.
            let clean = rec.call("protocol.exec", || {
                exec::execute(&params, &profile, &plan).work_completed_by(LIFESPAN)
            });
            let oblivious = rec
                .call("protocol.oblivious", || {
                    fault_exec::execute_with_faults(&params, &profile, &plan, &faults)
                        .map(|e| e.work_completed_by(LIFESPAN))
                })
                .map_err(|e| format!("oblivious: {e}"))?;
            let adaptive = rec
                .call("protocol.adaptive", || {
                    replan::execute_adaptive(&params, &profile, &plan, &faults, &hedge)
                        .map(|e| e.work_completed_by(LIFESPAN))
                })
                .map_err(|e| format!("adaptive: {e}"))?;
            let xchg = rec
                .call("protocol.exchange", || {
                    exchange::execute_exchange(
                        &params,
                        &profile,
                        &hedged_plan,
                        &faults,
                        &ExchangePolicy {
                            fallback: hedge,
                            ..ExchangePolicy::default()
                        },
                    )
                    .map(|e| e.work_completed_by(LIFESPAN))
                })
                .map_err(|e| format!("exchange: {e}"))?;
            let coded = rec.call("protocol.coded", || {
                coded::mds_assignment(&params, &profile, LIFESPAN, cell.n / 2)
                    .map_err(|e| format!("coded assignment: {e}"))
                    .and_then(|a| {
                        coded::execute_coded(&params, &profile, &a, &faults)
                            .map(|e| e.work_completed_by(LIFESPAN))
                            .map_err(|e| format!("coded: {e}"))
                    })
            })?;

            rec.untimed(|| {
                let optimum = xmeasure::work(&params, &profile, LIFESPAN);
                ensure(rel_err(clean, optimum) <= 1e-9, || {
                    format!("cell {c}: fault-free DES work {clean} != W(L;P) {optimum}")
                })?;
                let ceiling = optimum * (1.0 + 1e-9);
                for (family, work) in [
                    ("exchange", xchg),
                    ("coded", coded),
                    ("oblivious", oblivious),
                    ("adaptive", adaptive),
                ] {
                    ensure(work.is_finite() && work >= 0.0 && work <= ceiling, || {
                        format!("cell {c}: {family} work {work} outside [0, {optimum}]")
                    })?;
                }
                // One exact-oracle check per job, on the small cluster.
                if c == 0 {
                    exact_check(
                        &params,
                        profile.rhos(),
                        xmeasure::x_measure(&params, &profile),
                        stats,
                    )?;
                }
                Ok::<(), String>(())
            })?;
        }
        Ok((self.cells.len() * EXECUTIONS_PER_CELL) as f64)
    }

    fn trace_jobs(&self) -> usize {
        600
    }
}
