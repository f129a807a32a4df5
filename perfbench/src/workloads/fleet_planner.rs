//! `fleet-planner`: planner calls against a churning fleet. Set-up
//! builds a `ChurnScan` over 65,536 workers (its ρ values, 0.5 MiB, fit
//! in a 2 MiB L2) and a `SummaryTree` over 10⁶ workers (8 MiB, larger
//! than L2). Each job mixes 4,096 writes with reads, one exact subset
//! selection, a tree rebuild plus compression, tree queries and one
//! greedy upgrade round. The unit is planner operations.

use hetero_clustergen::{rng_from_seed, sample_speeds, GenConfig, Shape};
use hetero_core::hcompress::SummaryTree;
use hetero_core::selection;
use hetero_core::speedup::greedy_multiplicative;
use hetero_core::xmeasure::x_measure_of_rhos;
use hetero_core::xstream::{ChurnScan, WorkerId};
use hetero_core::{Params, Profile};
use hetero_par::seed;
use rand::Rng;

use super::{ensure, exact_check, rel_err, Stats, Workload};
use crate::rec::Rec;

const FLEET: usize = 65_536;
const BIG_TREE: usize = 1_000_000;
const REPLACES: usize = 2_048;
const INSERTS: usize = 1_024;
const DELETES: usize = 1_024;
/// Writes between two `x()` reads.
const READ_EVERY: usize = 16;
/// Writes between two from-scratch rebuild checks.
const CHECK_EVERY: usize = 256;
const SELECT_N: usize = 4_096;
const SELECT_K: usize = 64;
const COMPRESS_TO: usize = 64;
const TREE_READS: usize = 16;
const GREEDY_N: usize = 4_096;
const PSI: f64 = 0.5;
/// Jobs between two exact-oracle checks of the selected subset.
const EXACT_EVERY: u64 = 32;
/// Speed floor of generated workers.
const LO: f64 = 0.05;

#[derive(Clone, Copy)]
enum Op {
    Replace { pick: u64, rho: f64 },
    Insert { rho: f64 },
    Delete { pick: u64 },
}

/// A duplicate-heavy profile: runs of eight equal speeds (the selection
/// sweep's adversarial family for the equal-speed dominance rule).
fn duplicate_runs(n: usize) -> Result<Profile, String> {
    Profile::from_unsorted((0..n).map(|i| 1.0 / ((i / 8) + 1) as f64).collect())
        .map_err(|e| e.to_string())
}

pub struct FleetPlanner {
    seed: u64,
    params: Params,
    scan: ChurnScan,
    live: Vec<WorkerId>,
    big: SummaryTree,
    big_x: f64,
    harmonic: Profile,
    dup_runs: Profile,
}

impl FleetPlanner {
    pub fn new(seed: u64) -> Result<Self, String> {
        let params = Params::paper_table1();
        let mut rng = rng_from_seed(seed);
        let cfg = GenConfig::new(FLEET).with_lo(LO);
        let rhos = sample_speeds(&mut rng, cfg, Shape::Uniform);
        let (scan, live) = ChurnScan::from_rhos(&params, &rhos).map_err(|e| e.to_string())?;
        let mut big_rhos = sample_speeds(
            &mut rng,
            GenConfig::new(BIG_TREE).with_lo(LO),
            Shape::Uniform,
        );
        // Slowest first, so the last c workers are the c fastest.
        big_rhos.sort_by(|a, b| b.total_cmp(a));
        let big = SummaryTree::new(&params, &big_rhos).map_err(|e| e.to_string())?;
        Ok(FleetPlanner {
            seed,
            params,
            scan,
            live,
            big_x: big.x(),
            big,
            harmonic: Profile::harmonic(SELECT_N),
            dup_runs: duplicate_runs(SELECT_N)?,
        })
    }

    /// The job's writes in a seeded order, plus its tree-query sizes.
    fn inputs(&self, idx: u64) -> (Vec<Op>, Vec<usize>) {
        let mut rng = rng_from_seed(seed::derive(self.seed, idx));
        let mut ops: Vec<Op> = Vec::with_capacity(REPLACES + INSERTS + DELETES);
        let rho = |rng: &mut rand::rngs::StdRng| rng.random_range(LO..1.0);
        for _ in 0..REPLACES {
            let r = rho(&mut rng);
            ops.push(Op::Replace {
                pick: rng.random_range(0..u64::MAX),
                rho: r,
            });
        }
        for _ in 0..INSERTS {
            ops.push(Op::Insert { rho: rho(&mut rng) });
        }
        for _ in 0..DELETES {
            ops.push(Op::Delete {
                pick: rng.random_range(0..u64::MAX),
            });
        }
        for i in (1..ops.len()).rev() {
            let j = rng.random_range(0..=i);
            ops.swap(i, j);
        }
        let reads = (0..TREE_READS)
            .map(|_| rng.random_range(1..=BIG_TREE))
            .collect();
        (ops, reads)
    }

    fn apply(&mut self, ops: &[Op]) -> Result<(), String> {
        for &op in ops {
            match op {
                Op::Replace { pick, rho } => {
                    let id = self.live[(pick % self.live.len() as u64) as usize];
                    self.scan.replace(id, rho)
                }
                Op::Insert { rho } => self.scan.insert(rho).map(|id| self.live.push(id)),
                Op::Delete { pick } => {
                    let id = self
                        .live
                        .swap_remove((pick % self.live.len() as u64) as usize);
                    self.scan.delete(id)
                }
            }
            .map_err(|e| format!("churn write: {e}"))?;
        }
        Ok(())
    }
}

impl Workload for FleetPlanner {
    fn run_job(&mut self, idx: u64, rec: &mut Rec, stats: &mut Stats) -> Result<f64, String> {
        let params = self.params;
        let (ops, reads) = rec.untimed(|| self.inputs(idx));
        let mut ops_done = 0usize;

        for block in ops.chunks(CHECK_EVERY) {
            for burst in block.chunks(READ_EVERY) {
                rec.call("core.xstream", || self.apply(burst))?;
                let x = rec.call("core.xstream.query", || self.scan.x());
                ensure(x.is_finite() && x > 0.0, || format!("churn X = {x}"))?;
                ops_done += burst.len() + 1;
            }
            rec.untimed(|| {
                let rebuilt = x_measure_of_rhos(&params, &self.scan.to_rhos());
                let x = self.scan.x();
                ensure(rel_err(x, rebuilt) <= 1e-12, || {
                    format!("churn X {x} drifted from rebuild {rebuilt}")
                })
            })?;
        }
        stats.add("xstream.writes", ops.len() as f64);

        let profile = if idx.is_multiple_of(2) {
            &self.harmonic
        } else {
            &self.dup_runs
        };
        let (winner, _) = rec
            .call("core.selection", || {
                selection::best_k_subset_with_stats(&params, profile, SELECT_K)
            })
            .map_err(|e| format!("selection: {e}"))?;
        rec.untimed(|| {
            let fastest = selection::fastest_k(profile, SELECT_K).map_err(|e| e.to_string())?;
            let (xw, xf) = (
                x_measure_of_rhos(&params, winner.rhos()),
                x_measure_of_rhos(&params, fastest.rhos()),
            );
            ensure(xw >= xf * (1.0 - 1e-12), || {
                format!("B&B winner X {xw} below fastest-k X {xf}")
            })?;
            // The exact oracle costs ~0.3 s at k = 64: sample it.
            if idx.is_multiple_of(EXACT_EVERY) {
                exact_check(&params, winner.rhos(), xw, stats)?;
            }
            Ok::<(), String>(())
        })?;

        let rhos = rec.call("core.xstream.query", || self.scan.to_rhos());
        let tree = rec
            .call("core.hcompress.build", || SummaryTree::new(&params, &rhos))
            .map_err(|e| format!("summary tree: {e}"))?;
        let fleet = rec
            .call("core.hcompress.compress", || tree.compress(COMPRESS_TO))
            .map_err(|e| format!("compress: {e}"))?;
        rec.untimed(|| {
            let (xs, xt, xc) = (self.scan.x(), tree.x(), fleet.x());
            ensure(rel_err(xt, xs) <= 1e-9, || {
                format!("summary tree X {xt} vs churn X {xs}")
            })?;
            ensure(
                fleet.num_clusters() <= COMPRESS_TO
                    && fleet.n() == rhos.len()
                    && (xc - xt).abs() <= tree.x_error_bound() + 1e-9 * xt,
                || format!("compressed X {xc} vs tree X {xt} beyond its certificate"),
            )
        })?;

        let tree_xs = rec.call("core.hcompress.query", || {
            reads
                .iter()
                .map(|&c| self.big.x_of_fastest(c))
                .collect::<Result<Vec<f64>, _>>()
        });
        let tree_xs = tree_xs.map_err(|e| format!("x_of_fastest: {e}"))?;
        rec.untimed(|| {
            let ceiling = self.big_x * (1.0 + 1e-9);
            ensure(tree_xs.iter().all(|&x| x > 0.0 && x <= ceiling), || {
                "x_of_fastest outside (0, X(fleet)]".to_string()
            })
        })?;

        let initial = &rhos[..GREEDY_N];
        let steps = rec
            .call("core.speedup", || {
                greedy_multiplicative(&params, initial, PSI, 1)
            })
            .map_err(|e| format!("greedy: {e}"))?;
        rec.untimed(|| {
            let step = steps.first().ok_or("greedy returned no round")?;
            let mut sorted = step.speeds.clone();
            sorted.sort_by(|a, b| b.total_cmp(a));
            let scratch = x_measure_of_rhos(&params, &sorted);
            ensure(step.x.to_bits() == scratch.to_bits(), || {
                format!("greedy round X {} != from-scratch {scratch}", step.x)
            })
        })?;

        // Writes and `x()` reads, then the fleet snapshot, the selection,
        // the tree build, the compression, the tree reads and the greedy
        // round.
        Ok((ops_done + 4 + reads.len() + 1) as f64)
    }

    fn trace_jobs(&self) -> usize {
        200
    }
}
