//! `paper-repro`: what `hetero-cli` prints for params, table3, table4,
//! fig3, fig4, variance, threshold, minorize, protocol and gantt, in
//! process, strict mode, fan-out 1. The unit is profile-pair trials.

use std::time::Instant;

use hetero_core::xbatch;
use hetero_core::{NumericMode, Params, Profile};
use hetero_experiments::render::Table;
use hetero_experiments::{
    examples42, fig34, gantt, moments_ext, protocol_check, table3, table4, threshold, variance,
};
use hetero_par::seed;

use super::{
    check_rows, ensure, rel_err, replay_pairs, PairPlan, Stats, Workload, THRESHOLD_COMBOS,
};
use crate::rec::Rec;

const VARIANCE_TRIALS: usize = 200;
const THRESHOLD_TRIALS: usize = 150;
const THRESHOLD_SIZES: [usize; 4] = [4, 16, 64, 256];
/// Strict rows re-checked against the scalar evaluator per job.
const CHECKED_ROWS: usize = 16;
/// Trials per size of the `moments` run that probes the `Executor`.
const MOMENTS_TRIALS: usize = 48;

fn variance_sizes() -> Vec<usize> {
    (2..=10).map(|k| 1usize << k).collect()
}

pub struct PaperRepro {
    seed: u64,
    /// The seed-independent output, pinned by the warm-up job.
    reference: Option<String>,
    /// The last job's index, its variance + threshold seconds at one
    /// thread and their rendering, for the traced run's thread probe.
    last: Option<(u64, f64, String)>,
}

impl PaperRepro {
    pub fn new(seed: u64) -> Self {
        PaperRepro {
            seed,
            reference: None,
            last: None,
        }
    }

    fn seeds(&self, idx: u64) -> (u64, u64) {
        let s = seed::derive(self.seed, idx);
        (seed::derive(s, 1), seed::derive(s, 2))
    }

    /// Job `idx`'s variance and threshold configs at a thread budget.
    fn sweeps(
        &self,
        idx: u64,
        threads: usize,
    ) -> (variance::VarianceConfig, threshold::ThresholdConfig) {
        let (var_seed, thr_seed) = self.seeds(idx);
        (
            variance::VarianceConfig {
                sizes: variance_sizes(),
                trials: VARIANCE_TRIALS,
                seed: var_seed,
                generator: variance::PairGenerator::DiverseShapes,
                threads,
                numeric: NumericMode::Strict,
                ..variance::VarianceConfig::default()
            },
            threshold::ThresholdConfig {
                sizes: THRESHOLD_SIZES.to_vec(),
                trials_per_combo: THRESHOLD_TRIALS,
                seed: thr_seed,
                threads,
                numeric: NumericMode::Strict,
                ..threshold::ThresholdConfig::default()
            },
        )
    }
}

/// `hetero-cli params`: Tables 1–2.
fn params_table() -> Table {
    let mut t = Table::new(
        "Tables 1–2 — model parameters",
        &[
            "configuration",
            "τ",
            "π",
            "δ",
            "A = π+τ",
            "B = 1+(1+δ)π",
            "Aτδ/B²",
        ],
    );
    for (name, p) in [
        ("coarse tasks (1 s)", Params::paper_table1()),
        ("fine tasks (0.1 s)", Params::paper_table1_fine()),
        ("figures 3–4", Params::fig34()),
    ] {
        t.row(vec![
            name.to_string(),
            format!("{:e}", p.tau()),
            format!("{:e}", p.pi()),
            format!("{}", p.delta()),
            format!("{:e}", p.a()),
            format!("{:.6}", p.b()),
            format!("{:.3e}", p.theorem4_threshold()),
        ]);
    }
    t
}

impl Workload for PaperRepro {
    fn run_job(&mut self, idx: u64, rec: &mut Rec, stats: &mut Stats) -> Result<f64, String> {
        let params = Params::paper_table1();
        let (var_seed, _) = self.seeds(idx);
        let mut fixed = String::new();
        let render = |rec: &mut Rec, out: &mut String, f: &dyn Fn() -> String| {
            let s = rec.call("experiments.render", f);
            out.push_str(&s);
        };

        render(rec, &mut fixed, &|| params_table().to_ascii());
        let t3 = rec.call("experiments.table3", table3::run_paper);
        render(rec, &mut fixed, &|| t3.table().to_ascii());
        let t4 = rec.call("experiments.table4", table4::run_paper);
        render(rec, &mut fixed, &|| t4.table().to_ascii());
        let f3 = rec.call("experiments.fig34", || {
            fig34::run_paper_mode(NumericMode::Strict)
        });
        render(rec, &mut fixed, &|| f3.render_phase(&f3.phase1, 1.0));
        let f4 = rec.call("experiments.fig34", || {
            fig34::run_paper_mode(NumericMode::Strict)
        });
        render(rec, &mut fixed, &|| f4.render_phase(&f4.phase2, 1.0 / 16.0));

        let (vcfg, tcfg) = self.sweeps(idx, 1);
        let start = Instant::now();
        let var = rec.call("experiments.variance", || variance::run(&vcfg));
        let thr = rec.call("experiments.threshold", || threshold::run(&tcfg));
        let sweep_s = start.elapsed().as_secs_f64();
        let mut seeded = String::new();
        render(rec, &mut seeded, &|| var.table().to_ascii());
        render(rec, &mut seeded, &|| thr.table().to_ascii());

        let minor = rec.call("experiments.examples42", examples42::run_paper);
        render(rec, &mut fixed, &|| minor.table().to_ascii());
        let check = rec.call("experiments.protocol_check", protocol_check::run_paper);
        render(rec, &mut fixed, &|| {
            format!(
                "{}startup-order totals (Theorem 1.2, must agree): {:?}\nprotocol-invariant violations: {}\n",
                check.table().to_ascii(),
                check.order_totals,
                check.violations
            )
        });
        let fig12 = rec.call("experiments.gantt", || {
            let p = Params::paper_table1();
            let profile = Profile::new(vec![1.0, 0.5, 1.0 / 3.0]).map_err(|e| e.to_string())?;
            Ok::<_, String>((
                gantt::render_fig1(&p, 0.5, 100.0),
                gantt::render_fig2(&p, &profile, 100.0, 72),
            ))
        })?;
        render(rec, &mut fixed, &|| format!("{}\n{}", fig12.0, fig12.1));

        rec.untimed(|| {
            stats.add(
                "experiments.render.bytes",
                (fixed.len() + seeded.len()) as f64,
            );
            self.last = Some((idx, sweep_s, seeded));
            match &self.reference {
                None => self.reference = Some(fixed.clone()),
                Some(r) => ensure(*r == fixed, || {
                    format!("job {idx}: fixed paper output differs from the warm-up job's")
                })?,
            }
            ensure(check.violations == 0, || {
                format!("protocol check: {} violations", check.violations)
            })?;
            let first = check.order_totals.first().copied().unwrap_or(f64::NAN);
            ensure(
                check
                    .order_totals
                    .iter()
                    .all(|&t| rel_err(t, first) <= 1e-9),
                || format!("startup-order totals disagree: {:?}", check.order_totals),
            )?;
            for &(l, simulated, closed, _, _) in &check.rows {
                ensure(rel_err(simulated, closed) <= 1e-9, || {
                    format!("L = {l}: DES work {simulated} != closed form {closed}")
                })?;
            }
            for row in &var.rows {
                ensure(row.decided + row.ties == VARIANCE_TRIALS, || {
                    format!("variance n = {}: trials do not add up", row.n)
                })?;
            }
            let thr_total = THRESHOLD_TRIALS * THRESHOLD_SIZES.len() * THRESHOLD_COMBOS.len();
            ensure(thr.samples.len() <= thr_total, || {
                "threshold: more samples than trials".to_string()
            })?;
            // Re-judge a sample of this job's strict rows against the
            // scalar evaluator, rotating through the sizes.
            let sizes = variance_sizes();
            let n = [sizes[idx as usize % sizes.len()]];
            let plan = PairPlan {
                variance: (&n, VARIANCE_TRIALS, var_seed),
                threshold: None,
            };
            let mut result = Ok(());
            plan.generate(CHECKED_ROWS / 2, |batch| {
                let xs = xbatch::x_measures_mode(&params, &batch, NumericMode::Strict);
                if result.is_ok() {
                    result = check_rows(&params, &batch, &xs, CHECKED_ROWS, stats);
                }
            });
            result
        })?;
        Ok((VARIANCE_TRIALS * variance_sizes().len()
            + THRESHOLD_TRIALS * THRESHOLD_SIZES.len() * THRESHOLD_COMBOS.len()) as f64)
    }

    /// Splits the job's sweeps by layer, then probes the `par` layer: the
    /// same sweeps at the machine's thread budget through the `Pool`
    /// (their rendering must match the job's 1-thread one byte for byte),
    /// and a `moments` run through the `Executor` against its 1-thread
    /// rendering.
    fn replay(&mut self, idx: u64, rec: &mut Rec, stats: &mut Stats) -> Result<(), String> {
        let params = Params::paper_table1();
        let (var_seed, thr_seed) = self.seeds(idx);
        let sizes = variance_sizes();
        let plan = PairPlan {
            variance: (&sizes, VARIANCE_TRIALS, var_seed),
            threshold: Some((&THRESHOLD_SIZES, THRESHOLD_TRIALS, thr_seed)),
        };
        replay_pairs(&plan, &params, rec, stats)?;

        let Some((_, serial_s, serial)) = self.last.take().filter(|l| l.0 == idx) else {
            return Err(format!("replay of job {idx} without its job"));
        };
        let threads = hetero_par::default_threads();
        let (vcfg, tcfg) = self.sweeps(idx, threads);
        let start = Instant::now();
        let (var, thr) = rec.call("par.pool", || (variance::run(&vcfg), threshold::run(&tcfg)));
        stats.sample("par.speedup", serial_s / start.elapsed().as_secs_f64());
        let parallel = var.table().to_ascii() + &thr.table().to_ascii();
        ensure(parallel == serial, || {
            format!("job {idx}: sweeps at {threads} threads render differently from 1")
        })?;

        let moments = |threads| moments_ext::MomentsConfig {
            trials: MOMENTS_TRIALS,
            seed: seed::derive(var_seed, 3),
            threads,
            ..moments_ext::MomentsConfig::default()
        };
        let parallel = rec.call("par.executor", || moments_ext::run(&moments(threads)));
        let serial = moments_ext::run(&moments(1));
        ensure(
            parallel.table().to_ascii() == serial.table().to_ascii(),
            || format!("job {idx}: moments at {threads} threads render differently from 1"),
        )
    }

    fn trace_jobs(&self) -> usize {
        40
    }
}
