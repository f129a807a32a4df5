//! The three workloads. Each builds its inputs from the workload seed and
//! the job index only, calls the layers through [`Rec::call`], and checks
//! every job's outputs outside the timed window.

mod fault_sim;
mod fleet_planner;
mod paper_repro;

use std::collections::BTreeMap;

use hetero_clustergen::{rng_from_seed, EqualMeanPairGen, GenConfig, PairBatcher, Shape};
use hetero_core::xbatch::ProfileBatch;
use hetero_core::{fastnum, xmeasure, NumericMode, Params};
use hetero_exact::Ratio;
use hetero_par::seed;
use hetero_symfunc::exact_model::{x_exact, ExactParams};
use rand::Rng;

use crate::rec::Rec;

pub const NAMES: [&str; 3] = ["paper-repro", "fault-sim", "fleet-planner"];

/// Job index of the warm-up job run during set-up; never timed.
pub const WARM_UP: u64 = u64::MAX;

pub trait Workload {
    /// One job; returns the units of work it completed.
    fn run_job(&mut self, idx: u64, rec: &mut Rec, stats: &mut Stats) -> Result<f64, String>;

    /// Traced runs only, after a traced job: re-runs the job's inputs
    /// through single layers to split an opaque driver call, or at another
    /// thread budget.
    fn replay(&mut self, _idx: u64, _rec: &mut Rec, _stats: &mut Stats) -> Result<(), String> {
        Ok(())
    }

    /// Jobs a traced run measures (fixed, so that deterministic
    /// counters repeat exactly between same-seed runs).
    fn trace_jobs(&self) -> usize;

    /// The untimed job that ends set-up (fills caches, pins reference
    /// outputs).
    fn warm_up(&mut self) -> Result<(), String> {
        self.run_job(WARM_UP, &mut Rec::new(false), &mut Stats::default())
            .map(|_| ())
    }
}

pub fn build(name: &str, seed: u64) -> Result<Box<dyn Workload>, String> {
    // The pool is process-wide; spawning it is part of set-up.
    let _ = hetero_par::Pool::global();
    Ok(match name {
        "paper-repro" => Box::new(paper_repro::PaperRepro::new(seed)),
        "fault-sim" => Box::new(fault_sim::FaultSim::new(seed)),
        "fleet-planner" => Box::new(fleet_planner::FleetPlanner::new(seed)?),
        other => return Err(format!("unknown workload {other}")),
    })
}

/// Values the workloads measure besides spans and program counters:
/// sums, maxima and samples, keyed by metric name.
#[derive(Debug, Default)]
pub struct Stats {
    pub sums: BTreeMap<&'static str, f64>,
    pub maxes: BTreeMap<&'static str, f64>,
    pub samples: BTreeMap<&'static str, Vec<f64>>,
}

impl Stats {
    pub fn add(&mut self, name: &'static str, v: f64) {
        *self.sums.entry(name).or_insert(0.0) += v;
    }

    pub fn max(&mut self, name: &'static str, v: f64) {
        let slot = self.maxes.entry(name).or_insert(0.0);
        *slot = slot.max(v);
    }

    pub fn sample(&mut self, name: &'static str, v: f64) {
        self.samples.entry(name).or_default().push(v);
    }

    pub fn sum(&self, name: &str) -> f64 {
        self.sums.get(name).copied().unwrap_or(0.0)
    }
}

/// Fails with `what` unless `ok`.
pub fn ensure(ok: bool, what: impl FnOnce() -> String) -> Result<(), String> {
    if ok {
        Ok(())
    } else {
        Err(what())
    }
}

pub fn rel_err(a: f64, b: f64) -> f64 {
    (a - b).abs() / a.abs().max(b.abs()).max(f64::MIN_POSITIVE)
}

/// Checks `x` against the exact `Ratio` value of `X(rhos)` within
/// `x_budget_rcp`, the loosest certified budget (strict evaluation and
/// both fast kernels stay inside it). Records the check and its relative
/// error.
pub fn exact_check(params: &Params, rhos: &[f64], x: f64, stats: &mut Stats) -> Result<(), String> {
    let ep = ExactParams::from_params(params);
    let exact: Vec<Ratio> = rhos
        .iter()
        .map(|&r| Ratio::from_f64(r).ok_or_else(|| format!("non-finite rho {r}")))
        .collect::<Result<_, _>>()?;
    let want = x_exact(&ep, &exact).to_f64();
    let err = rel_err(x, want);
    stats.add("exact.checks", 1.0);
    stats.max("exact.max_rel_err", err);
    let budget = fastnum::x_budget_rcp(rhos.len());
    ensure(err <= budget, || {
        format!(
            "X of {} values is {x}, exact {want}: rel err {err:e} > budget {budget:e}",
            rhos.len()
        )
    })
}

/// Largest profile the exact oracle checks (its rationals grow with n).
const EXACT_MAX_N: usize = 16;

/// The pair generator of the variance sweep's `DiverseShapes` mode.
const VARIANCE_SHAPES: [Shape; 3] = [Shape::Uniform, Shape::Bimodal, Shape::Concentrated];
/// The shape combinations of the threshold search, in its order.
pub const THRESHOLD_COMBOS: [(Shape, Shape); 4] = [
    (Shape::Uniform, Shape::Uniform),
    (Shape::Concentrated, Shape::Uniform),
    (Shape::Uniform, Shape::Bimodal),
    (Shape::Concentrated, Shape::Bimodal),
];

/// The equal-mean pairs a variance sweep and, optionally, a threshold
/// search generate, each given as (sizes, trials per cell, root seed):
/// one batch per size (and shape combination), drawn with the drivers'
/// seed derivation.
pub struct PairPlan<'a> {
    pub variance: (&'a [usize], usize, u64),
    pub threshold: Option<(&'a [usize], usize, u64)>,
}

impl PairPlan<'_> {
    /// Calls `f` with each batch, holding the first `limit` trials of
    /// its cell.
    pub fn generate(&self, limit: usize, mut f: impl FnMut(ProfileBatch)) {
        let mut batcher = PairBatcher::new();
        let (sizes, trials, root) = self.variance;
        for &n in sizes {
            let size_seed = seed::derive(root, n as u64);
            let trials = trials.min(limit);
            let mut batch = ProfileBatch::with_capacity(2 * trials, 2 * n * trials);
            for t in 0..trials {
                let mut rng = rng_from_seed(seed::derive(size_seed, t as u64));
                let s1 = VARIANCE_SHAPES[rng.random_range(0..VARIANCE_SHAPES.len())];
                let s2 = VARIANCE_SHAPES[rng.random_range(0..VARIANCE_SHAPES.len())];
                let gen = EqualMeanPairGen::new(GenConfig::new(n), s1, s2);
                let _ = batcher.sample_into(&gen, &mut rng, &mut batch);
            }
            f(batch);
        }
        let Some((sizes, trials, root)) = self.threshold else {
            return;
        };
        for &n in sizes {
            for (combo, &(s1, s2)) in THRESHOLD_COMBOS.iter().enumerate() {
                let combo_seed = seed::derive(root, (n as u64) << 8 | combo as u64);
                let gen = EqualMeanPairGen::new(GenConfig::new(n), s1, s2);
                let trials = trials.min(limit);
                let mut batch = ProfileBatch::with_capacity(2 * trials, 2 * n * trials);
                for t in 0..trials {
                    let mut rng = rng_from_seed(seed::derive(combo_seed, t as u64));
                    let _ = batcher.sample_into(&gen, &mut rng, &mut batch);
                }
                f(batch);
            }
        }
    }
}

/// Replays pair batches through the single layers the sweep drivers
/// hide: generation (`clustergen`), the batched kernel in strict
/// (`core.xbatch`) and fast (`core.fastnum`) mode, and the scalar
/// evaluator (`core.xmeasure`). Strict rows must equal the scalar ones
/// bit for bit; fast rows must stay within their certified budget of
/// strict and, on small profiles, of the exact oracle.
pub fn replay_pairs(
    plan: &PairPlan<'_>,
    params: &Params,
    rec: &mut Rec,
    stats: &mut Stats,
) -> Result<(), String> {
    let mut batches = Vec::new();
    rec.call("clustergen", || {
        plan.generate(usize::MAX, |b| batches.push(b))
    });
    let values: usize = batches.iter().map(ProfileBatch::values).sum();
    stats.add("replay.values", values as f64);
    let mut out = Vec::new();
    for batch in &batches {
        rec.call("core.xbatch", || {
            hetero_core::xbatch::x_measures_into_mode(params, batch, NumericMode::Strict, &mut out)
        });
        let strict = std::mem::take(&mut out);
        rec.call("core.fastnum", || {
            hetero_core::xbatch::x_measures_into_mode(params, batch, NumericMode::Fast, &mut out)
        });
        let scalar: Vec<f64> = rec.call("core.xmeasure", || {
            (0..batch.len())
                .map(|i| xmeasure::x_measure_of_rhos(params, batch.rhos_of(i)))
                .collect()
        });
        for (i, (&s, &x)) in strict.iter().zip(&scalar).enumerate() {
            ensure(s.to_bits() == x.to_bits(), || {
                format!("replay row {i}: strict batch {s} != scalar {x}")
            })?;
        }
        for (i, (&f, &x)) in out.iter().zip(&scalar).enumerate() {
            let n = batch.rhos_of(i).len();
            ensure(rel_err(f, x) <= 2.0 * fastnum::x_budget_rcp(n), || {
                format!("replay row {i}: fast {f} vs strict {x} beyond budget")
            })?;
        }
        if let Some(&f) = out.first() {
            if batch.rhos_of(0).len() <= EXACT_MAX_N {
                exact_check(params, batch.rhos_of(0), f, stats)?;
            }
        }
    }
    Ok(())
}

/// Strict batched rows must be bit-identical to the scalar evaluator:
/// checks the first `rows` rows of `batch` against `xs`, plus one
/// exact-oracle check on the first row when it is small.
pub fn check_rows(
    params: &Params,
    batch: &ProfileBatch,
    xs: &[f64],
    rows: usize,
    stats: &mut Stats,
) -> Result<(), String> {
    ensure(xs.len() == batch.len(), || {
        format!("{} X values for {} rows", xs.len(), batch.len())
    })?;
    for (i, &x) in xs.iter().enumerate().take(rows) {
        let rhos = batch.rhos_of(i);
        let want = xmeasure::x_measure_of_rhos(params, rhos);
        ensure(x.to_bits() == want.to_bits(), || {
            format!("strict row {i} (n = {}): {x} != scalar {want}", rhos.len())
        })?;
    }
    if let Some(&x) = xs.first() {
        if batch.rhos_of(0).len() <= EXACT_MAX_N {
            exact_check(params, batch.rhos_of(0), x, stats)?;
        }
    }
    Ok(())
}
