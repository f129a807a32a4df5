//! Per-layer metrics of a traced run: the benchmark's own layer spans,
//! the program's counters, gauges and spans (collected per job by
//! `hetero_obs`), and the values the workloads measured themselves.
//!
//! Counts are means per traced job. A metric is *deterministic* when two
//! runs with the same seed must report it exactly; every other metric
//! (every `*_s` value, rates, pool wake-ups and queue depths) depends on
//! scheduling.

use std::collections::BTreeMap;

use hetero_obs::Snapshot;

use crate::rec::Rec;
use crate::workloads::Stats;
use crate::{quantile, Metric};

/// The program's telemetry summed over the traced jobs.
#[derive(Debug, Default)]
pub struct ObsTotals {
    counters: BTreeMap<String, u64>,
    /// Per-job values of the high-water gauges.
    gauges: BTreeMap<&'static str, Vec<f64>>,
    span_s: BTreeMap<String, f64>,
    spans: usize,
}

const GAUGES: [&str; 2] = ["sim.queue_high_water", "par.pool.queue_depth"];

impl ObsTotals {
    /// Folds in one job's snapshot (the collector is reset per job).
    pub fn add(&mut self, snap: &Snapshot) {
        for (name, v) in &snap.counters {
            *self.counters.entry(name.clone()).or_insert(0) += v;
        }
        for g in GAUGES {
            self.gauges.entry(g).or_default().push(snap.gauge(g) as f64);
        }
        for s in &snap.spans {
            *self.span_s.entry(s.name.clone()).or_insert(0.0) += s.dur_us * 1e-6;
        }
        self.spans += snap.spans.len();
    }

    fn counter(&self, name: &str) -> f64 {
        self.counters.get(name).copied().unwrap_or(0) as f64
    }
}

/// Run-level facts the per-layer metrics need.
pub struct TraceContext {
    pub jobs: usize,
    pub untraced_p50_ms: f64,
    pub traced_p50_ms: f64,
    /// Timed nanoseconds summed over the traced jobs.
    pub job_ns: f64,
    pub failed_ratio: f64,
}

fn ratio(num: f64, den: f64) -> f64 {
    if den > 0.0 {
        num / den
    } else {
        0.0
    }
}

/// Every per-layer metric, in a fixed order. `obs` holds the jobs'
/// telemetry and `probe` their replays'; the `par` metrics come from the
/// replays' thread probe.
pub fn per_layer(
    rec: &Rec,
    stats: &Stats,
    obs: &ObsTotals,
    probe: &ObsTotals,
    ctx: &TraceContext,
) -> Vec<Metric> {
    let jobs = ctx.jobs as f64;
    let busy = rec.busy_by_layer();
    let busy_total = |name: &str| busy.get(name).copied().unwrap_or(0.0);
    let mut out = Vec::new();
    let mut det = |name: &'static str, value: f64, unit: &'static str| {
        out.push(Metric {
            name,
            value,
            unit,
            samples: ctx.jobs,
            deterministic: true,
        })
    };
    let per_job = |name: &str| obs.counter(name) / jobs;

    // core kernels: xbatch, fastnum, xmeasure (values from the replay).
    let eval = obs.counter("xbatch.eval");
    let ragged = obs.counter("xbatch.ragged_fallback");
    let values = stats.sum("replay.values");
    det("xbatch.eval", eval / jobs, "count");
    det("xbatch.ragged_fallback", ragged / jobs, "count");
    det("xbatch.ragged_ratio", ratio(ragged, eval), "ratio");
    det("core.xbatch.values", values / jobs, "count");
    // The other layers' deterministic counters.
    det(
        "experiments.render.bytes",
        stats.sum("experiments.render.bytes") / jobs,
        "count",
    );
    det("sim.events", per_job("sim.events"), "count");
    let high_water = obs.gauges.get("sim.queue_high_water");
    det(
        "sim.queue_high_water",
        high_water.map_or(0.0, |v| v.iter().copied().fold(0.0, f64::max)),
        "count",
    );
    for name in [
        "faults.injected",
        "faults.replans",
        "protocol.exchange.transfers",
    ] {
        det(name, per_job(name), "count");
    }
    let decodes = obs.counter("protocol.coded.decodes");
    let decode_failures = obs.counter("protocol.coded.decode_failures");
    det(
        "protocol.coded.decode_failure_ratio",
        ratio(decode_failures, decodes + decode_failures),
        "ratio",
    );
    for name in [
        "xscan.insert",
        "xscan.delete",
        "xscan.replace",
        "xengine.replace",
        "xengine.commit",
        "xengine.rebuild",
    ] {
        det(name, per_job(name), "count");
    }
    let visited = obs.counter("select.bnb.nodes_visited");
    let pruned = obs.counter("select.bnb.nodes_pruned");
    det("select.bnb.nodes_visited", visited / jobs, "count");
    det("select.bnb.nodes_pruned", pruned / jobs, "count");
    det(
        "select.bnb.pruned_ratio",
        ratio(pruned, visited + pruned),
        "ratio",
    );
    det(
        "par.pool.jobs",
        probe.counter("par.pool.jobs") / jobs,
        "count",
    );
    let trials: f64 = obs
        .counters
        .iter()
        .filter(|(k, _)| k.starts_with("trials."))
        .map(|(_, &v)| v as f64)
        .sum();
    det("trials.total", trials / jobs, "count");
    det(
        "obs.spans",
        (rec.spans.len() + obs.spans) as f64 / jobs,
        "count",
    );
    det("exact.checks", stats.sum("exact.checks") / jobs, "count");
    det(
        "exact.max_rel_err",
        stats.maxes.get("exact.max_rel_err").copied().unwrap_or(0.0),
        "ratio",
    );
    det("failed_ratio", ctx.failed_ratio, "ratio");

    let mut sched = |name: &'static str, value: f64, unit: &'static str| {
        out.push(Metric {
            name,
            value,
            unit,
            samples: ctx.jobs,
            deterministic: false,
        })
    };
    let busy_s = |name: &str| busy_total(name) / jobs;
    sched(
        "core.xbatch.ns_per_value",
        ratio(busy_total("core.xbatch") * 1e9, values),
        "ns",
    );
    sched(
        "core.fastnum.ns_per_value",
        ratio(busy_total("core.fastnum") * 1e9, values),
        "ns",
    );
    sched(
        "core.xmeasure.ns_per_value",
        ratio(busy_total("core.xmeasure") * 1e9, values),
        "ns",
    );
    sched("clustergen.busy_s", busy_s("clustergen"), "s");
    sched(
        "clustergen.ns_per_value",
        ratio(busy_total("clustergen") * 1e9, values),
        "ns",
    );
    // `<span>.busy_s` for every driver span and the render span.
    for name in [
        "experiments.table3.busy_s",
        "experiments.table4.busy_s",
        "experiments.fig34.busy_s",
        "experiments.variance.busy_s",
        "experiments.threshold.busy_s",
        "experiments.examples42.busy_s",
        "experiments.protocol_check.busy_s",
        "experiments.gantt.busy_s",
        "experiments.render.busy_s",
    ] {
        sched(name, busy_s(name.trim_end_matches(".busy_s")), "s");
    }
    // The executor spans; `protocol.alloc` plans without simulating.
    let des_s: f64 = ["exec", "oblivious", "adaptive", "exchange", "coded"]
        .iter()
        .map(|p| busy_total(&format!("protocol.{p}")))
        .sum();
    sched(
        "sim.events_per_s",
        ratio(obs.counter("sim.events"), des_s),
        "1/s",
    );
    for name in [
        "protocol.alloc.busy_s",
        "protocol.exec.busy_s",
        "protocol.oblivious.busy_s",
        "protocol.adaptive.busy_s",
        "protocol.exchange.busy_s",
        "protocol.coded.busy_s",
        "faults.sample.busy_s",
    ] {
        sched(name, busy_s(name.trim_end_matches(".busy_s")), "s");
    }
    let program_s = |name: &str| obs.span_s.get(name).copied().unwrap_or(0.0) / jobs;
    sched("faults.replan.total_s", program_s("faults.replan"), "s");
    sched(
        "core.xstream.ns_per_op",
        ratio(
            busy_total("core.xstream") * 1e9,
            stats.sum("xstream.writes"),
        ),
        "ns",
    );
    sched(
        "core.xstream.query.busy_s",
        busy_s("core.xstream.query"),
        "s",
    );
    sched("core.speedup.busy_s", busy_s("core.speedup"), "s");
    sched("core.selection.busy_s", busy_s("core.selection"), "s");
    sched(
        "core.hcompress.build.busy_s",
        busy_s("core.hcompress.build"),
        "s",
    );
    sched(
        "core.hcompress.compress.busy_s",
        busy_s("core.hcompress.compress"),
        "s",
    );
    sched(
        "core.hcompress.query.busy_s",
        busy_s("core.hcompress.query"),
        "s",
    );
    sched(
        "par.pool.map.busy_s",
        probe.span_s.get("par.pool.map").copied().unwrap_or(0.0) / jobs,
        "s",
    );
    sched(
        "par.pool.park_wakes",
        probe.counter("par.pool.park_wakes") / jobs,
        "count",
    );
    sched(
        "par.pool.queue_depth.p50",
        probe
            .gauges
            .get("par.pool.queue_depth")
            .map_or(0.0, |v| quantile(v, 0.5)),
        "count",
    );
    sched("par.executor.busy_s", busy_s("par.executor"), "s");
    sched(
        "par.speedup",
        stats
            .samples
            .get("par.speedup")
            .map_or(0.0, |v| quantile(v, 0.5)),
        "ratio",
    );
    sched(
        "obs.overhead_ratio",
        ratio(ctx.traced_p50_ms, ctx.untraced_p50_ms),
        "ratio",
    );
    let covered_ns: f64 = rec
        .spans
        .iter()
        .filter(|s| s.parent != 0)
        .map(|s| (s.end_ns - s.start_ns) as f64)
        .sum();
    sched("obs.span_coverage", ratio(covered_ns, ctx.job_ns), "ratio");
    out
}
