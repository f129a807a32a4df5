//! `hetero-perfbench` — the workspace's layered end-to-end benchmark.
//!
//! ```text
//! hetero-perfbench --workload <name> --seed <n> --seconds <s> --trace <0|1>
//! ```
//!
//! One process, one caller, a closed loop: the next job starts when the
//! previous one has returned and been checked. `--trace 0` measures the
//! end-to-end metrics for `--seconds`; `--trace 1` runs a fixed number of
//! jobs untraced and then the same jobs traced, and reports the
//! per-layer metrics. The last line of standard output is the result
//! object; the full record (units, sample counts, metric classes, host)
//! is written to `.perfbench_out/`. See README.md.

mod layers;
mod rec;
mod workloads;

use std::panic::{catch_unwind, AssertUnwindSafe};
use std::process::ExitCode;
use std::time::{Duration, Instant};

use hetero_obs::json::Value;

use rec::Rec;
use workloads::{Stats, Workload};

/// Set-up repetitions per untraced run; `setup_s` reports their median.
const SETUP_REPS: usize = 7;
/// Fewest jobs an end-to-end run times, so that p90 has ten samples
/// beyond it.
const MIN_JOBS: usize = 100;
/// Where the full result records and the traced spans go.
const OUT_DIR: &str = ".perfbench_out";

struct Args {
    workload: String,
    seed: u64,
    seconds: u64,
    trace: bool,
}

fn parse_args(args: &[String]) -> Result<Args, String> {
    let mut workload = None;
    let mut seed = None;
    let mut seconds = None;
    let mut trace = None;
    let mut it = args.iter();
    while let Some(a) = it.next() {
        let mut value = || it.next().ok_or(format!("{a} needs a value"));
        match a.as_str() {
            "--workload" => workload = Some(value()?.clone()),
            "--seed" => {
                let v = value()?;
                seed = Some(v.parse().map_err(|_| format!("bad --seed {v}"))?);
            }
            "--seconds" => {
                let v = value()?;
                let s: u64 = v.parse().map_err(|_| format!("bad --seconds {v}"))?;
                if s == 0 {
                    return Err("--seconds must be at least 1".into());
                }
                seconds = Some(s);
            }
            "--trace" => {
                trace = Some(match value()?.as_str() {
                    "0" => false,
                    "1" => true,
                    v => return Err(format!("bad --trace {v} (0 or 1)")),
                })
            }
            other => return Err(format!("unknown argument {other}")),
        }
    }
    let workload = workload.ok_or("--workload is required")?;
    if !workloads::NAMES.contains(&workload.as_str()) {
        return Err(format!(
            "unknown workload {workload} (one of {})",
            workloads::NAMES.join(", ")
        ));
    }
    Ok(Args {
        workload,
        seed: seed.ok_or("--seed is required")?,
        seconds: seconds.ok_or("--seconds is required")?,
        trace: trace.ok_or("--trace is required")?,
    })
}

/// The `q`-quantile of `xs` by linear interpolation (`xs` nonempty).
pub fn quantile(xs: &[f64], q: f64) -> f64 {
    let mut v = xs.to_vec();
    v.sort_by(f64::total_cmp);
    let pos = q * (v.len() - 1) as f64;
    let lo = pos.floor() as usize;
    let hi = pos.ceil() as usize;
    v[lo] + (v[hi] - v[lo]) * (pos - lo as f64)
}

/// One metric as reported: value, unit, sample count and class.
#[derive(Debug, Clone)]
pub struct Metric {
    pub name: &'static str,
    pub value: f64,
    pub unit: &'static str,
    pub samples: usize,
    pub deterministic: bool,
}

/// What one run produced.
pub struct Report {
    pub correct: bool,
    pub attempted: usize,
    pub failed: usize,
    pub metrics: Vec<Metric>,
    pub errors: Vec<String>,
}

/// Runs one job under `catch_unwind`; a panic, an `Err` or a failed
/// output check all count as a failed job.
fn run_one(
    w: &mut dyn Workload,
    idx: u64,
    rec: &mut Rec,
    stats: &mut Stats,
) -> (Result<f64, String>, Duration) {
    let (r, dur) = rec.job(|rec| catch_unwind(AssertUnwindSafe(|| w.run_job(idx, rec, stats))));
    let r = match r {
        Ok(r) => r,
        Err(p) => Err(format!(
            "job {idx} panicked: {}",
            p.downcast_ref::<String>()
                .map(String::as_str)
                .or_else(|| p.downcast_ref::<&str>().copied())
                .unwrap_or("(non-string payload)")
        )),
    };
    (r, dur)
}

/// Builds the workload and runs its untimed warm-up job; pushes the
/// time both took onto `times`.
fn setup(name: &str, seed: u64, times: &mut Vec<f64>) -> Result<Box<dyn Workload>, String> {
    let start = Instant::now();
    let mut w = workloads::build(name, seed)?;
    w.warm_up()?;
    times.push(start.elapsed().as_secs_f64());
    Ok(w)
}

fn ms(d: Duration) -> f64 {
    d.as_secs_f64() * 1e3
}

fn e2e_metric(name: &'static str, value: f64, unit: &'static str, samples: usize) -> Metric {
    Metric {
        name,
        value,
        unit,
        samples,
        deterministic: false,
    }
}

/// The untraced end-to-end run: jobs back to back for `seconds`, and at
/// least `min_jobs` of them.
pub fn run_untraced(
    name: &str,
    seed: u64,
    seconds: f64,
    min_jobs: usize,
) -> Result<Report, String> {
    let mut setup_times = Vec::with_capacity(SETUP_REPS);
    let mut w = setup(name, seed, &mut setup_times)?;
    let mut rec = Rec::new(false);
    let mut stats = Stats::default();
    let mut times = Vec::new();
    let mut units = 0.0;
    let mut errors = Vec::new();
    let mut idx = 0u64;
    let run = Duration::from_secs_f64(seconds);
    let start = Instant::now();
    while start.elapsed() < run || times.len() < min_jobs {
        // Set-up repeats at evenly spaced points of the run, so that its
        // median samples the whole run rather than its first moments.
        // One instance at a time, so peak memory is one workload's.
        let due = run.mul_f64(setup_times.len() as f64 / SETUP_REPS as f64);
        if setup_times.len() < SETUP_REPS && start.elapsed() >= due {
            drop(w);
            w = setup(name, seed, &mut setup_times)?;
        }
        let (r, dur) = run_one(w.as_mut(), idx, &mut rec, &mut stats);
        match r {
            Ok(u) => units += u,
            Err(e) => errors.push(e),
        }
        times.push(ms(dur));
        idx += 1;
    }
    while setup_times.len() < SETUP_REPS {
        drop(w);
        w = setup(name, seed, &mut setup_times)?;
    }
    let attempted = times.len();
    let failed = errors.len();
    let busy_s: f64 = times.iter().sum::<f64>() / 1e3;
    let metrics = vec![
        e2e_metric("setup_s", quantile(&setup_times, 0.5), "s", SETUP_REPS),
        e2e_metric("units_per_s", units / busy_s, "units/s", attempted),
        e2e_metric("job_p50_ms", quantile(&times, 0.5), "ms", attempted),
        e2e_metric("job_p90_ms", quantile(&times, 0.9), "ms", attempted),
        e2e_metric(
            "pass_ratio",
            (attempted - failed) as f64 / attempted as f64,
            "ratio",
            attempted,
        ),
        e2e_metric("peak_rss_mb", peak_rss_mb()?, "MiB", 1),
    ];
    Ok(Report {
        correct: failed == 0,
        attempted,
        failed,
        metrics,
        errors,
    })
}

/// The traced run: the workload's fixed job list (or the first `jobs`)
/// untraced, then the same jobs traced with the program's collector on;
/// per-layer metrics come from the traced pass.
pub fn run_traced(name: &str, seed: u64, jobs: Option<usize>) -> Result<(Report, Rec), String> {
    let mut w = setup(name, seed, &mut Vec::new())?;
    let jobs = jobs.unwrap_or_else(|| w.trace_jobs());
    let mut errors = Vec::new();

    let mut plain = Rec::new(false);
    let mut scratch = Stats::default();
    let mut untraced = Vec::with_capacity(jobs);
    for idx in 0..jobs as u64 {
        let (r, dur) = run_one(w.as_mut(), idx, &mut plain, &mut scratch);
        if let Err(e) = r {
            errors.push(e);
        }
        untraced.push(ms(dur));
    }

    let mut rec = Rec::new(true);
    let mut stats = Stats::default();
    // The program's telemetry of the jobs, and of their replays.
    let (mut obs, mut probe) = (layers::ObsTotals::default(), layers::ObsTotals::default());
    let mut traced = Vec::with_capacity(jobs);
    let mut job_ns = 0.0;
    for idx in 0..jobs as u64 {
        hetero_obs::reset();
        hetero_obs::enable();
        let (r, dur) = run_one(w.as_mut(), idx, &mut rec, &mut stats);
        obs.add(&hetero_obs::snapshot());
        hetero_obs::reset();
        let replayed = r.and_then(|_| w.replay(idx, &mut rec, &mut stats));
        hetero_obs::disable();
        probe.add(&hetero_obs::snapshot());
        if let Err(e) = replayed {
            errors.push(e);
        }
        traced.push(ms(dur));
        job_ns += dur.as_secs_f64() * 1e9;
    }
    let attempted = 2 * jobs;
    let failed = errors.len();
    let ctx = layers::TraceContext {
        jobs,
        untraced_p50_ms: quantile(&untraced, 0.5),
        traced_p50_ms: quantile(&traced, 0.5),
        job_ns,
        failed_ratio: failed as f64 / attempted as f64,
    };
    let metrics = layers::per_layer(&rec, &stats, &obs, &probe, &ctx);
    Ok((
        Report {
            correct: failed == 0,
            attempted,
            failed,
            metrics,
            errors,
        },
        rec,
    ))
}

/// Peak resident set size of this process (`VmHWM`), in MiB.
fn peak_rss_mb() -> Result<f64, String> {
    let status = std::fs::read_to_string("/proc/self/status")
        .map_err(|e| format!("reading /proc/self/status: {e}"))?;
    let kb: f64 = status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse().ok())
        .ok_or("no VmHWM line in /proc/self/status")?;
    Ok(kb / 1024.0)
}

/// The commit this checkout was made from, read from `.git` in the
/// working directory when there is one; `unknown` otherwise.
fn git_revision() -> String {
    let read = |p: &str| std::fs::read_to_string(p).ok();
    let Some(head) = read(".git/HEAD") else {
        return "unknown".into();
    };
    let head = head.trim();
    let Some(reference) = head.strip_prefix("ref: ") else {
        return head.to_string();
    };
    if let Some(rev) = read(&format!(".git/{reference}")) {
        return rev.trim().to_string();
    }
    read(".git/packed-refs")
        .and_then(|packed| {
            packed
                .lines()
                .find_map(|l| l.strip_suffix(reference).map(|rev| rev.trim().to_string()))
        })
        .unwrap_or_else(|| "unknown".into())
}

fn host_record() -> Value {
    let host = hetero_obs::HostContext::detect();
    let hostname = std::fs::read_to_string("/proc/sys/kernel/hostname")
        .map(|h| h.trim().to_string())
        .unwrap_or_else(|_| "unknown".into());
    Value::Obj(vec![
        ("hostname".into(), Value::Str(hostname)),
        (
            "available_parallelism".into(),
            Value::Num(host.logical_cores as f64),
        ),
        (
            "pool_workers".into(),
            Value::Num(hetero_par::Pool::global().threads() as f64),
        ),
        // Every driver config a job builds sets `threads` to 1; the
        // traced run's thread probe uses every core.
        ("job_threads".into(), Value::Num(1.0)),
        (
            "probe_threads".into(),
            Value::Num(hetero_par::default_threads() as f64),
        ),
        (
            "hetero_threads_env".into(),
            host.hetero_threads_env.map_or(Value::Null, Value::Str),
        ),
        ("target_cpu".into(), Value::Str(host.target_cpu)),
        ("git_revision".into(), Value::Str(git_revision())),
        (
            "rustflags".into(),
            Value::Str(env!("PERFBENCH_RUSTFLAGS").into()),
        ),
        (
            "profile".into(),
            Value::Str(env!("PERFBENCH_PROFILE").into()),
        ),
    ])
}

/// The full record: one JSON object whose numeric leaves
/// `hetero-cli obsdiff` loads.
fn record(args: &Args, report: &Report) -> String {
    let metrics = report
        .metrics
        .iter()
        .map(|m| {
            (
                m.name.to_string(),
                Value::Obj(vec![
                    ("value".into(), Value::Num(m.value)),
                    ("unit".into(), Value::Str(m.unit.into())),
                    ("samples".into(), Value::Num(m.samples as f64)),
                    (
                        "class".into(),
                        Value::Str(
                            if m.deterministic {
                                "deterministic"
                            } else {
                                "scheduling"
                            }
                            .into(),
                        ),
                    ),
                ]),
            )
        })
        .collect();
    Value::Obj(vec![
        ("workload".into(), Value::Str(args.workload.clone())),
        ("seed".into(), Value::Num(args.seed as f64)),
        ("seconds".into(), Value::Num(args.seconds as f64)),
        ("trace".into(), Value::Num(u8::from(args.trace).into())),
        ("correct".into(), Value::Bool(report.correct)),
        ("attempted".into(), Value::Num(report.attempted as f64)),
        ("failed".into(), Value::Num(report.failed as f64)),
        ("host".into(), host_record()),
        ("metrics".into(), Value::Obj(metrics)),
        (
            "errors".into(),
            Value::Arr(report.errors.iter().cloned().map(Value::Str).collect()),
        ),
    ])
    .render()
}

/// The result line: exactly `correct`, `attempted`, `failed`, `metrics`.
fn result_line(report: &Report) -> String {
    let metrics = report
        .metrics
        .iter()
        .map(|m| {
            (
                m.name.to_string(),
                Value::Obj(vec![
                    ("value".into(), Value::Num(m.value)),
                    ("unit".into(), Value::Str(m.unit.into())),
                ]),
            )
        })
        .collect();
    Value::Obj(vec![
        ("correct".into(), Value::Bool(report.correct)),
        ("attempted".into(), Value::Num(report.attempted as f64)),
        ("failed".into(), Value::Num(report.failed as f64)),
        ("metrics".into(), Value::Obj(metrics)),
    ])
    .render()
}

fn write_out(file: &str, text: &str) -> Result<(), String> {
    std::fs::create_dir_all(OUT_DIR).map_err(|e| format!("creating {OUT_DIR}: {e}"))?;
    let path = format!("{OUT_DIR}/{file}");
    std::fs::write(&path, text).map_err(|e| format!("writing {path}: {e}"))
}

fn run(args: &Args) -> Result<Report, String> {
    let stem = format!(
        "{}-seed{}-trace{}",
        args.workload,
        args.seed,
        u8::from(args.trace)
    );
    let report = if args.trace {
        let (report, rec) = run_traced(&args.workload, args.seed, None)?;
        write_out(&format!("{stem}.spans.jsonl"), &rec.spans_jsonl())?;
        report
    } else {
        run_untraced(&args.workload, args.seed, args.seconds as f64, MIN_JOBS)?
    };
    write_out(&format!("{stem}.json"), &(record(args, &report) + "\n"))?;
    Ok(report)
}

fn main() -> ExitCode {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let args = match parse_args(&argv) {
        Ok(a) => a,
        Err(e) => {
            eprintln!("error: {e}");
            eprintln!(
                "usage: hetero-perfbench --workload <{}> --seed N --seconds S --trace 0|1",
                workloads::NAMES.join("|")
            );
            return ExitCode::from(2);
        }
    };
    match run(&args) {
        Ok(report) => {
            for e in report.errors.iter().take(5) {
                eprintln!("failed job: {e}");
            }
            for m in &report.metrics {
                eprintln!(
                    "{:<40} {:>16.6} {:<8} n={}",
                    m.name, m.value, m.unit, m.samples
                );
            }
            println!("{}", result_line(&report));
            ExitCode::SUCCESS
        }
        Err(e) => {
            eprintln!("error: {e}");
            ExitCode::FAILURE
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The program's collector is process-wide: runs must not overlap.
    static SERIAL: std::sync::Mutex<()> = std::sync::Mutex::new(());

    fn serial() -> std::sync::MutexGuard<'static, ()> {
        SERIAL.lock().unwrap_or_else(|p| p.into_inner())
    }

    fn names(list: &Value) -> Vec<(String, String)> {
        match list {
            Value::Arr(items) => items
                .iter()
                .map(|m| {
                    let field = |k| m.get(k).and_then(Value::as_str).unwrap_or("").to_string();
                    (field("name"), field("unit"))
                })
                .collect(),
            _ => Vec::new(),
        }
    }

    fn benchmark_json() -> Value {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
        let text = std::fs::read_to_string(path).expect("BENCHMARK.json at the repository root");
        hetero_obs::json::parse(&text).expect("BENCHMARK.json parses")
    }

    fn reported(report: &Report) -> Vec<(String, String)> {
        report
            .metrics
            .iter()
            .map(|m| (m.name.to_string(), m.unit.to_string()))
            .collect()
    }

    /// Two same-seed traced runs report every deterministic metric
    /// exactly, and both pass their output checks.
    #[test]
    fn deterministic_metrics_repeat_exactly() {
        let _guard = serial();
        for name in workloads::NAMES {
            let (a, _) = run_traced(name, 5, Some(2)).expect("first run");
            let (b, _) = run_traced(name, 5, Some(2)).expect("second run");
            assert!(
                a.correct && b.correct,
                "{name}: {:?} {:?}",
                a.errors,
                b.errors
            );
            let det = |r: &Report| -> Vec<(&str, u64)> {
                r.metrics
                    .iter()
                    .filter(|m| m.deterministic)
                    .map(|m| (m.name, m.value.to_bits()))
                    .collect()
            };
            assert!(!det(&a).is_empty());
            assert_eq!(det(&a), det(&b), "{name}");
        }
    }

    /// Both runs report exactly the metrics BENCHMARK.json declares, with
    /// the declared units.
    #[test]
    fn reported_metrics_match_benchmark_json() {
        let _guard = serial();
        let bench = benchmark_json();
        let e2e = names(bench.get("end_to_end").expect("end_to_end"));
        let layers = names(bench.get("per_layer").expect("per_layer"));
        let name = "fault-sim";
        let plain = run_untraced(name, 3, 0.0, 2).expect("untraced run");
        assert!(plain.correct, "{:?}", plain.errors);
        assert_eq!(reported(&plain), e2e);
        let (traced, _) = run_traced(name, 3, Some(2)).expect("traced run");
        assert!(traced.correct, "{:?}", traced.errors);
        assert_eq!(reported(&traced), layers);
    }

    #[test]
    fn arguments_are_checked() {
        let args = |s: &str| s.split_whitespace().map(String::from).collect::<Vec<_>>();
        let ok = parse_args(&args(
            "--workload fault-sim --seed 3 --seconds 10 --trace 1",
        ))
        .expect("valid arguments");
        assert_eq!((ok.seed, ok.seconds, ok.trace), (3, 10, true));
        for bad in [
            "--workload nope --seed 3 --seconds 10 --trace 0",
            "--workload fault-sim --seed x --seconds 10 --trace 0",
            "--workload fault-sim --seed 3 --seconds 0 --trace 0",
            "--workload fault-sim --seed 3 --seconds 10 --trace 2",
            "--workload fault-sim --seed 3 --seconds 10",
            "--workload fault-sim --seed 3 --seconds 10 --trace 0 --extra",
        ] {
            assert!(parse_args(&args(bad)).is_err(), "{bad}");
        }
    }

    #[test]
    fn quantile_interpolates() {
        assert_eq!(quantile(&[3.0, 1.0, 2.0], 0.5), 2.0);
        assert_eq!(quantile(&[1.0, 2.0], 0.5), 1.5);
        assert_eq!(quantile(&[4.0], 0.9), 4.0);
    }
}
