//! End-to-end tests of `faults --plan FILE` against the real binary:
//! the replay of a pinned JSON fault plan on the 8-worker harmonic
//! cluster.

use std::path::PathBuf;
use std::process::{Command, Output};

use hetero_faults::{FaultConfig, FaultPlan};

fn bin() -> &'static str {
    env!("CARGO_BIN_EXE_hetero-cli")
}

/// Writes `json` to a per-process temp file and replays it.
fn replay(name: &str, json: &str) -> Output {
    let mut path = std::env::temp_dir();
    path.push(format!(
        "hetero-faults-plan-{}-{name}.json",
        std::process::id()
    ));
    std::fs::write(&path, json).unwrap();
    let out = Command::new(bin())
        .args(["faults", "--plan", path.to_str().unwrap()])
        .output()
        .expect("spawn CLI");
    let _ = std::fs::remove_file(PathBuf::from(&path));
    out
}

/// The `fraction %` cell of one family's row in the replay table.
fn fraction(stdout: &str, family: &str) -> f64 {
    let row = stdout
        .lines()
        .find(|l| l.split('|').nth(1).map(str::trim) == Some(family))
        .unwrap_or_else(|| panic!("no {family} row in:\n{stdout}"));
    row.split('|').nth(3).unwrap().trim().parse().unwrap()
}

#[test]
fn empty_plan_delivers_work_in_every_family() {
    let out = replay("empty", r#"{"faults":[]}"#);
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert!(out.status.success(), "{stdout}");
    assert_eq!(fraction(&stdout, "oblivious"), 100.0);
    // The adaptive family plans to L/(1 + margin); before the hedge was
    // applied without a detected fault, it skipped every send.
    let adaptive = fraction(&stdout, "adaptive");
    assert!(adaptive > 0.0, "{stdout}");
    assert_eq!(adaptive, fraction(&stdout, "exchange"), "{stdout}");
}

#[test]
fn out_of_range_worker_is_an_error_naming_the_spec() {
    let json = r#"{"faults":[{"kind":"slowdown","worker":2,"factor":2,"from":0,"until":10},{"kind":"crash","worker":9,"at":1}]}"#;
    // The document itself is a valid plan; only the replay rejects it.
    assert!(FaultPlan::from_json(json).is_ok());
    let out = replay("range", json);
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(!out.status.success(), "worker 9 must not replay");
    assert!(stderr.contains("spec 1"), "{stderr}");
    assert!(stderr.contains("worker 9"), "{stderr}");
    assert!(out.stdout.is_empty(), "no table for a rejected plan");
}

#[test]
fn sampled_plan_round_trips_through_json() {
    let cfg = FaultConfig {
        crash_p: 0.3,
        straggler_count: 2,
        straggler_factor: 3.0,
        jitter_p: 1.0,
        jitter_factor: 2.0,
        loss_p: 0.3,
        loss_max: 2,
    };
    let plan = FaultPlan::sample(&cfg, 8, 600.0, 7).unwrap();
    assert!(plan.specs().len() >= 3, "a non-trivial plan: {plan:?}");
    let json = plan.to_json();
    assert_eq!(FaultPlan::from_json(&json).unwrap(), plan);
    let out = replay("sampled", &json);
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert!(
        out.status.success(),
        "{stdout}{}",
        String::from_utf8_lossy(&out.stderr)
    );
    assert!(
        stdout.contains(&format!("{} specs", plan.specs().len())),
        "{stdout}"
    );
    // The replayed plan is the sampled one, spec for spec.
    assert!(
        stdout.contains(&format!("plan fingerprint: {:#018x}", plan.fingerprint())),
        "{stdout}"
    );
}
