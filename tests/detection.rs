//! Golden record of what boundary-time failure detection does.
//!
//! The adaptive and exchange families learn about faults only at send
//! boundaries: a crash once `t_c ≤ now`, a straggler once one of its
//! slowdown windows is active at `now`. What they learn resizes, skips
//! and trades packages, so every position's result arrival and final
//! work size depends on exactly which boundary saw which fault.
//!
//! Four pinned plans on a harmonic n = 12 cluster (so computer numbers
//! reach C10–C12), at margin 0 so the hedge never resizes a package on
//! its own:
//!
//! * `late-window` — a straggler window that opens after the first send;
//! * `closing-window` — a window active at the first boundary that
//!   closes before the third, and one that opens and closes between the
//!   first two boundaries (never seen by any boundary);
//! * `late-crash` — a crash after t = 0 of a worker not yet served, and
//!   a mid-compute crash of a worker already served;
//! * `topup-reuse` — the late crash frees a tail window, and a worker
//!   that returned its results crashes before the top-up round reuses
//!   its position.
//!
//! Each run lists every position's arrival and final work as bits,
//! plus the top-up and exchange ledgers, byte-compared against
//! `tests/golden/detection.txt`. Regenerate only after an intentional
//! behaviour change:
//! `cargo test --test detection -- --ignored regenerate_detection_golden`

use std::fmt::Write as _;

use hetero_core::{Params, Profile};
use hetero_faults::{FaultPlan, FaultSpec};
use hetero_protocol::alloc::Plan;
use hetero_protocol::exchange::{execute_exchange, ExchangePolicy};
use hetero_protocol::exec::SERVER;
use hetero_protocol::labels::{Label, SKIP_TO};
use hetero_protocol::replan::{execute_adaptive, AdaptiveExecution, HedgePolicy};
use hetero_protocol::{alloc, ExchangeExecution};
use hetero_sim::SimTime;

const N: usize = 12;
const LIFESPAN: f64 = 100.0;

/// Coarse enough messages that the twelve send boundaries spread over
/// t ≈ 1.3 … 66 and the result arrivals over t ≈ 68 … 100.
fn params() -> Params {
    Params::new(0.01, 0.01, 1.0).unwrap()
}

fn plans() -> Vec<(&'static str, FaultPlan)> {
    let slow = |worker, factor, from, until| FaultSpec::Slowdown {
        worker,
        factor,
        from,
        until,
    };
    let crash = |worker, at| FaultSpec::Crash { worker, at };
    vec![
        ("late-window", vec![slow(6, 3.0, 10.0, 1e6)]),
        (
            "closing-window",
            vec![slow(9, 2.0, 0.0, 5.0), slow(10, 3.0, 0.5, 1.0)],
        ),
        ("late-crash", vec![crash(11, 40.0), crash(5, 40.0)]),
        (
            "topup-reuse",
            vec![crash(11, 40.0), crash(10, 40.0), crash(0, 90.0)],
        ),
    ]
    .into_iter()
    .map(|(name, specs)| (name, FaultPlan::new(specs).unwrap()))
    .collect()
}

fn time(t: Option<SimTime>) -> String {
    match t {
        Some(t) => format!("{:.6} {:016x}", t.get(), t.get().to_bits()),
        None => "none".into(),
    }
}

fn work(w: f64) -> String {
    format!("{w:.6} {:016x}", w.to_bits())
}

fn positions(out: &mut String, plan: &Plan, arrivals: &[Option<SimTime>], final_work: &[f64]) {
    for (pos, (arr, &w)) in arrivals.iter().zip(final_work).enumerate() {
        let c = plan.order[pos] + 1;
        let _ = writeln!(
            out,
            "pos {pos} C{c}\tarrival {}\twork {}",
            time(*arr),
            work(w)
        );
    }
}

fn adaptive_section(out: &mut String, run: &AdaptiveExecution) {
    let _ = writeln!(
        out,
        "replans {} skipped {} lost {} retransmits {}",
        run.replans, run.skipped_sends, run.lost_messages, run.retransmits
    );
    positions(out, &run.plan, &run.arrivals, &run.final_work);
    for t in &run.topups {
        let _ = writeln!(
            out,
            "topup C{}\tarrival {}\twork {}",
            t.worker + 1,
            time(t.arrival),
            work(t.work)
        );
    }
}

fn exchange_section(out: &mut String, run: &ExchangeExecution) {
    let _ = writeln!(
        out,
        "degraded {} lost {} retransmits {}",
        run.degraded(),
        run.lost_messages,
        run.retransmits
    );
    positions(out, &run.plan, &run.arrivals, &run.final_work);
    for x in &run.exchanges {
        let _ = writeln!(
            out,
            "xchg pos {} -> pos {}\tarrival {}\twork {}",
            x.from,
            x.to,
            time(x.arrival),
            work(x.work)
        );
    }
}

/// The pinned runs: per plan, one adaptive and one exchange execution.
fn runs() -> Vec<(&'static str, AdaptiveExecution, ExchangeExecution)> {
    let params = params();
    let profile = Profile::harmonic(N);
    let plan = alloc::fifo_plan(&params, &profile, LIFESPAN).unwrap();
    plans()
        .into_iter()
        .map(|(name, faults)| {
            let adaptive =
                execute_adaptive(&params, &profile, &plan, &faults, &HedgePolicy::default())
                    .unwrap();
            let exchange = execute_exchange(
                &params,
                &profile,
                &plan,
                &faults,
                &ExchangePolicy::default(),
            )
            .unwrap();
            (name, adaptive, exchange)
        })
        .collect()
}

fn record() -> String {
    let mut out = String::new();
    for (name, adaptive, exchange) in runs() {
        let _ = writeln!(out, "# adaptive {name}");
        adaptive_section(&mut out, &adaptive);
        let _ = writeln!(out, "# exchange {name}");
        exchange_section(&mut out, &exchange);
    }
    out
}

/// Regenerates the golden file after an intentional behaviour change.
#[test]
#[ignore = "writes tests/golden/detection.txt; run explicitly after intentional detection changes"]
fn regenerate_detection_golden() {
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/golden/detection.txt");
    std::fs::write(path, record()).unwrap();
}

#[test]
fn detection_matches_golden_file_byte_for_byte() {
    let golden = include_str!("golden/detection.txt");
    assert_eq!(
        record(),
        golden,
        "detection outcomes drifted from tests/golden/detection.txt; \
         if the change is intentional, regenerate the golden file"
    );
}

/// The pinned plans reach the detection cases they are named for.
#[test]
fn pinned_plans_reach_their_cases() {
    let runs = runs();
    let get = |name: &str| runs.iter().find(|(n, _, _)| *n == name).unwrap();
    let skips = |run: &AdaptiveExecution, computer: usize| -> Vec<f64> {
        run.trace
            .spans()
            .iter()
            .filter(|s| s.entity == SERVER && s.label == Label::num(SKIP_TO, computer))
            .map(|s| s.start.get())
            .collect()
    };

    // A window opening after the first send is detected late: the
    // adaptive run replans, the exchange run trades the residual.
    let (_, adaptive, exchange) = get("late-window");
    assert!(adaptive.replans >= 1);
    assert!(adaptive.final_work[6] < adaptive.plan.work[6]);
    assert_eq!(exchange.exchanges.len(), 1);
    assert_eq!(exchange.exchanges[0].from, 6);

    // The window seen at t = 0 is detected; the one that opens and
    // closes between boundaries is never seen, so worker 10 keeps its
    // planned size under exchange (the only resize there is a trade).
    let (_, adaptive, exchange) = get("closing-window");
    assert!(adaptive.replans >= 1);
    assert_eq!(exchange.exchanges.len(), 1);
    assert_eq!(exchange.exchanges[0].from, 9);
    assert_eq!(exchange.final_work[10], exchange.plan.work[10]);

    // The crash after t = 0 is seen at a later boundary: worker 11's
    // send is skipped, after t = 0. Worker 5 dies after its send.
    let (_, adaptive, _) = get("late-crash");
    let s = skips(adaptive, 12);
    assert!(!s.is_empty() && s.iter().all(|&t| t > 40.0), "{s:?}");
    assert_eq!(adaptive.arrivals[5], None);

    // Worker 0 returned its results, so the top-up round reuses its
    // position; by then it has crashed, and that boundary skips it.
    let (_, adaptive, _) = get("topup-reuse");
    assert!(adaptive.arrivals[0].is_some());
    assert!(adaptive.topups.iter().any(|t| t.worker == 0));
    let s = skips(adaptive, 1);
    assert!(!s.is_empty() && s.iter().all(|&t| t > 90.0), "{s:?}");
}
