//! Golden catalogue of the span labels the five DES executors record.
//!
//! One pinned run per family at n = 12 (so computer numbers reach
//! C10–C12): the fault-free FIFO executor, then the oblivious,
//! adaptive, exchange and coded fault families under one shared fault
//! plan with a mid-compute crash, an early crash, a straggler, lost
//! results and a channel-jitter window. Every span is listed as
//! `entity<TAB>label` under a `# family` heading, and the whole text is
//! byte-compared against `tests/golden/trace_labels.txt` — the labels
//! are part of the trace surface (Chrome, folded and causal-path
//! exports all print them), so any drift must be deliberate:
//! `cargo test --test trace_labels -- --ignored regenerate_label_catalogue`

use std::fmt::Write as _;

use hetero_core::{Params, Profile};
use hetero_experiments::gantt;
use hetero_faults::{FaultPlan, FaultSpec};
use hetero_protocol::coded::{execute_coded, mds_assignment};
use hetero_protocol::exchange::{execute_exchange, ExchangePolicy};
use hetero_protocol::labels::{
    Label, Mark, COMPUTE, PACK, PACK_TO, RECV_FROM, SKIP_TO, UNPACK, WAIT_CHANNEL, XMIT_RESULT,
    XMIT_WORK, XMIT_XCHG, XPACK_TO,
};
use hetero_protocol::replan::{execute_adaptive, HedgePolicy};
use hetero_protocol::{alloc, exec, fault_exec};
use hetero_sim::Trace;

const N: usize = 12;
const LIFESPAN: f64 = 100.0;

fn profile() -> Profile {
    Profile::harmonic(N)
}

/// The shared fault plan: worker 2 crashes mid-compute (a truncated
/// `compute†crash` span), worker 11 is dead from the start (a bare
/// `†crash` marker, and a skipped send once the replanner knows),
/// worker 9 straggles 4× (the exchange family trades its residual),
/// workers 4 and 10 lose their first result message, and a jitter
/// window slows the channel enough that results queue for it.
fn faults() -> FaultPlan {
    FaultPlan::new(vec![
        FaultSpec::Crash {
            worker: 2,
            at: 50.0,
        },
        FaultSpec::Crash {
            worker: 11,
            at: 0.0,
        },
        FaultSpec::Slowdown {
            worker: 9,
            factor: 4.0,
            from: 0.0,
            until: 1e6,
        },
        FaultSpec::ResultLoss {
            worker: 4,
            count: 1,
        },
        FaultSpec::ResultLoss {
            worker: 10,
            count: 1,
        },
        FaultSpec::ChannelJitter {
            factor: 2000.0,
            from: 40.0,
            until: 1e6,
        },
    ])
    .unwrap()
}

/// The pinned runs, one trace per family, in catalogue order.
fn runs() -> Vec<(&'static str, Trace)> {
    let params = Params::paper_table1();
    let profile = profile();
    let faults = faults();
    let plan = alloc::fifo_plan(&params, &profile, LIFESPAN).unwrap();
    let fifo = exec::execute(&params, &profile, &plan);
    let oblivious = fault_exec::execute_with_faults(&params, &profile, &plan, &faults).unwrap();
    let adaptive =
        execute_adaptive(&params, &profile, &plan, &faults, &HedgePolicy::default()).unwrap();
    let exchange = execute_exchange(
        &params,
        &profile,
        &plan,
        &faults,
        &ExchangePolicy::default(),
    )
    .unwrap();
    let coded = mds_assignment(&params, &profile, LIFESPAN, N / 2).unwrap();
    let coded = execute_coded(&params, &profile, &coded, &faults).unwrap();
    vec![
        ("fifo", fifo.trace),
        ("oblivious", oblivious.trace),
        ("adaptive", adaptive.trace),
        ("exchange", exchange.trace),
        ("coded", coded.trace),
    ]
}

/// The catalogue text: one section per family, spans in recording order.
fn catalogue() -> String {
    let mut out = String::new();
    for (family, trace) in runs() {
        let _ = writeln!(out, "# {family}");
        for s in trace.spans() {
            let _ = writeln!(out, "{}\t{}", s.entity, s.label);
        }
    }
    out
}

/// Regenerates the golden file after an intentional label change.
#[test]
#[ignore = "writes tests/golden/trace_labels.txt; run explicitly after intentional label changes"]
fn regenerate_label_catalogue() {
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/golden/trace_labels.txt");
    std::fs::write(path, catalogue()).unwrap();
}

#[test]
fn label_catalogue_matches_golden_file_byte_for_byte() {
    let golden = include_str!("golden/trace_labels.txt");
    assert_eq!(
        catalogue(),
        golden,
        "span labels drifted from tests/golden/trace_labels.txt; \
         if the change is intentional, regenerate the golden file"
    );
}

/// Every label kind the executors can record appears in the pinned
/// runs, so the golden pins each kind's exact text.
#[test]
fn label_catalogue_covers_every_kind() {
    let text = catalogue();
    let labels: Vec<&str> = text
        .lines()
        .filter(|l| !l.starts_with('#'))
        .map(|l| l.split_once('\t').unwrap().1)
        .collect();
    let has = |pred: &dyn Fn(&str) -> bool, kind: &str| {
        assert!(
            labels.iter().any(|l| pred(l)),
            "no {kind} label in:\n{text}"
        );
    };
    has(&|l| l == "†crash", "bare †crash marker");
    has(
        &|l| l.ends_with("†crash") && l != "†crash",
        "crash-truncated phase",
    );
    has(&|l| l.ends_with("†lost"), "†lost");
    has(&|l| l.ends_with("·xchg"), "·xchg");
    has(&|l| l.starts_with("xpack→"), "xpack→");
    has(&|l| l.starts_with("xmit:xchg:"), "xmit:xchg:");
    has(&|l| l.starts_with("skip→"), "skip→");
    has(&|l| l == "wait:channel", "wait:channel");
    has(
        &|l| {
            l.split(|c: char| !c.is_ascii_digit())
                .any(|digits| digits.len() >= 2)
        },
        "two-digit computer number",
    );
    for family in ["fifo", "oblivious", "adaptive", "exchange", "coded"] {
        assert!(text.contains(&format!("# {family}\n")), "no {family} run");
    }
}

// --- the structural classifiers against the text rules they replaced ---

/// Test oracle: `exec::observe_trace`'s phase rules from when labels
/// were strings.
fn phase_by_text(label: &str) -> &'static str {
    match label {
        "unpack" | "compute" | "pack" => "protocol.compute",
        "wait:channel" => "protocol.wait",
        l if l.starts_with("pack→")
            || l.starts_with("xpack→")
            || l.starts_with("xmit:work")
            || l.starts_with("xmit:xchg") =>
        {
            "protocol.send"
        }
        l if l.starts_with("xmit:result") || l.starts_with("recv←") => "protocol.receive",
        _ => "protocol.other",
    }
}

/// Test oracle: the Figure 2 glyph rules from when labels were strings,
/// arm order included (the `"pack"` arm is shadowed by the prefix arm).
fn glyph_by_text(label: &str) -> u8 {
    match label {
        l if l.starts_with("pack") => b'P',
        l if l.starts_with("xmit:work") => b'w',
        l if l.starts_with("xmit:result") => b'r',
        "unpack" => b'u',
        "compute" => b'C',
        "pack" => b'p',
        l if l.starts_with("recv") => b'R',
        _ => b'?',
    }
}

/// Every head of the vocabulary in every shape and with every mark —
/// including combinations no executor records today, such as
/// `pack†crash` or `wait:channel†lost`.
fn synthetic_labels() -> Vec<Label> {
    let heads = [
        UNPACK,
        COMPUTE,
        PACK,
        WAIT_CHANNEL,
        PACK_TO,
        SKIP_TO,
        XPACK_TO,
        XMIT_WORK,
        XMIT_RESULT,
        XMIT_XCHG,
        RECV_FROM,
        "",
    ];
    let mut out = Vec::new();
    for head in heads {
        for base in [
            Label::new(head),
            Label::num(head, 0),
            Label::num(head, 12),
            Label::route(head, 3, 12),
        ] {
            out.push(base);
            for mark in [Mark::Crash, Mark::Lost, Mark::Xchg] {
                out.push(base.marked(mark));
            }
        }
    }
    out
}

#[test]
fn structural_classifiers_agree_with_the_text_rules() {
    let recorded: Vec<Label> = runs()
        .iter()
        .flat_map(|(_, trace)| trace.spans().iter().map(|s| s.label))
        .collect();
    for label in recorded.iter().chain(&synthetic_labels()) {
        let text = label.to_string();
        assert_eq!(
            exec::PHASES[exec::phase_of(label)],
            phase_by_text(&text),
            "phase of {text:?}"
        );
        assert_eq!(
            gantt::glyph(label),
            glyph_by_text(&text),
            "glyph of {text:?}"
        );
    }
    // Crash-truncated phases stay out of the worker bucket.
    let truncated = Label::new(COMPUTE).marked(Mark::Crash);
    assert_eq!(exec::PHASES[exec::phase_of(&truncated)], "protocol.other");
}
