//! Golden record of the streaming churn scan's bits.
//!
//! [`ChurnScan`] reassociates the Theorem 2 sum (segment prefix scans,
//! tail backfill on delete), so its value is not bit-identical to a flat
//! pass — but it is a deterministic function of the operation sequence.
//! The adaptive executor feeds `x()` into its replans, so a storage
//! rewrite must keep every bit. This file pins that.
//!
//! Three seeded sequences, each addressing workers by their *position*
//! in `to_rhos()` order (a mirror of the scan's tail-backfill rule keeps
//! the position → handle map):
//!
//! * `grow` — mostly inserts, with interior deletes and replaces, up to
//!   1,300 workers (21 segments of 64, five tree growths), then a drain
//!   back under one segment;
//! * `boundaries` — a 700-worker fleet whose deletes and replaces hit
//!   segment-boundary positions (first and last slot of a segment, the
//!   global tail, the last segment's first slot) and empty the last
//!   segment repeatedly;
//! * `drain-refill` — drains a 200-worker fleet to empty through
//!   interior deletes, refills to 150, drains again, and refills.
//!
//! Each sequence prints `x()` and `residual_product()` as bits every 50
//! operations and at the end, then the final `to_rhos()` bits, and the
//! whole record is byte-compared against `tests/golden/churn.txt`.
//! Regenerate only after an intentional change to the scan's arithmetic:
//! `cargo test --test churn_golden -- --ignored regenerate_churn_golden`

use std::fmt::Write as _;

use hetero_core::xstream::{ChurnScan, WorkerId, SEGMENT_CAPACITY};
use hetero_core::Params;

/// Lines of the record are emitted every this many operations.
const EVERY: usize = 50;

/// SplitMix64: a tiny self-contained generator, so the pinned sequences
/// never move with a dependency's stream.
struct Mix(u64);

impl Mix {
    fn next(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9e37_79b9_7f4a_7c15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        z ^ (z >> 31)
    }

    fn below(&mut self, n: usize) -> usize {
        (self.next() % n as u64) as usize
    }

    /// A speed `m · 2^-e` with `m ∈ [1, 2)` and `e ∈ 0..8`: terms spread
    /// over more than two decades, yet every residual `r_i` stays above
    /// 0.99, so the last worker of a 1,300-worker fleet still moves the
    /// bits of `x()`.
    fn rho(&mut self) -> f64 {
        let m = 1.0 + (self.next() >> 11) as f64 / (1u64 << 53) as f64;
        m * (-(self.below(8) as f64)).exp2()
    }
}

#[derive(Debug, Clone, Copy)]
enum Op {
    Insert(f64),
    /// Delete the worker at this position of `to_rhos()`.
    Delete(usize),
    /// Replace the speed of the worker at this position.
    Replace(usize, f64),
}

/// The scan plus a mirror of its position order: a delete at `p` moves
/// the tail worker into `p`, exactly `Vec::swap_remove`.
struct Driven {
    scan: ChurnScan,
    order: Vec<WorkerId>,
    peak: usize,
    emptied: usize,
}

impl Driven {
    fn new() -> Self {
        Driven {
            scan: ChurnScan::new(&Params::paper_table1()),
            order: Vec::new(),
            peak: 0,
            emptied: 0,
        }
    }

    fn apply(&mut self, op: Op) {
        match op {
            Op::Insert(rho) => self.order.push(self.scan.insert(rho).expect("valid rho")),
            Op::Delete(p) => {
                let id = self.order.swap_remove(p);
                self.scan.delete(id).expect("live handle");
                if self.order.is_empty() {
                    self.emptied += 1;
                }
            }
            Op::Replace(p, rho) => {
                self.scan.replace(self.order[p], rho).expect("live handle");
                assert_eq!(self.scan.rho_of(self.order[p]).unwrap(), rho);
            }
        }
        self.peak = self.peak.max(self.order.len());
        assert_eq!(self.scan.n(), self.order.len());
    }
}

fn grow(mix: &mut Mix) -> Vec<Op> {
    let mut ops = Vec::new();
    let mut n = 0usize;
    while n < 1_300 {
        match mix.below(10) {
            0 | 1 if n > 0 => ops.push(Op::Replace(mix.below(n), mix.rho())),
            2 if n > 1 => {
                ops.push(Op::Delete(mix.below(n)));
                n -= 1;
            }
            _ => {
                ops.push(Op::Insert(mix.rho()));
                n += 1;
            }
        }
    }
    while n > 40 {
        if mix.below(4) == 0 {
            ops.push(Op::Replace(mix.below(n), mix.rho()));
        } else {
            ops.push(Op::Delete(mix.below(n)));
            n -= 1;
        }
    }
    ops
}

fn boundaries(mix: &mut Mix) -> Vec<Op> {
    let c = SEGMENT_CAPACITY;
    let mut ops: Vec<Op> = (0..700).map(|_| Op::Insert(mix.rho())).collect();
    let mut n = 700usize;
    for round in 0..60 {
        // Segment-boundary positions: a segment's first and last slot,
        // the global tail, and the first slot of the last segment.
        let seg = mix.below(n.div_ceil(c));
        let targets = [
            seg * c,
            (seg * c + c - 1).min(n - 1),
            n - 1,
            (n - 1) / c * c,
        ];
        let p = targets[round % targets.len()];
        ops.push(Op::Replace(p, mix.rho()));
        ops.push(Op::Delete(p));
        n -= 1;
        // Empty the last segment now and then, then refill across it.
        if round % 7 == 3 {
            while !n.is_multiple_of(c) {
                ops.push(Op::Delete(n - 1));
                n -= 1;
            }
            ops.push(Op::Delete(mix.below(n)));
            n -= 1;
            for _ in 0..3 {
                ops.push(Op::Insert(mix.rho()));
                n += 1;
            }
        }
        if round.is_multiple_of(3) {
            ops.push(Op::Insert(mix.rho()));
            n += 1;
        }
    }
    ops
}

fn drain_refill(mix: &mut Mix) -> Vec<Op> {
    let mut ops = Vec::new();
    let mut n = 0usize;
    for target in [200usize, 150, 90] {
        while n < target {
            ops.push(Op::Insert(mix.rho()));
            n += 1;
        }
        while n > 0 {
            if mix.below(5) == 0 {
                ops.push(Op::Replace(mix.below(n), mix.rho()));
            }
            ops.push(Op::Delete(mix.below(n)));
            n -= 1;
        }
    }
    for _ in 0..70 {
        ops.push(Op::Insert(mix.rho()));
    }
    ops
}

fn sequences() -> Vec<(&'static str, Vec<Op>)> {
    vec![
        ("grow", grow(&mut Mix(1))),
        ("boundaries", boundaries(&mut Mix(2))),
        ("drain-refill", drain_refill(&mut Mix(3))),
    ]
}

fn state_line(out: &mut String, i: usize, scan: &ChurnScan) {
    writeln!(
        out,
        "{i:5} n={:4} x={:016x} s={:016x}",
        scan.n(),
        scan.x().to_bits(),
        scan.residual_product().to_bits()
    )
    .unwrap();
}

fn run(name: &str, ops: &[Op], out: &mut String) -> Driven {
    let mut d = Driven::new();
    writeln!(out, "# {name}: {} ops", ops.len()).unwrap();
    for (i, &op) in ops.iter().enumerate() {
        d.apply(op);
        if (i + 1).is_multiple_of(EVERY) {
            state_line(out, i + 1, &d.scan);
        }
    }
    state_line(out, ops.len(), &d.scan);
    let rhos = d.scan.to_rhos();
    writeln!(out, "rhos {}", rhos.len()).unwrap();
    for row in rhos.chunks(4) {
        let cells: Vec<String> = row
            .iter()
            .map(|r| format!("{:016x}", r.to_bits()))
            .collect();
        writeln!(out, "{}", cells.join(" ")).unwrap();
    }
    d
}

fn record() -> String {
    let mut out = String::new();
    for (name, ops) in sequences() {
        run(name, &ops, &mut out);
    }
    out
}

/// Regenerates the golden file after an intentional arithmetic change.
#[test]
#[ignore = "writes tests/golden/churn.txt; run explicitly after intentional churn-scan changes"]
fn regenerate_churn_golden() {
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/golden/churn.txt");
    std::fs::write(path, record()).expect("write golden");
}

#[test]
fn churn_bits_match_golden_file_byte_for_byte() {
    let golden = include_str!("golden/churn.txt");
    assert!(
        record() == golden,
        "churn-scan bits drifted from tests/golden/churn.txt; \
         if the change is intentional, regenerate the golden file"
    );
}

#[test]
fn pinned_sequences_reach_their_cases() {
    let c = SEGMENT_CAPACITY;
    let mut out = String::new();
    for (name, ops) in sequences() {
        let d = run(name, &ops, &mut out);
        // The mirror agrees with the scan: position p holds order[p].
        let rhos = d.scan.to_rhos();
        for (p, &id) in d.order.iter().enumerate() {
            assert_eq!(d.scan.rho_of(id).unwrap().to_bits(), rhos[p].to_bits());
        }
        let deletes_at = |pred: &dyn Fn(usize) -> bool| {
            ops.iter()
                .filter(|op| matches!(op, Op::Delete(p) if pred(*p)))
                .count()
        };
        match name {
            "grow" => {
                assert!(d.peak >= 1_300, "grow peaked at {}", d.peak);
                assert!(d.peak.div_ceil(c) > 16, "16+ segments");
                assert!(deletes_at(&|p| p % c != 0 && p % c != c - 1) > 100);
            }
            "boundaries" => {
                assert!(deletes_at(&|p| p % c == 0) >= 15);
                assert!(deletes_at(&|p| p % c == c - 1) >= 15);
            }
            "drain-refill" => {
                assert_eq!(d.emptied, 3, "drained to empty three times");
                assert_eq!(d.scan.n(), 70);
            }
            other => panic!("unknown sequence {other}"),
        }
    }
}
