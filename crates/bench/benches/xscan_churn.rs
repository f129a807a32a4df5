//! Bench — streaming X-measure churn: `ChurnScan` insert/delete vs a
//! from-scratch flat re-evaluation per membership change.
//!
//! One `churn` iteration is a steady-state membership event on a live
//! fleet: insert one worker, read the X-measure, delete that worker. It
//! is the cheapest path — a tail append and a tail truncation. One
//! `rebuild` iteration is what every membership change cost before the
//! streaming scan existed: a full O(n) `x_measure_of_rhos` pass over the
//! fleet. The ratio at growing n is the churn-throughput number recorded
//! in `BENCH_pr7.json`; the two values agree to ≤ 1e-12 relative (the
//! churn oracle proptest in `tests/churn_oracle.rs`).
//!
//! The interior cases at n = 65,536 hit seeded random workers, so each
//! write lands mid-segment and re-consolidates the rest of its segment:
//! `replace-interior` rescales one worker's speed, and
//! `delete-insert-interior` deletes one worker (the tail backfills its
//! position) and inserts a replacement, keeping n steady.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use hetero_clustergen::rng_from_seed;
use hetero_core::xmeasure::x_measure_of_rhos;
use hetero_core::xstream::ChurnScan;
use hetero_core::Params;
use rand::Rng;
use std::hint::black_box;

const SIZES: [usize; 3] = [256, 4096, 65_536];

/// Fleet size of the interior cases.
const INTERIOR_N: usize = 65_536;

/// A deterministic spread of speeds in (0, 1]; no RNG so the bench input
/// is identical run to run.
fn speeds(n: usize) -> Vec<f64> {
    (0..n)
        .map(|i| 1.0 - (i as f64) / (n as f64 + 1.0))
        .collect()
}

fn bench_churn(c: &mut Criterion) {
    let params = Params::paper_table1();

    let mut group = c.benchmark_group("xscan/churn");
    for n in SIZES {
        let rhos = speeds(n);

        let (mut scan, _ids) = ChurnScan::from_rhos(&params, &rhos).expect("valid speeds");
        group.bench_with_input(BenchmarkId::new("churn", n), &(), |b, _| {
            b.iter(|| {
                let id = scan.insert(black_box(0.375)).expect("valid rho");
                let x = scan.x();
                scan.delete(id).expect("live handle");
                x
            })
        });

        group.bench_with_input(BenchmarkId::new("rebuild", n), &rhos, |b, r| {
            b.iter(|| x_measure_of_rhos(&params, black_box(r)))
        });
    }

    let rhos = speeds(INTERIOR_N);
    let (mut scan, mut live) = ChurnScan::from_rhos(&params, &rhos).expect("valid speeds");
    let mut rng = rng_from_seed(7);
    group.bench_with_input(
        BenchmarkId::new("replace-interior", INTERIOR_N),
        &(),
        |b, _| {
            b.iter(|| {
                let id = live[rng.random_range(0..live.len())];
                scan.replace(id, black_box(rng.random_range(0.05..1.0)))
                    .expect("live handle");
                scan.x()
            })
        },
    );
    group.bench_with_input(
        BenchmarkId::new("delete-insert-interior", INTERIOR_N),
        &(),
        |b, _| {
            b.iter(|| {
                let i = rng.random_range(0..live.len());
                scan.delete(live[i]).expect("live handle");
                live[i] = scan
                    .insert(black_box(rng.random_range(0.05..1.0)))
                    .expect("valid rho");
                scan.x()
            })
        },
    );
    group.finish();
}

criterion_group!(benches, bench_churn);
criterion_main!(benches);
