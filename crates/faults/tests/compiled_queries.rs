//! The compiled point queries of `FaultPlan` against linear scans of
//! its spec list.
//!
//! The four scans below are the queries as they were before the plan
//! compiled its tables; they stay here as the oracle. Random spec lists
//! mix overlapping windows on one worker, workers in unsorted order,
//! huge worker ids, duplicate crashes (including `-0.0` against `0.0`),
//! several jitter windows and loss counts that saturate `u32`. Every
//! query time is drawn from the grid the windows are built on, so
//! queries land exactly on `from` and `until`. Answers must agree bit
//! for bit.

use hetero_faults::{FaultPlan, FaultSpec};
use proptest::prelude::*;

fn scan_crash_time(plan: &FaultPlan, worker: usize) -> Option<f64> {
    let mut earliest: Option<f64> = None;
    for spec in plan.specs() {
        if let FaultSpec::Crash { worker: w, at } = *spec {
            if w == worker && earliest.is_none_or(|t| at < t) {
                earliest = Some(at);
            }
        }
    }
    earliest
}

fn scan_slowdown_factor(plan: &FaultPlan, worker: usize, at: f64) -> Option<f64> {
    let mut combined: Option<f64> = None;
    for spec in plan.specs() {
        if let FaultSpec::Slowdown {
            worker: w,
            factor,
            from,
            until,
        } = *spec
        {
            if w == worker && from <= at && at < until {
                combined = Some(match combined {
                    Some(c) => c * factor,
                    None => factor,
                });
            }
        }
    }
    combined
}

fn scan_channel_factor(plan: &FaultPlan, at: f64) -> Option<f64> {
    let mut combined: Option<f64> = None;
    for spec in plan.specs() {
        if let FaultSpec::ChannelJitter {
            factor,
            from,
            until,
        } = *spec
        {
            if from <= at && at < until {
                combined = Some(match combined {
                    Some(c) => c * factor,
                    None => factor,
                });
            }
        }
    }
    combined
}

fn scan_result_losses(plan: &FaultPlan, worker: usize) -> u32 {
    let mut total = 0u32;
    for spec in plan.specs() {
        if let FaultSpec::ResultLoss { worker: w, count } = *spec {
            if w == worker {
                total = total.saturating_add(count);
            }
        }
    }
    total
}

const HUGE: usize = 1_000_000_000_000_000_000;

/// Workers the specs name: a few small ids, plus ids no table may be
/// indexed by.
fn worker() -> impl Strategy<Value = usize> {
    prop_oneof![0usize..6, Just(HUGE), Just(usize::MAX)]
}

/// Times on a half-unit grid, plus `-0.0` (which validation accepts and
/// which compares equal to `0.0` but has other bits).
fn grid_time() -> impl Strategy<Value = f64> {
    prop_oneof![(0u32..12).prop_map(|k| f64::from(k) * 0.5), Just(-0.0)]
}

/// A window `[from, until)` on the grid, never empty.
fn window() -> impl Strategy<Value = (f64, f64)> {
    (grid_time(), 1u32..6).prop_map(|(from, len)| (from, from + f64::from(len) * 0.5))
}

fn spec() -> impl Strategy<Value = FaultSpec> {
    prop_oneof![
        (worker(), grid_time()).prop_map(|(worker, at)| FaultSpec::Crash { worker, at }),
        (worker(), 1.0f64..4.0, window()).prop_map(|(worker, factor, (from, until))| {
            FaultSpec::Slowdown {
                worker,
                factor,
                from,
                until,
            }
        }),
        (0.25f64..4.0, window()).prop_map(|(factor, (from, until))| {
            FaultSpec::ChannelJitter {
                factor,
                from,
                until,
            }
        }),
        (
            worker(),
            prop_oneof![1u32..4, (0u32..3).prop_map(|k| u32::MAX - k)]
        )
            .prop_map(|(worker, count)| FaultSpec::ResultLoss { worker, count }),
    ]
}

fn bits(v: Option<f64>) -> Option<u64> {
    v.map(f64::to_bits)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    #[test]
    fn compiled_queries_equal_the_spec_scans(specs in prop::collection::vec(spec(), 0..24)) {
        let plan = FaultPlan::new(specs).unwrap();
        let workers = [0, 1, 2, 3, 4, 5, 6, HUGE - 1, HUGE, usize::MAX];
        // Every grid point, each one's neighbour half-way to the next,
        // and both zeros: windows open and close exactly on this grid.
        let mut times: Vec<f64> = (0..30).map(|k| f64::from(k) * 0.25).collect();
        times.push(-0.0);
        for &t in &times {
            prop_assert_eq!(bits(plan.channel_factor(t)), bits(scan_channel_factor(&plan, t)), "channel at {}", t);
        }
        for &w in &workers {
            prop_assert_eq!(bits(plan.crash_time(w)), bits(scan_crash_time(&plan, w)), "crash of {}", w);
            prop_assert_eq!(plan.result_losses(w), scan_result_losses(&plan, w), "losses of {}", w);
            let slowed = plan.specs().iter().any(|s| matches!(*s, FaultSpec::Slowdown { worker, .. } if worker == w));
            prop_assert_eq!(plan.has_slowdown(w), slowed, "has_slowdown of {}", w);
            for &t in &times {
                prop_assert_eq!(
                    bits(plan.slowdown_factor(w, t)),
                    bits(scan_slowdown_factor(&plan, w, t)),
                    "slowdown of {} at {}", w, t
                );
            }
        }
    }
}

/// The cases the random lists hit only by chance, pinned.
#[test]
fn pinned_edge_cases_match_the_scans() {
    let plan = FaultPlan::new(vec![
        FaultSpec::Crash { worker: 3, at: 0.0 },
        FaultSpec::Crash {
            worker: 3,
            at: -0.0,
        },
        FaultSpec::Crash {
            worker: HUGE,
            at: 2.0,
        },
        FaultSpec::Crash { worker: 0, at: 5.0 },
        FaultSpec::Crash { worker: 0, at: 1.0 },
        FaultSpec::Slowdown {
            worker: 2,
            factor: 1.1,
            from: 0.0,
            until: 3.0,
        },
        FaultSpec::Slowdown {
            worker: 1,
            factor: 3.0,
            from: 1.0,
            until: 2.0,
        },
        FaultSpec::Slowdown {
            worker: 2,
            factor: 1.3,
            from: 1.0,
            until: 2.0,
        },
        FaultSpec::Slowdown {
            worker: 2,
            factor: 1.7,
            from: 0.5,
            until: 1.5,
        },
        FaultSpec::ChannelJitter {
            factor: 0.3,
            from: 0.0,
            until: 2.0,
        },
        FaultSpec::ChannelJitter {
            factor: 0.7,
            from: 1.0,
            until: 3.0,
        },
        FaultSpec::ResultLoss {
            worker: 4,
            count: u32::MAX - 1,
        },
        FaultSpec::ResultLoss {
            worker: 4,
            count: 3,
        },
    ])
    .unwrap();
    // Duplicate crashes: the earliest wins, and of two equal times the
    // first in spec order (`0.0` before `-0.0`).
    assert_eq!(plan.crash_time(3).map(f64::to_bits), Some(0.0f64.to_bits()));
    assert_eq!(plan.crash_time(0), Some(1.0));
    assert_eq!(plan.crash_time(HUGE), Some(2.0));
    assert_eq!(plan.crash_time(5), None);
    assert_eq!(plan.result_losses(4), u32::MAX);
    for w in [0, 1, 2, 3, 4, 5, HUGE] {
        assert_eq!(
            plan.crash_time(w).map(f64::to_bits),
            scan_crash_time(&plan, w).map(f64::to_bits)
        );
        for k in 0..14 {
            let t = f64::from(k) * 0.25;
            assert_eq!(
                bits(plan.slowdown_factor(w, t)),
                bits(scan_slowdown_factor(&plan, w, t)),
                "slowdown of {w} at {t}"
            );
            assert_eq!(
                bits(plan.channel_factor(t)),
                bits(scan_channel_factor(&plan, t))
            );
        }
    }
    // Three windows overlap on worker 2 at t = 1: spec order 1.1·1.3·1.7.
    assert_eq!(plan.slowdown_factor(2, 1.0), Some(1.1 * 1.3 * 1.7));
    assert_eq!(plan.slowdown_factor(2, 2.0), Some(1.1));
    assert_eq!(plan.channel_factor(1.0), Some(0.3 * 0.7));
    assert_eq!(plan.channel_factor(2.0), Some(0.7));
}
