//! Protocol-invariant validation.
//!
//! An [`Execution`](crate::exec::Execution) is checked against the model's
//! ground rules:
//!
//! 1. **single message in transit** — no two network spans overlap;
//! 2. **serial entities** — the server and each worker do one thing at a
//!    time;
//! 3. **lifespan** — every result arrives by `L`;
//! 4. **conservation** — every position's work appears as exactly one
//!    unpack/compute/pack triple of the right durations.

use hetero_core::{Params, Profile};

use crate::exec::{channel_entity, Execution};
use crate::labels::{Label, COMPUTE};

/// A violated protocol invariant.
#[derive(Debug, Clone, PartialEq)]
pub enum Violation {
    /// Two messages were in transit simultaneously.
    ChannelConflict {
        /// Labels of the colliding spans.
        labels: (Label, Label),
    },
    /// An entity had two overlapping activities.
    EntityConflict {
        /// The busy entity.
        entity: usize,
    },
    /// A result arrived after the lifespan.
    LifespanExceeded {
        /// Startup position of the late result.
        position: usize,
        /// Its arrival time.
        arrival: f64,
    },
    /// A worker's compute span does not match `ρ·w`.
    WrongComputeTime {
        /// Profile index of the worker.
        index: usize,
    },
}

/// Runs every check; returns all violations (empty = valid).
pub fn validate(_params: &Params, profile: &Profile, run: &Execution) -> Vec<Violation> {
    let mut out = Vec::new();
    let chan = channel_entity(profile.n());

    // 1. Single message in transit.
    if let Some((a, b)) = run
        .trace
        .find_labelled_conflict(|l| l.head().starts_with("xmit:"))
    {
        out.push(Violation::ChannelConflict {
            labels: (a.label, b.label),
        });
    }

    // 2. Serial entities (the channel entity is covered by check 1).
    if let Some((a, _)) = run.trace.find_entity_conflict() {
        if a.entity != chan {
            out.push(Violation::EntityConflict { entity: a.entity });
        }
    }

    // 3. Lifespan.
    for (position, arrival) in run.arrivals.iter().enumerate() {
        if arrival.get() > run.plan.lifespan * (1.0 + 1e-9) {
            out.push(Violation::LifespanExceeded {
                position,
                arrival: arrival.get(),
            });
        }
    }

    // 4. Compute spans have duration ρ·w.
    for (pos, &index) in run.plan.order.iter().enumerate() {
        let expected = profile.rho(index) * run.plan.work[pos];
        let ok = run
            .trace
            .entity_spans(crate::exec::worker_entity(index))
            .filter(|s| s.label == Label::new(COMPUTE))
            .any(|s| (s.duration() - expected).abs() <= 1e-9 * expected.max(1.0));
        if !ok {
            out.push(Violation::WrongComputeTime { index });
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::alloc::fifo_plan;
    use crate::baseline::equal_split_plan;
    use crate::exec::execute;

    fn params() -> Params {
        Params::paper_table1()
    }

    #[test]
    fn optimal_executions_are_valid() {
        let p = params();
        for profile in [
            Profile::new(vec![1.0]).unwrap(),
            Profile::harmonic(6),
            Profile::uniform_spread(10),
        ] {
            let plan = fifo_plan(&p, &profile, 400.0).unwrap();
            let run = execute(&p, &profile, &plan);
            assert_eq!(validate(&p, &profile, &run), vec![], "n = {}", profile.n());
        }
    }

    #[test]
    fn baseline_executions_are_valid_too() {
        let p = params();
        let profile = Profile::new(vec![1.0, 0.5, 0.25]).unwrap();
        let plan = equal_split_plan(&p, &profile, 300.0).unwrap();
        let run = execute(&p, &profile, &plan);
        assert_eq!(validate(&p, &profile, &run), vec![]);
    }

    #[test]
    fn oversized_plan_is_flagged() {
        // Hand-build a plan that cannot finish by its claimed lifespan.
        let p = params();
        let profile = Profile::new(vec![1.0, 0.5]).unwrap();
        let mut plan = fifo_plan(&p, &profile, 100.0).unwrap();
        plan.lifespan = 50.0; // lie about the lifespan
        let run = execute(&p, &profile, &plan);
        let violations = validate(&p, &profile, &run);
        assert!(violations
            .iter()
            .any(|v| matches!(v, Violation::LifespanExceeded { .. })));
    }

    #[test]
    fn channel_conflicts_would_be_caught() {
        // Sanity for the checker itself: a doctored trace trips it.
        let p = params();
        let profile = Profile::new(vec![1.0, 0.5]).unwrap();
        let plan = fifo_plan(&p, &profile, 100.0).unwrap();
        let mut run = execute(&p, &profile, &plan);
        let chan = channel_entity(2);
        let t0 = hetero_sim::SimTime::ZERO;
        let t1 = hetero_sim::SimTime::new(run.plan.lifespan);
        run.trace.record(chan, "xmit:rogue", t0, t1);
        let violations = validate(&p, &profile, &run);
        assert!(violations
            .iter()
            .any(|v| matches!(v, Violation::ChannelConflict { .. })));
    }
}
