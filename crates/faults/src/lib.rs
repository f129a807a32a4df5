//! # hetero-faults — deterministic fault injection for the CEP simulator
//!
//! The paper's analysis (and the `hetero-protocol` executor that replays
//! it) assumes every computer runs at its advertised ρ and every message
//! transits cleanly. Real clusters crash, straggle, and drop messages —
//! the regime the related work on coded computation and work exchange
//! designs for. This crate describes such failures as *data*:
//!
//! * [`FaultSpec`] — one validated fault: a permanent worker crash, a
//!   multiplicative slowdown over an interval, a transient channel-rate
//!   perturbation, or result-message loss requiring retransmission.
//! * [`FaultPlan`] — an ordered set of specs, compiled once into
//!   per-worker tables so its point queries (`crash_time`,
//!   `slowdown_factor`, `channel_factor`, `result_losses`) binary-search
//!   one worker's entries instead of scanning every spec. They are shaped
//!   so the *fault-free* path performs zero extra float operations —
//!   which is what lets `execute_with_faults` with an empty plan stay
//!   bit-identical to the pristine executor.
//! * [`FaultConfig`] / [`FaultPlan::sample`] — seeded random plan
//!   generation (crash probability × straggler severity × loss rate),
//!   deterministic under a `u64` seed and fingerprintable
//!   ([`FaultPlan::fingerprint`]) for reproducibility manifests.
//!
//! The plan is pure description: the DES executor in `hetero-protocol`
//! compiles it into events and reacts to it; nothing here touches the
//! simulation engine.
//!
//! ```
//! use hetero_faults::{FaultPlan, FaultSpec};
//!
//! let plan = FaultPlan::new(vec![
//!     FaultSpec::Crash { worker: 1, at: 250.0 },
//!     FaultSpec::Slowdown { worker: 0, factor: 3.0, from: 0.0, until: 600.0 },
//! ])
//! .unwrap();
//! assert_eq!(plan.crash_time(1), Some(250.0));
//! assert_eq!(plan.slowdown_factor(0, 100.0), Some(3.0));
//! assert_eq!(plan.slowdown_factor(1, 100.0), None); // no-fault path: no float ops
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod json;
mod plan;
mod spec;

pub use json::PlanJsonError;
pub use plan::{FaultConfig, FaultPlan};
pub use spec::{FaultError, FaultSpec};
