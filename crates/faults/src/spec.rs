//! Individual fault descriptions and their validation.

use std::error::Error;
use std::fmt;

/// One validated fault in a [`FaultPlan`](crate::FaultPlan).
///
/// Times are simulation-clock values (the same axis as the executor's
/// `SimTime`), kept as raw `f64` here so the crate stays engine-agnostic;
/// validation guarantees they are finite and non-negative, which is what
/// the executor's `SimTime::try_new` requires downstream.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum FaultSpec {
    /// Worker `worker` permanently crashes at time `at`: work it has not
    /// finished *packaging* by then is lost, and it accepts no further
    /// packages.
    Crash {
        /// Profile index of the crashing worker.
        worker: usize,
        /// Crash time (finite, ≥ 0).
        at: f64,
    },
    /// Straggler: every worker phase (unpackage / compute / package) that
    /// *starts* in `[from, until)` takes `factor` times as long.
    Slowdown {
        /// Profile index of the slowed worker.
        worker: usize,
        /// Multiplicative slowdown (finite, ≥ 1).
        factor: f64,
        /// Window start (inclusive).
        from: f64,
        /// Window end (exclusive; must exceed `from`).
        until: f64,
    },
    /// Transient channel-rate perturbation: every network transit that
    /// *starts* in `[from, until)` takes `factor` times as long.
    ChannelJitter {
        /// Multiplicative transit-time factor (finite, > 0; values below
        /// 1 model a transiently faster link).
        factor: f64,
        /// Window start (inclusive).
        from: f64,
        /// Window end (exclusive; must exceed `from`).
        until: f64,
    },
    /// The first `count` result messages sent by `worker` are lost in
    /// transit (they occupy the channel, then vanish) and must be
    /// retransmitted.
    ResultLoss {
        /// Profile index of the worker whose results are dropped.
        worker: usize,
        /// Number of consecutive losses (≥ 1).
        count: u32,
    },
}

impl FaultSpec {
    /// The worker the spec names, or `None` for channel jitter (which
    /// names none).
    pub fn worker(&self) -> Option<usize> {
        match *self {
            FaultSpec::Crash { worker, .. }
            | FaultSpec::Slowdown { worker, .. }
            | FaultSpec::ResultLoss { worker, .. } => Some(worker),
            FaultSpec::ChannelJitter { .. } => None,
        }
    }

    /// Validates the spec's numeric fields.
    pub fn validate(&self) -> Result<(), FaultError> {
        match *self {
            FaultSpec::Crash { at, .. } => {
                if !(at.is_finite() && at >= 0.0) {
                    return Err(FaultError::InvalidTime { value: at });
                }
            }
            FaultSpec::Slowdown {
                factor,
                from,
                until,
                ..
            } => {
                if !(factor.is_finite() && factor >= 1.0) {
                    return Err(FaultError::InvalidFactor { factor });
                }
                validate_window(from, until)?;
            }
            FaultSpec::ChannelJitter {
                factor,
                from,
                until,
                ..
            } => {
                if !(factor.is_finite() && factor > 0.0) {
                    return Err(FaultError::InvalidFactor { factor });
                }
                validate_window(from, until)?;
            }
            FaultSpec::ResultLoss { count, .. } => {
                if count == 0 {
                    return Err(FaultError::ZeroLossCount);
                }
            }
        }
        Ok(())
    }
}

fn validate_window(from: f64, until: f64) -> Result<(), FaultError> {
    if !(from.is_finite() && from >= 0.0) {
        return Err(FaultError::InvalidTime { value: from });
    }
    if !(until.is_finite() && until > from) {
        return Err(FaultError::InvalidWindow { from, until });
    }
    Ok(())
}

/// Why a [`FaultSpec`] (or a plan containing it) was rejected.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum FaultError {
    /// A time field is negative or non-finite.
    InvalidTime {
        /// The offending value.
        value: f64,
    },
    /// A fault window is empty or non-finite.
    InvalidWindow {
        /// Window start.
        from: f64,
        /// Window end (≤ `from`, or non-finite).
        until: f64,
    },
    /// A multiplicative factor is out of range (slowdowns must be ≥ 1,
    /// channel factors > 0, both finite).
    InvalidFactor {
        /// The offending factor.
        factor: f64,
    },
    /// A result-loss spec with `count == 0` describes no fault.
    ZeroLossCount,
}

impl fmt::Display for FaultError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            FaultError::InvalidTime { value } => {
                write!(f, "fault time {value} must be finite and non-negative")
            }
            FaultError::InvalidWindow { from, until } => {
                write!(f, "fault window [{from}, {until}) is empty or non-finite")
            }
            FaultError::InvalidFactor { factor } => {
                write!(f, "fault factor {factor} is out of range")
            }
            FaultError::ZeroLossCount => {
                write!(f, "result-loss fault must drop at least one message")
            }
        }
    }
}

impl Error for FaultError {}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn valid_specs_pass() {
        for spec in [
            FaultSpec::Crash { worker: 0, at: 0.0 },
            FaultSpec::Crash { worker: 3, at: 1e9 },
            FaultSpec::Slowdown {
                worker: 1,
                factor: 1.0,
                from: 0.0,
                until: 10.0,
            },
            FaultSpec::ChannelJitter {
                factor: 0.5,
                from: 2.0,
                until: 3.0,
            },
            FaultSpec::ResultLoss {
                worker: 2,
                count: 1,
            },
        ] {
            assert_eq!(spec.validate(), Ok(()), "{spec:?}");
        }
    }

    #[test]
    fn invalid_specs_report_typed_errors() {
        let cases: Vec<(FaultSpec, FaultError)> = vec![
            (
                FaultSpec::Crash {
                    worker: 0,
                    at: -1.0,
                },
                FaultError::InvalidTime { value: -1.0 },
            ),
            (
                FaultSpec::Slowdown {
                    worker: 0,
                    factor: 0.5,
                    from: 0.0,
                    until: 1.0,
                },
                FaultError::InvalidFactor { factor: 0.5 },
            ),
            (
                FaultSpec::Slowdown {
                    worker: 0,
                    factor: 2.0,
                    from: 5.0,
                    until: 5.0,
                },
                FaultError::InvalidWindow {
                    from: 5.0,
                    until: 5.0,
                },
            ),
            (
                FaultSpec::ChannelJitter {
                    factor: 0.0,
                    from: 0.0,
                    until: 1.0,
                },
                FaultError::InvalidFactor { factor: 0.0 },
            ),
            (
                FaultSpec::ResultLoss {
                    worker: 0,
                    count: 0,
                },
                FaultError::ZeroLossCount,
            ),
        ];
        for (spec, want) in cases {
            assert_eq!(spec.validate(), Err(want), "{spec:?}");
        }
        // Non-finite fields are caught everywhere.
        assert!(FaultSpec::Crash {
            worker: 0,
            at: f64::NAN
        }
        .validate()
        .is_err());
        assert!(FaultSpec::Slowdown {
            worker: 0,
            factor: f64::INFINITY,
            from: 0.0,
            until: 1.0
        }
        .validate()
        .is_err());
        assert!(FaultSpec::ChannelJitter {
            factor: 1.0,
            from: 0.0,
            until: f64::INFINITY
        }
        .validate()
        .is_err());
    }

    #[test]
    fn worker_is_named_by_every_kind_but_jitter() {
        assert_eq!(FaultSpec::Crash { worker: 3, at: 0.0 }.worker(), Some(3));
        let slow = FaultSpec::Slowdown {
            worker: 4,
            factor: 2.0,
            from: 0.0,
            until: 1.0,
        };
        assert_eq!(slow.worker(), Some(4));
        let loss = FaultSpec::ResultLoss {
            worker: 5,
            count: 1,
        };
        assert_eq!(loss.worker(), Some(5));
        let jitter = FaultSpec::ChannelJitter {
            factor: 2.0,
            from: 0.0,
            until: 1.0,
        };
        assert_eq!(jitter.worker(), None);
    }

    #[test]
    fn errors_display_their_values() {
        assert!(FaultError::InvalidTime { value: -2.0 }
            .to_string()
            .contains("-2"));
        assert!(FaultError::InvalidWindow {
            from: 1.0,
            until: 0.0
        }
        .to_string()
        .contains("[1, 0)"));
        assert!(FaultError::InvalidFactor { factor: 0.25 }
            .to_string()
            .contains("0.25"));
        assert!(FaultError::ZeroLossCount.to_string().contains("at least"));
    }
}
