//! The span-label vocabulary of the DES executors.
//!
//! Every span an executor records is a [`Label`] built from one of the
//! heads below, the computer numbers it concerns (`C{i + 1}` for profile
//! index `i`) and an optional [`Mark`]:
//!
//! | label | recorded on | by |
//! |---|---|---|
//! | `pack→C7`, `xmit:work:C7`, `recv←C7` | server, channel, server | all executors |
//! | `unpack`, `compute`, `pack`, `wait:channel` | worker | all executors |
//! | `xmit:result:C7` (`†lost` when it vanishes) | channel | all executors |
//! | `compute†crash` (any worker phase), bare `†crash` | worker | fault families |
//! | `skip→C7` | server | adaptive replanning |
//! | `xpack→C9`, `xmit:xchg:C7→C9`, `recv←C9·xchg` | worker, channel, server | exchange |
//!
//! Classifiers (`exec::phase_of`, the Gantt glyphs, the critical-path
//! filters, `validate`) match on [`Label::head`] and [`Label::mark`]
//! against these constants; nothing renders a label to classify it.

pub use hetero_sim::{Label, Mark};

/// Worker unpackages received work.
pub const UNPACK: &str = "unpack";
/// Worker computes.
pub const COMPUTE: &str = "compute";
/// Worker packages its results.
pub const PACK: &str = "pack";
/// Worker waits for the shared channel to send its results.
pub const WAIT_CHANNEL: &str = "wait:channel";
/// Server packages work for a computer.
pub const PACK_TO: &str = "pack→C";
/// Adaptive server skips a doomed send (zero width).
pub const SKIP_TO: &str = "skip→C";
/// Straggler re-packages its residual work for a donor.
pub const XPACK_TO: &str = "xpack→C";
/// Work in transit to a computer.
pub const XMIT_WORK: &str = "xmit:work:C";
/// A computer's results in transit to the server.
pub const XMIT_RESULT: &str = "xmit:result:C";
/// Residual work in transit between two computers (a route label).
pub const XMIT_XCHG: &str = "xmit:xchg:C";
/// Server unpackages a computer's results.
pub const RECV_FROM: &str = "recv←C";
