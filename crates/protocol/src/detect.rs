//! Send-boundary failure detection, shared by the adaptive
//! ([`crate::replan`]) and exchange ([`crate::exchange`]) families.
//!
//! Each time the server is about to send position `pos`, it learns which
//! positions at or after `pos` have crashed (`t_c ≤ now`) or are
//! straggling (one of their worker's slowdown windows is active at
//! `now`). Both verdicts are sticky: a crash is permanent, and a
//! detected straggler's effective ρ is rescaled once, by the factor
//! active when it was first seen.
//!
//! Only a position whose worker has a crash time or a slowdown window
//! can ever change a verdict. The detector lists those positions once
//! per execution, in position order, and a boundary visits only the
//! listed positions at or after `pos` — never every unsent position.
//! Top-up positions inherit their source position's membership.

use hetero_core::Profile;
use hetero_faults::FaultPlan;
use hetero_sim::SimTime;

/// Per-position fault knowledge of one execution, original positions
/// first and top-up positions appended.
pub(crate) struct Detector {
    /// Nominal speed ρ.
    pub(crate) rhos: Vec<f64>,
    /// Speed rescaled by the slowdown factor seen at detection.
    pub(crate) eff_rhos: Vec<f64>,
    /// The position's worker's crash time.
    pub(crate) crash_by_pos: Vec<Option<f64>>,
    /// A boundary has seen the crash.
    pub(crate) known_crashed: Vec<bool>,
    /// A boundary has seen an active slowdown window.
    pub(crate) detected_slow: Vec<bool>,
    /// Positions with a crash time or a slowdown window, ascending.
    watched: Vec<usize>,
}

impl Detector {
    /// Fresh knowledge for the positions of `order` (profile indices in
    /// startup order): nothing detected yet.
    pub(crate) fn new(profile: &Profile, order: &[usize], faults: &FaultPlan) -> Self {
        let n = order.len();
        let rhos: Vec<f64> = order.iter().map(|&i| profile.rho(i)).collect();
        let crash_by_pos: Vec<Option<f64>> = order.iter().map(|&i| faults.crash_time(i)).collect();
        let watched = order
            .iter()
            .zip(&crash_by_pos)
            .enumerate()
            .filter(|&(_, (&i, crash))| crash.is_some() || faults.has_slowdown(i))
            .map(|(pos, _)| pos)
            .collect();
        Detector {
            eff_rhos: rhos.clone(),
            rhos,
            crash_by_pos,
            known_crashed: vec![false; n],
            detected_slow: vec![false; n],
            watched,
        }
    }

    /// Detection at the boundary before sending `pos`, at time `now`.
    /// `order` maps positions to profile indices. Returns `true` when
    /// anything new was learned.
    pub(crate) fn detect(
        &mut self,
        order: &[usize],
        faults: &FaultPlan,
        pos: usize,
        now: SimTime,
    ) -> bool {
        let mut learned = false;
        let first = self.watched.partition_point(|&j| j < pos);
        for &j in self.watched.iter().skip(first) {
            if !self.known_crashed[j] {
                if let Some(tc) = self.crash_by_pos[j] {
                    if tc <= now.get() {
                        self.known_crashed[j] = true;
                        learned = true;
                    }
                }
            }
            if !self.detected_slow[j] {
                if let Some(f) = faults.slowdown_factor(order[j], now.get()) {
                    self.eff_rhos[j] = self.rhos[j] * f;
                    self.detected_slow[j] = true;
                    learned = true;
                }
            }
        }
        learned
    }

    /// Appends a top-up position served by the same worker as position
    /// `src`: it inherits `src`'s speeds, crash time, slowdown verdict
    /// and watch-list membership, and its crash is not yet known.
    pub(crate) fn push_copy_of(&mut self, src: usize) {
        let pos = self.rhos.len();
        self.rhos.push(self.rhos[src]);
        self.eff_rhos.push(self.eff_rhos[src]);
        self.crash_by_pos.push(self.crash_by_pos[src]);
        self.known_crashed.push(false);
        self.detected_slow.push(self.detected_slow[src]);
        if self.watched.binary_search(&src).is_ok() {
            // Appended positions are the largest yet: the list stays sorted.
            self.watched.push(pos);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use hetero_faults::FaultSpec;

    fn at(t: f64) -> SimTime {
        SimTime::try_new(t).unwrap()
    }

    #[test]
    fn only_faulted_positions_are_watched() {
        let profile = Profile::harmonic(5);
        let order = [4, 3, 2, 1, 0];
        let faults = FaultPlan::new(vec![
            FaultSpec::Crash { worker: 1, at: 5.0 },
            FaultSpec::Slowdown {
                worker: 4,
                factor: 2.0,
                from: 3.0,
                until: 9.0,
            },
            FaultSpec::ResultLoss {
                worker: 2,
                count: 1,
            },
        ])
        .unwrap();
        let mut det = Detector::new(&profile, &order, &faults);
        // Worker 4 sits at position 0, worker 1 at position 3; losses
        // never change a detection verdict.
        assert_eq!(det.watched, vec![0, 3]);
        assert!(!det.detect(&order, &faults, 0, at(1.0)));
        assert!(det.detect(&order, &faults, 0, at(3.0)));
        assert!(det.detected_slow[0]);
        assert_eq!(det.eff_rhos[0], det.rhos[0] * 2.0);
        // Past position 0, its window is no longer visited.
        assert!(det.detect(&order, &faults, 1, at(6.0)));
        assert!(det.known_crashed[3]);
        assert!(!det.detect(&order, &faults, 1, at(7.0)));
    }

    #[test]
    fn top_up_positions_inherit_membership() {
        let profile = Profile::harmonic(3);
        let mut order = vec![0, 1, 2];
        let faults = FaultPlan::new(vec![FaultSpec::Crash { worker: 1, at: 5.0 }]).unwrap();
        let mut det = Detector::new(&profile, &order, &faults);
        for src in [0, 1] {
            det.push_copy_of(src);
            order.push(order[src]);
        }
        assert_eq!(det.watched, vec![1, 4]);
        assert_eq!(det.crash_by_pos[4], Some(5.0));
        assert!(det.detect(&order, &faults, 3, at(5.0)));
        assert!(!det.known_crashed[1], "position 1 lies before the boundary");
        assert!(det.known_crashed[4]);
    }
}
