//! Experiments E4/E5 — the paper's **Figures 3–4**: snapshots of a
//! 4-computer cluster under iterated optimal multiplicative speedup
//! (ψ = 1/2).
//!
//! Phase 1 (Figure 3): starting homogeneous at ⟨1,1,1,1⟩, condition (1)
//! of Theorem 4 selects the then-fastest computer every round (tie-breaks
//! to the larger index), driving the profile to ⟨1/16,…,1/16⟩ in 16
//! rounds, one computer at a time in blocks of four.
//!
//! Phase 2 (Figure 4): with every computer now "very fast", condition (2)
//! takes over and the *slowest* computer is upgraded each round.
//!
//! Candidate evaluation inside [`greedy_multiplicative`] runs on the
//! incremental `hetero_core::xengine` scan (O(1) per candidate); the
//! chosen computers and reported X-values are bit-identical to the
//! from-scratch rescan it replaced, so these figures are unaffected.

use hetero_core::profile::sort_slowest_first;
use hetero_core::speedup::{greedy_multiplicative, theorem4_choice, GreedyStep, Theorem4Choice};
use hetero_core::xbatch::{self, ProfileBatch};
use hetero_core::{fastnum, NumericMode, Params};

use crate::render::bar_chart;

/// Which Theorem 4 condition explains a round's choice.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Regime {
    /// Condition (1): fastest-first.
    FastestFirst,
    /// Condition (2): slowest-first.
    SlowestFirst,
    /// Tie-break among equal speeds.
    TieBreak,
}

/// One annotated snapshot.
#[derive(Debug, Clone)]
pub struct Snapshot {
    /// The greedy engine's step (round, chosen computer, speeds, X).
    pub step: GreedyStep,
    /// The regime that explains the choice.
    pub regime: Regime,
}

/// The full two-phase experiment.
#[derive(Debug, Clone)]
pub struct Fig34 {
    /// Parameters (the paper's Figure 3/4 configuration by default).
    pub params: Params,
    /// The speedup factor ψ.
    pub psi: f64,
    /// Phase-1 snapshots (Figure 3).
    pub phase1: Vec<Snapshot>,
    /// Phase-2 snapshots (Figure 4).
    pub phase2: Vec<Snapshot>,
}

fn classify(params: &Params, before: &[f64], chosen: usize, psi: f64) -> Regime {
    let min = before.iter().cloned().fold(f64::INFINITY, f64::min);
    let max = before.iter().cloned().fold(0.0f64, f64::max);
    if (max - min).abs() < 1e-15 {
        return Regime::TieBreak;
    }
    // Compare the chosen computer against the extremes via Theorem 4.
    let rho_chosen = before[chosen];
    if (rho_chosen - min).abs() < 1e-15 {
        // Chose a fastest computer: condition (1) against the slowest.
        debug_assert_eq!(
            theorem4_choice(params, max, rho_chosen, psi),
            Theorem4Choice::Faster
        );
        Regime::FastestFirst
    } else if (rho_chosen - max).abs() < 1e-15 {
        Regime::SlowestFirst
    } else {
        Regime::TieBreak
    }
}

/// Runs the two-phase experiment: `rounds1` greedy rounds from a
/// homogeneous start, then `rounds2` more (the paper uses 16 + 4).
pub fn run(params: &Params, n: usize, psi: f64, rounds1: usize, rounds2: usize) -> Fig34 {
    run_mode(params, n, psi, rounds1, rounds2, NumericMode::Strict)
}

/// [`run`] under an explicit [`NumericMode`]. The greedy engine's
/// candidate scan stays strict in both modes (the incremental xengine
/// is certified against the strict evaluation order); only the
/// trajectory's batched X re-derivation switches kernels.
pub fn run_mode(
    params: &Params,
    n: usize,
    psi: f64,
    rounds1: usize,
    rounds2: usize,
    mode: NumericMode,
) -> Fig34 {
    let mut steps = greedy_multiplicative(params, &vec![1.0; n], psi, rounds1 + rounds2)
        .expect("valid configuration");
    // Re-derive every reported X through the lockstep batch kernel: all
    // rounds share length n, so the whole trajectory is one uniform
    // [`ProfileBatch`] pass. In strict mode the kernel is bit-identical
    // to the incremental scan's from-scratch contract, which the
    // debug_assert pins on every figure regeneration; in fast mode the
    // divide-free kernel must stay within its certified ulp budget of
    // the scan's value instead.
    let mut batch = ProfileBatch::with_capacity(steps.len(), steps.len() * n);
    let mut sorted = vec![0.0; n];
    let mut keys = Vec::new();
    for step in &steps {
        sorted.copy_from_slice(&step.speeds);
        sort_slowest_first(&mut sorted, &mut keys);
        batch.push(&sorted);
    }
    for (step, x) in steps
        .iter_mut()
        .zip(xbatch::x_measures_mode(params, &batch, mode))
    {
        match mode {
            NumericMode::Strict => {
                debug_assert_eq!(step.x.to_bits(), x.to_bits(), "round {}", step.round);
            }
            NumericMode::Fast => {
                debug_assert!(
                    ((x - step.x) / step.x).abs() <= 2.0 * fastnum::x_budget_rcp(n),
                    "round {}: fast X {x} drifted past budget from {}",
                    step.round,
                    step.x
                );
            }
        }
        step.x = x;
    }
    let mut snaps = Vec::with_capacity(steps.len());
    let mut before = vec![1.0; n];
    for step in steps {
        let regime = classify(params, &before, step.chosen, psi);
        before = step.speeds.clone();
        snaps.push(Snapshot { step, regime });
    }
    let phase2 = snaps.split_off(rounds1);
    Fig34 {
        params: *params,
        psi,
        phase1: snaps,
        phase2,
    }
}

/// The paper's exact configuration: 4 computers, ψ = 1/2, 16 + 4 rounds.
pub fn run_paper() -> Fig34 {
    run(&Params::fig34(), 4, 0.5, 16, 4)
}

/// [`run_paper`] under an explicit [`NumericMode`].
pub fn run_paper_mode(mode: NumericMode) -> Fig34 {
    run_mode(&Params::fig34(), 4, 0.5, 16, 4, mode)
}

impl Fig34 {
    /// Renders one phase as a sequence of ASCII bar charts (the paper's
    /// snapshot panels). `max_rho` sets the bar scale (1 for Figure 3,
    /// 1/16 for Figure 4, mirroring the paper's rescaled axes).
    pub fn render_phase(&self, snaps: &[Snapshot], max_rho: f64) -> String {
        let mut out = String::new();
        for s in snaps {
            let regime = match s.regime {
                Regime::FastestFirst => "cond (1): fastest",
                Regime::SlowestFirst => "cond (2): slowest",
                Regime::TieBreak => "tie-break",
            };
            out.push_str(&bar_chart(
                &format!(
                    "round {:2}: speed up C{} [{}]  X = {:.4}",
                    s.step.round,
                    s.step.chosen + 1,
                    regime,
                    s.step.x
                ),
                &s.step.speeds,
                max_rho,
                40,
            ));
            out.push('\n');
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn phase1_reproduces_figure3() {
        let f = run_paper();
        assert_eq!(f.phase1.len(), 16);
        // Identity-ordered choice sequence: C4×4, C3×4, C2×4, C1×4.
        let chosen: Vec<usize> = f.phase1.iter().map(|s| s.step.chosen).collect();
        assert_eq!(chosen, [3, 3, 3, 3, 2, 2, 2, 2, 1, 1, 1, 1, 0, 0, 0, 0]);
        // Final profile ⟨1/16,…⟩.
        for &s in &f.phase1.last().unwrap().step.speeds {
            assert!((s - 1.0 / 16.0).abs() < 1e-12);
        }
    }

    #[test]
    fn phase1_round1_is_a_tie_break_then_condition1() {
        let f = run_paper();
        assert_eq!(f.phase1[0].regime, Regime::TieBreak, "homogeneous start");
        for s in &f.phase1[1..4] {
            assert_eq!(s.regime, Regime::FastestFirst, "round {}", s.step.round);
        }
        // Round 5 switches computers (condition 2 stops C4, tie-break picks
        // C3 among the remaining ρ = 1 computers).
        assert_eq!(f.phase1[4].step.chosen, 2);
    }

    #[test]
    fn phase2_reproduces_figure4() {
        let f = run_paper();
        assert_eq!(f.phase2.len(), 4);
        // Round 17 starts from the again-homogeneous ⟨1/16,…⟩, so it is a
        // tie-break ("with the tie-breaking mechanism used as necessary");
        // every subsequent round picks the slowest under condition (2).
        assert_eq!(f.phase2[0].regime, Regime::TieBreak);
        for s in &f.phase2[1..] {
            assert_eq!(
                s.regime,
                Regime::SlowestFirst,
                "round {}: condition (2) governs phase 2",
                s.step.round
            );
        }
        // Choices sweep C4, C3, C2, C1 — each still-slow computer once.
        let chosen: Vec<usize> = f.phase2.iter().map(|s| s.step.chosen).collect();
        assert_eq!(chosen, [3, 2, 1, 0]);
        for &s in &f.phase2.last().unwrap().step.speeds {
            assert!((s - 1.0 / 32.0).abs() < 1e-12);
        }
    }

    #[test]
    fn x_increases_every_round() {
        let f = run_paper();
        let all: Vec<f64> = f.phase1.iter().chain(&f.phase2).map(|s| s.step.x).collect();
        for w in all.windows(2) {
            assert!(w[1] > w[0]);
        }
    }

    #[test]
    fn rendering_contains_every_round() {
        let f = run_paper();
        let s1 = f.render_phase(&f.phase1, 1.0);
        assert_eq!(s1.matches("round").count(), 16);
        let s2 = f.render_phase(&f.phase2, 1.0 / 16.0);
        assert_eq!(s2.matches("round").count(), 4);
        assert!(s2.contains("cond (2)"));
    }

    #[test]
    fn table1_params_would_not_show_the_phase_change() {
        // With the µs-scale Table 1 parameters, Aτδ/B² ≈ 1e-11, so
        // condition (1) never releases the fastest computer within 20
        // rounds — the documented reason Figures 3–4 need the fig34
        // parameter set (DESIGN.md substitution S2).
        let f = run(&Params::paper_table1(), 4, 0.5, 16, 4);
        let chosen: Vec<usize> = f.phase1.iter().map(|s| s.step.chosen).collect();
        assert!(
            chosen[1..].iter().all(|&c| c == 3),
            "fastest keeps winning: {chosen:?}"
        );
    }
}
