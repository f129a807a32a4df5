//! Property suite for the PR 7 streaming/pruning layers, cross-checked
//! against both a from-scratch float evaluation and the exact rational
//! oracle:
//!
//! * **Churn ≡ rebuild.** Any interleaving of insert/delete/replace on a
//!   [`ChurnScan`] must track the flat `x_measure_of_rhos` of its live
//!   membership to ≤ 1e-12 relative after *every* operation — the scan
//!   reassociates (segmented prefix scans, swap-with-tail deletes), so
//!   bit-identity is not the contract, but tight agreement is. Fleets
//!   reach five segments of 64, and a separate property drains a fleet
//!   to empty and refills it.
//! * **Stale handles.** A deleted worker's handle stays dead after an
//!   insert reuses its table index: `delete`, `replace` and `rho_of`
//!   all reject it.
//! * **Ratio-oracle spot checks.** The final churned state must agree
//!   with the mathematically exact X of its membership via
//!   `hetero-exact`'s `Ratio` arithmetic — not merely with another f64
//!   path that could share its rounding errors. Dyadic speeds keep the
//!   exact denominators bounded.
//! * **B&B ≡ Gray.** The branch-and-bound search must return the
//!   *bit-identical* winner of the exhaustive Gray-code walk — max X by
//!   `total_cmp`, ties to the lowest mask — on adversarial profiles
//!   drawn from a tiny speed pool so duplicate runs force exact X ties
//!   the dominance canonicalization has to resolve the same way.
//! * **Compression certificates.** Every [`SummaryTree`] node's stored
//!   log-residual must sit within its own error certificate
//!   (`certification_slack ≤ 1`), and the Proposition 1 compressed fleet
//!   must reproduce the flat X within the tree's certified X bound.

use hetero_core::hcompress::SummaryTree;
use hetero_core::selection::{best_k_subset_gray, best_k_subset_with_stats};
use hetero_core::xmeasure::x_measure_of_rhos;
use hetero_core::xstream::{ChurnScan, WorkerId, SEGMENT_CAPACITY};
use hetero_core::{ModelError, Params, Profile};
use hetero_exact::Ratio;
use hetero_symfunc::exact_model::{x_exact, ExactParams};
use proptest::prelude::*;

/// Dyadic speeds over ~8 decades: exact `Ratio` denominators stay
/// bounded while the compensated sums still see wild magnitude spreads.
fn dyadic_rho() -> impl Strategy<Value = f64> {
    (1.0f64..2.0, -26i32..1).prop_map(|(m, e)| m * (e as f64).exp2())
}

/// One churn step: insert a worker, delete the live worker at a rotating
/// offset, or replace one with a new speed.
#[derive(Debug, Clone)]
enum Churn {
    Insert(f64),
    Delete(usize),
    Replace(usize, f64),
}

fn churn_step() -> impl Strategy<Value = Churn> {
    prop_oneof![
        dyadic_rho().prop_map(Churn::Insert),
        any::<prop::sample::Index>().prop_map(|i| Churn::Delete(i.index(1 << 16))),
        (any::<prop::sample::Index>(), dyadic_rho())
            .prop_map(|(i, rho)| Churn::Replace(i.index(1 << 16), rho)),
    ]
}

fn rel_err(a: f64, b: f64) -> f64 {
    (a - b).abs() / a.abs().max(b.abs()).max(f64::MIN_POSITIVE)
}

fn exact_x_of(params: &Params, rhos: &[f64]) -> f64 {
    let ep = ExactParams::from_params(params);
    let exact: Vec<Ratio> = rhos
        .iter()
        .map(|&r| Ratio::from_f64(r).expect("finite"))
        .collect();
    x_exact(&ep, &exact).to_f64()
}

/// Applies one churn step to the scan and its live-handle list.
fn apply(scan: &mut ChurnScan, live: &mut Vec<WorkerId>, op: &Churn) {
    match *op {
        Churn::Insert(rho) => {
            live.push(scan.insert(rho).expect("valid rho"));
        }
        Churn::Delete(i) => {
            if live.len() > 1 {
                let id = live.swap_remove(i % live.len());
                scan.delete(id).expect("live handle");
            }
        }
        Churn::Replace(i, rho) => {
            let id = live[i % live.len()];
            scan.replace(id, rho).expect("live handle");
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    #[test]
    fn churned_scan_tracks_the_flat_rebuild_after_every_op(
        initial in prop::collection::vec(dyadic_rho(), 1..40),
        ops in prop::collection::vec(churn_step(), 1..40),
    ) {
        let params = Params::paper_table1();
        let (mut scan, mut live) = ChurnScan::from_rhos(&params, &initial).expect("valid speeds");
        for op in &ops {
            apply(&mut scan, &mut live, op);
            let flat = x_measure_of_rhos(&params, &scan.to_rhos());
            prop_assert!(
                rel_err(scan.x(), flat) <= 1e-12,
                "after {op:?}: scan {} vs rebuild {flat}",
                scan.x()
            );
        }

        // Exact-oracle spot check on the final membership: the churned
        // value must agree with rational arithmetic, not just another
        // float path.
        let exact = exact_x_of(&params, &scan.to_rhos());
        prop_assert!(
            rel_err(scan.x(), exact) <= 1e-12,
            "final: scan {} vs exact {exact}",
            scan.x()
        );
    }

    #[test]
    fn churn_across_many_segments_tracks_the_flat_rebuild(
        // Up to five segments of 64: tail backfills cross segment
        // boundaries and the summary tree grows while the fleet loads.
        // (Fleets this large make the exact oracle too slow, so the
        // small-fleet property above keeps it.)
        initial in prop::collection::vec(dyadic_rho(), 1..5 * SEGMENT_CAPACITY),
        ops in prop::collection::vec(churn_step(), 1..160),
    ) {
        let params = Params::paper_table1();
        let (mut scan, mut live) = ChurnScan::from_rhos(&params, &initial).expect("valid speeds");
        for op in &ops {
            apply(&mut scan, &mut live, op);
            let flat = x_measure_of_rhos(&params, &scan.to_rhos());
            prop_assert!(
                rel_err(scan.x(), flat) <= 1e-12,
                "after {op:?} at n = {}: scan {} vs rebuild {flat}",
                live.len(),
                scan.x()
            );
        }
    }

    #[test]
    fn draining_to_empty_and_refilling_tracks_the_rebuild(
        initial in prop::collection::vec(dyadic_rho(), 1..5 * SEGMENT_CAPACITY),
        picks in prop::collection::vec(any::<prop::sample::Index>(), 5 * SEGMENT_CAPACITY),
        refill in prop::collection::vec(dyadic_rho(), 1..3 * SEGMENT_CAPACITY),
    ) {
        let params = Params::paper_table1();
        let (mut scan, mut live) = ChurnScan::from_rhos(&params, &initial).expect("valid speeds");
        let gone = live.clone();
        // Delete in a drawn order, so interior and boundary positions
        // both go, until the fleet is empty.
        for pick in picks.iter().cycle() {
            if live.is_empty() {
                break;
            }
            let id = live.swap_remove(pick.index(live.len()));
            scan.delete(id).expect("live handle");
            if !live.is_empty() {
                let flat = x_measure_of_rhos(&params, &scan.to_rhos());
                prop_assert!(
                    rel_err(scan.x(), flat) <= 1e-12,
                    "draining at n = {}: scan {} vs rebuild {flat}",
                    live.len(),
                    scan.x()
                );
            }
        }
        prop_assert!(scan.is_empty());
        prop_assert_eq!(scan.x(), 0.0);
        prop_assert_eq!(scan.residual_product(), 1.0);
        for &rho in &refill {
            live.push(scan.insert(rho).expect("valid rho"));
        }
        prop_assert_eq!(scan.to_rhos(), refill.clone());
        let flat = x_measure_of_rhos(&params, &refill);
        prop_assert!(rel_err(scan.x(), flat) <= 1e-12, "refilled: scan {} vs rebuild {flat}", scan.x());
        // Every drained handle stays dead, even where the refill reused
        // its table entry.
        for id in gone {
            prop_assert!(scan.rho_of(id).is_err());
        }
    }

    #[test]
    fn branch_and_bound_winner_is_bit_identical_to_the_gray_walk(
        // Indices into a 4-value pool: duplicate runs are the common
        // case, forcing exact X ties (same multiset, different masks)
        // that both searches must break to the identical lowest mask.
        picks in prop::collection::vec(0usize..4, 1..25),
        pool in prop::collection::vec(dyadic_rho(), 4),
        k in 1usize..25,
    ) {
        prop_assume!(k <= picks.len());
        let params = Params::paper_table1();
        let rhos: Vec<f64> = picks.iter().map(|&i| pool[i]).collect();
        let profile = Profile::from_unsorted(rhos).expect("positive finite speeds");
        let walk = best_k_subset_gray(&params, &profile, k).expect("valid k");
        let (bnb, stats) = best_k_subset_with_stats(&params, &profile, k).expect("valid k");
        for (a, b) in bnb.rhos().iter().zip(walk.rhos()) {
            prop_assert_eq!(a.to_bits(), b.to_bits(), "bnb {:?} vs walk {:?}", bnb, walk);
        }
        prop_assert!(stats.leaves_evaluated > 0);
    }

    #[test]
    fn summary_tree_certificates_hold_on_adversarial_fleets(
        rhos in prop::collection::vec(dyadic_rho(), 1..700),
    ) {
        let params = Params::paper_table1();
        let tree = SummaryTree::with_leaf_size(&params, &rhos, 16).expect("valid speeds");
        // Every node within its own certificate.
        prop_assert!(
            tree.certification_slack() <= 1.0,
            "per-node bound violated: slack {}",
            tree.certification_slack()
        );
        // The root-level X within the certified bound of the flat
        // evaluation (plus the flat path's own few-ulp rounding).
        let flat = x_measure_of_rhos(&params, &rhos);
        prop_assert!(
            (tree.x() - flat).abs() <= tree.x_error_bound() + 1e-12 * flat.abs(),
            "tree {} vs flat {flat}, bound {}",
            tree.x(),
            tree.x_error_bound()
        );
        // Proposition 1 compression: collapsing to homogeneous
        // equivalents is exact in ℝ, so the float fleet must sit inside
        // the same certified envelope.
        let fleet = tree.compress(8).expect("valid budget");
        prop_assert!(fleet.num_clusters() <= 8);
        prop_assert_eq!(fleet.n(), rhos.len());
        prop_assert!(
            (fleet.x() - flat).abs() <= tree.x_error_bound() + 1e-11 * flat.abs(),
            "compressed {} vs flat {flat}",
            fleet.x()
        );
    }
}

#[test]
fn a_stale_handle_is_rejected_after_its_index_is_reused() {
    let params = Params::paper_table1();
    let (mut scan, ids) = ChurnScan::from_rhos(&params, &[1.0, 0.5, 0.25]).expect("valid speeds");
    let old = ids[1];
    scan.delete(old).expect("live handle");
    let new = scan.insert(0.75).expect("valid rho");
    // The insert reused the freed handle index under a new generation.
    assert_eq!(new.get() as u32, old.get() as u32);
    assert_ne!(new, old);
    let stale = |r: Result<(), ModelError>| matches!(r, Err(ModelError::IndexOutOfRange { .. }));
    assert!(stale(scan.delete(old)));
    assert!(stale(scan.replace(old, 0.125)));
    assert!(stale(scan.rho_of(old).map(|_| ())));
    // The new tenant and the rest of the fleet are untouched.
    assert_eq!(scan.rho_of(new).expect("live handle"), 0.75);
    assert_eq!(scan.n(), 3);
    let flat = x_measure_of_rhos(&params, &scan.to_rhos());
    assert!(rel_err(scan.x(), flat) <= 1e-12);
}
