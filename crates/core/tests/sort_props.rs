//! `sort_slowest_first` is an exact sort: bit for bit, it equals the
//! comparator sort `sort_by(|a, b| b.total_cmp(a))`, for short and long
//! rows and over every class of `f64` — signed zeros, subnormals,
//! infinities, and NaNs of both signs with distinct payloads, which a key
//! map that merged or reordered them would expose.

use hetero_core::profile::sort_slowest_first;
use proptest::prelude::*;

/// Values where an order-preserving key map could go wrong.
const SPECIALS: [f64; 16] = [
    0.0,
    -0.0,
    f64::from_bits(1),                     // smallest positive subnormal
    f64::from_bits(0x000F_FFFF_FFFF_FFFF), // largest positive subnormal
    f64::from_bits(0x8000_0000_0000_0001), // smallest negative subnormal
    f64::MIN_POSITIVE,
    f64::MAX,
    f64::MIN,
    f64::INFINITY,
    f64::NEG_INFINITY,
    f64::NAN,
    f64::from_bits(0x7FF0_0000_0000_0001), // positive signalling NaN
    f64::from_bits(0x7FFF_FFFF_FFFF_FFFF), // positive NaN, all payload bits
    f64::from_bits(0xFFF8_0000_0000_0000), // negative quiet NaN
    f64::from_bits(0xFFF0_0000_0000_0003), // negative NaN, other payload
    1.0,
];

/// One value: raw random bits (every class), a draw from clustergen's
/// speed box, or a special value.
fn any_value() -> impl Strategy<Value = f64> {
    prop_oneof![
        any::<f64>(),
        0.05f64..1.0,
        (0usize..SPECIALS.len()).prop_map(|i| SPECIALS[i]),
    ]
}

/// A value from a palette of four, so rows are dominated by duplicates
/// (including both zeros, which are equal under `==` but not in bits).
fn duplicate_value() -> impl Strategy<Value = f64> {
    (0usize..4).prop_map(|i| [0.5, 1.0, 0.0, -0.0][i])
}

/// Row lengths: half the cases are short rows (0..=40, where the sweeps'
/// smallest profiles live), half span 0..=4096.
fn row() -> impl Strategy<Value = Vec<f64>> {
    prop_oneof![0usize..=40, 0usize..=4096].prop_flat_map(|n| {
        prop_oneof![
            prop::collection::vec(any_value(), n),
            prop::collection::vec(duplicate_value(), n),
        ]
    })
}

fn comparator_sorted(rhos: &[f64]) -> Vec<f64> {
    let mut out = rhos.to_vec();
    out.sort_by(|a, b| b.total_cmp(a));
    out
}

fn bits(rhos: &[f64]) -> Vec<u64> {
    rhos.iter().map(|r| r.to_bits()).collect()
}

proptest! {
    #[test]
    fn key_sort_equals_the_comparator_sort_bit_for_bit(
        rhos in row(),
        arrangement in 0u8..3,
    ) {
        // 0: as drawn; 1: already slowest first; 2: fastest first.
        let input = match arrangement {
            0 => rhos,
            1 => comparator_sorted(&rhos),
            _ => comparator_sorted(&rhos).into_iter().rev().collect(),
        };
        let expected = comparator_sorted(&input);
        let mut got = input;
        let mut keys = Vec::new();
        sort_slowest_first(&mut got, &mut keys);
        prop_assert_eq!(bits(&got), bits(&expected));
        // A reused, dirty key buffer changes nothing.
        sort_slowest_first(&mut got, &mut keys);
        prop_assert_eq!(bits(&got), bits(&expected));
    }
}

#[test]
fn every_special_value_sorts_exactly() {
    for n in [0, 1, 2, SPECIALS.len(), 21, 64, 4096] {
        let row: Vec<f64> = SPECIALS.iter().copied().cycle().take(n).collect();
        let mut got = row.clone();
        sort_slowest_first(&mut got, &mut Vec::new());
        assert_eq!(bits(&got), bits(&comparator_sorted(&row)), "n = {n}");
    }
}
