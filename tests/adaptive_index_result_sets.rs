//! Cross-strategy agreement through the [`AdaptiveIndex`] trait object.
//!
//! The seed's `strategies_agree.rs` compares result *cardinalities*. This
//! suite is stricter: for seeded random workloads, every strategy — cracking,
//! adaptive merging, all nine hybrids, and the full-scan baseline among them —
//! must return the *identical set of base-column positions* for every query,
//! and those positions must select exactly the qualifying keys. Any drift in
//! how a strategy maps reorganized tuples back to row ids shows up here long
//! before it corrupts a downstream projection.

use adaptive_indexing::core::strategy::{AdaptiveIndex, HybridKind, StrategyKind};
use rand::rngs::StdRng;
use rand::seq::SliceRandom;
use rand::{Rng, SeedableRng};

/// Every strategy the kernel can build: the defaults, with each of the nine
/// hybrid algorithms in place of the one the defaults include.
fn all_strategies() -> Vec<StrategyKind> {
    let mut kinds = StrategyKind::all_defaults();
    kinds.retain(|kind| !matches!(kind, StrategyKind::Hybrid { .. }));
    kinds.extend(HybridKind::all().map(|algorithm| StrategyKind::Hybrid { algorithm }));
    kinds
}

/// Reference answer: positions of keys in `[low, high)`, by direct scan.
fn reference_positions(keys: &[i64], low: i64, high: i64) -> Vec<u32> {
    keys.iter()
        .enumerate()
        .filter(|&(_, &k)| k >= low && k < high)
        .map(|(i, _)| i as u32)
        .collect()
}

/// A column with duplicates, clusters, and negatives, plus a query sequence
/// mixing narrow, wide, empty, inverted-into-empty, and full-domain ranges.
fn random_column_and_queries(
    rng: &mut StdRng,
    rows: usize,
    queries: usize,
) -> (Vec<i64>, Vec<(i64, i64)>) {
    let domain = rows as i64;
    let mut keys: Vec<i64> = (0..rows)
        .map(|_| match rng.gen_range(0..4) {
            // uniform over the domain
            0 => rng.gen_range(-domain..domain),
            // heavy duplicate band
            1 => rng.gen_range(-8..8),
            // clustered around a random center
            _ => {
                let center = rng.gen_range(-domain..domain);
                center + rng.gen_range(-16..=16)
            }
        })
        .collect();
    keys.shuffle(rng);

    let mut ranges = Vec::with_capacity(queries);
    for q in 0..queries {
        let (low, high) = match q % 5 {
            // narrow
            0 => {
                let low = rng.gen_range(-domain..domain);
                (low, low + rng.gen_range(1..32))
            }
            // wide
            1 => {
                let low = rng.gen_range(-domain..0);
                (low, low + rng.gen_range(domain / 2..domain + 1))
            }
            // empty (degenerate bounds)
            2 => {
                let low = rng.gen_range(-domain..domain);
                (low, low)
            }
            // entirely outside the domain
            3 => (2 * domain, 3 * domain),
            // full domain and beyond
            _ => (i64::MIN / 2, i64::MAX / 2),
        };
        ranges.push((low, high));
    }
    (keys, ranges)
}

#[test]
fn every_strategy_returns_identical_position_sets_on_random_workloads() {
    for seed in [1u64, 42, 0xC0FFEE] {
        let mut rng = StdRng::seed_from_u64(seed);
        let (keys, ranges) = random_column_and_queries(&mut rng, 3_000, 60);

        let mut indexes: Vec<(StrategyKind, Box<dyn AdaptiveIndex + Send>)> = all_strategies()
            .into_iter()
            .map(|kind| (kind, kind.build(&keys)))
            .collect();

        for &(low, high) in &ranges {
            let expected = reference_positions(&keys, low, high);
            for (kind, index) in &mut indexes {
                let got = index.query_range(low, high).into_positions().into_vec();
                assert_eq!(
                    got,
                    expected,
                    "{} diverged from the scan reference on [{low}, {high}) with seed {seed}",
                    kind.label(),
                );
            }
        }
    }
}

#[test]
fn returned_positions_select_exactly_the_qualifying_keys() {
    let mut rng = StdRng::seed_from_u64(7);
    let (keys, ranges) = random_column_and_queries(&mut rng, 2_000, 40);

    for kind in all_strategies() {
        let mut index = kind.build(&keys);
        for &(low, high) in &ranges {
            let output = index.query_range(low, high);
            for &position in output.row_ids() {
                let key = keys[position as usize];
                assert!(
                    key >= low && key < high,
                    "{} returned position {position} (key {key}) outside [{low}, {high})",
                    kind.label(),
                );
            }
        }
    }
}

#[test]
fn updatable_cracking_agrees_with_a_mutable_model_under_inserts() {
    let mut rng = StdRng::seed_from_u64(2026);
    let (keys, ranges) = random_column_and_queries(&mut rng, 1_500, 30);

    // Updatable cracking stages inserts through its pending area; strategies
    // without update support must refuse them instead of dropping keys.
    let mut updatable = StrategyKind::UpdatableCracking.build(&keys);
    let mut scan = StrategyKind::FullScan.build(&keys);
    let mut live = keys.clone();

    for (i, &(low, high)) in ranges.iter().enumerate() {
        if i % 3 == 0 {
            let key = rng.gen_range(-1_500i64..1_500);
            assert!(
                updatable.insert_batch(&[key]),
                "updatable-cracking rejected insert of {key}",
            );
            live.push(key);
            assert!(
                !scan.insert_batch(&[key]),
                "full-scan claims update support it does not implement",
            );
        }
        let expected = live.iter().filter(|&&k| k >= low && k < high).count();
        assert_eq!(
            updatable.query_range(low, high).count(),
            expected,
            "updatable-cracking count drifted on [{low}, {high})",
        );
    }
    assert_eq!(updatable.len(), live.len());
    assert_eq!(scan.len(), keys.len());
}
