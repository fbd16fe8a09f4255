//! Property-based tests over the core data structures and invariants.
//!
//! Every adaptive index must be *indistinguishable from a plain scan* in the
//! answers it gives, for arbitrary data and arbitrary query sequences, while
//! its internal invariants (piece bounds, parallel arrays, conservation of
//! tuples) hold after every single query. proptest generates the data and the
//! query sequences; the reference model is a sorted vector.

use adaptive_indexing::columnstore::position::PositionList;
use adaptive_indexing::cracking::selection::CrackedIndex;
use adaptive_indexing::cracking::sideways::MapSet;
use adaptive_indexing::hybrids::{FinalOrganization, HybridAlgorithm, HybridIndex};
use proptest::prelude::*;

fn reference(data: &[i64], low: i64, high: i64) -> Vec<i64> {
    let mut v: Vec<i64> = data
        .iter()
        .copied()
        .filter(|&x| x >= low && x < high)
        .collect();
    v.sort_unstable();
    v
}

fn sorted(mut v: Vec<i64>) -> Vec<i64> {
    v.sort_unstable();
    v
}

/// Arbitrary data column plus an arbitrary sequence of range queries over a
/// domain somewhat wider than the data, so out-of-domain bounds are covered.
fn data_and_queries() -> impl Strategy<Value = (Vec<i64>, Vec<(i64, i64)>)> {
    (
        prop::collection::vec(-500i64..500, 0..400),
        prop::collection::vec((-600i64..600, -600i64..600), 1..40),
    )
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    #[test]
    fn cracking_matches_reference_and_keeps_invariants(
        (data, queries) in data_and_queries()
    ) {
        let mut index = CrackedIndex::from_keys(&data);
        for (a, b) in queries {
            let (low, high) = if a <= b { (a, b) } else { (b, a) };
            let got = sorted(index.query_range(low, high).keys().to_vec());
            prop_assert_eq!(got, reference(&data, low, high));
            prop_assert!(index.verify_integrity());
        }
        // no tuple lost or invented
        prop_assert_eq!(index.len(), data.len());
        let all = sorted(index.query_range(i64::MIN, i64::MAX).keys().to_vec());
        prop_assert_eq!(all, sorted(data.clone()));
    }

    #[test]
    fn adaptive_merging_matches_reference_and_conserves_tuples(
        (data, queries) in data_and_queries(),
        run_size in 1usize..128,
    ) {
        // adaptive merging is Hybrid Sort-Sort with the run size as its
        // partition size; its answers come in key order
        let mut index = HybridIndex::from_keys(&data, HybridAlgorithm::SortSort, run_size, 3);
        for (a, b) in queries {
            let (low, high) = if a <= b { (a, b) } else { (b, a) };
            let got = index.query_range(low, high).keys;
            prop_assert_eq!(got, reference(&data, low, high));
            prop_assert!(index.verify_integrity());
        }
    }

    #[test]
    fn hybrids_match_reference(
        (data, queries) in data_and_queries(),
        algorithm_index in 0usize..9,
        partition_size in 1usize..128,
    ) {
        let algorithm = HybridAlgorithm::all()[algorithm_index];
        let sort_final = algorithm.final_organization() == FinalOrganization::Sort;
        let mut index = HybridIndex::from_keys(&data, algorithm, partition_size, 3);
        for (a, b) in queries {
            let (low, high) = if a <= b { (a, b) } else { (b, a) };
            let keys = index.query_range(low, high).keys;
            // a sort final answers in key order (Sort-Sort is adaptive
            // merging); the others in no particular order
            let got = if sort_final { keys } else { sorted(keys) };
            prop_assert_eq!(got, reference(&data, low, high));
            prop_assert!(index.verify_integrity());
        }
    }

    #[test]
    fn updatable_cracking_matches_a_mutable_model(
        initial in prop::collection::vec(-300i64..300, 0..200),
        operations in prop::collection::vec((0u8..3, -350i64..350, -350i64..350), 1..60),
    ) {
        let mut index = CrackedIndex::from_keys(&initial);
        // model: live multiset of (key, rowid)
        let mut live: Vec<(i64, u32)> = initial
            .iter()
            .copied()
            .enumerate()
            .map(|(i, k)| (k, i as u32))
            .collect();

        for (op, x, y) in operations {
            match op {
                // two inserts for every query, on average
                0 | 1 => {
                    let rowid = index.insert(x);
                    live.push((x, rowid));
                }
                _ => {
                    let (low, high) = if x <= y { (x, y) } else { (y, x) };
                    let answer = index.query_range(low, high);
                    let mut got: Vec<(i64, u32)> =
                        answer.keys().iter().copied().zip(answer.rowids().iter().copied()).collect();
                    got.sort_unstable();
                    let mut expected: Vec<(i64, u32)> = live
                        .iter()
                        .copied()
                        .filter(|&(k, _)| k >= low && k < high)
                        .collect();
                    expected.sort_unstable();
                    prop_assert_eq!(got, expected);
                    prop_assert!(index.verify_integrity());
                }
            }
        }
        prop_assert_eq!(index.len(), live.len());
        let all = sorted(index.query_range(i64::MIN, i64::MAX).keys().to_vec());
        prop_assert_eq!(all, sorted(live.iter().map(|&(k, _)| k).collect()));
    }

    #[test]
    fn sideways_maps_stay_aligned_for_arbitrary_queries(
        data in prop::collection::vec(0i64..400, 1..300),
        queries in prop::collection::vec((0i64..450, 0i64..450), 1..25),
    ) {
        let tail_b: Vec<i64> = data.iter().map(|&v| v * 3 + 1).collect();
        let tail_c: Vec<i64> = data.iter().map(|&v| 1000 - v).collect();
        let mut maps = MapSet::new(&data, vec![("b", tail_b), ("c", tail_c)]);
        for (a, b) in queries {
            let (low, high) = if a <= b { (a, b) } else { (b, a) };
            let answer = maps.select_project(low, high, &["b", "c"]);
            prop_assert_eq!(answer.tails.len(), 2);
            for i in 0..answer.len() {
                let head = answer.head[i];
                prop_assert!(head >= low && head < high);
                prop_assert_eq!(answer.tails[0][i], head * 3 + 1);
                prop_assert_eq!(answer.tails[1][i], 1000 - head);
                prop_assert_eq!(data[answer.rowids[i] as usize], head);
            }
            // cardinality matches the reference
            prop_assert_eq!(answer.len(), reference(&data, low, high).len());
            prop_assert!(maps.verify_integrity());
        }
    }

    #[test]
    fn position_list_set_operations_behave_like_sets(
        a in prop::collection::vec(0u32..200, 0..100),
        b in prop::collection::vec(0u32..200, 0..100),
    ) {
        use std::collections::BTreeSet;
        let pa = PositionList::from_vec(a.clone());
        let pb = PositionList::from_vec(b.clone());
        let sa: BTreeSet<u32> = a.into_iter().collect();
        let sb: BTreeSet<u32> = b.into_iter().collect();

        let intersection: Vec<u32> = sa.intersection(&sb).copied().collect();
        let union: Vec<u32> = sa.union(&sb).copied().collect();
        let difference: Vec<u32> = sa.difference(&sb).copied().collect();

        prop_assert_eq!(pa.intersect(&pb).into_vec(), intersection);
        prop_assert_eq!(pa.union(&pb).into_vec(), union);
        prop_assert_eq!(pa.difference(&pb).into_vec(), difference);
        // selectivity is always within [0, 1]
        let selectivity = pa.selectivity(200);
        prop_assert!((0.0..=1.0).contains(&selectivity));
    }

    #[test]
    fn stochastic_cracking_is_exactly_as_correct_as_plain_cracking(
        (data, queries) in data_and_queries(),
        seed in 0u64..1000,
    ) {
        use adaptive_indexing::cracking::stochastic::{StochasticCrackedIndex, StochasticVariant};
        let mut plain = CrackedIndex::from_keys(&data);
        let mut stochastic = StochasticCrackedIndex::from_keys(
            &data,
            StochasticVariant::DataDrivenRandom,
            16,
            seed,
        );
        for (a, b) in queries {
            let (low, high) = if a <= b { (a, b) } else { (b, a) };
            let expected = sorted(plain.query_range(low, high).keys().to_vec());
            let got = sorted(stochastic.query_range(low, high).keys().to_vec());
            prop_assert_eq!(got, expected);
        }
        prop_assert!(stochastic.verify_integrity());
    }
}
