//! Property tests for the weighted extension: weighted DISC equals the
//! weighted brute force on random weighted databases, and degenerates to
//! ordinary mining under uniform weights.

use disc_algo::weighted::{WeightedDatabase, WeightedDisc};
use disc_algo::DiscAll;
use disc_core::{
    BruteForce, ExtElem, ExtMode, Item, Itemset, MinSupport, MiningResult, Sequence,
    SequenceDatabase, SequentialMiner,
};
use proptest::prelude::*;

fn arb_itemset(max_item: u32) -> impl Strategy<Value = Itemset> {
    prop::collection::btree_set(0..max_item, 1..=3)
        .prop_map(|s| Itemset::new(s.into_iter().map(Item)).expect("non-empty"))
}

fn arb_sequence(max_item: u32) -> impl Strategy<Value = Sequence> {
    prop::collection::vec(arb_itemset(max_item), 1..=4).prop_map(Sequence::new)
}

fn arb_weighted_db() -> impl Strategy<Value = WeightedDatabase> {
    prop::collection::vec((arb_sequence(5), 1u64..=5), 1..=8)
        .prop_map(WeightedDatabase::from_weighted)
}

/// Up to 8 customers over at most 3 distinct items, weights `0..=5`: members
/// often share keys, so buckets hold several members of unequal (or zero)
/// weight and bucket weight differs from bucket length.
fn arb_shared_key_db() -> impl Strategy<Value = WeightedDatabase> {
    prop::collection::vec((arb_sequence(3), 0u64..=5), 1..=8)
        .prop_map(WeightedDatabase::from_weighted)
}

/// Weighted level-wise brute force (definitional).
fn weighted_brute(wdb: &WeightedDatabase, delta_w: u64) -> MiningResult {
    let mut result = MiningResult::new();
    let mut items: Vec<Item> =
        wdb.database().sequences().flat_map(|s| s.distinct_items()).collect();
    items.sort_unstable();
    items.dedup();
    let mut frontier = Vec::new();
    for item in items.iter().copied() {
        let pat = Sequence::single(item);
        let w = wdb.weighted_support(&pat);
        if w >= delta_w {
            result.insert(pat.clone(), w);
            frontier.push(pat);
        }
    }
    let freq_items: Vec<Item> =
        frontier.iter().map(|p| p.last_flat_item().expect("non-empty")).collect();
    while !frontier.is_empty() {
        let mut next = Vec::new();
        for base in &frontier {
            let last = base.last_flat_item().expect("non-empty");
            for &item in &freq_items {
                let mut cands = vec![base.extended(ExtElem { item, mode: ExtMode::Sequence })];
                if item > last {
                    cands.push(base.extended(ExtElem { item, mode: ExtMode::Itemset }));
                }
                for cand in cands {
                    let w = wdb.weighted_support(&cand);
                    if w >= delta_w {
                        result.insert(cand.clone(), w);
                        next.push(cand);
                    }
                }
            }
        }
        frontier = next;
    }
    result
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(128))]

    #[test]
    fn weighted_disc_matches_weighted_brute_force(
        wdb in arb_weighted_db(),
        frac in 1u64..=10,
    ) {
        let delta_w = (wdb.total_weight() * frac / 10).max(1);
        let expected = weighted_brute(&wdb, delta_w);
        for miner in [WeightedDisc::default(), WeightedDisc { bi_level: false }] {
            let got = miner.mine(&wdb, delta_w);
            let diff = got.diff(&expected);
            prop_assert!(diff.is_empty(), "δw={}:\n{}", delta_w, diff.join("\n"));
        }
    }

    #[test]
    fn shared_keys_with_zero_and_uneven_weights_match_brute_force(
        wdb in arb_shared_key_db(),
        frac in 1u64..=10,
    ) {
        let delta_w = (wdb.total_weight() * frac / 10).max(1);
        let expected = weighted_brute(&wdb, delta_w);
        for miner in [WeightedDisc::default(), WeightedDisc { bi_level: false }] {
            let got = miner.mine(&wdb, delta_w);
            let diff = got.diff(&expected);
            prop_assert!(diff.is_empty(), "δw={}:\n{}", delta_w, diff.join("\n"));
        }
    }

    #[test]
    fn uniform_weights_equal_ordinary_mining(
        rows in prop::collection::vec(arb_sequence(5), 1..=8),
        delta in 1u64..=4,
    ) {
        let db = SequenceDatabase::from_sequences(rows);
        let wdb = WeightedDatabase::uniform(db.clone());
        let ordinary = DiscAll::default().mine(&db, MinSupport::Count(delta));
        let weighted = WeightedDisc::default().mine(&wdb, delta);
        prop_assert!(weighted.diff(&ordinary).is_empty());
    }

    #[test]
    fn scaling_weights_scales_supports(wdb in arb_weighted_db(), factor in 2u64..=4) {
        // Multiplying every weight by c multiplies every weighted support
        // by c; mining at c·δw returns the same patterns.
        let delta_w = (wdb.total_weight() / 2).max(1);
        let scaled = WeightedDatabase::from_weighted(
            wdb.database()
                .sequences()
                .enumerate()
                .map(|(i, s)| (s.clone(), wdb.weight(i) * factor)),
        );
        let a = WeightedDisc::default().mine(&wdb, delta_w);
        let b = WeightedDisc::default().mine(&scaled, delta_w * factor);
        prop_assert_eq!(a.len(), b.len());
        for (p, s) in a.iter() {
            prop_assert_eq!(b.support_of(p), Some(s * factor), "{}", p);
        }
    }

    #[test]
    fn zero_weight_customers_do_not_contribute(rows in prop::collection::vec(arb_sequence(5), 2..=6)) {
        // Weight-0 rows are allowed and must be invisible in supports.
        let n = rows.len();
        let half = n / 2;
        let wdb = WeightedDatabase::from_weighted(
            rows.iter().cloned().enumerate().map(|(i, s)| (s, if i < half { 1 } else { 0 })),
        );
        let kept = SequenceDatabase::from_sequences(rows[..half].to_vec());
        let expected = if kept.is_empty() {
            MiningResult::new()
        } else {
            BruteForce::default().mine(&kept, MinSupport::Count(1))
        };
        let got = WeightedDisc::default().mine(&wdb, 1);
        prop_assert!(got.diff(&expected).is_empty());
    }
}
