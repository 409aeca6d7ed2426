//! **Weighted sequence mining** — the paper's §5 future-work direction
//! ("weighting applications": page weights in WWW traversal, gene importance
//! in DNA analysis).
//!
//! Each customer sequence carries a weight; the *weighted support* of a
//! pattern is the total weight of the customers containing it, and a pattern
//! is frequent when its weighted support reaches a threshold `δ_w`. The DISC
//! strategy transfers directly because its two lemmas never count anything —
//! they only compare positions in a sorted database. Weighting changes how
//! rank accumulates along the head walk, not the walk itself:
//!
//! * the k-sorted database ([`KSortedDb`](crate::sorted_db::KSortedDb))
//!   keeps each bucket's total member weight;
//! * `α_δ` is the key where **cumulative bucket weight** reaches `δ_w`;
//! * `α₁ = α_δ` ⇒ the bucket of `α₁` carries weight ≥ `δ_w`, and — by the
//!   same invariant as the unweighted case — every customer containing `α₁`
//!   keys on it, so the bucket weight is the exact weighted support;
//! * `α₁ < α_δ` ⇒ any `α ∈ [α₁, α_δ)` is supported only by customers keyed
//!   below `α_δ`, whose total weight is < `δ_w` — non-frequent, skipped.
//!
//! [`WeightedDisc`] therefore runs the shared discovery loop of
//! [`crate::discovery`] (packed or flat keys, extension cache, bi-level
//! counting) with the customer weights. Uniform weight 1 recovers ordinary
//! mining exactly (property-tested).
//!
//! The miner runs discovery over the whole database from k = 2 (a weighted
//! counting array for level 1); the multi-level partitioning of DISC-all is
//! orthogonal and not applied here.

use crate::counting::CountingArray;
use crate::discovery::discover_weighted_into;
use disc_core::{contains, CustomerId, Item, MineGuard, MiningResult, Sequence, SequenceDatabase};

/// A sequence database whose customers carry weights.
#[derive(Debug, Clone, Default)]
pub struct WeightedDatabase {
    db: SequenceDatabase,
    weights: Vec<u64>,
}

impl WeightedDatabase {
    /// Builds from `(sequence, weight)` pairs, assigning CIDs 1, 2, ….
    pub fn from_weighted(rows: impl IntoIterator<Item = (Sequence, u64)>) -> WeightedDatabase {
        let mut db = SequenceDatabase::new();
        let mut weights = Vec::new();
        for (i, (seq, w)) in rows.into_iter().enumerate() {
            db.push(CustomerId(i as u64 + 1), seq);
            weights.push(w);
        }
        WeightedDatabase { db, weights }
    }

    /// Wraps an unweighted database with uniform weight 1.
    pub fn uniform(db: SequenceDatabase) -> WeightedDatabase {
        let weights = vec![1; db.len()];
        WeightedDatabase { db, weights }
    }

    /// The underlying sequences.
    pub fn database(&self) -> &SequenceDatabase {
        &self.db
    }

    /// The weight of customer `i`.
    pub fn weight(&self, i: usize) -> u64 {
        self.weights[i]
    }

    /// Total weight of all customers.
    pub fn total_weight(&self) -> u64 {
        self.weights.iter().sum()
    }

    /// Definitional weighted support: total weight of the customers
    /// containing `pattern`. The reference the miner is tested against.
    pub fn weighted_support(&self, pattern: &Sequence) -> u64 {
        self.db
            .sequences()
            .zip(&self.weights)
            .filter(|(s, _)| contains(s, pattern))
            .map(|(_, &w)| w)
            .sum()
    }
}

/// The weighted DISC miner.
#[derive(Debug, Clone)]
pub struct WeightedDisc {
    /// Use the bi-level optimization (weighted counting arrays over the
    /// virtual partitions).
    pub bi_level: bool,
}

impl Default for WeightedDisc {
    fn default() -> Self {
        WeightedDisc { bi_level: true }
    }
}

impl WeightedDisc {
    /// Mines every pattern with weighted support ≥ `delta_w`. Supports in
    /// the result are weighted supports.
    pub fn mine(&self, wdb: &WeightedDatabase, delta_w: u64) -> MiningResult {
        let delta_w = delta_w.max(1);
        let mut result = MiningResult::new();
        let Some(max_item) = wdb.db.max_item() else {
            return result;
        };
        let n_items = max_item.id() as usize + 1;

        // Level 1: weighted counting array over the whole database.
        let mut array = CountingArray::new(n_items);
        for (i, s) in wdb.db.sequences().enumerate() {
            array.add_member_weighted(s, &Sequence::empty(), wdb.weights[i]);
        }
        let mut freq_prev: Vec<Sequence> = Vec::new();
        for id in 0..n_items as u32 {
            let support = array.seq_support(Item(id));
            if support >= delta_w {
                let pat = Sequence::single(Item(id));
                result.insert(pat.clone(), support);
                freq_prev.push(pat);
            }
        }

        // Levels k ≥ 2 by the shared discovery loop; under bi-level each
        // pass also yields level k + 1, which seeds the next pass.
        let members: Vec<&Sequence> = wdb.db.sequences().collect();
        let guard = MineGuard::unlimited();
        while !freq_prev.is_empty() {
            let out = discover_weighted_into(
                &members,
                &wdb.weights,
                &freq_prev,
                delta_w,
                self.bi_level,
                &guard,
                &mut array,
            )
            .expect("unlimited guard never aborts");
            for (p, s) in out.freq_k.iter().chain(&out.freq_k1) {
                result.insert(p.clone(), *s);
            }
            let next = if self.bi_level { out.freq_k1 } else { out.freq_k };
            freq_prev = next.into_iter().map(|(p, _)| p).collect();
        }
        result
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::DiscAll;
    use disc_core::{parse_sequence, MinSupport, SequentialMiner};

    fn seq(s: &str) -> Sequence {
        parse_sequence(s).unwrap()
    }

    fn weighted_brute_force(wdb: &WeightedDatabase, delta_w: u64) -> MiningResult {
        // Level-wise prefix growth with definitional weighted counting.
        use disc_core::{ExtElem, ExtMode};
        let mut result = MiningResult::new();
        let mut items: Vec<Item> =
            wdb.database().sequences().flat_map(|s| s.distinct_items()).collect();
        items.sort_unstable();
        items.dedup();
        let mut frontier = Vec::new();
        for item in items {
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
                    let mut candidates =
                        vec![base.extended(ExtElem { item, mode: ExtMode::Sequence })];
                    if item > last {
                        candidates.push(base.extended(ExtElem { item, mode: ExtMode::Itemset }));
                    }
                    for cand in candidates {
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

    fn table1_weighted() -> WeightedDatabase {
        WeightedDatabase::from_weighted([
            (seq("(a,e,g)(b)(h)(f)(c)(b,f)"), 5),
            (seq("(b)(d,f)(e)"), 1),
            (seq("(b,f,g)"), 2),
            (seq("(f)(a,g)(b,f,h)(b,f)"), 3),
        ])
    }

    #[test]
    fn weighted_support_is_definitional() {
        let wdb = table1_weighted();
        assert_eq!(wdb.total_weight(), 11);
        assert_eq!(wdb.weighted_support(&seq("(b)")), 11);
        assert_eq!(wdb.weighted_support(&seq("(a)(b)(b)")), 8); // customers 1 and 4
        assert_eq!(wdb.weighted_support(&seq("(d)")), 1);
    }

    #[test]
    fn matches_weighted_brute_force() {
        let wdb = table1_weighted();
        for delta_w in [1u64, 3, 5, 8, 11] {
            let expected = weighted_brute_force(&wdb, delta_w);
            for miner in [WeightedDisc::default(), WeightedDisc { bi_level: false }] {
                let got = miner.mine(&wdb, delta_w);
                let diff = got.diff(&expected);
                assert!(diff.is_empty(), "δw={delta_w}:\n{}", diff.join("\n"));
            }
        }
    }

    #[test]
    fn weight_skew_changes_the_answer() {
        // With heavy weight on customer 1, its private patterns become
        // "frequent" even at high thresholds.
        let wdb = table1_weighted();
        let result = WeightedDisc::default().mine(&wdb, 5);
        assert!(result.contains_pattern(&seq("(a,e,g)"))); // only customer 1, weight 5
                                                           // Unweighted, the same pattern has support 1 of 4.
        let unweighted = DiscAll::default().mine(wdb.database(), MinSupport::Count(2));
        assert!(!unweighted.contains_pattern(&seq("(a,e,g)")));
    }

    #[test]
    fn uniform_weights_recover_ordinary_mining() {
        let db = SequenceDatabase::from_parsed(&[
            "(a,e,g)(b)(h)(f)(c)(b,f)",
            "(b)(d,f)(e)",
            "(b,f,g)",
            "(f)(a,g)(b,f,h)(b,f)",
        ])
        .unwrap();
        let wdb = WeightedDatabase::uniform(db.clone());
        for delta in 1..=4u64 {
            let expected = DiscAll::default().mine(&db, MinSupport::Count(delta));
            let got = WeightedDisc::default().mine(&wdb, delta);
            let diff = got.diff(&expected);
            assert!(diff.is_empty(), "δ={delta}:\n{}", diff.join("\n"));
        }
    }

    #[test]
    fn flat_key_fallback_matches_weighted_brute_force() {
        // Customer 2 (weight 1) padded past the packed transaction budget
        // with an item whose weighted support stays below every threshold:
        // discovery runs on `FlatKey`s and the answer must not move.
        use disc_core::packed::MAX_PACKED_TXNS;
        let plain = table1_weighted();
        let pad = std::iter::repeat_n(seq("(z)").itemsets()[0].clone(), MAX_PACKED_TXNS as usize);
        let padded = WeightedDatabase::from_weighted(plain.database().sequences().enumerate().map(
            |(i, s)| {
                let s = if i == 1 {
                    Sequence::new(s.itemsets().iter().cloned().chain(pad.clone()))
                } else {
                    s.clone()
                };
                (s, plain.weight(i))
            },
        ));
        assert!(padded
            .database()
            .sequences()
            .any(|s| s.n_transactions() > MAX_PACKED_TXNS as usize));
        for delta_w in [2u64, 3, 5, 8] {
            let expected = weighted_brute_force(&plain, delta_w);
            for miner in [WeightedDisc::default(), WeightedDisc { bi_level: false }] {
                let got = miner.mine(&padded, delta_w);
                let diff = got.diff(&expected);
                assert!(diff.is_empty(), "δw={delta_w}:\n{}", diff.join("\n"));
            }
        }
    }

    #[test]
    fn empty_database() {
        let wdb = WeightedDatabase::default();
        assert!(WeightedDisc::default().mine(&wdb, 1).is_empty());
    }
}
