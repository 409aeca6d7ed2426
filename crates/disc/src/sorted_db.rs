//! The **k-sorted database** (Section 3.2): partition members keyed by their
//! conditional k-minimum subsequences in an ordered bucket map.
//!
//! Keys are stored in a flattened [`SeqKey`] representation — the sequence's
//! `(item, transaction-number)` pairs packed into comparison-ready words — so
//! every comparison on a map descent is one slice comparison instead of a
//! fresh walk through the nested representation. When the database fits the
//! packed-word budget, the discovery loop instantiates this with
//! [`disc_core::PackedKey`] (one `u32` per pair, SIMD-comparable); otherwise
//! the wide [`FlatKey`] default applies. The public API stays in terms of
//! [`Sequence`].
//!
//! The backing store is a `BTreeMap<K, Bucket>` with an explicitly tracked
//! total weight. The paper's §3.2 locative AVL tree exists for rank queries,
//! but the discovery loop only ever asks order statistics about the *head*
//! of the database — `α₁`, `α_δ` for the small rank `δ = ⌈minsup·|D|⌉`
//! within a virtual partition, and head drains — so a short in-order walk
//! over the first few buckets beats maintaining subtree counts on every
//! insert.
//!
//! Every member carries a weight, and each bucket keeps the sum of its
//! members' weights. Ranks are cumulative bucket weight along the head walk:
//! `α_δ` is the first key where it reaches δ, and a bucket's weight is its
//! key's support. Unweighted mining inserts every member with weight 1, so
//! bucket weight equals bucket length; weighted mining
//! ([`crate::weighted`]) passes customer weights through the same walk.

use crate::kms::Kms;
use disc_core::{FlatKey, SeqKey, Sequence};
use std::collections::BTreeMap;

/// One entry of the k-sorted database: which partition member it is, plus
/// its apriori pointer into the (k-1)-sorted list.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Entry {
    /// Index of the customer sequence within the partition's member list.
    pub member: usize,
    /// Apriori pointer (Fig. 5/6): index of the current key's (k-1)-prefix
    /// in the (k-1)-sorted list.
    pub ptr: usize,
}

/// The members keyed on one k-sequence, with their total weight.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Bucket {
    /// Sum of the members' weights: the key's (weighted) support among the
    /// members still in the database.
    pub weight: u64,
    /// The members, in insertion order.
    pub entries: Vec<Entry>,
}

/// The k-sorted database, generic over the flattened key representation.
#[derive(Debug)]
pub struct KSortedDb<K: SeqKey = FlatKey> {
    map: BTreeMap<K, Bucket>,
    weight: u64,
    /// Drained bucket allocations, reused by later inserts: most buckets are
    /// singletons, so without the pool every re-keying would allocate one
    /// small `Vec` per member movement.
    pool: Vec<Vec<Entry>>,
}

impl<K: SeqKey> Default for KSortedDb<K> {
    fn default() -> KSortedDb<K> {
        KSortedDb::new()
    }
}

impl<K: SeqKey> KSortedDb<K> {
    /// An empty k-sorted database.
    pub fn new() -> KSortedDb<K> {
        KSortedDb { map: BTreeMap::new(), weight: 0, pool: Vec::new() }
    }

    /// Total weight of the customer positions (the paper's "size of SD";
    /// the number of members when every weight is 1).
    pub fn len(&self) -> u64 {
        self.weight
    }

    /// True when no weight remains.
    pub fn is_empty(&self) -> bool {
        self.weight == 0
    }

    /// Inserts a member of weight `weight` under its freshly computed
    /// k-minimum subsequence.
    pub fn insert(&mut self, member: usize, kms: Kms, weight: u64) {
        self.insert_key(member, K::key_of(&kms.key), kms.ptr, weight);
    }

    /// Inserts a member of weight `weight` under an already-flattened key —
    /// the raw-KMS path, which never materializes a nested sequence.
    pub fn insert_key(&mut self, member: usize, key: K, ptr: usize, weight: u64) {
        let bucket = self
            .map
            .entry(key)
            .or_insert_with(|| Bucket { weight: 0, entries: self.pool.pop().unwrap_or_default() });
        bucket.weight += weight;
        bucket.entries.push(Entry { member, ptr });
        self.weight += weight;
    }

    /// Returns a drained bucket's allocation to the pool for reuse.
    pub fn recycle(&mut self, mut bucket: Vec<Entry>) {
        if bucket.capacity() > 0 && self.pool.len() < 1024 {
            bucket.clear();
            self.pool.push(bucket);
        }
    }

    /// `α₁`: the minimum key, reconstructed as a sequence.
    pub fn alpha_1(&self) -> Option<Sequence> {
        self.map.keys().next().map(SeqKey::to_sequence)
    }

    /// `α_δ`: the key at customer position δ (1-based), reconstructed as a
    /// sequence.
    pub fn alpha_delta(&self, delta: u64) -> Option<Sequence> {
        self.alpha_delta_key(delta).map(SeqKey::to_sequence)
    }

    /// `α_δ` as a borrowed flattened key: an in-order walk accumulating
    /// bucket weights until the running weight reaches δ. The rank δ is the
    /// partition's support threshold — a small constant — so this touches at
    /// most a handful of head buckets.
    pub fn alpha_delta_key(&self, delta: u64) -> Option<&K> {
        debug_assert!(delta >= 1);
        let mut seen = 0u64;
        for (k, b) in &self.map {
            seen += b.weight;
            if seen >= delta {
                return Some(k);
            }
        }
        None
    }

    /// `α₁ = α_δ`? — the Lemma 2.1 test: the minimum bucket alone carries
    /// weight at least δ.
    pub fn alpha_1_equals_delta(&self, delta: u64) -> bool {
        debug_assert!(delta >= 1);
        self.map.values().next().is_some_and(|b| b.weight >= delta)
    }

    /// Detaches the minimum bucket: `(α₁, its virtual partition)`. The bucket
    /// weight is `α₁`'s exact support among the partition members. The key
    /// stays flattened — the caller materializes a [`Sequence`] only when it
    /// reports the pattern.
    pub fn take_min(&mut self) -> Option<(K, Bucket)> {
        let (k, b) = self.map.pop_first()?;
        self.weight -= b.weight;
        Some((k, b))
    }

    /// Detaches every bucket keyed strictly below `bound`, ascending.
    pub fn take_less_than(&mut self, bound: &Sequence) -> Vec<(Sequence, Bucket)> {
        self.split_below(&K::key_of(bound))
            .into_iter()
            .map(|(k, b)| (k.into_sequence(), b))
            .collect()
    }

    /// Detaches every bucket keyed strictly below `bound`, ascending. The
    /// keys themselves are dropped without ever being reconstructed — the
    /// Lemma 2.2 skip only re-keys the members.
    pub fn take_buckets_less_than(&mut self, bound: &K) -> Vec<Bucket> {
        self.split_below(bound).into_values().collect()
    }

    /// Splits off and returns the `< bound` head of the map, adjusting the
    /// tracked weight.
    fn split_below(&mut self, bound: &K) -> BTreeMap<K, Bucket> {
        let rest = self.map.split_off(bound);
        let below = std::mem::replace(&mut self.map, rest);
        self.weight -= below.values().map(|b| b.weight).sum::<u64>();
        below
    }

    /// In-order view of `(key, bucket)` — Table 3/9-style dumps for tests
    /// and debugging.
    pub fn snapshot(&self) -> Vec<(Sequence, Bucket)> {
        self.map.iter().map(|(k, b)| (k.to_sequence(), b.clone())).collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::kms::apriori_kms;
    use disc_core::{parse_sequence, PackedKey};

    fn seq(s: &str) -> Sequence {
        parse_sequence(s).unwrap()
    }

    fn table_9_database<K: SeqKey>() -> KSortedDb<K> {
        // Build the 4-sorted database of the <(a)(a)>-partition (Table 9).
        let mut list: Vec<Sequence> =
            ["(a)(a,e)", "(a)(a,g)", "(a)(a,h)"].iter().map(|t| seq(t)).collect();
        list.sort();
        let customers = [
            "(a)(a,g,h)(c)",           // CID 1
            "(b)(a)(a,c,e,g)",         // CID 2
            "(a,f,g)(a,e,g,h)(c,g,h)", // CID 3
            "(f)(a,f)(a,c,e,g,h)",     // CID 4
            "(a,f)(a,e,g,h)",          // CID 6
            "(a,g)(a,e,g)(g,h)",       // CID 7
        ];
        let mut db = KSortedDb::new();
        for (m, text) in customers.iter().enumerate() {
            let kms = apriori_kms(&seq(text), &list).unwrap();
            db.insert(m, kms, 1);
        }
        db
    }

    fn assert_table_9_shape<K: SeqKey>(db: &KSortedDb<K>) {
        assert_eq!(db.len(), 6);
        assert_eq!(db.alpha_1(), Some(seq("(a)(a,e)(c)")));
        // δ = 3: the third customer position holds <(a)(a,e,g)>.
        assert_eq!(db.alpha_delta(3), Some(seq("(a)(a,e,g)")));
        assert_eq!(db.alpha_delta(6), Some(seq("(a)(a,g)(c)")));
        assert_eq!(db.alpha_delta(7), None);
        assert!(db.alpha_1_equals_delta(1));
        assert!(!db.alpha_1_equals_delta(3));

        let snapshot = db.snapshot();
        let keys: Vec<String> = snapshot.iter().map(|(k, _)| k.to_string()).collect();
        assert_eq!(keys, vec!["(a)(a, e)(c)", "(a)(a, e, g)", "(a)(a, g)(c)"]);
        // The <(a)(a,e,g)> bucket holds CIDs 2, 4, 6, 7 (member indices 1, 3, 4, 5).
        let members: Vec<usize> = snapshot[1].1.entries.iter().map(|e| e.member).collect();
        assert_eq!(members, vec![1, 3, 4, 5]);
        assert_eq!(snapshot[1].1.weight, 4);
    }

    #[test]
    fn table_9_four_sorted_database() {
        assert_table_9_shape(&table_9_database::<FlatKey>());
    }

    #[test]
    fn table_9_agrees_under_packed_keys() {
        // The same sorted database, keyed by packed u32 words, must produce
        // an identical in-order snapshot — the order-preservation claim of
        // the packing scheme exercised through the whole tree layer.
        assert_table_9_shape(&table_9_database::<PackedKey>());
        let flat = table_9_database::<FlatKey>().snapshot();
        let packed = table_9_database::<PackedKey>().snapshot();
        assert_eq!(flat, packed);
    }

    #[test]
    fn take_less_than_drains_the_head() {
        let mut db: KSortedDb = KSortedDb::new();
        db.insert(0, Kms { key: seq("(a)(b)"), ptr: 0 }, 1);
        db.insert(1, Kms { key: seq("(a)(c)"), ptr: 0 }, 1);
        db.insert(2, Kms { key: seq("(b)(c)"), ptr: 1 }, 1);
        let below = db.take_less_than(&seq("(b)(c)"));
        assert_eq!(below.len(), 2);
        assert_eq!(db.len(), 1);
        assert_eq!(db.alpha_1(), Some(seq("(b)(c)")));
    }

    #[test]
    fn ranks_follow_bucket_weight_not_bucket_length() {
        // One heavy member, a light pair (one of weight 0) and a tail member.
        let mut db: KSortedDb = KSortedDb::new();
        db.insert(0, Kms { key: seq("(a)(b)"), ptr: 0 }, 4);
        db.insert(1, Kms { key: seq("(a)(c)"), ptr: 0 }, 0);
        db.insert(2, Kms { key: seq("(a)(c)"), ptr: 0 }, 1);
        db.insert(3, Kms { key: seq("(b)(c)"), ptr: 1 }, 2);
        assert_eq!(db.len(), 7);
        // Lemma 2.1 holds with one member: the head bucket's weight is 4 ≥ δ.
        assert!(db.alpha_1_equals_delta(3));
        assert!(db.alpha_1_equals_delta(4));
        assert!(!db.alpha_1_equals_delta(5));
        // α_δ stays inside the heavy head bucket for every δ ≤ 4.
        for delta in 1..=4 {
            assert_eq!(db.alpha_delta(delta), Some(seq("(a)(b)")), "δ = {delta}");
        }
        assert_eq!(db.alpha_delta(5), Some(seq("(a)(c)")));
        assert_eq!(db.alpha_delta(7), Some(seq("(b)(c)")));
        assert_eq!(db.alpha_delta(8), None);

        let (_, head) = db.take_min().unwrap();
        assert_eq!((head.weight, head.entries.len()), (4, 1));
        assert_eq!(db.len(), 3);
        // Two members, weight 1: fails Lemma 2.1 at δ = 2.
        assert!(db.alpha_1_equals_delta(1));
        assert!(!db.alpha_1_equals_delta(2));
        let below = db.take_buckets_less_than(&FlatKey::key_of(&seq("(b)(c)")));
        assert_eq!(below.iter().map(|b| b.weight).collect::<Vec<_>>(), vec![1]);
        assert_eq!(db.len(), 2);
    }
}
