//! Multi-level partitioning (Section 3.1): grouping customer sequences by
//! their minimum prefixes, reducing them, and walking partitions in
//! ascending key order with **reassignment chains**.
//!
//! The load-bearing property is *lifetime completeness*: partitions are
//! processed in ascending key order, and after a partition is processed each
//! member moves to the partition of its **next** frequent minimum. A
//! sequence's chain therefore enumerates, in ascending order, exactly the
//! frequent keys it contains — so when a partition's turn comes, *every*
//! supporter of its key is present, which is why counting arrays and DISC
//! buckets inside a partition produce exact global supports.
//!
//! Every walk — first level, second level, and the dynamic miner's deeper
//! levels — is one [`BucketQueue`]: reassignment only ever moves a member to
//! a strictly larger key, so a single forward sweep over dense buckets
//! visits every partition once, in the paper's order.

use crate::kms::{all_extensions, decode_elem, encode_elem, min_extension_where};
use disc_core::{
    AbortReason, ExtElem, ExtMode, FlatArena, FlatDb, Item, MineGuard, SeqView, Sequence,
};
use std::collections::BTreeMap;

/// No slot: the end of a bucket's member list.
const NIL: u32 = u32::MAX;

/// A monotone bucket queue over the dense keys `0..n_keys`: the ascending
/// partition walk of Figure 2.
///
/// Each bucket is a FIFO list of slots threaded through one shared `link`
/// column, so the queue holds every slot at most once and never allocates
/// per bucket. [`BucketQueue::sweep`] hands out the non-empty buckets in
/// ascending key order, and a member leaving a visited bucket may only move
/// to a larger key. That is exactly the reassignment-chain contract, so one
/// forward pass visits every partition once, in the paper's order, with the
/// same members in the same order an ordered map of lists would hold.
#[derive(Debug, Default)]
pub struct BucketQueue {
    /// Per key, the first slot of its bucket, or [`NIL`].
    head: Vec<u32>,
    /// Per key, the last slot of its bucket (valid while `head` is set).
    tail: Vec<u32>,
    /// Per slot, the next slot in its bucket, or [`NIL`].
    link: Vec<u32>,
    /// The smallest key not yet swept.
    next: usize,
    /// The members of the bucket being visited.
    members: Vec<usize>,
}

impl BucketQueue {
    /// An empty queue over keys `0..n_keys`.
    pub fn new(n_keys: usize) -> BucketQueue {
        let mut queue = BucketQueue::default();
        queue.reset(n_keys);
        queue
    }

    /// Empties the queue and re-keys it to `0..n_keys`, keeping its
    /// allocations for reuse.
    pub fn reset(&mut self, n_keys: usize) {
        self.head.clear();
        self.head.resize(n_keys, NIL);
        self.tail.clear();
        self.tail.resize(n_keys, NIL);
        self.link.clear();
        self.next = 0;
    }

    /// Appends `slot` to the bucket of `key`. The key must lie past every
    /// bucket already popped, and the slot must not be queued already.
    pub fn push(&mut self, key: usize, slot: usize) {
        debug_assert!(key >= self.next, "reassignment keys must strictly increase");
        let s = u32::try_from(slot).expect("slot index fits in u32");
        if slot >= self.link.len() {
            self.link.resize(slot + 1, NIL);
        }
        self.link[slot] = NIL;
        match self.head[key] {
            NIL => self.head[key] = s,
            _ => self.link[self.tail[key] as usize] = s,
        }
        self.tail[key] = s;
    }

    /// Runs the walk to its end. Each non-empty bucket, in ascending key
    /// order, is handed to `visit(key, members)` as one partition; then each
    /// member moves to the bucket `next(slot, key)` names — a key larger
    /// than `key` — or leaves the walk when its chain ends. One guard
    /// checkpoint per partition and per reassignment turn.
    pub fn sweep(
        &mut self,
        guard: &MineGuard,
        mut visit: impl FnMut(usize, &[usize]) -> Result<(), AbortReason>,
        mut next: impl FnMut(usize, usize) -> Option<usize>,
    ) -> Result<(), AbortReason> {
        let mut members = std::mem::take(&mut self.members);
        while let Some(key) = self.pop_into(&mut members) {
            guard.checkpoint()?;
            visit(key, &members)?;
            for &slot in &members {
                guard.checkpoint()?;
                if let Some(to) = next(slot, key) {
                    self.push(to, slot);
                }
            }
        }
        self.members = members;
        Ok(())
    }

    /// Pops the smallest non-empty bucket: fills `members` with its slots in
    /// push order and returns its key, or returns `None` once the sweep has
    /// passed every key.
    fn pop_into(&mut self, members: &mut Vec<usize>) -> Option<usize> {
        members.clear();
        while self.next < self.head.len() {
            let key = self.next;
            self.next += 1;
            let mut slot = std::mem::replace(&mut self.head[key], NIL);
            if slot == NIL {
                continue;
            }
            while slot != NIL {
                members.push(slot as usize);
                slot = self.link[slot as usize];
            }
            return Some(key);
        }
        None
    }
}

/// Groups database rows by their minimum 1-sequence (Step 1(b) of Figure 2)
/// into a [`BucketQueue`] keyed by item id. Keys include non-frequent items;
/// mining skips those partitions but the reassignment chains still flow
/// through them. One checkpoint per row keeps the scan of a huge database
/// abortable.
///
/// Operates on the flat columns directly, so it works identically on a
/// heap-built database and one mapped from a `DSCFD1` file.
pub fn group_by_min_item_guarded(
    db: &FlatDb,
    guard: &MineGuard,
) -> Result<BucketQueue, AbortReason> {
    let n_items = db.max_item().map_or(0, |m| m.id() as usize + 1);
    let mut queue = BucketQueue::new(n_items);
    for (idx, row) in db.rows().enumerate() {
        guard.checkpoint()?;
        // Itemsets are sorted, so a row's minimum item is the smallest
        // first element across its transactions.
        let min = (0..row.n_transactions()).filter_map(|t| row.itemset_items(t).first()).min();
        if let Some(&item) = min {
            queue.push(item.id() as usize, idx);
        }
    }
    Ok(queue)
}

/// The initial first-level partitions as an ordered map from minimum item to
/// member rows — for callers that inspect the grouping rather than walk it
/// (the level-0 NRR of [`crate::stats`]).
pub fn group_by_min_item(db: &FlatDb) -> BTreeMap<Item, Vec<usize>> {
    let mut queue = group_by_min_item_guarded(db, &MineGuard::unlimited())
        .expect("unlimited guard never aborts");
    let mut groups = BTreeMap::new();
    let mut members = Vec::new();
    while let Some(key) = queue.pop_into(&mut members) {
        groups.insert(Item(key as u32), members.clone());
    }
    groups
}

/// Per database row, the ascending distinct *frequent* items it contains —
/// the whole itinerary of the row's first-level reassignment chain, stored
/// as one compressed column (row `r` owns `items[offsets[r]..offsets[r+1]]`)
/// and computed in one pass per row, so every chain turn is a binary search
/// over a short slice instead of a row walk (Step 2.2 of Figure 2).
#[derive(Debug)]
pub struct Itineraries {
    offsets: Vec<usize>,
    items: Vec<Item>,
}

impl Itineraries {
    /// Builds the itineraries of every row of `db`; `freq1` flags the
    /// frequent items. One checkpoint per row.
    pub fn build(
        db: &FlatDb,
        freq1: &[bool],
        guard: &MineGuard,
    ) -> Result<Itineraries, AbortReason> {
        let mut offsets = Vec::with_capacity(db.len() + 1);
        // Sized once to the item-occurrence count, an upper bound, so the
        // column never reallocates while it grows.
        let mut items = Vec::with_capacity(db.columns().0.len());
        let mut own: Vec<Item> = Vec::new();
        offsets.push(0);
        for row in db.rows() {
            guard.checkpoint()?;
            own.clear();
            for t in 0..row.n_transactions() {
                own.extend(row.itemset_items(t).iter().copied().filter(|x| freq1[x.id() as usize]));
            }
            own.sort_unstable();
            own.dedup();
            items.extend_from_slice(&own);
            offsets.push(items.len());
        }
        items.shrink_to_fit();
        Ok(Itineraries { offsets, items })
    }

    /// The smallest frequent item of `row` strictly greater than `after`:
    /// the next stop of the row's reassignment chain.
    pub fn next_after(&self, row: usize, after: Item) -> Option<Item> {
        let items = &self.items[self.offsets[row]..self.offsets[row + 1]];
        items.get(items.partition_point(|&x| x <= after)).copied()
    }
}

/// The bucket key of a next-level partition: the rank of its extension
/// `elem` among the partition's ascending frequent extensions `exts` (as
/// [`crate::counting::CountingArray::frequent_extensions`] lists them).
///
/// Complete by construction: the keying and reassignment lookups
/// ([`RowExtensions::min_masked`], [`min_ext_elem`]) return only masked
/// extensions, and the masks flag exactly the members of `exts`.
pub fn ext_rank(exts: &[(ExtElem, u64)], elem: ExtElem) -> usize {
    exts.binary_search_by(|(e, _)| e.cmp(&elem)).expect("masked extensions are frequent")
}

/// Customer sequence reduction (Step 2.1.2 of Figure 2).
///
/// Within the `<(λ)>`-partition, an item occurrence `x` to the right of the
/// minimum point is removed unless some frequent pattern starting with `λ`
/// could still use it:
///
/// 1. if `x`'s transaction contains `λ` *and* lies at the minimum point, `x`
///    survives iff `<(λ x)>` is frequent;
/// 2. if `x`'s transaction does not contain `λ`, `x` survives iff
///    `<(λ)(x)>` is frequent;
/// 3. if both conditions hold (a later transaction containing `λ`), either
///    form suffices.
///
/// Occurrences of `λ` itself and everything left of the minimum point are
/// kept. Returns `None` when fewer than 3 items survive — such sequences
/// cannot support any 3-sequence and leave the reduced partition.
pub fn reduce_sequence(
    seq: &Sequence,
    lambda: Item,
    min_point: usize,
    freq1: &[bool],
    i_mask: &[bool],
    s_mask: &[bool],
) -> Option<Sequence> {
    let reduced = seq.filtered(|t, x| {
        if x == lambda || t < min_point {
            return true;
        }
        if t == min_point && x < lambda {
            return true; // left of the minimum point within its transaction
        }
        if !freq1[x.id() as usize] {
            return false;
        }
        let cond1 = seq.itemset(t).contains(lambda);
        let cond2 = t > min_point;
        let i_ok = x > lambda && i_mask[x.id() as usize];
        let s_ok = s_mask[x.id() as usize];
        match (cond1, cond2) {
            (false, _) => s_ok,
            (true, false) => i_ok,
            (true, true) => i_ok || s_ok,
        }
    });
    if reduced.length() >= 3 {
        Some(reduced)
    } else {
        None
    }
}

/// [`reduce_sequence`] into flat storage: appends the reduced copy of `seq`
/// to `arena` and returns its row index, or rolls the row back and returns
/// `None` when fewer than 3 items survive. The keep-predicate is identical
/// to [`reduce_sequence`]'s; the reduced member never exists as a nested
/// [`Sequence`], so the hot reduction loop allocates only arena growth.
pub fn reduce_into<'a, S: SeqView<'a>>(
    arena: &mut FlatArena,
    seq: S,
    lambda: Item,
    min_point: usize,
    freq1: &[bool],
    i_mask: &[bool],
    s_mask: &[bool],
) -> Option<usize> {
    // λ-containment is a property of the transaction, not the item — memoize
    // it across the items of the transaction being filtered.
    let mut memo_t = usize::MAX;
    let mut memo_cond1 = false;
    let row = arena.push_filtered(seq, |t, x| {
        if x == lambda || t < min_point {
            return true;
        }
        if t == min_point && x < lambda {
            return true; // left of the minimum point within its transaction
        }
        if !freq1[x.id() as usize] {
            return false;
        }
        if t != memo_t {
            memo_t = t;
            memo_cond1 = seq.itemset_items(t).binary_search(&lambda).is_ok();
        }
        let cond1 = memo_cond1;
        let cond2 = t > min_point;
        let i_ok = x > lambda && i_mask[x.id() as usize];
        let s_ok = s_mask[x.id() as usize];
        match (cond1, cond2) {
            (false, _) => s_ok,
            (true, false) => i_ok,
            (true, true) => i_ok || s_ok,
        }
    });
    if arena.row(row).length() >= 3 {
        Some(row)
    } else {
        arena.pop_row();
        None
    }
}

/// The minimum *frequent* extension element of `prefix` contained in `seq`,
/// strictly greater than `bound` when given — the generalized
/// "(conditional) (j+1)-minimum subsequence" that keys next-level partitions
/// and drives their reassignment chains.
///
/// `i_mask`/`s_mask` flag the frequent itemset-/sequence-extension items of
/// this partition's counting array.
pub fn min_ext_elem<'a, S: SeqView<'a>>(
    seq: S,
    prefix: &Sequence,
    i_mask: &[bool],
    s_mask: &[bool],
    bound: Option<ExtElem>,
) -> Option<ExtElem> {
    min_extension_where(seq, prefix, |e| {
        let mask = match e.mode {
            ExtMode::Itemset => &i_mask[e.item.id() as usize],
            ExtMode::Sequence => &s_mask[e.item.id() as usize],
        };
        *mask && bound.is_none_or(|b| e > b)
    })
}

/// The precomputed extension sets of a partition's reduced rows: per arena
/// row, every realizable one-element extension of the partition prefix,
/// ascending in the order-preserving encoding of [`crate::kms`].
///
/// The second-level keying and reassignment chains ask "smallest masked
/// extension (strictly past a bound)" once per chain turn — a fresh
/// embedding walk each time through [`min_ext_elem`]. The extension set of
/// a (row, prefix) pair never changes, so one walk per row at reduction
/// time turns every later turn into a binary search plus a short masked
/// scan. Sets live in one shared arena, indexed in lockstep with the
/// partition's [`FlatArena`] rows.
#[derive(Debug, Default)]
pub struct RowExtensions {
    /// Per row, its `(start, end)` span in `arena`.
    spans: Vec<(u32, u32)>,
    /// All encoded extension sets, back to back.
    arena: Vec<u64>,
    /// Reused per-row staging buffer.
    scratch: Vec<u64>,
}

impl RowExtensions {
    /// An empty table.
    pub fn new() -> RowExtensions {
        RowExtensions::default()
    }

    /// Empties the table, keeping its allocations for reuse.
    pub fn clear(&mut self) {
        self.spans.clear();
        self.arena.clear();
    }

    /// Computes and appends the extension set of `s` (one embedding walk);
    /// returns the new row index, which matches the caller's arena row.
    pub fn push_row<'a, S: SeqView<'a>>(&mut self, s: S, prefix: &Sequence) -> usize {
        let mut scratch = std::mem::take(&mut self.scratch);
        all_extensions(s, prefix, &mut scratch);
        let start = self.arena.len() as u32;
        self.arena.extend_from_slice(&scratch);
        self.scratch = scratch;
        self.spans.push((start, self.arena.len() as u32));
        self.spans.len() - 1
    }

    /// Rolls back the most recently pushed row (mirrors
    /// [`FlatArena::pop_row`] for rejected members).
    pub fn pop_row(&mut self) {
        let (start, _) = self.spans.pop().expect("pop_row on empty table");
        self.arena.truncate(start as usize);
    }

    /// The smallest extension of `row` passing the masks, strictly greater
    /// than `bound` when given — identical to [`min_ext_elem`] over the same
    /// row, without re-walking the member.
    pub fn min_masked(
        &self,
        row: usize,
        i_mask: &[bool],
        s_mask: &[bool],
        bound: Option<ExtElem>,
    ) -> Option<ExtElem> {
        let (start, end) = self.spans[row];
        let list = &self.arena[start as usize..end as usize];
        let from = match bound {
            Some(b) => list.partition_point(|&w| w <= encode_elem(b)),
            None => 0,
        };
        list[from..].iter().map(|&w| decode_elem(w)).find(|e| match e.mode {
            ExtMode::Itemset => i_mask[e.item.id() as usize],
            ExtMode::Sequence => s_mask[e.item.id() as usize],
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::counting::count_extensions;
    use disc_core::{parse_sequence, SequenceDatabase};

    fn seq(s: &str) -> Sequence {
        parse_sequence(s).unwrap()
    }

    fn item(c: char) -> Item {
        Item::from_letter(c).unwrap()
    }

    fn table6() -> SequenceDatabase {
        SequenceDatabase::from_parsed(&[
            "(a,d)(d)(a,g,h)(c)",
            "(b)(a)(f)(a,c,e,g)",
            "(a,f,g)(a,e,g,h)(c,g,h)",
            "(f)(a,c,f)(a,c,e,g,h)",
            "(a,g)",
            "(a,f)(a,e,g,h)",
            "(a,b,g)(a,e,g)(g,h)",
            "(b,f)(b,e)(e,f,h)",
            "(d,f)(d,f,g,h)",
            "(b,f,g)(c,e,h)",
            "(e,g)(f)(e,f)",
        ])
        .unwrap()
    }

    /// Table 6's frequent items at δ = 3: all but `d`.
    fn table6_freq1() -> Vec<bool> {
        let mut frequent = vec![true; 8];
        frequent[item('d').id() as usize] = false;
        frequent
    }

    /// Sweeps `queue` with members reassigned along their itineraries;
    /// returns the visited `(key, members)` in sweep order.
    fn sweep(mut queue: BucketQueue, itineraries: &Itineraries) -> Vec<(char, Vec<usize>)> {
        let mut visited = Vec::new();
        queue
            .sweep(
                &MineGuard::unlimited(),
                |key, members| {
                    visited.push((Item(key as u32).as_letter().unwrap(), members.to_vec()));
                    Ok(())
                },
                |row, key| itineraries.next_after(row, Item(key as u32)).map(|i| i.id() as usize),
            )
            .unwrap();
        visited
    }

    #[test]
    fn table_6_initial_partitions() {
        // CIDs 1–7 fall in the <(a)>-partition, 8 and 10 in <(b)>, 9 in
        // <(d)>, 11 in <(e)>: the dense queue's buckets, popped in order.
        let flat = FlatDb::from_database(&table6());
        let mut queue = group_by_min_item_guarded(&flat, &MineGuard::unlimited()).unwrap();
        let mut view = Vec::new();
        let mut members = Vec::new();
        while let Some(key) = queue.pop_into(&mut members) {
            view.push((Item(key as u32).as_letter().unwrap(), members.clone()));
        }
        assert_eq!(
            view,
            vec![
                ('a', vec![0, 1, 2, 3, 4, 5, 6]),
                ('b', vec![7, 9]),
                ('d', vec![8]),
                ('e', vec![10]),
            ]
        );
        // The ordered-map view holds the same grouping.
        let groups = group_by_min_item(&flat);
        let map_view: Vec<(char, Vec<usize>)> =
            groups.iter().map(|(i, v)| (i.as_letter().unwrap(), v.clone())).collect();
        assert_eq!(map_view, view);
    }

    #[test]
    fn table_6_reassignment_after_processing_a() {
        // Example 3.1: after <(a)>-partition, CIDs 1 and 2 go to <(c)> and
        // <(b)>. All 1-sequences except <(d)> are frequent.
        let flat = FlatDb::from_database(&table6());
        let itineraries =
            Itineraries::build(&flat, &table6_freq1(), &MineGuard::unlimited()).unwrap();
        // CID 1: (a,d)(d)(a,g,h)(c) — d is non-frequent. CID 5 = (a,g): the
        // paper removes it ("minimum point at its end"); its next minimum
        // 1-sequence is g, and the partition of <(g)> simply finds nothing
        // of length ≥ 2 in it.
        let expected = ['c', 'b', 'c', 'c', 'g', 'e', 'b'];
        for (idx, want) in expected.iter().enumerate() {
            let got = itineraries.next_after(idx, item('a')).map(|i| i.as_letter().unwrap());
            assert_eq!(got, Some(*want), "CID {}", idx + 1);
        }
        // Chains end after a row's largest frequent item.
        assert_eq!(itineraries.next_after(4, item('g')), None);
    }

    #[test]
    fn example_3_1_sweep_visits_partitions_in_order_with_their_reassignments() {
        // One forward sweep of the dense queue reproduces Example 3.1's walk:
        // <(a)> first, then each later partition holds its initial members
        // followed by the rows reassigned to it, in the order they arrived.
        let flat = FlatDb::from_database(&table6());
        let guard = MineGuard::unlimited();
        let freq1 = table6_freq1();
        let itineraries = Itineraries::build(&flat, &freq1, &guard).unwrap();
        let visited = sweep(group_by_min_item_guarded(&flat, &guard).unwrap(), &itineraries);
        assert_eq!(
            visited,
            vec![
                ('a', vec![0, 1, 2, 3, 4, 5, 6]),
                ('b', vec![7, 9, 1, 6]),
                ('c', vec![0, 2, 3, 9, 1]),
                ('d', vec![8]),
                ('e', vec![10, 5, 7, 6, 2, 3, 9, 1]),
                ('f', vec![8, 10, 5, 7, 2, 3, 9, 1]),
                ('g', vec![4, 0, 6, 8, 10, 5, 2, 3, 9, 1]),
                ('h', vec![7, 0, 6, 8, 5, 2, 3, 9]),
            ]
        );
        // Lifetime completeness: each frequent key's partition is exactly the
        // rows containing it.
        let db = table6();
        for (key, members) in &visited {
            if !freq1[item(*key).id() as usize] {
                continue;
            }
            let mut got = members.clone();
            got.sort_unstable();
            let want: Vec<usize> = (0..db.len())
                .filter(|&r| db.sequence(r).first_txn_containing(item(*key)).is_some())
                .collect();
            assert_eq!(got, want, "<({key})>-partition");
        }
    }

    #[test]
    fn bucket_queue_reuses_its_buffers_after_reset() {
        let mut queue = BucketQueue::new(3);
        queue.push(2, 5);
        queue.push(0, 1);
        let mut members = Vec::new();
        assert_eq!(queue.pop_into(&mut members), Some(0));
        assert_eq!(members, vec![1]);
        queue.push(1, 1);
        assert_eq!(queue.pop_into(&mut members), Some(1));
        assert_eq!(queue.pop_into(&mut members), Some(2));
        assert_eq!(members, vec![5]);
        assert_eq!(queue.pop_into(&mut members), None);
        assert!(members.is_empty());
        queue.reset(2);
        queue.push(1, 0);
        assert_eq!(queue.pop_into(&mut members), Some(1));
        assert_eq!(members, vec![0]);
    }

    #[test]
    fn table_7_reduction_of_the_a_partition() {
        let db = table6();
        let members: Vec<&Sequence> = (0..7).map(|i| db.sequence(i)).collect();
        let prefix = Sequence::single(item('a'));
        let array = count_extensions(&prefix, members.iter().copied(), 8);
        let (i_mask, s_mask) = array.frequency_masks(3);
        let freq1 = vec![true, true, true, false, true, true, true, true]; // all but d

        let expected = [
            Some("(a)(a, g, h)(c)"),
            Some("(b)(a)(a, c, e, g)"),
            Some("(a, f, g)(a, e, g, h)(c, g, h)"),
            Some("(f)(a, f)(a, c, e, g, h)"),
            None, // CID 5 shrinks below length 3
            Some("(a, f)(a, e, g, h)"),
            Some("(a, g)(a, e, g)(g, h)"),
        ];
        for (idx, want) in expected.iter().enumerate() {
            let s = db.sequence(idx);
            let (_, min_point) = s.min_item_with_point().unwrap();
            let got = reduce_sequence(s, item('a'), min_point, &freq1, &i_mask, &s_mask)
                .map(|r| r.to_string());
            assert_eq!(got.as_deref(), *want, "CID {}", idx + 1);
        }
    }

    #[test]
    fn reduce_into_matches_reduce_sequence() {
        let db = table6();
        let members: Vec<&Sequence> = (0..7).map(|i| db.sequence(i)).collect();
        let prefix = Sequence::single(item('a'));
        let array = count_extensions(&prefix, members.iter().copied(), 8);
        let (i_mask, s_mask) = array.frequency_masks(3);
        let freq1 = vec![true, true, true, false, true, true, true, true];
        let mut arena = FlatArena::new();
        for idx in 0..7 {
            let s = db.sequence(idx);
            let (_, min_point) = s.min_item_with_point().unwrap();
            let nested = reduce_sequence(s, item('a'), min_point, &freq1, &i_mask, &s_mask);
            let flat = reduce_into(&mut arena, s, item('a'), min_point, &freq1, &i_mask, &s_mask);
            assert_eq!(flat.map(|r| arena.row(r).to_sequence()), nested, "CID {}", idx + 1);
        }
        // Rejected rows were rolled back: only the survivors occupy the arena.
        assert_eq!(arena.len(), 6);
    }

    #[test]
    fn reduction_keeps_items_left_of_the_minimum_point() {
        // CID 2 keeps its leading (b) even though <(a)...> patterns cannot
        // use it — the paper's Table 7 does the same.
        let db = table6();
        let s = db.sequence(1);
        let (_, min_point) = s.min_item_with_point().unwrap();
        assert_eq!(min_point, 1);
        let freq1 = vec![true; 8];
        let i_mask = vec![false; 8];
        let mut s_mask = vec![false; 8];
        s_mask[item('c').id() as usize] = true;
        let got = reduce_sequence(s, item('a'), min_point, &freq1, &i_mask, &s_mask).unwrap();
        assert_eq!(got.to_string(), "(b)(a)(a, c)");
    }

    #[test]
    fn min_ext_elem_basic_and_bounded() {
        // Table 7 CID 1 = (a)(a,g,h)(c): the 2-minimum with prefix <(a)> is
        // <(a)(a)>; bounded past (a, Sequence) it is <(a)(c)> when only c, g
        // remain frequent.
        let red = seq("(a)(a,g,h)(c)");
        let prefix = Sequence::single(item('a'));
        let all = vec![true; 8];
        let none = vec![false; 8];
        let got = min_ext_elem(&red, &prefix, &all, &all, None).unwrap();
        assert_eq!(got, ExtElem { item: item('a'), mode: ExtMode::Sequence });

        let mut s_mask = none.clone();
        s_mask[item('c').id() as usize] = true;
        s_mask[item('g').id() as usize] = true;
        let bound = ExtElem { item: item('a'), mode: ExtMode::Sequence };
        let got = min_ext_elem(&red, &prefix, &none, &s_mask, Some(bound)).unwrap();
        assert_eq!(got, ExtElem { item: item('c'), mode: ExtMode::Sequence });
    }

    #[test]
    fn min_ext_elem_prefers_itemset_form() {
        // With prefix <(a)>, member (a,g)(g): the itemset form (a,g) beats
        // the sequence form (a)(g).
        let s = seq("(a,g)(g)");
        let prefix = Sequence::single(item('a'));
        let all = vec![true; 8];
        let got = min_ext_elem(&s, &prefix, &all, &all, None).unwrap();
        assert_eq!(got, ExtElem { item: item('g'), mode: ExtMode::Itemset });
        // Strictly past it, the sequence form remains.
        let got2 = min_ext_elem(&s, &prefix, &all, &all, Some(got)).unwrap();
        assert_eq!(got2, ExtElem { item: item('g'), mode: ExtMode::Sequence });
        assert_eq!(min_ext_elem(&s, &prefix, &all, &all, Some(got2)), None);
    }

    #[test]
    fn min_ext_elem_with_longer_prefix_uses_beta_embedding() {
        // Prefix <(a)(b)>: the leftmost full embedding ends at the first (b),
        // but the itemset extension (b, d) in the second (b, d) transaction
        // must still be found (β = <(a)> ends at txn 0).
        let s = seq("(a)(b)(b,d)");
        let prefix = seq("(a)(b)");
        let all = vec![true; 8];
        let got = min_ext_elem(&s, &prefix, &all, &all, None).unwrap();
        assert_eq!(got, ExtElem { item: item('b'), mode: ExtMode::Sequence });
        let got2 = min_ext_elem(&s, &prefix, &all, &all, Some(got)).unwrap();
        assert_eq!(got2, ExtElem { item: item('d'), mode: ExtMode::Itemset });
    }

    #[test]
    fn min_ext_elem_none_when_prefix_absent_or_unextendable() {
        let all = vec![true; 8];
        assert_eq!(
            min_ext_elem(&seq("(b)(c)"), &Sequence::single(item('a')), &all, &all, None),
            None
        );
        assert_eq!(min_ext_elem(&seq("(a)"), &Sequence::single(item('a')), &all, &all, None), None);
    }

    #[test]
    fn chain_enumerates_frequent_extensions_in_order() {
        // The chain of bounds must walk every frequent extension exactly once,
        // ascending.
        let s = seq("(a,c)(b)(c)");
        let prefix = Sequence::single(item('a'));
        let all = vec![true; 8];
        let mut chain = Vec::new();
        let mut bound = None;
        while let Some(e) = min_ext_elem(&s, &prefix, &all, &all, bound) {
            chain.push(prefix.extended(e).to_string());
            bound = Some(e);
        }
        assert_eq!(chain, vec!["(a)(b)", "(a, c)", "(a)(c)"]);
    }
}
