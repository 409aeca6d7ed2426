//! DISC-all driven step by step through `disc-algo`'s public pieces, in
//! Figure 2's order, with a span around every call into a layer.
//!
//! `DiscAll`'s own loop is crate-private, so the traced batch run uses
//! this stand-in instead: `count_extensions[_into]` for the counting
//! arrays, `group_by_min_item`, `reduce_into` and `RowExtensions` for the
//! partitions and reassignment chains, and `discover_frequent_k_guarded`
//! for the DISC levels. It must reproduce `DiscAll`'s pattern set exactly;
//! the caller checks that. It costs a little more than `DiscAll` — for
//! one, every discovery call allocates a fresh counting array — and the
//! traced run reports that difference as `trace.overhead`.

use crate::trace::Tracer;
use disc_algo::counting::{count_extensions, count_extensions_into, CountingArray};
use disc_algo::discovery::discover_frequent_k_guarded;
use disc_algo::partition::{group_by_min_item, reduce_into, RowExtensions};
use disc_core::{
    ExtElem, FlatArena, FlatDb, FlatSeq, Item, MineGuard, MiningResult, SeqView, Sequence,
};
use std::collections::BTreeMap;

/// Work counts of one traced mine.
#[derive(Debug, Default, Clone, Copy)]
pub struct Counts {
    /// Counting-array scans.
    pub counting_calls: u64,
    /// Member rows fed to counting arrays.
    pub counting_rows: u64,
    /// First-level partitions mined (frequent λ).
    pub first_level: u64,
    /// Second-level partitions mined (at least δ members).
    pub second_level: u64,
    /// Rows kept by reduction.
    pub rows_reduced: u64,
    /// Discovery calls.
    pub discovery_calls: u64,
    /// Frequent sequences the discovery calls returned.
    pub discovery_patterns: u64,
}

struct Walk<'t> {
    delta: u64,
    n_items: usize,
    guard: MineGuard,
    tracer: &'t mut Tracer,
    counts: Counts,
    result: MiningResult,
    carray: CountingArray,
    arena: FlatArena,
    exts: RowExtensions,
}

/// Mines `flat` at support count `delta` (bi-level on, as `DiscAll`'s
/// default) and returns the pattern set with the work counts.
pub fn mine(flat: &FlatDb, delta: u64, tracer: &mut Tracer) -> (MiningResult, Counts) {
    let Some(max_item) = flat.max_item() else {
        return (MiningResult::new(), Counts::default());
    };
    let n_items = max_item.id() as usize + 1;
    let mut w = Walk {
        delta,
        n_items,
        guard: MineGuard::unlimited(),
        tracer,
        counts: Counts::default(),
        result: MiningResult::new(),
        carray: CountingArray::new(n_items),
        arena: FlatArena::new(),
        exts: RowExtensions::new(),
    };

    // Step 1: frequent 1-sequences by one counting-array scan.
    let s = w.tracer.begin("counting");
    let root = count_extensions(&Sequence::empty(), flat.rows(), n_items);
    w.tracer.end(s);
    w.counts.counting_calls += 1;
    w.counts.counting_rows += flat.len() as u64;
    let mut freq1 = vec![false; n_items];
    for id in 0..n_items as u32 {
        let support = root.seq_support(Item(id));
        if support >= delta {
            freq1[id as usize] = true;
            w.result.insert(Sequence::single(Item(id)), support);
        }
    }

    // First-level partitions, and each row's reassignment itinerary.
    let s = w.tracer.begin("partition");
    let row_items = frequent_items_per_row(flat, &freq1);
    let mut first_level = group_by_min_item(flat);
    w.tracer.end(s);

    // Step 2: ascending first-level partitions, then reassignment chains.
    while let Some((&lambda, _)) = first_level.iter().next() {
        let members = first_level.remove(&lambda).expect("key just observed");
        let s = w.tracer.begin("partition");
        if freq1[lambda.id() as usize] {
            w.counts.first_level += 1;
            w.first_level(flat, lambda, &members, &freq1);
        }
        for idx in members {
            let items = &row_items[idx];
            let from = items.partition_point(|&x| x <= lambda);
            if let Some(&next) = items.get(from) {
                first_level.entry(next).or_default().push(idx);
            }
        }
        w.tracer.end(s);
    }
    (w.result, w.counts)
}

impl Walk<'_> {
    /// Steps 2.1.1–2.1.3 for one `<(λ)>`-partition; runs inside its
    /// `partition` span, so reduction and the second-level walk are that
    /// span's self time.
    fn first_level(&mut self, flat: &FlatDb, lambda: Item, members: &[usize], freq1: &[bool]) {
        let delta = self.delta;
        let prefix1 = Sequence::single(lambda);
        let s = self.tracer.begin("counting");
        count_extensions_into(&mut self.carray, &prefix1, members.iter().map(|&i| flat.row(i)));
        self.tracer.end(s);
        self.counts.counting_calls += 1;
        self.counts.counting_rows += members.len() as u64;
        let (i_mask, s_mask) = self.carray.frequency_masks(delta);
        for (elem, support) in self.carray.frequent_extensions(delta) {
            self.result.insert(prefix1.extended(elem), support);
        }

        self.arena.clear();
        self.exts.clear();
        let mut second_level: BTreeMap<ExtElem, Vec<usize>> = BTreeMap::new();
        for &idx in members {
            let seq = flat.row(idx);
            let min_point =
                seq.first_txn_containing(lambda).expect("partition members contain their key item");
            let Some(row) =
                reduce_into(&mut self.arena, seq, lambda, min_point, freq1, &i_mask, &s_mask)
            else {
                continue;
            };
            self.counts.rows_reduced += 1;
            self.exts.push_row(self.arena.row(row), &prefix1);
            if let Some(elem) = self.exts.min_masked(row, &i_mask, &s_mask, None) {
                second_level.entry(elem).or_default().push(row);
            } else {
                self.arena.pop_row();
                self.exts.pop_row();
            }
        }

        while let Some((&elem, _)) = second_level.iter().next() {
            let slots = second_level.remove(&elem).expect("key just observed");
            if slots.len() as u64 >= delta {
                self.counts.second_level += 1;
                let prefix2 = prefix1.extended(elem);
                // The arena is borrowed by the partition views while the
                // walk mutates the other fields, so lend it out.
                let arena = std::mem::take(&mut self.arena);
                let partition: Vec<FlatSeq<'_>> = slots.iter().map(|&s| arena.row(s)).collect();
                self.second_level(&prefix2, &partition);
                drop(partition);
                self.arena = arena;
            }
            for slot in slots {
                if let Some(next) = self.exts.min_masked(slot, &i_mask, &s_mask, Some(elem)) {
                    second_level.entry(next).or_default().push(slot);
                }
            }
        }
    }

    /// Steps 2.1.3.1–2.1.3.2: frequent 3-sequences by counting array, then
    /// the DISC levels k ≥ 4 (two levels per discovery call).
    fn second_level(&mut self, prefix2: &Sequence, partition: &[FlatSeq<'_>]) {
        let delta = self.delta;
        let s = self.tracer.begin("counting");
        count_extensions_into(&mut self.carray, prefix2, partition.iter().copied());
        self.tracer.end(s);
        self.counts.counting_calls += 1;
        self.counts.counting_rows += partition.len() as u64;
        let mut freq_prev = Vec::new();
        for (elem, support) in self.carray.frequent_extensions(delta) {
            let pat = prefix2.extended(elem);
            self.result.insert(pat.clone(), support);
            freq_prev.push(pat);
        }

        while !freq_prev.is_empty() && partition.len() as u64 >= delta {
            let s = self.tracer.begin("discovery");
            let out = discover_frequent_k_guarded(
                partition,
                &freq_prev,
                delta,
                true,
                self.n_items,
                &self.guard,
            )
            .expect("an unlimited guard never aborts");
            self.tracer.end(s);
            self.counts.discovery_calls += 1;
            self.counts.discovery_patterns += (out.freq_k.len() + out.freq_k1.len()) as u64;
            for (p, support) in out.freq_k {
                self.result.insert(p, support);
            }
            freq_prev = Vec::with_capacity(out.freq_k1.len());
            for (p, support) in out.freq_k1 {
                freq_prev.push(p.clone());
                self.result.insert(p, support);
            }
        }
    }
}

/// Per row, the ascending distinct frequent items it contains: the whole
/// itinerary of its first-level reassignment chain.
fn frequent_items_per_row(flat: &FlatDb, freq1: &[bool]) -> Vec<Vec<Item>> {
    flat.rows()
        .map(|row| {
            let mut items: Vec<Item> = (0..row.n_transactions())
                .flat_map(|t| row.itemset_items(t).iter().copied())
                .filter(|x| freq1[x.id() as usize])
                .collect();
            items.sort_unstable();
            items.dedup();
            items
        })
        .collect()
}
