//! The **Dynamic DISC-all** algorithm (paper appendix): recursive
//! partitioning that keeps splitting while partitioning pays off (NRR below
//! the threshold γ) and hands over to the DISC strategy as soon as child
//! partitions stop shrinking.
//!
//! Section 4.2's observation: database partitioning is profitable for
//! partitions with a *low* non-reduction rate (children much smaller than
//! the parent) and pure overhead when the NRR approaches 1 — in the extreme,
//! every child is as large as its parent. The static DISC-all always stops
//! partitioning at level 2; the dynamic variant measures the NRR of each
//! partition from its counting-array scan and decides per partition.

use crate::counting::{count_extensions, count_extensions_into, CountingArray};
use crate::disc_all::run_disc_levels;
use crate::partition::{
    ext_rank, group_by_min_item_guarded, min_ext_elem, reduce_into, BucketQueue, Itineraries,
};
use crate::resume::CheckpointSink;
use disc_core::{
    run_guarded, AbortReason, ExtElem, FlatArena, FlatDb, GuardedResult, Item, MinSupport,
    MineGuard, MiningResult, SeqView, Sequence, SequenceDatabase, SequentialMiner,
};

/// When does a partition get split into next-level partitions instead of
/// being handed to the DISC strategy?
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum SplitPolicy {
    /// The appendix algorithm: split while `NRR < γ`.
    NrrThreshold(f64),
    /// The generalized static scheme the paper's §3 gestures at ("the
    /// number of levels should be adaptive"): split to a fixed prefix
    /// depth, regardless of NRR. Depth 2 mirrors the static DISC-all's
    /// two-level partitioning inside this machinery.
    FixedDepth(usize),
}

impl SplitPolicy {
    /// Should the partition at prefix length `level` with the given NRR be
    /// split further?
    fn split(self, level: usize, nrr: f64) -> bool {
        match self {
            SplitPolicy::NrrThreshold(gamma) => nrr < gamma,
            SplitPolicy::FixedDepth(depth) => level < depth,
        }
    }
}

/// The Dynamic DISC-all miner.
#[derive(Debug, Clone)]
pub struct DynamicDiscAll {
    /// The split policy (γ-threshold per the appendix, or fixed depth).
    pub policy: SplitPolicy,
    /// Use the bi-level optimization inside the DISC stages.
    pub bi_level: bool,
}

impl Default for DynamicDiscAll {
    /// γ = 0.6 sits between the observed "partitioning pays" (≤ ~0.2) and
    /// "partitioning is overhead" (≥ ~0.8) regimes of Tables 12/14.
    fn default() -> Self {
        DynamicDiscAll { policy: SplitPolicy::NrrThreshold(0.6), bi_level: true }
    }
}

impl DynamicDiscAll {
    /// A dynamic miner with an explicit γ.
    pub fn with_gamma(gamma: f64) -> DynamicDiscAll {
        DynamicDiscAll { policy: SplitPolicy::NrrThreshold(gamma), ..DynamicDiscAll::default() }
    }

    /// A miner that always partitions to a fixed prefix depth.
    pub fn with_fixed_depth(depth: usize) -> DynamicDiscAll {
        DynamicDiscAll { policy: SplitPolicy::FixedDepth(depth), ..DynamicDiscAll::default() }
    }
}

/// The NRR of a partition, from its counting-array scan: the mean ratio of
/// child-partition size (= the support of each frequent one-item extension)
/// to the partition's own size.
fn nrr(ext_supports: impl IntoIterator<Item = u64>, partition_size: usize) -> f64 {
    let (mut sum, mut n) = (0.0, 0usize);
    for s in ext_supports {
        sum += s as f64 / partition_size as f64;
        n += 1;
    }
    debug_assert!(n > 0 && partition_size > 0);
    sum / n as f64
}

impl SequentialMiner for DynamicDiscAll {
    fn name(&self) -> &str {
        "Dynamic DISC-all"
    }

    fn mine(&self, db: &SequenceDatabase, min_support: MinSupport) -> MiningResult {
        let guard = MineGuard::unlimited();
        let mut result = MiningResult::new();
        self.mine_inner(db, min_support, &guard, &mut result, None)
            .expect("unlimited guard never aborts");
        result
    }

    fn mine_guarded(
        &self,
        db: &SequenceDatabase,
        min_support: MinSupport,
        guard: &MineGuard,
    ) -> GuardedResult {
        run_guarded(guard, |result| self.mine_inner(db, min_support, guard, result, None))
    }
}

impl DynamicDiscAll {
    /// Mines a [`FlatDb`] directly — see [`crate::DiscAll::mine_flat`] for
    /// the contract (identical patterns, item ids as stored).
    pub fn mine_flat(&self, flat: &FlatDb, min_support: MinSupport) -> MiningResult {
        let guard = MineGuard::unlimited();
        let mut result = MiningResult::new();
        self.mine_flat_inner(flat, min_support.resolve(flat.len()), &guard, &mut result, None)
            .expect("unlimited guard never aborts");
        result
    }

    /// [`DynamicDiscAll::mine_flat`] under a [`MineGuard`].
    pub fn mine_flat_guarded(
        &self,
        flat: &FlatDb,
        min_support: MinSupport,
        guard: &MineGuard,
    ) -> GuardedResult {
        let delta = min_support.resolve(flat.len());
        run_guarded(guard, |result| self.mine_flat_inner(flat, delta, guard, result, None))
    }

    /// The cooperative core behind both entry points. Snapshot hooks mirror
    /// [`crate::DiscAll::mine_inner`]: boundaries at the frequent
    /// 1-sequences and per completed first-level partition. The degenerate
    /// no-split path has no partition boundaries — only the level-1
    /// snapshot applies there.
    pub(crate) fn mine_inner(
        &self,
        db: &SequenceDatabase,
        min_support: MinSupport,
        guard: &MineGuard,
        result: &mut MiningResult,
        sink: Option<&mut CheckpointSink<'_>>,
    ) -> Result<(), AbortReason> {
        // Flatten once; all scans below walk the contiguous arena.
        let flat = FlatDb::from_database(db);
        self.mine_flat_inner(&flat, min_support.resolve(db.len()), guard, result, sink)
    }

    /// [`DynamicDiscAll::mine_inner`] over the flat columns themselves —
    /// heap or mapped, the kernels cannot tell.
    pub(crate) fn mine_flat_inner(
        &self,
        flat: &FlatDb,
        delta: u64,
        guard: &MineGuard,
        result: &mut MiningResult,
        mut sink: Option<&mut CheckpointSink<'_>>,
    ) -> Result<(), AbortReason> {
        let Some(max_item) = flat.max_item() else {
            return Ok(());
        };
        let n_items = max_item.id() as usize + 1;

        // Root (λ = NULL, k = 0): scan for frequent 1-sequences.
        guard.charge(flat.len() as u64)?;
        let root = count_extensions(&Sequence::empty(), flat.rows(), n_items);
        let mut freq1 = vec![false; n_items];
        let mut supports1 = Vec::new();
        for id in 0..n_items as u32 {
            let support = root.seq_support(Item(id));
            if support >= delta {
                freq1[id as usize] = true;
                supports1.push(support);
                guard.note_pattern()?;
                result.insert(Sequence::single(Item(id)), support);
            }
        }
        if supports1.is_empty() {
            return Ok(());
        }
        if let Some(s) = sink.as_deref_mut() {
            s.level_one(result);
        }

        let mut walk = Walk {
            miner: self,
            delta,
            guard,
            result,
            carray: root,
            arena: FlatArena::new(),
            levels: Vec::new(),
        };
        if !self.policy.split(0, nrr(supports1, flat.len())) {
            // Degenerate but well-defined: DISC over the whole database from
            // k = 2, seeded by the 1-sorted list.
            let members: Vec<_> = flat.rows().collect();
            let list: Vec<Sequence> = (0..n_items as u32)
                .filter(|&id| freq1[id as usize])
                .map(|id| Sequence::single(Item(id)))
                .collect();
            return walk.disc(&members, list);
        }

        // First-level partitions, swept with their reassignment chains.
        let itineraries = Itineraries::build(flat, &freq1, guard)?;
        group_by_min_item_guarded(flat, guard)?.sweep(
            guard,
            |key, members| {
                let lambda = Item(key as u32);
                if freq1[key] && !sink.as_deref().is_some_and(|s| s.is_done(lambda)) {
                    walk.with_level(|walk, level| {
                        walk.first_level(flat, lambda, members, &freq1, level)
                    })?;
                    if let Some(s) = sink.as_deref_mut() {
                        s.partition_done(lambda, walk.result);
                    }
                }
                Ok(())
            },
            |row, key| itineraries.next_after(row, Item(key as u32)).map(|x| x.id() as usize),
        )
    }
}

/// The buffers of one partition level — its frequent extensions, frequency
/// masks and next-level queue — recycled through [`Walk::with_level`] as
/// the recursion descends and returns.
#[derive(Debug, Default)]
struct Level {
    exts: Vec<(ExtElem, u64)>,
    i_mask: Vec<bool>,
    s_mask: Vec<bool>,
    queue: BucketQueue,
}

/// One run's partition walk: the miner's settings, δ, the guard and the
/// result, plus the buffers reused across partitions — one counting array
/// (each partition copies what it needs out of it before recursing), the
/// first level's reduction arena, and a free list of [`Level`]s.
struct Walk<'r> {
    miner: &'r DynamicDiscAll,
    delta: u64,
    guard: &'r MineGuard,
    result: &'r mut MiningResult,
    carray: CountingArray,
    arena: FlatArena,
    levels: Vec<Level>,
}

impl Walk<'_> {
    /// Runs `f` with one level's buffers taken off the free list.
    fn with_level<T>(&mut self, f: impl FnOnce(&mut Self, &mut Level) -> T) -> T {
        let mut level = self.levels.pop().unwrap_or_default();
        let out = f(self, &mut level);
        self.levels.push(level);
        out
    }

    /// DISC over `members` from the length after `freq_prev`'s.
    fn disc<'a, S: SeqView<'a>>(
        &mut self,
        members: &[S],
        freq_prev: Vec<Sequence>,
    ) -> Result<(), AbortReason> {
        let (delta, bi_level) = (self.delta, self.miner.bi_level);
        run_disc_levels(
            members,
            freq_prev,
            delta,
            bi_level,
            self.guard,
            self.result,
            &mut self.carray,
        )
    }

    /// One `<(λ)>`-partition: count 2-extensions, decide by NRR, then either
    /// reduce + split into second-level partitions or run DISC from k = 3.
    fn first_level(
        &mut self,
        flat: &FlatDb,
        lambda: Item,
        members: &[usize],
        freq1: &[bool],
        level: &mut Level,
    ) -> Result<(), AbortReason> {
        let prefix1 = Sequence::single(lambda);
        let views: Vec<_> = members.iter().map(|&i| flat.row(i)).collect();
        if !self.count_or_finish(&prefix1, &views, level)? {
            return Ok(());
        }
        // Reduce into the flat arena, then split the reduced rows.
        let mut arena = std::mem::take(&mut self.arena);
        arena.clear();
        for seq in views {
            self.guard.checkpoint()?;
            let min_point =
                seq.first_txn_containing(lambda).expect("partition members contain their key item");
            reduce_into(&mut arena, seq, lambda, min_point, freq1, &level.i_mask, &level.s_mask);
        }
        let reduced: Vec<_> = arena.rows().collect();
        self.split(&prefix1, &reduced, level)?;
        self.arena = arena;
        Ok(())
    }

    /// A `<π>`-partition with `|π| = j ≥ 2`: count (j+1)-extensions, decide
    /// by policy, then recurse or run DISC from k = j + 2. Partitions are
    /// slices of `Copy` views, so recursion copies 32-byte handles, not
    /// sequences.
    fn deeper<'a, S: SeqView<'a>>(
        &mut self,
        prefix: &Sequence,
        partition: &[S],
        level: &mut Level,
    ) -> Result<(), AbortReason> {
        if self.count_or_finish(prefix, partition, level)? {
            self.split(prefix, partition, level)?;
        }
        Ok(())
    }

    /// Counts the one-item extensions of `prefix` over `partition` and
    /// records the frequent ones. Returns whether the partition should be
    /// split, with `level`'s frequency masks filled; otherwise the partition
    /// is finished — it has no frequent extension, or DISC has mined it from
    /// k = |π| + 2.
    fn count_or_finish<'a, S: SeqView<'a>>(
        &mut self,
        prefix: &Sequence,
        partition: &[S],
        level: &mut Level,
    ) -> Result<bool, AbortReason> {
        self.guard.charge(partition.len() as u64)?;
        count_extensions_into(&mut self.carray, prefix, partition.iter().copied());
        self.carray.frequent_extensions_into(self.delta, &mut level.exts);
        if level.exts.is_empty() {
            return Ok(false);
        }
        for &(elem, support) in &level.exts {
            self.guard.note_pattern()?;
            self.result.insert(prefix.extended(elem), support);
        }
        let nrr = nrr(level.exts.iter().map(|e| e.1), partition.len());
        if self.miner.policy.split(prefix.length(), nrr) {
            self.carray.frequency_masks_into(&mut level.i_mask, &mut level.s_mask, self.delta);
            return Ok(true);
        }
        let freq_next = level.exts.iter().map(|&(elem, _)| prefix.extended(elem)).collect();
        self.disc(partition, freq_next)?;
        Ok(false)
    }

    /// Splits `partition` into next-level partitions keyed by each member's
    /// minimum frequent extension of `prefix` (bucketed by its rank among
    /// the frequent extensions) and sweeps them, recursing into each one
    /// with at least δ members.
    fn split<'a, S: SeqView<'a>>(
        &mut self,
        prefix: &Sequence,
        partition: &[S],
        level: &mut Level,
    ) -> Result<(), AbortReason> {
        let Level { exts, i_mask, s_mask, queue } = level;
        queue.reset(exts.len());
        for (slot, &seq) in partition.iter().enumerate() {
            self.guard.checkpoint()?;
            if let Some(elem) = min_ext_elem(seq, prefix, i_mask, s_mask, None) {
                queue.push(ext_rank(exts, elem), slot);
            }
        }
        let guard = self.guard;
        queue.sweep(
            guard,
            |rank, slots| {
                if slots.len() as u64 >= self.delta {
                    let child_prefix = prefix.extended(exts[rank].0);
                    let child: Vec<S> = slots.iter().map(|&s| partition[s]).collect();
                    self.with_level(|walk, level| walk.deeper(&child_prefix, &child, level))?;
                }
                Ok(())
            },
            |slot, rank| {
                let bound = Some(exts[rank].0);
                let next = min_ext_elem(partition[slot], prefix, i_mask, s_mask, bound)?;
                Some(ext_rank(exts, next))
            },
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use disc_core::BruteForce;

    fn table1() -> SequenceDatabase {
        SequenceDatabase::from_parsed(&[
            "(a,e,g)(b)(h)(f)(c)(b,f)",
            "(b)(d,f)(e)",
            "(b,f,g)",
            "(f)(a,g)(b,f,h)(b,f)",
        ])
        .unwrap()
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

    #[test]
    fn every_gamma_matches_brute_force() {
        // γ = 0.0 never partitions (pure DISC from the root); γ = 2.0 always
        // partitions (pure counting-array recursion); the default mixes.
        for db in [table1(), table6()] {
            for delta in 1..=4u64 {
                let expected = BruteForce::default().mine(&db, MinSupport::Count(delta));
                for gamma in [0.0, 0.3, 0.6, 2.0] {
                    let got = DynamicDiscAll::with_gamma(gamma).mine(&db, MinSupport::Count(delta));
                    let diff = got.diff(&expected);
                    assert!(diff.is_empty(), "γ={gamma} δ={delta}:\n{}", diff.join("\n"));
                }
            }
        }
    }

    #[test]
    fn bi_level_toggle_matches_too() {
        let db = table6();
        let expected = BruteForce::default().mine(&db, MinSupport::Count(3));
        let miner = DynamicDiscAll { policy: SplitPolicy::NrrThreshold(0.5), bi_level: false };
        let got = miner.mine(&db, MinSupport::Count(3));
        assert!(got.diff(&expected).is_empty());
    }

    #[test]
    fn fixed_depth_policies_match_brute_force() {
        for db in [table1(), table6()] {
            for delta in 1..=4u64 {
                let expected = BruteForce::default().mine(&db, MinSupport::Count(delta));
                for depth in [0usize, 1, 2, 3, 8] {
                    let got =
                        DynamicDiscAll::with_fixed_depth(depth).mine(&db, MinSupport::Count(delta));
                    let diff = got.diff(&expected);
                    assert!(diff.is_empty(), "depth={depth} δ={delta}:\n{}", diff.join("\n"));
                }
            }
        }
    }

    #[test]
    fn nrr_formula() {
        assert!((nrr([5, 3, 4], 6) - (5.0 / 6.0 + 3.0 / 6.0 + 4.0 / 6.0) / 3.0).abs() < 1e-12);
        assert!((nrr([10], 10) - 1.0).abs() < 1e-12);
    }

    #[test]
    fn empty_database() {
        let result = DynamicDiscAll::default().mine(&SequenceDatabase::new(), MinSupport::Count(1));
        assert!(result.is_empty());
    }
}
