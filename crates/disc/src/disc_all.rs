//! The **DISC-all** algorithm (Figure 2): two-level partitioning + counting
//! arrays for lengths 1–3, the DISC strategy for lengths ≥ 4.

use crate::counting::{count_extensions, count_extensions_into, CountingArray};
use crate::discovery::discover_frequent_k_into;
use crate::partition::{
    ext_rank, group_by_min_item_guarded, reduce_into, BucketQueue, Itineraries, RowExtensions,
};
use crate::resume::CheckpointSink;
use disc_core::{
    run_guarded, AbortReason, ExtElem, FlatArena, FlatDb, GuardedResult, Item, MinSupport,
    MineGuard, MiningResult, SeqView, Sequence, SequenceDatabase, SequentialMiner,
};

/// Tuning knobs for [`DiscAll`] (and the DISC stages of the dynamic
/// variant).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct DiscConfig {
    /// Use the bi-level optimization of §3.2 (one k-sorted-database pass
    /// yields levels k and k+1). The paper's experiments enable it; an
    /// ablation bench compares both settings.
    pub bi_level: bool,
}

impl Default for DiscConfig {
    fn default() -> Self {
        DiscConfig { bi_level: true }
    }
}

/// The DISC-all miner.
///
/// Step by step (Figure 2):
///
/// 1. one scan finds the frequent 1-sequences and groups customers by their
///    minimum item into **first-level partitions**;
/// 2. each first-level partition (ascending) with a frequent `λ`:
///    * one counting-array scan finds the frequent 2-sequences `<(λ)(x)>` /
///      `<(λ x)>`; a partition with none is finished here,
///    * customers are **reduced** (non-frequent 1-/2-sequences removed) and
///      grouped by their 2-minimum subsequence into **second-level
///      partitions**;
/// 3. each second-level partition (ascending): a counting-array scan finds
///    the frequent 3-sequences, then the **DISC strategy** iterates k = 4,
///    5, … (stepping by two under bi-level);
/// 4. after a partition is processed its members are *reassigned* to the
///    partition of their next minimum, so later partitions always see every
///    supporter of their key.
#[derive(Debug, Clone, Default)]
pub struct DiscAll {
    /// Configuration.
    pub config: DiscConfig,
}

impl DiscAll {
    /// A DISC-all miner with the bi-level optimization disabled.
    pub fn without_bi_level() -> DiscAll {
        DiscAll { config: DiscConfig { bi_level: false } }
    }
}

impl SequentialMiner for DiscAll {
    fn name(&self) -> &str {
        if self.config.bi_level {
            "DISC-all"
        } else {
            "DISC-all (no bi-level)"
        }
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

    fn mine_parallel(
        &self,
        db: &SequenceDatabase,
        min_support: MinSupport,
        threads: usize,
    ) -> MiningResult {
        crate::parallel::ParallelDiscAll::with_threads(threads)
            .with_config(self.config)
            .mine(db, min_support)
    }
}

impl DiscAll {
    /// Mines a [`FlatDb`] directly — the entry point for columns mapped
    /// zero-copy from a `DSCFD1` flat file, where no nested
    /// [`SequenceDatabase`] ever exists. Identical output to
    /// [`SequentialMiner::mine`] on the database the columns came from
    /// (item ids as stored: a mapped file yields compact-id patterns until
    /// the caller restores them through the file's dictionary).
    pub fn mine_flat(&self, flat: &FlatDb, min_support: MinSupport) -> MiningResult {
        let guard = MineGuard::unlimited();
        let mut result = MiningResult::new();
        self.mine_flat_inner(flat, min_support.resolve(flat.len()), &guard, &mut result, None)
            .expect("unlimited guard never aborts");
        result
    }

    /// [`DiscAll::mine_flat`] under a [`MineGuard`].
    pub fn mine_flat_guarded(
        &self,
        flat: &FlatDb,
        min_support: MinSupport,
        guard: &MineGuard,
    ) -> GuardedResult {
        let delta = min_support.resolve(flat.len());
        run_guarded(guard, |result| self.mine_flat_inner(flat, delta, guard, result, None))
    }

    /// The cooperative core behind both entry points: checkpoints on every
    /// partition-walk step and every per-member scan, notes every pattern.
    /// With a [`CheckpointSink`], snapshots the boundary-consistent state
    /// after the frequent 1-sequences and after every completed first-level
    /// partition, and skips partitions a resumed snapshot marks done (their
    /// reassignment chains still run — later partitions need them).
    pub(crate) fn mine_inner(
        &self,
        db: &SequenceDatabase,
        min_support: MinSupport,
        guard: &MineGuard,
        result: &mut MiningResult,
        sink: Option<&mut CheckpointSink<'_>>,
    ) -> Result<(), AbortReason> {
        // Flatten once; every hot scan below walks the contiguous arena.
        let flat = FlatDb::from_database(db);
        self.mine_flat_inner(&flat, min_support.resolve(db.len()), guard, result, sink)
    }

    /// [`DiscAll::mine_inner`] over the flat columns themselves — heap or
    /// mapped, the kernels cannot tell.
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

        // One set of partition buffers for the whole run: partitions reset
        // them instead of re-allocating (they stabilize at the largest
        // partition's footprint).
        let mut scratch = Scratch::new(n_items);

        // Step 1: frequent 1-sequences + first-level partitions.
        let freq1 = frequent_one_sequences(flat, delta, n_items, guard, result)?;
        if let Some(s) = sink.as_deref_mut() {
            s.level_one(result);
        }

        // Step 2: sweep first-level partitions in ascending key order. The
        // reassignment chain of a row visits, ascending, exactly the
        // distinct frequent items it contains — precompute those itineraries
        // once so every chain turn is a binary search instead of a row walk.
        let itineraries = Itineraries::build(flat, &freq1, guard)?;
        group_by_min_item_guarded(flat, guard)?.sweep(
            guard,
            |key, members| {
                let lambda = Item(key as u32);
                if freq1[key] && !sink.as_deref().is_some_and(|s| s.is_done(lambda)) {
                    self.process_first_level(
                        flat,
                        lambda,
                        members,
                        delta,
                        &freq1,
                        guard,
                        result,
                        &mut scratch,
                    )?;
                    if let Some(s) = sink.as_deref_mut() {
                        s.partition_done(lambda, result);
                    }
                }
                Ok(())
            },
            // Step 2.2: reassignment chains.
            |row, key| itineraries.next_after(row, Item(key as u32)).map(|x| x.id() as usize),
        )
    }

    /// Steps 2.1.1–2.1.3 for one `<(λ)>`-partition.
    ///
    /// Crate-visible because this is also the **shard body** of
    /// [`crate::parallel::ParallelDiscAll`]: the member list of the
    /// `<(λ)>`-partition at its processing time is exactly the rows
    /// containing `λ` (the reassignment chains enumerate, per row, every
    /// frequent item it contains), so first-level partitions are mutually
    /// independent and can run concurrently.
    #[allow(clippy::too_many_arguments)]
    pub(crate) fn process_first_level(
        &self,
        flat: &FlatDb,
        lambda: Item,
        members: &[usize],
        delta: u64,
        freq1: &[bool],
        guard: &MineGuard,
        result: &mut MiningResult,
        scratch: &mut Scratch,
    ) -> Result<(), AbortReason> {
        let Scratch { carray, arena, exts, i_mask, s_mask, freq2, second_level } = scratch;
        let prefix1 = Sequence::single(lambda);

        // 2.1.1: frequent 2-sequences by counting array (over the originals —
        // every supporter of a 2-sequence starting with λ is a member now).
        guard.charge(members.len() as u64)?;
        count_extensions_into(carray, &prefix1, members.iter().map(|&i| flat.row(i)));
        carray.frequent_extensions_into(delta, freq2);
        if freq2.is_empty() {
            // No frequent 2-sequence: no second-level partition can reach δ
            // members, so reduction and keying would be thrown away.
            return Ok(());
        }
        for &(elem, support) in freq2.iter() {
            guard.note_pattern()?;
            result.insert(prefix1.extended(elem), support);
        }
        carray.frequency_masks_into(i_mask, s_mask, delta);

        // 2.1.2: reduce into a partition-local flat arena and group by
        // 2-minimum subsequence, keyed by its rank among the frequent
        // 2-extensions. Partition slots are arena row indices; reduced
        // members never exist as nested sequences. Each row's extension set
        // is computed once here; the keying below and every 2.1.3.3
        // reassignment turn are lookups into it.
        arena.clear();
        exts.clear();
        second_level.reset(freq2.len());
        for &idx in members {
            guard.checkpoint()?;
            let seq = flat.row(idx);
            let min_point =
                seq.first_txn_containing(lambda).expect("partition members contain their key item");
            let Some(row) = reduce_into(arena, seq, lambda, min_point, freq1, i_mask, s_mask)
            else {
                continue;
            };
            let ext_row = exts.push_row(arena.row(row), &prefix1);
            debug_assert_eq!(ext_row, row);
            if let Some(elem) = exts.min_masked(row, i_mask, s_mask, None) {
                second_level.push(ext_rank(freq2, elem), row);
            } else {
                // Unextendable: the row just appended is dead.
                arena.pop_row();
                exts.pop_row();
            }
        }

        // 2.1.3: sweep second-level partitions in ascending key order.
        second_level.sweep(
            guard,
            |rank, slots| {
                if slots.len() as u64 >= delta {
                    let prefix2 = prefix1.extended(freq2[rank].0);
                    let partition: Vec<_> = slots.iter().map(|&s| arena.row(s)).collect();
                    self.process_second_level(&prefix2, &partition, delta, guard, result, carray)?;
                }
                Ok(())
            },
            // 2.1.3.3: reassign by the next 2-minimum subsequence.
            |slot, rank| {
                let next = exts.min_masked(slot, i_mask, s_mask, Some(freq2[rank].0))?;
                Some(ext_rank(freq2, next))
            },
        )
    }

    /// Steps 2.1.3.1–2.1.3.2 for one second-level partition.
    fn process_second_level<'a, S: SeqView<'a>>(
        &self,
        prefix2: &Sequence,
        partition: &[S],
        delta: u64,
        guard: &MineGuard,
        result: &mut MiningResult,
        carray: &mut CountingArray,
    ) -> Result<(), AbortReason> {
        // 2.1.3.1: frequent 3-sequences by counting array.
        guard.charge(partition.len() as u64)?;
        count_extensions_into(carray, prefix2, partition.iter().copied());
        let mut freq3 = Vec::new();
        for (elem, support) in carray.frequent_extensions(delta) {
            let pat = prefix2.extended(elem);
            guard.note_pattern()?;
            result.insert(pat.clone(), support);
            freq3.push(pat);
        }

        // 2.1.3.2: DISC iterations for k ≥ 4.
        run_disc_levels(partition, freq3, delta, self.config.bi_level, guard, result, carray)
    }
}

/// The buffers one `<(λ)>`-partition needs — counting array, reduction
/// arena, extension table, frequency masks, frequent 2-extensions and the
/// second-level queue — owned by the caller so a sequential walk reuses one
/// set for every partition.
#[derive(Debug)]
pub(crate) struct Scratch {
    carray: CountingArray,
    arena: FlatArena,
    exts: RowExtensions,
    i_mask: Vec<bool>,
    s_mask: Vec<bool>,
    freq2: Vec<(ExtElem, u64)>,
    second_level: BucketQueue,
}

impl Scratch {
    /// Empty buffers for a database over items `0..n_items`.
    pub(crate) fn new(n_items: usize) -> Scratch {
        Scratch {
            carray: CountingArray::new(n_items),
            arena: FlatArena::new(),
            exts: RowExtensions::new(),
            i_mask: Vec::new(),
            s_mask: Vec::new(),
            freq2: Vec::new(),
            second_level: BucketQueue::default(),
        }
    }
}

/// Step 1 of Figure 2, shared by the sequential and parallel miners: one
/// counting-array scan finds the frequent 1-sequences, inserts them into
/// `result`, and returns the `freq1` mask.
pub(crate) fn frequent_one_sequences(
    flat: &FlatDb,
    delta: u64,
    n_items: usize,
    guard: &MineGuard,
    result: &mut MiningResult,
) -> Result<Vec<bool>, AbortReason> {
    guard.charge(flat.len() as u64)?;
    let root = count_extensions(&Sequence::empty(), flat.rows(), n_items);
    let mut freq1 = vec![false; n_items];
    for id in 0..n_items as u32 {
        let support = root.seq_support(Item(id));
        if support >= delta {
            freq1[id as usize] = true;
            guard.note_pattern()?;
            result.insert(Sequence::single(Item(id)), support);
        }
    }
    Ok(freq1)
}

/// The `k = start, start+1, …` (or `start, start+2, …` under bi-level) DISC
/// loop shared by DISC-all and Dynamic DISC-all. `freq_prev` holds the
/// ascending frequent (k-1)-sequences that seed the first iteration.
/// Patterns reach `result` only from *completed* discovery calls, so an
/// abort mid-discovery never records unverified supports.
#[allow(clippy::too_many_arguments)]
pub(crate) fn run_disc_levels<'a, S: SeqView<'a>>(
    members: &[S],
    mut freq_prev: Vec<Sequence>,
    delta: u64,
    bi_level: bool,
    guard: &MineGuard,
    result: &mut MiningResult,
    carray: &mut CountingArray,
) -> Result<(), AbortReason> {
    while !freq_prev.is_empty() && members.len() as u64 >= delta {
        guard.checkpoint()?;
        let out = discover_frequent_k_into(members, &freq_prev, delta, bi_level, guard, carray)?;
        // Patterns that don't seed the next level are *moved* into the
        // result; only the seeding level clones (its sequences live on as
        // the next (k-1)-sorted list).
        if bi_level {
            for (p, s) in out.freq_k {
                guard.note_pattern()?;
                result.insert(p, s);
            }
            freq_prev = Vec::with_capacity(out.freq_k1.len());
            for (p, s) in out.freq_k1 {
                guard.note_pattern()?;
                freq_prev.push(p.clone());
                result.insert(p, s);
            }
        } else {
            freq_prev = Vec::with_capacity(out.freq_k.len());
            for (p, s) in out.freq_k {
                guard.note_pattern()?;
                freq_prev.push(p.clone());
                result.insert(p, s);
            }
        }
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use disc_core::{parse_sequence, BruteForce};

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

    fn assert_matches_brute_force(db: &SequenceDatabase, delta: u64) {
        let expected = BruteForce::default().mine(db, MinSupport::Count(delta));
        for miner in [DiscAll::default(), DiscAll::without_bi_level()] {
            let got = miner.mine(db, MinSupport::Count(delta));
            let diff = got.diff(&expected);
            assert!(diff.is_empty(), "{} δ={delta}:\n{}", miner.name(), diff.join("\n"));
        }
    }

    #[test]
    fn matches_brute_force_on_table_1() {
        for delta in 1..=4 {
            assert_matches_brute_force(&table1(), delta);
        }
    }

    #[test]
    fn matches_brute_force_on_table_6() {
        for delta in 1..=5 {
            assert_matches_brute_force(&table6(), delta);
        }
    }

    #[test]
    fn example_3_1_finds_the_promised_patterns() {
        // "<(a)>-partition will be processed first to find all the frequent
        // sequences that contain a as the first item, e.g. <(a, e)> and
        // <(a)(g, h)>" — δ = 3.
        let result = DiscAll::default().mine(&table6(), MinSupport::Count(3));
        assert!(result.contains_pattern(&parse_sequence("(a,e)").unwrap()));
        assert!(result.contains_pattern(&parse_sequence("(a)(g,h)").unwrap()));
        // And the deep ones traced in Examples 3.3–3.5.
        assert_eq!(result.support_of(&parse_sequence("(a)(a,e,g)").unwrap()), Some(5));
        assert_eq!(result.support_of(&parse_sequence("(a)(a,e,g,h)").unwrap()), Some(3));
        // <(d)> is the only non-frequent 1-sequence.
        assert!(!result.contains_pattern(&parse_sequence("(d)").unwrap()));
        assert!(result.contains_pattern(&parse_sequence("(h)").unwrap()));
    }

    #[test]
    fn empty_database() {
        let result = DiscAll::default().mine(&SequenceDatabase::new(), MinSupport::Count(1));
        assert!(result.is_empty());
    }

    #[test]
    fn single_customer_delta_one() {
        let db = SequenceDatabase::from_parsed(&["(a,b)(c)"]).unwrap();
        assert_matches_brute_force(&db, 1);
    }

    #[test]
    fn duplicate_customers_accumulate_support() {
        let db = SequenceDatabase::from_parsed(&[
            "(a)(b)(c)(d)(e)",
            "(a)(b)(c)(d)(e)",
            "(a)(b)(c)(d)(e)",
        ])
        .unwrap();
        let result = DiscAll::default().mine(&db, MinSupport::Count(3));
        // The full 5-sequence and every subsequence of it are frequent: 2^5-1.
        assert_eq!(result.len(), 31);
        assert_eq!(result.support_of(&parse_sequence("(a)(b)(c)(d)(e)").unwrap()), Some(3));
        assert_matches_brute_force(&db, 3);
    }

    #[test]
    fn deep_itemset_patterns() {
        let db = SequenceDatabase::from_parsed(&[
            "(a,b,c,d,e)(a,b)",
            "(a,b,c,d,e)(c)",
            "(x)(a,b,c,d,e)",
        ])
        .unwrap();
        let result = DiscAll::default().mine(&db, MinSupport::Count(3));
        assert_eq!(result.support_of(&parse_sequence("(a,b,c,d,e)").unwrap()), Some(3));
        assert_matches_brute_force(&db, 3);
        assert_matches_brute_force(&db, 2);
    }

    #[test]
    fn fraction_threshold_resolution() {
        let db = table6();
        let by_count = DiscAll::default().mine(&db, MinSupport::Count(3));
        let by_fraction = DiscAll::default().mine(&db, MinSupport::Fraction(3.0 / 11.0));
        assert!(by_count.diff(&by_fraction).is_empty());
    }
}
