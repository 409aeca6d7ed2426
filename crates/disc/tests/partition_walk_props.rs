//! Property tests for the partition walk at high support, where most
//! `<(λ)>`-partitions have no frequent 2-sequence and DISC-all leaves them
//! right after their counting-array scan:
//!
//! * DISC-all (bi-level on and off), Dynamic DISC-all (two γ) and Parallel
//!   DISC-all (×1 and ×4) return exactly the brute-force frequent set;
//! * a checkpointed DISC-all resumed from every first-level boundary — the
//!   state after the frequent 1-sequences and after each completed
//!   partition — completes to the same set, as does one resumed after a
//!   budget abort mid-run.

use disc_algo::{DiscAll, DynamicDiscAll, ParallelDiscAll, Resumable, CHECKPOINT_FILE};
use disc_core::checkpoint::MINER_DISC_ALL;
use disc_core::{
    database_fingerprint, read_snapshot, write_snapshot, BruteForce, CancelToken, Item, Itemset,
    MinSupport, MineGuard, MiningResult, MiningSnapshot, ResourceBudget, Sequence,
    SequenceDatabase, SequentialMiner,
};
use proptest::prelude::*;
use std::fs;
use std::path::PathBuf;
use std::sync::atomic::{AtomicUsize, Ordering};

fn arb_itemset(max_item: u32) -> impl Strategy<Value = Itemset> {
    prop::collection::btree_set(0..max_item, 1..=3)
        .prop_map(|s| Itemset::new(s.into_iter().map(Item)).expect("non-empty"))
}

fn arb_sequence(max_item: u32, max_txns: usize) -> impl Strategy<Value = Sequence> {
    prop::collection::vec(arb_itemset(max_item), 1..=max_txns).prop_map(Sequence::new)
}

/// A random database over 8 items with δ between 20% and 45% of its rows:
/// about two thirds of the frequent items then have no frequent
/// 2-extension, and the rest still reach the second level.
fn arb_sparse_case() -> impl Strategy<Value = (SequenceDatabase, u64)> {
    (prop::collection::vec(arb_sequence(8, 4), 6..=16), 20u64..=45).prop_map(|(rows, pct)| {
        let delta = (rows.len() as u64 * pct).div_ceil(100).max(2);
        (SequenceDatabase::from_sequences(rows), delta)
    })
}

fn assert_same(label: &str, got: &MiningResult, expected: &MiningResult, db: &SequenceDatabase) {
    let diff = got.diff(expected);
    assert!(diff.is_empty(), "{label}:\n{}\ndb:\n{}", diff.join("\n"), db.to_text());
}

fn fresh_dir() -> PathBuf {
    static NEXT: AtomicUsize = AtomicUsize::new(0);
    let n = NEXT.fetch_add(1, Ordering::Relaxed);
    let dir = std::env::temp_dir().join(format!("disc-walk-props-{}-{n}", std::process::id()));
    let _ = fs::remove_dir_all(&dir);
    dir
}

/// The snapshot a DISC-all sink writes at the boundary after the
/// partitions `done`: the frequent 1-sequences plus every pattern those
/// partitions found (each starts with its partition's key item).
fn boundary_snapshot(
    db: &SequenceDatabase,
    delta: u64,
    expected: &MiningResult,
    done: &[u32],
) -> MiningSnapshot {
    let patterns = expected
        .iter()
        .filter(|(p, _)| {
            let first = p.itemset(0).as_slice()[0].id();
            p.length() == 1 || done.contains(&first)
        })
        .map(|(p, s)| (p.clone(), s))
        .collect();
    MiningSnapshot {
        fingerprint: database_fingerprint(db),
        rows: db.len() as u64,
        delta,
        miner: MINER_DISC_ALL,
        bi_level: true,
        threads: 1,
        done: done.to_vec(),
        patterns,
        ops: 0,
        noted_patterns: 0,
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    #[test]
    fn every_miner_matches_brute_force_at_high_support((db, delta) in arb_sparse_case()) {
        let min_support = MinSupport::Count(delta);
        let expected = BruteForce::default().mine(&db, min_support);
        let miners: Vec<Box<dyn SequentialMiner>> = vec![
            Box::new(DiscAll::default()),
            Box::new(DiscAll::without_bi_level()),
            Box::new(DynamicDiscAll::with_gamma(0.3)),
            Box::new(DynamicDiscAll::with_gamma(2.0)),
            Box::new(ParallelDiscAll::with_threads(1)),
            Box::new(ParallelDiscAll::with_threads(4)),
        ];
        for miner in &miners {
            let got = miner.mine(&db, min_support);
            assert_same(&format!("{} δ={delta}", miner.name()), &got, &expected, &db);
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    #[test]
    fn resumable_disc_all_resumes_from_every_boundary((db, delta) in arb_sparse_case()) {
        let min_support = MinSupport::Count(delta);
        let expected = BruteForce::default().mine(&db, min_support);
        let dir = fresh_dir();
        let wrapped = Resumable::new(DiscAll::default(), &dir);

        // A clean checkpointed run ends on the all-done boundary, which must
        // be exactly the snapshot this test builds for it.
        let clean = wrapped.mine_guarded(&db, min_support, &MineGuard::unlimited());
        prop_assert!(clean.outcome.is_complete());
        assert_same("clean checkpointed run", &clean.result, &expected, &db);
        let last = read_snapshot(&wrapped.checkpoint_path()).unwrap();
        let keys: Vec<u32> = expected
            .iter()
            .filter(|(p, _)| p.length() == 1)
            .map(|(p, _)| p.itemset(0).as_slice()[0].id())
            .collect();
        prop_assert_eq!(&last.done, &keys);
        prop_assert_eq!(&last.patterns, &boundary_snapshot(&db, delta, &expected, &keys).patterns);

        // Resume from each boundary in walk order: none done, then one more
        // completed partition at a time.
        for n_done in 0..=keys.len() {
            let snap = boundary_snapshot(&db, delta, &expected, &keys[..n_done]);
            let path = dir.join(CHECKPOINT_FILE);
            write_snapshot(&path, &snap).unwrap();
            let resumed = wrapped
                .resume_from(&path, &db, min_support, &MineGuard::unlimited())
                .unwrap();
            prop_assert!(resumed.outcome.is_complete());
            assert_same(&format!("resumed after {n_done} partitions"), &resumed.result, &expected, &db);
        }

        // And from whatever a budget abort halfway through leaves behind.
        let _ = fs::remove_dir_all(&dir);
        let budget = ResourceBudget::unlimited().with_max_ops(last.ops / 2);
        let guard = MineGuard::new(CancelToken::new(), budget).with_checkpoint_interval(1);
        let aborted = wrapped.mine_guarded(&db, min_support, &guard);
        prop_assert!(!aborted.outcome.is_complete());
        let resumed = wrapped.mine_guarded(&db, min_support, &MineGuard::unlimited());
        prop_assert!(resumed.outcome.is_complete());
        assert_same("resumed after a budget abort", &resumed.result, &expected, &db);
        let _ = fs::remove_dir_all(&dir);
    }
}
