//! End-to-end checks of the `disc-mine` binary: every way of running a DISC
//! miner prints the same bytes, and the documented usage refusals exit
//! with code 2.
//!
//! For each of `disc-all`, `dynamic` and `parallel`, plain heap mining, a
//! fresh `--checkpoint-dir` run, a second run in the same directory (which
//! auto-resumes the finished snapshot), an explicit `--resume`, a packed
//! `.dscfd` input and the `store mine` paths must all print exactly what
//! plain `--algo disc-all` prints. Two databases are used: a generated one
//! with dense item ids, and a hand-built one with sparse ids, which the
//! heap path compacts before mining and the flat file stores compacted.

use disc_miner::prelude::*;
use std::fs;
use std::path::{Path, PathBuf};
use std::process::{Command, Output};

const BIN: &str = env!("CARGO_BIN_EXE_disc-mine");

/// The three DISC miners and the extra flags of each run: the parallel
/// miner runs once on its default pool and once on two threads.
const DISC_ALGOS: [(&str, &[&str]); 4] =
    [("disc-all", &[]), ("dynamic", &[]), ("parallel", &[]), ("parallel", &["--threads", "2"])];

fn scratch_dir(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("disc-mine-cli-{tag}-{}", std::process::id()));
    let _ = fs::remove_dir_all(&dir);
    fs::create_dir_all(&dir).unwrap();
    dir
}

fn run(args: &[&str]) -> Output {
    Command::new(BIN).args(args).output().expect("disc-mine starts")
}

/// Runs `disc-mine` and returns its stdout, failing on a non-zero exit.
fn stdout_of(args: &[&str]) -> Vec<u8> {
    let out = run(args);
    assert!(
        out.status.success(),
        "disc-mine {args:?} exited {:?}: {}",
        out.status.code(),
        String::from_utf8_lossy(&out.stderr)
    );
    out.stdout
}

fn assert_exit_2(args: &[&str]) {
    let out = run(args);
    assert_eq!(
        out.status.code(),
        Some(2),
        "disc-mine {args:?} must be refused as a usage error: {}",
        String::from_utf8_lossy(&out.stderr)
    );
}

fn path_str(p: &Path) -> &str {
    p.to_str().expect("temp paths are UTF-8")
}

fn dense_db() -> SequenceDatabase {
    QuestConfig::paper_table11()
        .with_ncust(120)
        .with_nitems(24)
        .with_pools(24, 48)
        .with_slen(4.0)
        .with_seed(17)
        .generate()
}

/// Item ids up to 900 000 over a dozen distinct items: the heap path
/// compacts these before mining.
fn sparse_db_text() -> String {
    const ITEMS: [u32; 12] =
        [3, 40, 977, 1500, 20_000, 20_001, 65_536, 100_003, 250_000, 400_000, 777_777, 900_000];
    let mut state = 0x2545_f491_4f6c_dd1du64;
    let mut next = |n: usize| {
        state =
            state.wrapping_mul(6_364_136_223_846_793_005).wrapping_add(1_442_695_040_888_963_407);
        (state >> 33) as usize % n
    };
    let mut text = String::new();
    for cid in 0..80 {
        text.push_str(&format!("{cid}:"));
        for _ in 0..2 + next(3) {
            let mut txn: Vec<u32> = (0..1 + next(3)).map(|_| ITEMS[next(ITEMS.len())]).collect();
            txn.sort_unstable();
            txn.dedup();
            let txn: Vec<String> = txn.iter().map(u32::to_string).collect();
            text.push_str(&format!(" ({})", txn.join(", ")));
        }
        text.push('\n');
    }
    text
}

/// Every DISC entry point of the CLI prints the reference bytes for the
/// database in `text` at `--delta delta`.
fn assert_every_entry_point_agrees(tag: &str, text: &str, delta: &str) {
    let dir = scratch_dir(tag);
    let db = dir.join("db.txt");
    fs::write(&db, text).unwrap();
    let db = path_str(&db);
    let flat = dir.join("db.dscfd");
    stdout_of(&["pack", db, path_str(&flat)]);
    let flat = path_str(&flat);

    let reference = stdout_of(&[db, "--delta", delta, "--algo", "disc-all"]);
    assert!(!reference.is_empty(), "{tag}: the workload must produce patterns");
    // The baselines agree too, so the reference itself is trustworthy.
    assert_eq!(stdout_of(&[db, "--delta", delta, "--algo", "prefixspan"]), reference);

    for (i, (algo, extra)) in DISC_ALGOS.iter().enumerate() {
        let label = format!("{tag} {algo} {extra:?}");
        let with = |args: &[&str]| -> Vec<u8> {
            let mut all = args.to_vec();
            all.extend_from_slice(&["--delta", delta, "--algo", algo]);
            all.extend_from_slice(extra);
            stdout_of(&all)
        };
        assert_eq!(with(&[db]), reference, "{label}: plain heap mining");

        let ckpt = dir.join(format!("ckpt-{i}"));
        let ckpt = path_str(&ckpt);
        assert_eq!(with(&[db, "--checkpoint-dir", ckpt]), reference, "{label}: fresh checkpoint");
        let snapshot = Path::new(ckpt).join(CHECKPOINT_FILE);
        assert!(snapshot.exists(), "{label}: the checkpointed run leaves a snapshot");
        assert_eq!(with(&[db, "--checkpoint-dir", ckpt]), reference, "{label}: auto-resume");
        assert_eq!(with(&[db, "--resume", path_str(&snapshot)]), reference, "{label}: --resume");

        assert_eq!(with(&[flat]), reference, "{label}: memory-mapped .dscfd");
    }

    // The store paths share the mining flags.
    let store = dir.join("store");
    let store = path_str(&store);
    stdout_of(&["store", "ingest", db, "--dir", store, "--compact"]);
    for (algo, extra) in DISC_ALGOS {
        for mmap in [&[][..], &["--mmap"][..]] {
            let mut args = vec!["store", "mine", "--dir", store, "--delta", delta, "--algo", algo];
            args.extend_from_slice(extra);
            args.extend_from_slice(mmap);
            assert_eq!(stdout_of(&args), reference, "{tag} store mine {algo} {extra:?} {mmap:?}");
        }
    }
    let _ = fs::remove_dir_all(&dir);
}

#[test]
fn every_disc_entry_point_prints_the_same_bytes_on_dense_ids() {
    assert_every_entry_point_agrees("dense", &dense_db().to_text(), "18");
}

#[test]
fn every_disc_entry_point_prints_the_same_bytes_on_sparse_ids() {
    assert_every_entry_point_agrees("sparse", &sparse_db_text(), "6");
}

#[test]
fn usage_refusals_exit_with_code_2() {
    let dir = scratch_dir("refusals");
    let db = dir.join("db.txt");
    fs::write(&db, dense_db().to_text()).unwrap();
    let db = path_str(&db);
    let flat = dir.join("db.dscfd");
    stdout_of(&["pack", db, path_str(&flat)]);
    let flat = path_str(&flat);
    let ckpt = dir.join("ckpt");
    let ckpt = path_str(&ckpt);
    let snapshot = dir.join("ckpt").join(CHECKPOINT_FILE);
    let snapshot = path_str(&snapshot);
    stdout_of(&[db, "--delta", "18", "--checkpoint-dir", ckpt]);

    // A baseline cannot checkpoint or resume.
    assert_exit_2(&[db, "--delta", "18", "--algo", "prefixspan", "--checkpoint-dir", ckpt]);
    assert_exit_2(&[db, "--delta", "18", "--algo", "spade", "--resume", snapshot]);
    // Flat files mine without checkpoints.
    assert_exit_2(&[flat, "--delta", "18", "--checkpoint-dir", ckpt]);
    assert_exit_2(&[flat, "--delta", "18", "--resume", snapshot]);
    // Unknown algorithms, on both input kinds.
    assert_exit_2(&[db, "--delta", "18", "--algo", "nope"]);
    assert_exit_2(&[flat, "--delta", "18", "--algo", "prefixspan"]);
    // --threads belongs to the parallel miner only.
    assert_exit_2(&[db, "--delta", "18", "--algo", "disc-all", "--threads", "2"]);
    assert_exit_2(&[db, "--delta", "18", "--threads", "0", "--algo", "parallel"]);
    // --checkpoint-dir and --resume are mutually exclusive.
    assert_exit_2(&[db, "--delta", "18", "--checkpoint-dir", ckpt, "--resume", snapshot]);
    // Missing or malformed values.
    assert_exit_2(&[db, "--minsup"]);
    assert_exit_2(&[db, "--delta", "many"]);
    assert_exit_2(&[]);

    // The store subcommands share the mining flags and their checks.
    let store = dir.join("store");
    let store = path_str(&store);
    stdout_of(&["store", "ingest", db, "--dir", store]);
    assert_exit_2(&["store", "mine", "--dir", store, "--algo", "dynamic", "--threads", "2"]);
    assert_exit_2(&["store", "mine", "--dir", store, "--threads", "0", "--algo", "parallel"]);
    assert_exit_2(&["store", "mine", "--dir", store, "--checkpoint-dir", ckpt]);
    assert_exit_2(&["store", "mine", "--dir", store, "--algo", "nope"]);
    assert_exit_2(&["store", "mine", "--dir", store, "--delta"]);
    assert_exit_2(&["store", "mine", "--delta", "18"]);
    let _ = fs::remove_dir_all(&dir);
}
