//! The batch workloads, `deep-text` and `wide-mmap`: one repetition takes
//! the input file on disk to the pattern file written, single-threaded,
//! the way `disc-mine` does.

use crate::digest::{digest, render, Digest};
use crate::figure2;
use crate::trace::{self_seconds_by_name, Tracer};
use crate::{alloc, inputs, provenance, stats, Outcome};
use disc_algo::DiscAll;
use disc_baselines::PseudoPrefixSpan;
use disc_core::{
    encode_database_flat_file, open_flat_file, write_flat_file, FlatDb, GuardStats, ItemMapping,
    MinSupport, MineGuard, MiningResult, SequenceDatabase, SequentialMiner, Verify,
};
use disc_datagen::QuestConfig;
use std::collections::BTreeMap;
use std::io::Write;
use std::path::{Path, PathBuf};
use std::time::Instant;

/// Which batch workload.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Kind {
    /// Fig 9 data as a text file, parsed to the heap.
    DeepText,
    /// Table 11 data packed to DSCFD1, mined off the memory map.
    WideMmap,
}

/// Customers in the `deep-text` input.
const DEEP_CUSTOMERS: usize = 5_000;
const DEEP_MINSUP: f64 = 0.005;
/// Customers in the `wide-mmap` input (Fig 8's top point ÷ 10).
const WIDE_CUSTOMERS: usize = 50_000;
const WIDE_MINSUP: f64 = 0.01;
/// Set-ups per run; `setup_s` is their median.
const SETUPS: usize = 5;
/// Fewest measured repetitions per mode, whatever `--seconds` says.
const MIN_REPS: usize = 3;

/// The prepared input of a run.
struct Input {
    kind: Kind,
    path: PathBuf,
    out: PathBuf,
    delta: u64,
    /// Digest of the expected output, agreed by DISC-all and a baseline.
    expected: Digest,
}

/// Wall times of the steps of one untraced repetition, in seconds.
#[derive(Debug, Default, Clone)]
struct Rep {
    wall: f64,
    mine: f64,
    stats: Option<GuardStats>,
    alloc_peak_mb: f64,
    patterns: usize,
    correct: bool,
}

fn input_paths(kind: Kind, work: &Path) -> (PathBuf, PathBuf) {
    match kind {
        Kind::DeepText => (work.join("input.txt"), work.join("patterns.txt")),
        Kind::WideMmap => (work.join("input.dscfd"), work.join("patterns.txt")),
    }
}

/// Generates the input from `seed` and writes it; returns the database
/// for the cross-check.
fn set_up_once(kind: Kind, seed: u64, path: &Path) -> Result<SequenceDatabase, String> {
    match kind {
        Kind::DeepText => {
            let config = QuestConfig::paper_fig9().with_ncust(DEEP_CUSTOMERS);
            let db = inputs::database(&config, seed);
            std::fs::write(path, db.to_text()).map_err(|e| format!("write {path:?}: {e}"))?;
            Ok(db)
        }
        Kind::WideMmap => {
            let config = QuestConfig::paper_table11().with_ncust(WIDE_CUSTOMERS);
            let db = inputs::database(&config, seed);
            write_flat_file(path, &encode_database_flat_file(&db))
                .map_err(|e| format!("pack {path:?}: {e}"))?;
            Ok(db)
        }
    }
}

fn minsup(kind: Kind) -> MinSupport {
    match kind {
        Kind::DeepText => MinSupport::Fraction(DEEP_MINSUP),
        Kind::WideMmap => MinSupport::Fraction(WIDE_MINSUP),
    }
}

/// Runs one repetition from the input file to the pattern file. With an
/// enabled tracer, spans wrap every layer call and the mine goes through
/// the Figure 2 stand-in; otherwise it is `DiscAll::mine_flat_guarded`.
fn repetition(
    input: &Input,
    tracer: &mut Tracer,
    counts: &mut figure2::Counts,
) -> Result<Rep, String> {
    let traced = tracer.enabled();
    let t0 = Instant::now();
    let root = tracer.begin("rep");
    let mut rep = Rep::default();

    // Parse (or map), compact, flatten.
    let (owned_flat, mapped, mapping): (Option<FlatDb>, _, Option<ItemMapping>) = match input.kind {
        Kind::DeepText => {
            let s = tracer.begin("parse");
            let text = std::fs::read_to_string(&input.path).map_err(|e| e.to_string())?;
            let db = SequenceDatabase::from_text(&text).map_err(|e| e.to_string())?;
            drop(text);
            tracer.end(s);
            let s = tracer.begin("compact");
            let mapping = ItemMapping::analyze(&db);
            let remapped = mapping.is_worthwhile().then(|| mapping.remap_database(&db));
            tracer.end(s);
            let s = tracer.begin("flat");
            let flat = FlatDb::from_database(remapped.as_ref().unwrap_or(&db));
            tracer.end(s);
            (Some(flat), None, mapping.is_worthwhile().then_some(mapping))
        }
        Kind::WideMmap => {
            let s = tracer.begin("flatfile");
            let contents = open_flat_file(&input.path, Verify::Full).map_err(|e| e.to_string())?;
            tracer.end(s);
            (None, Some(contents), None)
        }
    };
    let flat = owned_flat.as_ref().or(mapped.as_ref().map(|c| &c.flat)).expect("one source");

    // Mine.
    let t_mine = Instant::now();
    let s = tracer.begin("mine");
    let compact_result: MiningResult = if traced {
        let (result, c) = figure2::mine(flat, input.delta, tracer);
        *counts = c;
        result
    } else {
        let live = alloc::reset_peak();
        let run = DiscAll::default().mine_flat_guarded(
            flat,
            MinSupport::Count(input.delta),
            &MineGuard::unlimited(),
        );
        rep.alloc_peak_mb = alloc::peak().saturating_sub(live) as f64 / (1024.0 * 1024.0);
        if !run.outcome.is_complete() {
            return Err(format!("mining stopped early: {:?}", run.outcome));
        }
        rep.stats = Some(run.stats);
        run.result
    };
    tracer.end(s);
    rep.mine = t_mine.elapsed().as_secs_f64();

    // Restore original item ids, render, write.
    let s = tracer.begin("compact");
    let result = match (&mapping, &mapped) {
        (Some(m), _) => m.restore_result(&compact_result),
        (None, Some(contents)) => contents.mapping.restore_result(&compact_result),
        (None, None) => compact_result,
    };
    tracer.end(s);
    let s = tracer.begin("render");
    let bytes = render(&result);
    tracer.end(s);
    let s = tracer.begin("write");
    std::fs::File::create(&input.out)
        .and_then(|mut f| f.write_all(&bytes))
        .map_err(|e| format!("write {:?}: {e}", input.out))?;
    tracer.end(s);
    tracer.end(root);
    rep.wall = t0.elapsed().as_secs_f64();

    rep.patterns = result.len();
    rep.correct = digest(&bytes) == input.expected;
    Ok(rep)
}

/// Sets up [`SETUPS`] times; returns the input (its expected digest from
/// an independent miner) and the set-up times.
fn set_up(kind: Kind, seed: u64, work: &Path) -> Result<(Input, Vec<f64>), String> {
    let (path, out) = input_paths(kind, work);
    let mut times = Vec::new();
    let mut db = None;
    for _ in 0..SETUPS {
        let t = Instant::now();
        db = Some(set_up_once(kind, seed, &path)?);
        times.push(t.elapsed().as_secs_f64());
    }
    let db = db.expect("at least one set-up");
    let delta = minsup(kind).resolve(db.len());

    // The expected digest: an independent miner over the generated
    // database, rendered like disc-mine; the warm-up repetition (DISC-all,
    // untimed) must agree with it before anything is measured.
    let t = Instant::now();
    let expected =
        digest(&render(&PseudoPrefixSpan::default().mine(&db, MinSupport::Count(delta))));
    eprintln!(
        "# cross-check: {} gives {} patterns (max length {}) in {:.2}s",
        PseudoPrefixSpan::default().name(),
        expected.patterns,
        expected.max_length,
        t.elapsed().as_secs_f64()
    );
    Ok((Input { kind, path, out, delta, expected }, times))
}

/// Runs a batch workload for `seconds` and reports its metrics.
pub fn run(
    kind: Kind,
    seed: u64,
    seconds: f64,
    trace: bool,
    work: &Path,
) -> Result<Outcome, String> {
    let (input, setup_times) = set_up(kind, seed, work)?;

    let mut tracer = Tracer::new(false);
    let mut counts = figure2::Counts::default();
    let warm = repetition(&input, &mut tracer, &mut counts)?;
    let mut attempted = 1u64;
    let mut failed = u64::from(!warm.correct);
    if !warm.correct {
        eprintln!("# warm-up output does not match the cross-checked digest");
    }

    let rss_reset = provenance::reset_peak_rss();
    let ticks = provenance::cpu_ticks();
    let start = Instant::now();
    let mut untraced: Vec<Rep> = Vec::new();
    // Per traced repetition: its wall time and self seconds per layer.
    let mut traced: Vec<(f64, BTreeMap<&'static str, f64>)> = Vec::new();
    loop {
        let enough = |n: usize| n >= MIN_REPS;
        let done = start.elapsed().as_secs_f64() >= seconds
            && enough(untraced.len())
            && (!trace || enough(traced.len()));
        if done {
            break;
        }
        // The traced run alternates untraced and traced repetitions, so
        // both see the same machine state; `trace.overhead` compares them.
        let traced_turn = trace && untraced.len() > traced.len();
        tracer.set_enabled(traced_turn);
        tracer.set_group(attempted);
        let rep = repetition(&input, &mut tracer, &mut counts)?;
        attempted += 1;
        if !rep.correct {
            failed += 1;
            eprintln!("# repetition {attempted} output does not match the digest");
        }
        if traced_turn {
            traced.push((rep.wall, self_seconds_by_name(tracer.spans(), attempted - 1)));
        } else {
            untraced.push(rep);
        }
    }
    let measured = start.elapsed().as_secs_f64();
    let steal = provenance::steal_share(ticks, provenance::cpu_ticks());
    let peak_rss = provenance::peak_rss_mb().unwrap_or(0.0);

    let walls: Vec<f64> = untraced.iter().map(|r| r.wall).collect();
    let wall = stats::median(&walls).expect("at least one repetition");
    let mut out = Outcome::new(attempted, failed);
    out.samples = format!(
        "{{\"setups_s\":{setup_times:?},\"untraced_reps\":{},\"traced_reps\":{},\
         \"measured_s\":{measured},\"walls_s\":{walls:?},\"delta\":{},\"patterns\":{},\
         \"max_length\":{},\"peak_rss_reset\":{rss_reset},\"host_steal_share\":{steal}}}",
        untraced.len(),
        traced.len(),
        input.delta,
        input.expected.patterns,
        input.expected.max_length
    );
    if !trace {
        out.set("setup_s", stats::median(&setup_times).unwrap_or(0.0));
        out.set("wall_s", wall);
        out.set("peak_rss_mb", peak_rss);
        out.set("jobs_per_s", walls.len() as f64 / walls.iter().sum::<f64>());
        return Ok(out);
    }

    // Per-layer metrics: self times are medians over traced repetitions,
    // counts come from the last traced one (they repeat exactly).
    let layer = |name: &str| {
        let xs: Vec<f64> =
            traced.iter().map(|(_, m)| m.get(name).copied().unwrap_or(0.0)).collect();
        stats::median(&xs).unwrap_or(0.0)
    };
    let traced_wall = stats::median(&traced.iter().map(|t| t.0).collect::<Vec<_>>()).unwrap_or(0.0);
    // Coverage of one repetition: the share of its root span that layer
    // spans account for (everything but the root's own self time).
    let coverage: Vec<f64> = traced
        .iter()
        .map(|(_, m)| {
            let total: f64 = m.values().sum();
            (total - m.get("rep").copied().unwrap_or(0.0)) / total
        })
        .collect();
    let last = untraced.last().expect("untraced repetitions");
    let gstats = last.stats.expect("untraced repetitions record guard stats");
    let file_bytes = std::fs::metadata(&input.path).map(|m| m.len()).unwrap_or(0) as f64;
    let out_bytes = std::fs::metadata(&input.out).map(|m| m.len()).unwrap_or(0) as f64;
    let parse_s = layer("parse");
    let c = counts;
    let u = |f: fn(&Rep) -> f64| {
        stats::median(&untraced.iter().map(f).collect::<Vec<_>>()).unwrap_or(0.0)
    };
    for (name, value) in [
        ("parse.s", parse_s),
        (
            "parse.mb_per_s",
            if parse_s > 0.0 && input.kind == Kind::DeepText {
                file_bytes / 1048576.0 / parse_s
            } else {
                0.0
            },
        ),
        ("compact.s", layer("compact")),
        ("flat.build_s", layer("flat")),
        ("flatfile.open_s", layer("flatfile")),
        ("flatfile.bytes", if input.kind == Kind::WideMmap { file_bytes } else { 0.0 }),
        ("counting.s", layer("counting")),
        ("counting.calls", c.counting_calls as f64),
        ("counting.rows", c.counting_rows as f64),
        ("partition.s", layer("partition")),
        ("partition.first_level", c.first_level as f64),
        ("partition.second_level", c.second_level as f64),
        ("partition.rows_reduced", c.rows_reduced as f64),
        ("discovery.s", layer("discovery")),
        ("discovery.calls", c.discovery_calls as f64),
        ("discovery.patterns", c.discovery_patterns as f64),
        ("disc_all.self_s", layer("mine")),
        ("mine.s", u(|r| r.mine)),
        ("mine.ops", gstats.ops as f64),
        ("mine.checkpoints", gstats.checkpoints as f64),
        ("mine.patterns", last.patterns as f64),
        ("mine.alloc_peak_mb", u(|r| r.alloc_peak_mb)),
        ("render.s", layer("render")),
        ("render.bytes", out_bytes),
        ("write.s", layer("write")),
        ("trace.coverage", stats::median(&coverage).unwrap_or(0.0)),
        ("trace.overhead", traced_wall / wall - 1.0),
        ("error_rate", failed as f64 / attempted as f64),
    ] {
        out.set(name, value);
    }
    tracer.write_jsonl(&work.join("spans.jsonl")).map_err(|e| format!("write spans: {e}"))?;
    Ok(out)
}
