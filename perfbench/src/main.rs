//! `perfbench` — the repository benchmark.
//!
//! ```text
//! perfbench --workload deep-text|wide-mmap|serve-mix --seed N --seconds S --trace 0|1
//! ```
//!
//! Run it from the repository root (`cargo run --release --manifest-path
//! perfbench/Cargo.toml -- ...`). It generates the workload's inputs from
//! the seed, sets up, runs one untimed warm-up, then measures for the given
//! number of seconds, checking every output. The last line of standard
//! output is one JSON object: `correct`, `attempted`, `failed`, and the
//! `metrics` — the end-to-end metrics untraced (`--trace 0`), the
//! per-layer metrics traced (`--trace 1`). The line before it carries the
//! provenance. `perfbench/README.md` defines every metric.

mod alloc;
mod batch;
mod digest;
mod figure2;
mod inputs;
mod provenance;
mod rng;
mod serve;
mod stats;
mod trace;

use std::path::{Path, PathBuf};
use std::process::exit;

#[global_allocator]
static GLOBAL: alloc::Counting = alloc::Counting;

/// The end-to-end metrics and their units, reported by every untraced run.
const END_TO_END: [(&str, &str); 4] =
    [("setup_s", "s"), ("wall_s", "s"), ("peak_rss_mb", "MB"), ("jobs_per_s", "1/s")];

/// The per-layer metrics and their units, reported by every traced run; a
/// layer a workload does not load reports 0.
const PER_LAYER: [(&str, &str); 51] = [
    ("parse.s", "s"),
    ("parse.mb_per_s", "MB/s"),
    ("compact.s", "s"),
    ("flat.build_s", "s"),
    ("flatfile.open_s", "s"),
    ("flatfile.bytes", "bytes"),
    ("counting.s", "s"),
    ("counting.calls", "count"),
    ("counting.rows", "count"),
    ("partition.s", "s"),
    ("partition.first_level", "count"),
    ("partition.second_level", "count"),
    ("partition.rows_reduced", "count"),
    ("discovery.s", "s"),
    ("discovery.calls", "count"),
    ("discovery.patterns", "count"),
    ("disc_all.self_s", "s"),
    ("mine.s", "s"),
    ("mine.ops", "count"),
    ("mine.checkpoints", "count"),
    ("mine.patterns", "count"),
    ("mine.alloc_peak_mb", "MB"),
    ("render.s", "s"),
    ("render.bytes", "bytes"),
    ("write.s", "s"),
    ("upload.ms", "ms"),
    ("submit.p50_ms", "ms"),
    ("poll.p50_ms", "ms"),
    ("result.p50_ms", "ms"),
    ("polls_per_job", "count"),
    ("result.bytes_per_job", "bytes"),
    ("job_cold_p50_ms", "ms"),
    ("job_cold_p90_ms", "ms"),
    ("job_hit_p50_ms", "ms"),
    ("job_hit_p90_ms", "ms"),
    ("job_cold.n", "count"),
    ("job_hit.n", "count"),
    ("scheduler.run_p50_ms", "ms"),
    ("scheduler.wait_p50_ms", "ms"),
    ("scheduler.slices_per_job", "count"),
    ("scheduler.preemptions", "count"),
    ("scheduler.mine_invocations", "count"),
    ("cache.hits", "count"),
    ("cache.misses", "count"),
    ("cache.hit_ratio", "ratio"),
    ("limits.shed", "count"),
    ("limits.timeouts", "count"),
    ("limits.quota_denials", "count"),
    ("trace.coverage", "ratio"),
    ("trace.overhead", "ratio"),
    ("error_rate", "ratio"),
];

/// What a workload run reports.
#[derive(Debug)]
pub struct Outcome {
    attempted: u64,
    failed: u64,
    metrics: Vec<(&'static str, f64)>,
    /// Sample counts and workload facts, as a JSON object.
    samples: String,
}

impl Outcome {
    /// An outcome with no metrics yet.
    pub fn new(attempted: u64, failed: u64) -> Outcome {
        Outcome { attempted, failed, metrics: Vec::new(), samples: "{}".into() }
    }

    /// Records metric `name`; its unit comes from [`END_TO_END`] or
    /// [`PER_LAYER`].
    pub fn set(&mut self, name: &'static str, value: f64) {
        self.metrics.push((name, value));
    }

    /// The result line, with exactly the metrics of `table`. With
    /// `zero_fill`, a metric the workload did not set reports 0.
    fn result_json(&self, table: &[(&str, &str)], zero_fill: bool) -> Result<String, String> {
        let mut fields = Vec::new();
        for &(name, unit) in table {
            let value = match self.metrics.iter().find(|(n, _)| *n == name) {
                Some(&(_, v)) => v,
                None if zero_fill => 0.0,
                None => return Err(format!("metric {name} was not measured")),
            };
            if !value.is_finite() {
                return Err(format!("metric {name} is not a finite number: {value}"));
            }
            fields.push(format!("\"{name}\":{{\"value\":{value},\"unit\":\"{unit}\"}}"));
        }
        if let Some((name, _)) =
            self.metrics.iter().find(|(n, _)| !table.iter().any(|(t, _)| t == n))
        {
            return Err(format!("metric {name} is not in this run's table"));
        }
        Ok(format!(
            "{{\"correct\":{},\"attempted\":{},\"failed\":{},\"metrics\":{{{}}}}}",
            self.failed == 0,
            self.attempted,
            self.failed,
            fields.join(",")
        ))
    }
}

struct Args {
    workload: String,
    seed: u64,
    seconds: f64,
    trace: bool,
}

fn usage(msg: &str) -> ! {
    eprintln!(
        "perfbench: {msg}\nusage: perfbench --workload deep-text|wide-mmap|serve-mix \
         --seed N --seconds S --trace 0|1"
    );
    exit(2);
}

fn parse_args() -> Args {
    let mut args = std::env::args().skip(1);
    let (mut workload, mut seed, mut seconds, mut trace) = (None, None, None, None);
    while let Some(flag) = args.next() {
        let value = args.next().unwrap_or_else(|| usage(&format!("{flag} needs a value")));
        match flag.as_str() {
            "--workload" => workload = Some(value),
            "--seed" => seed = value.parse().ok(),
            "--seconds" => seconds = value.parse::<f64>().ok().filter(|s| *s > 0.0),
            "--trace" => {
                trace = match value.as_str() {
                    "0" => Some(false),
                    "1" => Some(true),
                    _ => usage("--trace takes 0 or 1"),
                }
            }
            other => usage(&format!("unknown flag {other}")),
        }
    }
    Args {
        workload: workload.unwrap_or_else(|| usage("--workload is required")),
        seed: seed.unwrap_or_else(|| usage("--seed must be a whole number")),
        seconds: seconds.unwrap_or_else(|| usage("--seconds must be a positive number")),
        trace: trace.unwrap_or_else(|| usage("--trace is required")),
    }
}

/// A fresh scratch directory for this workload under `perfbench/work`.
fn work_dir(root: &Path, workload: &str) -> Result<PathBuf, String> {
    let dir = root.join("perfbench").join("work").join(workload);
    if dir.exists() {
        std::fs::remove_dir_all(&dir).map_err(|e| format!("clear {dir:?}: {e}"))?;
    }
    std::fs::create_dir_all(&dir).map_err(|e| format!("create {dir:?}: {e}"))?;
    Ok(dir)
}

fn main() {
    let args = parse_args();
    let root =
        std::env::current_dir().unwrap_or_else(|e| usage(&format!("no working directory: {e}")));
    let run = || -> Result<Outcome, String> {
        let work = work_dir(&root, &args.workload)?;
        match args.workload.as_str() {
            "deep-text" => {
                batch::run(batch::Kind::DeepText, args.seed, args.seconds, args.trace, &work)
            }
            "wide-mmap" => {
                batch::run(batch::Kind::WideMmap, args.seed, args.seconds, args.trace, &work)
            }
            "serve-mix" => serve::run(args.seed, args.seconds, args.trace, &work),
            other => usage(&format!("unknown workload {other}")),
        }
    };
    let outcome = match run() {
        Ok(o) => o,
        Err(e) => {
            eprintln!("perfbench: {e}");
            exit(1);
        }
    };
    let table: &[(&str, &str)] = if args.trace { &PER_LAYER } else { &END_TO_END };
    let line = match outcome.result_json(table, args.trace) {
        Ok(l) => l,
        Err(e) => {
            eprintln!("perfbench: {e}");
            exit(1);
        }
    };
    println!(
        "{{\"provenance\":{}}}",
        provenance::json(&root, &args.workload, args.seed, args.trace, &outcome.samples)
    );
    println!("{line}");
}
