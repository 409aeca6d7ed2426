//! The `serve-mix` workload: an in-process `disc_server::Server` on
//! 127.0.0.1 serving two tenants from one closed-loop client that
//! alternates between them, one job and one connection at a time:
//! submit → poll → fetch every result page → next job. Each tenant's
//! seeded job stream mixes cold jobs (`nocache=1`) with repeats the result
//! cache answers, one repeat in every block of three.
//!
//! Jobs never overlap on purpose. The scheduler mines in rounds and a
//! round ends when its slowest slice does, so two tenants mining at once
//! tie each job's latency to the other's; on a shared host whose
//! hypervisor steals CPU time, that coupling turned a few percent of steal
//! into tens of percent of latency.

use crate::digest::render;
use crate::rng::SplitMix;
use crate::trace::{self_times, Tracer};
use crate::{inputs, provenance, stats, Outcome};
use disc_algo::DiscAll;
use disc_core::{encode_database, ItemMapping, MinSupport, SequenceDatabase, SequentialMiner};
use disc_datagen::QuestConfig;
use disc_server::http::read_response;
use disc_server::{LimitsConfig, SchedulerConfig, Server, ServerConfig};
use std::collections::BTreeMap;
use std::io::Write;
use std::net::{SocketAddr, TcpStream};
use std::path::Path;
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

/// Customers in the served database (Table 11 generator). Large enough
/// that mining, not the server's accept and poll cadence, is most of a
/// cold job's latency.
const CUSTOMERS: usize = 4_000;
/// The support counts jobs draw from: minsup 1.2% to 3%.
const DELTAS: [u64; 6] = [48, 60, 72, 80, 100, 120];
/// Jobs come in blocks of this many, exactly one of them a repeat.
const BLOCK: usize = 3;
const TENANTS: [&str; 2] = ["tenant-a", "tenant-b"];
/// Result lines per page.
const PAGE_LINES: usize = 400;
/// Operations per scheduler slice: a cold job takes a few slices, so
/// preemption at checkpoint boundaries is part of every cold job.
const SLICE_OPS: u64 = 200_000;
/// Partition boundaries between durable checkpoints inside a slice.
const CHECKPOINT_EVERY: u64 = 64;
/// Pause between status polls of a running job.
const POLL_GAP: Duration = Duration::from_millis(5);
/// A request that takes longer than this fails.
const REQUEST_TIMEOUT: Duration = Duration::from_secs(30);
/// Set-ups per run; `setup_s` is their median.
const SETUPS: usize = 5;
/// Largest response the client accepts.
const MAX_RESPONSE: usize = 64 << 20;

/// One job of the seeded stream.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
struct JobPlan {
    repeat: bool,
    delta: u64,
}

/// One tenant's seeded job stream. Each block of [`BLOCK`] jobs holds one
/// repeat at a random position. Cold jobs and repeats each walk the δ set
/// in a seeded order, so every δ recurs equally often whatever the seed.
struct JobStream {
    rng: SplitMix,
    cold_order: [u64; DELTAS.len()],
    repeat_order: [u64; DELTAS.len()],
    cold: usize,
    repeats: usize,
}

impl JobStream {
    fn new(seed: u64, tenant: usize) -> JobStream {
        let mut rng = SplitMix::new(seed ^ ((tenant as u64 + 1) << 56));
        let mut cold_order = DELTAS;
        let mut repeat_order = DELTAS;
        inputs::shuffle(&mut cold_order, &mut rng);
        inputs::shuffle(&mut repeat_order, &mut rng);
        JobStream { rng, cold_order, repeat_order, cold: 0, repeats: 0 }
    }

    fn next_block(&mut self) -> [JobPlan; BLOCK] {
        let repeat_at = self.rng.below(BLOCK as u64) as usize;
        std::array::from_fn(|i| {
            let (order, n) = if i == repeat_at {
                (&self.repeat_order, &mut self.repeats)
            } else {
                (&self.cold_order, &mut self.cold)
            };
            let delta = order[*n % order.len()];
            *n += 1;
            JobPlan { repeat: i == repeat_at, delta }
        })
    }
}

/// What the client saw of one job.
#[derive(Debug, Clone, Default)]
struct JobRecord {
    repeat: bool,
    latency_ms: f64,
    submit_ms: f64,
    poll_ms: Vec<f64>,
    result_ms: Vec<f64>,
    result_bytes: usize,
    slices: f64,
    preemptions: f64,
    server_elapsed_ms: f64,
    traced: bool,
}

/// Sends one request on a fresh connection (the server closes every
/// connection after its response) and returns the status and body.
fn request(
    addr: SocketAddr,
    method: &str,
    target: &str,
    body: &[u8],
) -> Result<(u16, Vec<u8>), String> {
    let mut s =
        TcpStream::connect_timeout(&addr, REQUEST_TIMEOUT).map_err(|e| format!("connect: {e}"))?;
    s.set_read_timeout(Some(REQUEST_TIMEOUT)).map_err(|e| e.to_string())?;
    s.set_write_timeout(Some(REQUEST_TIMEOUT)).map_err(|e| e.to_string())?;
    let head = format!(
        "{method} {target} HTTP/1.1\r\nHost: perfbench\r\nContent-Length: {}\r\n\r\n",
        body.len()
    );
    s.write_all(head.as_bytes())
        .and_then(|_| s.write_all(body))
        .map_err(|e| format!("send: {e}"))?;
    let (status, _, body) =
        read_response(&mut s, MAX_RESPONSE).map_err(|e| format!("{target}: {e:?}"))?;
    Ok((status, body))
}

/// A request that must succeed with a 2xx status.
fn request_ok(
    addr: SocketAddr,
    method: &str,
    target: &str,
    body: &[u8],
) -> Result<(u16, Vec<u8>), String> {
    let (status, reply) = request(addr, method, target, body)?;
    if !(200..300).contains(&status) {
        return Err(format!(
            "{method} {target}: status {status}: {}",
            String::from_utf8_lossy(&reply)
        ));
    }
    Ok((status, reply))
}

/// The raw value of `"key":` in a flat JSON document.
fn field<'a>(json: &'a str, key: &str) -> Option<&'a str> {
    let needle = format!("\"{key}\":");
    let rest = &json[json.find(&needle)? + needle.len()..];
    let rest = rest.strip_prefix('"').unwrap_or(rest);
    rest.split(['"', ',', '}']).next()
}

fn number(json: &str, key: &str) -> Result<f64, String> {
    field(json, key)
        .and_then(|v| v.parse().ok())
        .ok_or_else(|| format!("no number {key} in {json}"))
}

/// Runs one job from submission to its last result byte.
fn run_job(
    addr: SocketAddr,
    tenant: &str,
    plan: JobPlan,
    expected: &BTreeMap<u64, Vec<u8>>,
    tracer: &mut Tracer,
) -> Result<JobRecord, String> {
    let mut rec =
        JobRecord { repeat: plan.repeat, traced: tracer.enabled(), ..JobRecord::default() };
    let t0 = Instant::now();
    let job_span = tracer.begin("job");
    let nocache = if plan.repeat { "" } else { "&nocache=1" };
    let target = format!("/jobs?db=bench&tenant={tenant}&delta={}{nocache}", plan.delta);
    let s = tracer.begin("submit");
    let t = Instant::now();
    let (_, reply) = request_ok(addr, "POST", &target, b"")?;
    rec.submit_ms = t.elapsed().as_secs_f64() * 1e3;
    tracer.end(s);
    let mut status = String::from_utf8_lossy(&reply).into_owned();
    let id = field(&status, "id").ok_or("submit reply has no id")?.to_string();
    if field(&status, "cached") != Some(if plan.repeat { "true" } else { "false" }) {
        return Err(format!("job {id}: expected cached={} in {status}", plan.repeat));
    }
    while field(&status, "state") != Some("done") {
        match field(&status, "state") {
            Some("queued" | "running") => {}
            other => return Err(format!("job {id} ended {other:?}: {status}")),
        }
        std::thread::sleep(POLL_GAP);
        let s = tracer.begin("poll");
        let t = Instant::now();
        let (_, reply) = request_ok(addr, "GET", &format!("/jobs/{id}"), b"")?;
        rec.poll_ms.push(t.elapsed().as_secs_f64() * 1e3);
        tracer.end(s);
        status = String::from_utf8_lossy(&reply).into_owned();
    }
    rec.slices = number(&status, "slices")?;
    rec.preemptions = number(&status, "preemptions")?;
    rec.server_elapsed_ms = number(&status, "elapsed_ms")?;

    let mut body = Vec::new();
    let mut offset = 0;
    loop {
        let s = tracer.begin("result");
        let t = Instant::now();
        let target = format!("/jobs/{id}/result?offset={offset}&limit={PAGE_LINES}");
        let (_, page) = request_ok(addr, "GET", &target, b"")?;
        rec.result_ms.push(t.elapsed().as_secs_f64() * 1e3);
        tracer.end(s);
        let lines = page.iter().filter(|&&b| b == b'\n').count();
        body.extend_from_slice(&page);
        if lines < PAGE_LINES {
            break;
        }
        offset += PAGE_LINES;
    }
    rec.latency_ms = t0.elapsed().as_secs_f64() * 1e3;
    tracer.end(job_span);
    rec.result_bytes = body.len();
    if expected.get(&plan.delta) != Some(&body) {
        return Err(format!(
            "job {id}: served result differs from direct mining at δ={}",
            plan.delta
        ));
    }
    Ok(rec)
}

/// A running server and the thread serving it.
struct Running {
    addr: SocketAddr,
    thread: JoinHandle<std::io::Result<Vec<u64>>>,
}

impl Running {
    /// Drains the server and waits for its thread.
    fn stop(self) -> Result<(), String> {
        request_ok(self.addr, "POST", "/admin/drain", b"")?;
        match self.thread.join() {
            Ok(Ok(_)) => Ok(()),
            Ok(Err(e)) => Err(format!("server: {e}")),
            Err(_) => Err("server thread panicked".into()),
        }
    }
}

/// Generates the database, starts a server over `data_dir` and uploads it.
fn set_up_once(seed: u64, data_dir: &Path) -> Result<(Running, SequenceDatabase, f64), String> {
    let db = inputs::database(&QuestConfig::paper_table11().with_ncust(CUSTOMERS), seed);
    let server = Server::new(ServerConfig {
        addr: "127.0.0.1:0".into(),
        data_dir: data_dir.to_path_buf(),
        scheduler: SchedulerConfig {
            threads: 2,
            slice_ops: SLICE_OPS,
            checkpoint_every: CHECKPOINT_EVERY,
            ..SchedulerConfig::default()
        },
        limits: LimitsConfig { max_connections: 2, ..LimitsConfig::default() },
        ..ServerConfig::default()
    });
    let runner = server.clone();
    let thread = std::thread::spawn(move || runner.run());
    let addr = loop {
        if let Some(a) = server.local_addr() {
            break a;
        }
        if thread.is_finished() {
            return Err("server exited before binding".into());
        }
        std::thread::sleep(Duration::from_millis(1));
    };
    let t = Instant::now();
    request_ok(addr, "POST", "/dbs?name=bench", &encode_database(&db))?;
    let upload_ms = t.elapsed().as_secs_f64() * 1e3;
    Ok((Running { addr, thread }, db, upload_ms))
}

/// The bytes `disc-mine --delta δ` prints for `db`.
fn direct(db: &SequenceDatabase, delta: u64) -> Vec<u8> {
    let mapping = ItemMapping::analyze(db);
    let result = if mapping.is_worthwhile() {
        let mined = DiscAll::default().mine(&mapping.remap_database(db), MinSupport::Count(delta));
        mapping.restore_result(&mined)
    } else {
        DiscAll::default().mine(db, MinSupport::Count(delta))
    };
    render(&result)
}

/// Counters read from `/stats` and `/admin/stats`.
#[derive(Debug, Default, Clone, Copy)]
struct ServerCounters {
    hits: f64,
    misses: f64,
    mine_invocations: f64,
    shed: f64,
    timeouts: f64,
    quota_denials: f64,
}

fn server_counters(addr: SocketAddr) -> Result<ServerCounters, String> {
    let (_, stats) = request_ok(addr, "GET", "/stats", b"")?;
    let stats = String::from_utf8_lossy(&stats).into_owned();
    let (_, admin) = request_ok(addr, "GET", "/admin/stats", b"")?;
    let admin = String::from_utf8_lossy(&admin).into_owned();
    Ok(ServerCounters {
        hits: number(&stats, "hits")?,
        misses: number(&stats, "misses")?,
        mine_invocations: number(&stats, "mine_invocations")?,
        shed: number(&admin, "shed")?,
        timeouts: number(&admin, "timeouts")?,
        quota_denials: number(&admin, "quota_denials")?,
    })
}

/// What the client brings back.
struct ClientRun {
    jobs: Vec<JobRecord>,
    failed: u64,
    tracer: Tracer,
}

/// The closed loop: whole rounds until `seconds` have passed. A round
/// takes the next block of every tenant's stream and runs their jobs
/// alternately (a, b, a, b, ...). In a traced run every other round is
/// traced.
fn client(
    addr: SocketAddr,
    seed: u64,
    seconds: f64,
    trace: bool,
    expected: &BTreeMap<u64, Vec<u8>>,
) -> ClientRun {
    let mut run = ClientRun { jobs: Vec::new(), failed: 0, tracer: Tracer::new(false) };
    let mut streams: Vec<JobStream> = (0..TENANTS.len()).map(|t| JobStream::new(seed, t)).collect();
    let start = Instant::now();
    let mut round = 0u64;
    while start.elapsed().as_secs_f64() < seconds {
        run.tracer.set_enabled(trace && round % 2 == 1);
        let blocks: Vec<[JobPlan; BLOCK]> = streams.iter_mut().map(JobStream::next_block).collect();
        for i in 0..BLOCK {
            for (t, block) in blocks.iter().enumerate() {
                run.tracer.set_group(((t as u64) << 32) | (round * BLOCK as u64 + i as u64));
                match run_job(addr, TENANTS[t], block[i], expected, &mut run.tracer) {
                    Ok(rec) => run.jobs.push(rec),
                    Err(e) => {
                        eprintln!("# {}: {e}", TENANTS[t]);
                        run.tracer.end_all();
                        run.failed += 1;
                    }
                }
            }
        }
        round += 1;
    }
    run
}

/// Runs `serve-mix` for `seconds` and reports its metrics.
pub fn run(seed: u64, seconds: f64, trace: bool, work: &Path) -> Result<Outcome, String> {
    // Set-up, several times: all but the last server are drained again.
    let mut setup_times = Vec::new();
    let mut uploads = Vec::new();
    let mut kept = None;
    for i in 0..SETUPS {
        let t = Instant::now();
        let (running, db, upload_ms) = set_up_once(seed, &work.join(format!("server-{i}")))?;
        setup_times.push(t.elapsed().as_secs_f64());
        uploads.push(upload_ms);
        if let Some((old, _)) = kept.replace((running, db)) {
            Running::stop(old)?;
        }
    }
    let (server, db) = kept.expect("at least one set-up");
    let addr = server.addr;

    // Expected bytes per δ, by direct mining; then the warm-up: one
    // cacheable job per δ, which also fills the result cache.
    let expected: BTreeMap<u64, Vec<u8>> = DELTAS.iter().map(|&d| (d, direct(&db, d))).collect();
    drop(db);
    let mut attempted = 0u64;
    let mut failed = 0u64;
    for &delta in &DELTAS {
        attempted += 1;
        let target = format!("/jobs?db=bench&tenant=warmup&delta={delta}");
        let warm = (|| -> Result<(), String> {
            let (_, reply) = request_ok(addr, "POST", &target, b"")?;
            let id = field(&String::from_utf8_lossy(&reply), "id").ok_or("no id")?.to_string();
            loop {
                let (_, s) = request_ok(addr, "GET", &format!("/jobs/{id}"), b"")?;
                match field(&String::from_utf8_lossy(&s), "state") {
                    Some("done") => break,
                    Some("queued" | "running") => std::thread::sleep(POLL_GAP),
                    other => return Err(format!("warm-up job {id} ended {other:?}")),
                }
            }
            let (_, body) = request_ok(addr, "GET", &format!("/jobs/{id}/result"), b"")?;
            if expected.get(&delta) != Some(&body) {
                return Err(format!("warm-up job {id}: result differs at δ={delta}"));
            }
            Ok(())
        })();
        if let Err(e) = warm {
            eprintln!("# warm-up: {e}");
            failed += 1;
        }
    }

    let before = server_counters(addr)?;
    let rss_reset = provenance::reset_peak_rss();
    let ticks = provenance::cpu_ticks();
    let start = Instant::now();
    let run = client(addr, seed, seconds, trace, &expected);
    let measured = start.elapsed().as_secs_f64();
    let steal = provenance::steal_share(ticks, provenance::cpu_ticks());
    let peak_rss = provenance::peak_rss_mb().unwrap_or(0.0);
    let after = server_counters(addr)?;
    server.stop()?;

    let jobs: Vec<&JobRecord> = run.jobs.iter().collect();
    attempted += jobs.len() as u64 + run.failed;
    failed += run.failed;
    let cold: Vec<&JobRecord> = jobs.iter().copied().filter(|j| !j.repeat).collect();
    let hit: Vec<&JobRecord> = jobs.iter().copied().filter(|j| j.repeat).collect();
    let ms = |js: &[&JobRecord]| js.iter().map(|j| j.latency_ms).collect::<Vec<f64>>();
    let (cold_ms, hit_ms) = (ms(&cold), ms(&hit));
    let repeat_share = hit.len() as f64 / jobs.len().max(1) as f64;

    let mut out = Outcome::new(attempted, failed);
    out.samples = format!(
        "{{\"setups_s\":{setup_times:?},\"jobs\":{},\"cold_jobs\":{},\"hit_jobs\":{},\
         \"repeat_share\":{repeat_share},\"measured_s\":{measured},\"deltas\":{:?},\
         \"peak_rss_reset\":{rss_reset},\"host_steal_share\":{steal}}}",
        jobs.len(),
        cold.len(),
        hit.len(),
        DELTAS
    );
    if !trace {
        let wall = stats::interquartile_mean(&cold_ms).ok_or("no cold job completed")? / 1e3;
        out.set("setup_s", stats::median(&setup_times).unwrap_or(0.0));
        out.set("wall_s", wall);
        out.set("peak_rss_mb", peak_rss);
        out.set("jobs_per_s", jobs.len() as f64 / measured);
        return Ok(out);
    }

    let all =
        |f: &dyn Fn(&JobRecord) -> Vec<f64>| jobs.iter().flat_map(|j| f(j)).collect::<Vec<f64>>();
    let p50 = |xs: &[f64]| stats::percentile(xs, 0.5).unwrap_or(0.0);
    let p90 = |xs: &[f64]| stats::percentile(xs, 0.9).unwrap_or(0.0);
    let mean = |xs: &[f64]| stats::mean(xs).unwrap_or(0.0);
    let run_ms: Vec<f64> = cold.iter().map(|j| j.server_elapsed_ms).collect();
    let wait_ms: Vec<f64> = cold
        .iter()
        .map(|j| j.latency_ms - j.server_elapsed_ms - j.result_ms.iter().sum::<f64>())
        .collect();

    // Coverage: request self time over job time, traced jobs only.
    let mut request_ns = 0u64;
    let mut job_ns = 0u64;
    for (s, own) in run.tracer.spans().iter().zip(self_times(run.tracer.spans())) {
        match s.name {
            "job" => job_ns += s.end - s.start,
            _ => request_ns += own,
        }
    }
    run.tracer.write_jsonl(&work.join("spans.jsonl")).map_err(|e| format!("write spans: {e}"))?;
    let lat = |traced: bool| {
        mean(&jobs.iter().filter(|j| j.traced == traced).map(|j| j.latency_ms).collect::<Vec<_>>())
    };
    let d = |f: fn(&ServerCounters) -> f64| f(&after) - f(&before);
    for (name, value) in [
        ("upload.ms", stats::median(&uploads).unwrap_or(0.0)),
        ("submit.p50_ms", p50(&all(&|j| vec![j.submit_ms]))),
        ("poll.p50_ms", p50(&all(&|j| j.poll_ms.clone()))),
        ("result.p50_ms", p50(&all(&|j| j.result_ms.clone()))),
        ("polls_per_job", mean(&all(&|j| vec![j.poll_ms.len() as f64]))),
        ("result.bytes_per_job", mean(&all(&|j| vec![j.result_bytes as f64]))),
        ("job_cold_p50_ms", p50(&cold_ms)),
        ("job_cold_p90_ms", p90(&cold_ms)),
        ("job_hit_p50_ms", p50(&hit_ms)),
        ("job_hit_p90_ms", p90(&hit_ms)),
        ("job_cold.n", cold_ms.len() as f64),
        ("job_hit.n", hit_ms.len() as f64),
        ("scheduler.run_p50_ms", p50(&run_ms)),
        ("scheduler.wait_p50_ms", p50(&wait_ms)),
        ("scheduler.slices_per_job", mean(&cold.iter().map(|j| j.slices).collect::<Vec<_>>())),
        ("scheduler.preemptions", cold.iter().map(|j| j.preemptions).sum()),
        ("scheduler.mine_invocations", d(|c| c.mine_invocations)),
        ("cache.hits", d(|c| c.hits)),
        ("cache.misses", d(|c| c.misses)),
        ("cache.hit_ratio", d(|c| c.hits) / jobs.len().max(1) as f64),
        ("limits.shed", after.shed),
        ("limits.timeouts", after.timeouts),
        ("limits.quota_denials", after.quota_denials),
        ("trace.coverage", if job_ns > 0 { request_ns as f64 / job_ns as f64 } else { 0.0 }),
        ("trace.overhead", lat(true) / lat(false) - 1.0),
        ("error_rate", failed as f64 / attempted.max(1) as f64),
    ] {
        out.set(name, value);
    }
    Ok(out)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn blocks(seed: u64, tenant: usize, n: usize) -> Vec<[JobPlan; BLOCK]> {
        let mut stream = JobStream::new(seed, tenant);
        (0..n).map(|_| stream.next_block()).collect()
    }

    #[test]
    fn one_repeat_per_block_and_every_delta_equally_often() {
        for seed in 0..20 {
            for tenant in 0..TENANTS.len() {
                // 18 blocks: 36 cold jobs and 18 repeats, multiples of |δ set|.
                let plans = blocks(seed, tenant, 18);
                assert!(plans.iter().all(|b| b.iter().filter(|j| j.repeat).count() == 1));
                for repeat in [false, true] {
                    let mut per_delta = BTreeMap::new();
                    for j in plans.iter().flatten().filter(|j| j.repeat == repeat) {
                        *per_delta.entry(j.delta).or_insert(0) += 1;
                    }
                    assert_eq!(per_delta.len(), DELTAS.len());
                    assert!(per_delta.values().all(|&n| n == per_delta[&DELTAS[0]]));
                }
                assert_eq!(plans, blocks(seed, tenant, 18), "same seed, same stream");
            }
        }
        assert_ne!(blocks(1, 0, 8), blocks(1, 1, 8), "tenants draw different streams");
    }

    #[test]
    fn fields_of_a_job_status() {
        let status = "{\"id\":7,\"state\":\"done\",\"cached\":false,\"slices\":3,\
                      \"budget\":{\"ops\":10,\"elapsed_ms\":42}}";
        assert_eq!(field(status, "id"), Some("7"));
        assert_eq!(field(status, "state"), Some("done"));
        assert_eq!(field(status, "cached"), Some("false"));
        assert_eq!(number(status, "elapsed_ms"), Ok(42.0));
        assert!(number(status, "missing").is_err());
    }
}
