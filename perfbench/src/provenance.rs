//! Where a report came from: machine, toolchain, code and dispatch level.

use std::path::Path;

/// Peak resident set size of this process in MiB (`VmHWM`), if readable.
pub fn peak_rss_mb() -> Option<f64> {
    let status = std::fs::read_to_string("/proc/self/status").ok()?;
    let kb: f64 = status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))?
        .trim()
        .trim_end_matches("kB")
        .trim()
        .parse()
        .ok()?;
    Some(kb / 1024.0)
}

/// Restarts the kernel's peak-RSS mark at the current RSS, so `VmHWM`
/// covers the measured phase only. Returns whether the kernel accepted.
pub fn reset_peak_rss() -> bool {
    std::fs::write("/proc/self/clear_refs", "5").is_ok()
}

/// The machine's CPU time so far, as `(steal, total)` clock ticks from the
/// first line of `/proc/stat`. Steal is time the hypervisor ran something
/// else while this machine's CPUs were ready to run: on a shared host it
/// is the main cause of run-to-run drift in wall times.
pub fn cpu_ticks() -> Option<(u64, u64)> {
    let stat = std::fs::read_to_string("/proc/stat").ok()?;
    let fields: Vec<u64> = stat
        .lines()
        .next()?
        .strip_prefix("cpu ")?
        .split_whitespace()
        .map(|f| f.parse().ok())
        .collect::<Option<_>>()?;
    Some((*fields.get(7)?, fields.iter().sum()))
}

/// The share of CPU time stolen between two [`cpu_ticks`] readings, or -1
/// where `/proc/stat` is unreadable.
pub fn steal_share(before: Option<(u64, u64)>, after: Option<(u64, u64)>) -> f64 {
    match (before, after) {
        (Some((s0, t0)), Some((s1, t1))) if t1 > t0 => (s1 - s0) as f64 / (t1 - t0) as f64,
        _ => -1.0,
    }
}

fn cpu_model() -> String {
    std::fs::read_to_string("/proc/cpuinfo")
        .ok()
        .and_then(|s| {
            s.lines()
                .find_map(|l| l.strip_prefix("model name"))
                .map(|v| v.trim_start_matches([' ', '\t', ':']).trim().to_string())
        })
        .unwrap_or_else(|| "unknown".into())
}

fn rustc_version() -> String {
    std::process::Command::new(std::env::var("RUSTC").unwrap_or_else(|_| "rustc".into()))
        .arg("--version")
        .output()
        .ok()
        .filter(|o| o.status.success())
        .map(|o| String::from_utf8_lossy(&o.stdout).trim().to_string())
        .unwrap_or_else(|| "unknown".into())
}

/// The commit `HEAD` names when the checkout is a git work tree, read
/// from `.git` directly; `None` otherwise.
fn git_commit(root: &Path) -> Option<String> {
    let git = root.join(".git");
    let head = std::fs::read_to_string(git.join("HEAD")).ok()?;
    let head = head.trim();
    let Some(reference) = head.strip_prefix("ref: ") else {
        return Some(head.to_string());
    };
    if let Ok(id) = std::fs::read_to_string(git.join(reference)) {
        return Some(id.trim().to_string());
    }
    let packed = std::fs::read_to_string(git.join("packed-refs")).ok()?;
    packed.lines().find_map(|l| {
        let (id, name) = l.split_once(' ')?;
        (name == reference).then(|| id.to_string())
    })
}

/// FNV-1a over the path and bytes of every file under `crates/` and the
/// root manifests, in path order: names the code under test when the
/// checkout carries no git metadata.
fn source_digest(root: &Path) -> String {
    fn walk(dir: &Path, out: &mut Vec<std::path::PathBuf>) {
        let Ok(entries) = std::fs::read_dir(dir) else { return };
        for e in entries.flatten() {
            let p = e.path();
            if p.is_dir() {
                walk(&p, out);
            } else {
                out.push(p);
            }
        }
    }
    let mut files = vec![root.join("Cargo.toml"), root.join("Cargo.lock")];
    walk(&root.join("crates"), &mut files);
    files.sort();
    let mut bytes = Vec::new();
    for f in &files {
        if let Ok(b) = std::fs::read(f) {
            bytes.extend_from_slice(f.strip_prefix(root).unwrap_or(f).to_string_lossy().as_bytes());
            bytes.extend_from_slice(&b);
        }
    }
    format!("{:016x}", crate::digest::fnv1a(&bytes))
}

/// The provenance object printed with every report.
pub fn json(root: &Path, workload: &str, seed: u64, trace: bool, samples: &str) -> String {
    let nproc = std::thread::available_parallelism().map_or(0, |n| n.get());
    let commit = git_commit(root).unwrap_or_else(|| "none".into());
    let force_scalar = std::env::var("DISC_FORCE_SCALAR").unwrap_or_default();
    format!(
        "{{\"workload\":\"{workload}\",\"seed\":{seed},\"trace\":{trace},\"cpu\":\"{}\",\
         \"nproc\":{nproc},\"commit\":\"{commit}\",\"source_digest\":\"{}\",\"rustc\":\"{}\",\
         \"dispatch_level\":\"{}\",\"disc_force_scalar_env\":\"{}\",\"samples\":{samples}}}",
        json_str(&cpu_model()),
        source_digest(root),
        json_str(&rustc_version()),
        disc_core::dispatch_level().name(),
        json_str(&force_scalar),
    )
}

fn json_str(s: &str) -> String {
    disc_server::http::json_escape(s)
}
