//! What the benchmark reads from the host: process CPU time, peak
//! resident memory, and the fingerprint stored with every result so that
//! numbers from different hosts or builds are never compared as like for
//! like.

use std::collections::BTreeMap;
use std::path::Path;
use std::time::Duration;

#[repr(C)]
struct Timespec {
    tv_sec: i64,
    tv_nsec: i64,
}

extern "C" {
    fn clock_gettime(clock: i32, ts: *mut Timespec) -> i32;
}

/// Linux `CLOCK_PROCESS_CPUTIME_ID`.
const CLOCK_PROCESS_CPUTIME_ID: i32 = 2;

/// CPU time (user + system) used so far by every thread of this process,
/// live or exited: the `utime + stime` of `/proc/self/stat`, read at
/// nanosecond rather than 10 ms tick resolution. Client, server and shard
/// hosts all live in this one process, so it is the whole system's cost.
pub fn process_cpu() -> Duration {
    let mut ts = Timespec { tv_sec: 0, tv_nsec: 0 };
    // SAFETY: `ts` is a live, writable `struct timespec` (two 64-bit
    // fields on the 64-bit Linux targets this builds for) for the whole
    // call, and the clock id is a constant every Linux kernel supports.
    let rc = unsafe { clock_gettime(CLOCK_PROCESS_CPUTIME_ID, &mut ts) };
    assert_eq!(rc, 0, "clock_gettime(CLOCK_PROCESS_CPUTIME_ID) failed");
    Duration::new(ts.tv_sec as u64, ts.tv_nsec as u32)
}

/// Peak resident set size of this process (`VmHWM`), in MiB.
pub fn rss_peak_mib() -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").expect("read /proc/self/status");
    let kib: f64 = status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse().ok())
        .expect("VmHWM line in /proc/self/status");
    kib / 1024.0
}

/// Cores this process may run on.
pub fn nproc() -> usize {
    std::thread::available_parallelism().map_or(1, |p| p.get())
}

/// The host and build a result was measured on, as `key → value`.
pub fn fingerprint() -> BTreeMap<&'static str, String> {
    let read = |p: &str| std::fs::read_to_string(p).map(|s| s.trim().to_string());
    let cpu = read("/proc/cpuinfo")
        .ok()
        .and_then(|s| {
            s.lines()
                .find_map(|l| l.strip_prefix("model name"))
                .map(|v| v.trim_start_matches([' ', '\t', ':']).to_string())
        })
        .unwrap_or_else(|| "unknown".into());
    let mut f = BTreeMap::new();
    f.insert("nproc", nproc().to_string());
    f.insert("kernel", read("/proc/sys/kernel/osrelease").unwrap_or_else(|_| "unknown".into()));
    f.insert("cpu", cpu);
    f.insert("profile", if cfg!(debug_assertions) { "debug" } else { "release" }.into());
    f.insert("commit", git_commit(Path::new(".git")).unwrap_or_else(|| "unknown".into()));
    f.insert("source_digest", format!("{:016x}", source_digest()));
    f.insert(
        "trace_capacity_env",
        std::env::var(referee_core::wirenet::TRACE_CAPACITY_ENV).unwrap_or_default(),
    );
    f
}

/// The checked-out commit, read from the `.git` directory's files (a
/// benchmark checkout may have no `git` binary, or no `.git` at all).
fn git_commit(git: &Path) -> Option<String> {
    let head = std::fs::read_to_string(git.join("HEAD")).ok()?;
    let head = head.trim();
    let Some(reference) = head.strip_prefix("ref: ") else {
        return Some(head.to_string());
    };
    if let Ok(sha) = std::fs::read_to_string(git.join(reference)) {
        return Some(sha.trim().to_string());
    }
    let packed = std::fs::read_to_string(git.join("packed-refs")).ok()?;
    packed.lines().find_map(|l| l.strip_suffix(reference).map(|sha| sha.trim().to_string()))
}

/// A digest of every Rust source and manifest the benchmark builds from,
/// so two results can be matched to the same code even where there is
/// no git metadata.
fn source_digest() -> u64 {
    fn walk(dir: &Path, files: &mut Vec<std::path::PathBuf>) {
        let Ok(entries) = std::fs::read_dir(dir) else { return };
        for entry in entries.flatten() {
            let path = entry.path();
            let name = entry.file_name();
            if path.is_dir() {
                if name != "target" && name != "out" && !name.to_string_lossy().starts_with('.')
                {
                    walk(&path, files);
                }
            } else if path.extension().is_some_and(|e| e == "rs") || name == "Cargo.toml" {
                files.push(path);
            }
        }
    }
    let mut files = vec![Path::new("Cargo.toml").to_path_buf()];
    for dir in ["src", "crates", "vendor", "perfbench"] {
        walk(Path::new(dir), &mut files);
    }
    files.sort();
    files.dedup();
    let mut bytes = Vec::new();
    for f in &files {
        bytes.extend_from_slice(f.to_string_lossy().as_bytes());
        bytes.extend_from_slice(&std::fs::read(f).unwrap_or_default());
    }
    referee_core::protocol::siphash24(&referee_core::protocol::MacKey([0; 16]), &bytes)
}
