//! What the benchmark records about the host and its own process.
//! Process figures come from Linux `/proc`; elsewhere they read as
//! unavailable.

use std::path::Path;

fn proc_field(path: &str, key: &str) -> Option<String> {
    let text = std::fs::read_to_string(path).ok()?;
    text.lines()
        .find_map(|l| l.strip_prefix(key))
        .map(|v| v.trim_start_matches([':', ' ', '\t']).trim().to_string())
}

/// Peak resident set size of this process in MiB (`VmHWM`).
pub fn peak_rss_mb() -> Option<f64> {
    let kb: f64 = proc_field("/proc/self/status", "VmHWM")?
        .trim_end_matches("kB")
        .trim()
        .parse()
        .ok()?;
    Some(kb / 1024.0)
}

/// User plus system CPU seconds consumed by every thread of this
/// process so far, including threads that have exited.
pub fn cpu_seconds() -> Option<f64> {
    let stat = std::fs::read_to_string("/proc/self/stat").ok()?;
    // Fields after the parenthesised command name; utime and stime are
    // the 14th and 15th fields overall, in clock ticks (USER_HZ, 100 on
    // every Linux ABI).
    let rest = &stat[stat.rfind(')')? + 2..];
    let f: Vec<&str> = rest.split_whitespace().collect();
    let ticks: u64 = f.get(11)?.parse::<u64>().ok()? + f.get(12)?.parse::<u64>().ok()?;
    Some(ticks as f64 / 100.0)
}

pub fn cpu_model() -> String {
    proc_field("/proc/cpuinfo", "model name").unwrap_or_else(|| "unknown".into())
}

pub fn nproc() -> usize {
    std::thread::available_parallelism().map_or(1, |n| n.get())
}

/// The checked-out commit, read from `<root>/.git` without running git
/// (a source export has no `.git` and reads as `unknown`).
pub fn git_rev(root: &Path) -> String {
    let git = root.join(".git");
    let read = |p: &Path| {
        std::fs::read_to_string(p)
            .ok()
            .map(|s| s.trim().to_string())
    };
    let head = read(&git.join("HEAD"));
    let rev = match head.as_deref().and_then(|h| h.strip_prefix("ref: ")) {
        Some(r) => read(&git.join(r)).or_else(|| {
            read(&git.join("packed-refs"))?
                .lines()
                .find(|l| l.ends_with(&format!(" {r}")))
                .and_then(|l| l.split(' ').next().map(str::to_string))
        }),
        None => head,
    };
    rev.map_or_else(|| "unknown".into(), |r| r.chars().take(12).collect())
}
