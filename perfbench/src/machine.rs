//! Machine facts recorded with every run, so a figure can be read
//! against the hardware and the code that produced it.

use std::fmt::Write as _;
use std::path::Path;
use std::time::Instant;

use crate::report::Fnv;
use crate::stats::median;

/// Facts about the machine, toolchain and code under test.
#[derive(Debug, Clone)]
pub struct Machine {
    /// `std::thread::available_parallelism`.
    pub nproc: usize,
    /// Measured speedup of a CPU-bound loop on `nproc` threads over one.
    pub cpu_speedup: f64,
    /// First `model name` of `/proc/cpuinfo`.
    pub cpu_model: String,
    /// Compiler that built the benchmark.
    pub rustc: String,
    /// Git commit of the checkout, or `none` outside a git checkout.
    pub commit: String,
    /// FNV-1a digest of every file under `crates/`: identifies the code
    /// under test when there is no git metadata.
    pub source_digest: String,
}

impl Machine {
    /// Probes the machine; `root` is the repository checkout.
    pub fn probe(root: &Path) -> Machine {
        let nproc = std::thread::available_parallelism().map_or(1, |n| n.get());
        Machine {
            nproc,
            cpu_speedup: cpu_speedup(nproc),
            cpu_model: cpu_model(),
            rustc: env!("PERFBENCH_RUSTC").to_string(),
            commit: git_commit(root),
            source_digest: source_digest(&root.join("crates")),
        }
    }

    /// JSON object of the facts.
    pub fn json(&self) -> String {
        let mut s = String::new();
        let _ = write!(
            s,
            "{{\"nproc\": {}, \"cpu_speedup_at_nproc\": {:.3}, \"cpu_model\": {}, \
             \"rustc\": {}, \"commit\": {}, \"source_digest\": {}}}",
            self.nproc,
            self.cpu_speedup,
            json_str(&self.cpu_model),
            json_str(&self.rustc),
            json_str(&self.commit),
            json_str(&self.source_digest),
        );
        s
    }
}

/// JSON string literal.
pub fn json_str(s: &str) -> String {
    let mut out = String::from("\"");
    cr_obs::json::escape_into(&mut out, s);
    out.push('"');
    out
}

/// A fixed CPU-bound loop (xorshift), sized to run a few milliseconds.
fn spin(iters: u64) -> u64 {
    let mut x = 0x9E37_79B9_7F4A_7C15u64;
    for _ in 0..iters {
        x ^= x << 13;
        x ^= x >> 7;
        x ^= x << 17;
    }
    x
}

/// `nproc × t(1 thread) / t(nproc threads each doing the same loop)`,
/// median of three trials.
fn cpu_speedup(nproc: usize) -> f64 {
    const ITERS: u64 = 20_000_000;
    let trial = || {
        let t = Instant::now();
        std::hint::black_box(spin(std::hint::black_box(ITERS)));
        let one = t.elapsed().as_secs_f64();
        let t = Instant::now();
        std::thread::scope(|s| {
            for _ in 0..nproc {
                s.spawn(|| std::hint::black_box(spin(std::hint::black_box(ITERS))));
            }
        });
        let all = t.elapsed().as_secs_f64();
        nproc as f64 * one / all
    };
    median(&[trial(), trial(), trial()])
}

fn cpu_model() -> String {
    std::fs::read_to_string("/proc/cpuinfo")
        .ok()
        .and_then(|s| {
            s.lines()
                .find(|l| l.starts_with("model name"))
                .and_then(|l| l.split_once(':'))
                .map(|(_, v)| v.trim().to_string())
        })
        .unwrap_or_else(|| "unknown".into())
}

/// Resolves `.git/HEAD` without running git.
fn git_commit(root: &Path) -> String {
    let git = root.join(".git");
    let Ok(head) = std::fs::read_to_string(git.join("HEAD")) else {
        return "none".into();
    };
    let head = head.trim();
    let Some(refname) = head.strip_prefix("ref: ") else {
        return head.to_string();
    };
    if let Ok(id) = std::fs::read_to_string(git.join(refname)) {
        return id.trim().to_string();
    }
    std::fs::read_to_string(git.join("packed-refs"))
        .ok()
        .and_then(|p| {
            p.lines()
                .find(|l| l.ends_with(refname))
                .and_then(|l| l.split(' ').next())
                .map(str::to_string)
        })
        .unwrap_or_else(|| "none".into())
}

/// Digest of every file under `dir`, in sorted path order.
fn source_digest(dir: &Path) -> String {
    fn walk(dir: &Path, out: &mut Vec<std::path::PathBuf>) {
        let Ok(rd) = std::fs::read_dir(dir) else {
            return;
        };
        for e in rd.flatten() {
            let p = e.path();
            if p.is_dir() {
                walk(&p, out);
            } else {
                out.push(p);
            }
        }
    }
    let mut files = Vec::new();
    walk(dir, &mut files);
    if files.is_empty() {
        return "none".into();
    }
    files.sort();
    let mut h = Fnv::default();
    for f in &files {
        if let Ok(rel) = f.strip_prefix(dir) {
            h.bytes(rel.to_string_lossy().as_bytes());
        }
        h.bytes(&std::fs::read(f).unwrap_or_default());
    }
    h.hex()
}

/// Peak resident set (`VmHWM`) of this process, MB (10^6 bytes).
pub fn peak_rss_mb() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|s| {
            s.lines()
                .find(|l| l.starts_with("VmHWM:"))
                .and_then(|l| l.split_whitespace().nth(1))
                .and_then(|kb| kb.parse::<f64>().ok())
        })
        .map_or(0.0, |kb| kb * 1024.0 / 1e6)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn rss_is_positive_on_linux() {
        assert!(peak_rss_mb() > 0.0);
    }
}
