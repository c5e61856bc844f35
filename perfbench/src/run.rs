//! The orchestrating parent: spawns one child process per pass, checks
//! and aggregates their reports, and prints the record and the result.

use std::fmt::Write as _;
use std::path::{Path, PathBuf};
use std::process::{Command, Stdio};
use std::time::{Duration, Instant};

use crate::machine::{json_str, Machine};
use crate::metrics::{self, Metric, END_TO_END, PER_LAYER};
use crate::report::PassReport;
use crate::{unix_ns, Workload};

/// A benchmark invocation.
#[derive(Debug, Clone)]
pub struct Args {
    /// Workload to run.
    pub workload: Workload,
    /// Input seed.
    pub seed: u64,
    /// Seconds to keep starting passes.
    pub seconds: f64,
    /// Traced run (per-layer metrics) instead of end-to-end.
    pub trace: bool,
    /// Tiny inputs (self-test).
    pub tiny: bool,
    /// Tamper with one remote object (negative self-test).
    pub tamper: bool,
}

/// No pass starts after this many seconds, so a run ends well within
/// three minutes whatever `--seconds` says.
const LAST_START_S: f64 = 100.0;

/// Outcome of a run: the text to print and the exit code.
pub struct Outcome {
    /// Human-readable lines, the record, and the final JSON line.
    pub stdout: String,
    /// 0 when every output check passed.
    pub code: i32,
}

fn spawn_pass(args: &Args, pass: usize, traced: bool) -> Result<PassReport, String> {
    let exe = std::env::current_exe().map_err(|e| format!("current_exe: {e}"))?;
    let mut cmd = Command::new(exe);
    cmd.args(["--child", "--workload", args.workload.name()])
        .args(["--seed", &args.seed.to_string()])
        .args(["--trace", if traced { "1" } else { "0" }])
        .args(["--pass", &pass.to_string()]);
    if args.tiny {
        cmd.arg("--tiny");
    }
    if args.tamper {
        cmd.arg("--tamper");
    }
    cmd.arg("--spawned-at-ns").arg(unix_ns().to_string());
    let out = cmd
        .stdin(Stdio::null())
        .stderr(Stdio::inherit())
        .output()
        .map_err(|e| format!("pass {pass}: spawn failed: {e}"))?;
    if !out.status.success() {
        return Err(format!("pass {pass}: child exited with {}", out.status));
    }
    PassReport::parse(&String::from_utf8_lossy(&out.stdout))
        .map_err(|e| format!("pass {pass}: {e}"))
}

fn num(v: f64) -> String {
    if v.is_finite() {
        format!("{v}")
    } else {
        "0".into()
    }
}

fn metric_json(out: &mut String, metrics: &[(Metric, f64)]) {
    out.push('{');
    for (i, (m, v)) in metrics.iter().enumerate() {
        if i > 0 {
            out.push_str(", ");
        }
        let _ = write!(
            out,
            "\"{}\": {{\"value\": {}, \"unit\": \"{}\"}}",
            m.name,
            num(*v),
            m.unit
        );
    }
    out.push('}');
}

/// Writes the traced passes' spans as a Chrome trace (one `pid` per
/// pass), loadable in Perfetto.
fn write_spans(path: &Path, traced: &[PassReport]) -> std::io::Result<()> {
    let mut s = String::from("{\"traceEvents\": [\n");
    let mut first = true;
    for (pid, p) in traced.iter().enumerate() {
        for sp in &p.spans {
            if !first {
                s.push_str(",\n");
            }
            first = false;
            let _ = write!(
                s,
                "{{\"name\": {}, \"cat\": {}, \"ph\": \"X\", \"ts\": {:.3}, \"dur\": {:.3}, \"pid\": {pid}, \"tid\": 0}}",
                json_str(&sp.name),
                json_str(&sp.layer),
                sp.start_ns as f64 / 1e3,
                (sp.end_ns - sp.start_ns) as f64 / 1e3,
            );
        }
    }
    s.push_str("\n]}\n");
    if let Some(dir) = path.parent() {
        std::fs::create_dir_all(dir)?;
    }
    std::fs::write(path, s)
}

/// Where a traced run writes its spans.
pub fn spans_path(args: &Args) -> PathBuf {
    let base =
        std::env::var_os("CARGO_TARGET_DIR").map_or_else(|| PathBuf::from("target"), PathBuf::from);
    base.join("perfbench-spans")
        .join(format!("{}-seed{}.json", args.workload.name(), args.seed))
}

/// Runs the benchmark: passes until the time is up, then the verdict.
pub fn run(args: &Args) -> Outcome {
    let start = Instant::now();
    let root = std::env::current_dir().unwrap_or_else(|_| PathBuf::from("."));
    let machine = Machine::probe(&root);
    let w = args.workload;
    let min = w.min_passes(args.tiny);
    let (mut untraced, mut traced) = (Vec::new(), Vec::new());
    let mut errors: Vec<String> = Vec::new();
    let mut spawned = 0usize;
    let budget = Duration::from_secs_f64(args.seconds.max(0.0));
    loop {
        let enough = untraced.len() >= min && (!args.trace || traced.len() >= min);
        let elapsed = start.elapsed();
        if (elapsed >= budget && enough) || elapsed.as_secs_f64() >= LAST_START_S {
            break;
        }
        // A traced run alternates untraced and traced passes: the
        // untraced ones give the baseline for the tracing overhead.
        let traced_pass = args.trace && spawned % 2 == 1;
        match spawn_pass(args, spawned, traced_pass) {
            Ok(r) if traced_pass => traced.push(r),
            Ok(r) => untraced.push(r),
            Err(e) => errors.push(e),
        }
        spawned += 1;
        if errors.len() > 3 {
            break;
        }
    }

    // Verdict: every pass's checks, the same outputs from every pass of
    // one seed, and the traced passes' reconciliation.
    let all: Vec<&PassReport> = untraced.iter().chain(&traced).collect();
    let mut attempted: u64 = all.iter().map(|p| p.attempted).sum::<u64>() + errors.len() as u64;
    let mut fails: Vec<String> = errors;
    all.iter()
        .for_each(|p| fails.extend(p.fails.iter().cloned()));
    if let Some(first) = all.first() {
        for (i, p) in all.iter().enumerate().skip(1) {
            attempted += 1;
            if p.digest != first.digest {
                fails.push(format!(
                    "pass {i} output digest {} differs from {}",
                    p.digest, first.digest
                ));
            }
        }
    }
    for (i, p) in traced.iter().enumerate() {
        attempted += 1;
        if let Err(e) = metrics::reconcile(p) {
            fails.push(format!("traced pass {i}: {e}"));
        }
    }
    if all.is_empty() {
        attempted += 1;
        fails.push("no pass completed".into());
    }
    let failed = fails.len() as u64;
    let attempted = attempted.max(1);

    let mut out = String::new();
    let _ = writeln!(
        out,
        "perfbench {} seed={} trace={} passes={} (traced {}) wall={:.2}s",
        w.name(),
        args.seed,
        args.trace as u8,
        all.len(),
        traced.len(),
        start.elapsed().as_secs_f64()
    );
    for f in fails.iter().take(20) {
        let _ = writeln!(out, "FAILED: {f}");
    }
    let metrics: Vec<(Metric, f64)> = if args.trace {
        let layer = metrics::per_layer(w, &traced, &untraced);
        let path = spans_path(args);
        match write_spans(&path, &traced) {
            Ok(()) => {
                let _ = writeln!(out, "spans written to {}", path.display());
            }
            Err(e) => {
                let _ = writeln!(out, "spans not written to {}: {e}", path.display());
            }
        }
        PER_LAYER.iter().map(|m| (*m, layer[m.name])).collect()
    } else {
        metrics::end_to_end(&untraced)
    };
    // The record: machine facts, the workload's own figures with sample
    // counts, and the error rate.
    let mut rec = format!(
        "record {{\"workload\": \"{}\", \"seed\": {}, \"trace\": {}, \"passes\": {}, \"machine\": {}, \
         \"attempted\": {attempted}, \"failed\": {failed}, \"error_rate\": {}, \"figures\": {{",
        w.name(),
        args.seed,
        args.trace as u8,
        all.len(),
        machine.json(),
        num(failed as f64 / attempted as f64),
    );
    for (i, (name, v, unit, n)) in metrics::figures(w, &untraced).into_iter().enumerate() {
        if i > 0 {
            rec.push_str(", ");
        }
        let _ = write!(
            rec,
            "\"{name}\": {{\"value\": {}, \"unit\": \"{unit}\", \"n\": {n}}}",
            num(v)
        );
    }
    rec.push('}');
    if args.trace && w == Workload::NodeCycle {
        rec.push_str(", \"model_vs_measured\": [");
        for (i, r) in metrics::model_rows(&traced).iter().enumerate() {
            let sep = if i > 0 { ", " } else { "" };
            let _ = write!(
                rec,
                "{sep}{{\"config\": \"{}\", \"modeled_mb_s\": {}, \"measured\": \"{}\", \"measured_mb_s\": {}}}",
                r.config,
                num(r.modeled_mb_s),
                r.measured,
                num(r.measured_mb_s)
            );
        }
        let _ = write!(
            rec,
            "], \"verify_bytes_per_drained_byte\": {{\"computed\": {}, \"hand_count\": {}}}",
            num(metrics
                .iter()
                .find(|(m, _)| m.name == "integrity.verify_bytes_per_drained_byte")
                .map_or(0.0, |(_, v)| *v)),
            num(metrics::hand_count_per_drained_byte(&traced)),
        );
        rec.push_str(", \"vclock_vs_wall\": {");
        for (i, (phase, virt, wall)) in metrics::vclock_phases(&traced).iter().enumerate() {
            let sep = if i > 0 { ", " } else { "" };
            let _ = write!(
                rec,
                "{sep}\"{phase}\": {{\"virtual_s\": {}, \"wall_s\": {}}}",
                num(*virt),
                num(*wall)
            );
        }
        rec.push('}');
    }
    for key in ["setup_s", "phase1_s", "phase2_s"] {
        let vals: Vec<String> = untraced.iter().map(|p| num(p.get(key))).collect();
        let _ = write!(rec, ", \"pass_{key}\": [{}]", vals.join(", "));
    }
    rec.push('}');
    let _ = writeln!(out, "{rec}");

    for (m, v) in &metrics {
        let _ = writeln!(out, "  {:<42} {:>16} {}", m.name, format!("{v:.6}"), m.unit);
    }
    debug_assert_eq!(
        metrics.len(),
        if args.trace {
            PER_LAYER.len()
        } else {
            END_TO_END.len()
        }
    );
    let _ = write!(
        out,
        "{{\"correct\": {}, \"attempted\": {attempted}, \"failed\": {failed}, \"metrics\": ",
        failed == 0
    );
    metric_json(&mut out, &metrics);
    out.push_str("}\n");
    Outcome {
        stdout: out,
        code: if failed == 0 { 0 } else { 1 },
    }
}
