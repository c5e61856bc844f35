//! Metric definitions and their derivation from pass reports.
//!
//! End-to-end metrics come from untraced passes; every workload reports
//! every one of them, so each is defined per workload (see `README.md`).
//! Per-layer metrics come from traced passes; a layer a workload does not
//! exercise reports 0.

use std::collections::BTreeMap;

use crate::report::PassReport;
use crate::stats::{median, percentile, ratio};
use crate::trace::{busy, self_times};
use crate::Workload;

/// A metric's name, unit and better direction.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Metric {
    /// Name as printed.
    pub name: &'static str,
    /// Unit as printed.
    pub unit: &'static str,
    /// `lower` or `higher`.
    pub better: &'static str,
}

const fn m(name: &'static str, unit: &'static str, better: &'static str) -> Metric {
    Metric { name, unit, better }
}

/// End-to-end metrics, tracing off.
pub const END_TO_END: &[Metric] = &[
    m("setup_s", "s", "lower"),
    m("peak_rss_mb", "MB", "lower"),
    m("phase1_s", "s", "lower"),
    m("phase2_s", "s", "lower"),
];

/// Per-layer metrics, from the traced passes.
pub const PER_LAYER: &[Metric] = &[
    m("workloads.generate_s", "s", "lower"),
    m("node.checkpoint.calls", "count", "higher"),
    m("node.checkpoint.busy_s", "s", "lower"),
    m("node.checkpoint.mb_s", "MB/s", "higher"),
    m("node.restore_remote.calls", "count", "higher"),
    m("node.restore_remote.busy_s", "s", "lower"),
    m("node.restore_remote.mb_s", "MB/s", "higher"),
    m("node.restore_local.calls", "count", "higher"),
    m("node.restore_local.busy_s", "s", "lower"),
    m("ndp.compress_step.calls", "count", "lower"),
    m("ndp.compress_step.busy_s", "s", "lower"),
    m("ndp.ship_step.calls", "count", "lower"),
    m("ndp.ship_step.busy_s", "s", "lower"),
    m("ndp.finalize_step.calls", "count", "lower"),
    m("ndp.finalize_step.busy_s", "s", "lower"),
    m("ndp.useful_step_ratio", "ratio", "higher"),
    m("ndp.stalled_steps", "count", "lower"),
    m("ndp.paused_steps", "count", "lower"),
    m("integrity.crc_mb_s", "MB/s", "higher"),
    m("integrity.verify_bytes_per_drained_byte", "ratio", "lower"),
    m("integrity.drain_share", "ratio", "lower"),
    m("codec.compress.busy_s", "s", "lower"),
    m("codec.compress.mb_s", "MB/s", "higher"),
    m("codec.decompress.busy_s", "s", "lower"),
    m("codec.decompress.mb_s", "MB/s", "higher"),
    m("codec.factor", "ratio", "lower"),
    m("codec.measured_vs_modeled", "ratio", "higher"),
    m("nvm.peak_used_bytes", "bytes", "lower"),
    m("nvm.evictions", "count", "lower"),
    m("nvm.lock_contention", "count", "lower"),
    m("remote.objects", "count", "higher"),
    m("remote.bytes_per_raw_byte", "ratio", "lower"),
    m("vclock.host_nvm_s", "s", "lower"),
    m("vclock.ndp_compute_s", "s", "lower"),
    m("vclock.io_link_s", "s", "lower"),
    m("vclock.restore_io_s", "s", "lower"),
    m("vclock.critical_path_vs_wall", "ratio", "higher"),
    m("vclock.phase1_vs_wall", "ratio", "higher"),
    m("vclock.phase2_vs_wall", "ratio", "higher"),
    m("vs_model.nvm", "ratio", "higher"),
    m("vs_model.ndp_compress", "ratio", "higher"),
    m("vs_model.host_decompress", "ratio", "higher"),
    m("vs_model.io", "ratio", "higher"),
    m("engine.replica_ms_p50", "ms", "lower"),
    m("engine.stage_replica_ms_mean", "ms", "lower"),
    m("engine.failures_per_replica", "count", "higher"),
    m("engine.events_per_replica", "count", "lower"),
    m("par.threads", "count", "higher"),
    m("par.efficiency", "ratio", "higher"),
    m("solve.calls", "count", "lower"),
    m("solve.busy_s", "s", "lower"),
    m("cache.hit_ratio", "ratio", "higher"),
    m("sweep.solver_share", "ratio", "lower"),
    m("sweep.engine_share", "ratio", "higher"),
    m("trace.overhead", "ratio", "lower"),
    m("trace.unattributed_share", "ratio", "lower"),
    m("trace.spans", "count", "lower"),
];

/// Largest share of a traced pass's timed wall that may fall outside
/// every layer span (the benchmark's own glue).
pub const UNATTRIBUTED_BOUND: f64 = 0.05;

fn sum(ps: &[PassReport], key: &str) -> f64 {
    ps.iter().map(|p| p.get(key)).sum()
}

fn mean(ps: &[PassReport], key: &str) -> f64 {
    ratio(sum(ps, key), ps.len() as f64)
}

fn med(ps: &[PassReport], key: &str) -> f64 {
    median(&ps.iter().map(|p| p.get(key)).collect::<Vec<_>>())
}

fn all_samples(ps: &[PassReport], key: &str) -> Vec<f64> {
    ps.iter()
        .flat_map(|p| p.samples_of(key).iter().copied())
        .collect()
}

/// Timed-path wall of a pass.
fn path_s(p: &PassReport) -> f64 {
    p.get("phase1_s") + p.get("phase2_s")
}

/// Spans summed over passes: (seconds, calls).
fn span_busy(ps: &[PassReport], layer: &str, name: &str) -> (f64, f64) {
    ps.iter().fold((0.0, 0.0), |(s, n), p| {
        let (b, c) = busy(&p.spans, layer, name);
        (s + b, n + c as f64)
    })
}

/// End-to-end metric values from untraced passes, in [`END_TO_END`]
/// order.
pub fn end_to_end(untraced: &[PassReport]) -> Vec<(Metric, f64)> {
    let values = [
        med(untraced, "setup_s"),
        med(untraced, "rss_mb"),
        med(untraced, "phase1_s"),
        med(untraced, "phase2_s"),
    ];
    END_TO_END.iter().copied().zip(values).collect()
}

/// A workload-specific figure for the record: value, unit, samples.
pub type Figure = (&'static str, f64, &'static str, usize);

/// The workload-specific end-to-end figures users feel, from untraced
/// passes: latency percentiles with their sample counts, and rates.
pub fn figures(w: Workload, untraced: &[PassReport]) -> Vec<Figure> {
    let n = untraced.len();
    match w {
        Workload::NodeCycle => {
            let commit = all_samples(untraced, "commit_ms");
            let durable = all_samples(untraced, "to_durable_ms");
            let remote = all_samples(untraced, "restore_remote_ms");
            let local = all_samples(untraced, "restore_local_ms");
            vec![
                (
                    "commit_ms_p50",
                    percentile(&commit, 50.0),
                    "ms",
                    commit.len(),
                ),
                (
                    "commit_ms_p90",
                    percentile(&commit, 90.0),
                    "ms",
                    commit.len(),
                ),
                (
                    "to_durable_ms_p50",
                    percentile(&durable, 50.0),
                    "ms",
                    durable.len(),
                ),
                (
                    "to_durable_ms_p90",
                    percentile(&durable, 90.0),
                    "ms",
                    durable.len(),
                ),
                (
                    "durable_mb_s",
                    ratio(
                        sum(untraced, "durable_bytes") / 1e6,
                        sum(untraced, "phase1_s"),
                    ),
                    "MB/s",
                    n,
                ),
                (
                    "restore_remote_ms_p50",
                    percentile(&remote, 50.0),
                    "ms",
                    remote.len(),
                ),
                (
                    "restore_remote_ms_p90",
                    percentile(&remote, 90.0),
                    "ms",
                    remote.len(),
                ),
                (
                    "restore_local_ms_p50",
                    percentile(&local, 50.0),
                    "ms",
                    local.len(),
                ),
            ]
        }
        Workload::Fleet => {
            let per_pass: Vec<f64> = untraced
                .iter()
                .map(|p| ratio(p.get("replicas"), p.get("phase1_s")))
                .collect();
            let quick: Vec<f64> = untraced
                .iter()
                .map(|p| ratio(10.0 * p.get("replicas"), p.get("phase2_s")))
                .collect();
            vec![
                ("fleet_replicas_s", median(&per_pass), "replicas/s", n),
                ("fleet_quick_replicas_s", median(&quick), "replicas/s", n),
                (
                    "fleet_replicas_per_pass",
                    med(untraced, "replicas"),
                    "count",
                    n,
                ),
            ]
        }
        Workload::PaperSweep => {
            let sweep: Vec<f64> = untraced.iter().map(path_s).collect();
            vec![("sweep_s", median(&sweep), "s", n)]
        }
    }
}

/// Per-layer metric values from traced passes (`untraced` gives the
/// baseline for `trace.overhead`). Every [`PER_LAYER`] name is present.
pub fn per_layer(
    w: Workload,
    traced: &[PassReport],
    untraced: &[PassReport],
) -> BTreeMap<&'static str, f64> {
    let mut out: BTreeMap<&'static str, f64> = PER_LAYER.iter().map(|m| (m.name, 0.0)).collect();
    let t = traced;
    let nt = t.len() as f64;
    let mut put = |k: &'static str, v: f64| {
        assert!(out.contains_key(k), "undeclared per-layer metric {k}");
        out.insert(k, if v.is_finite() { v } else { 0.0 });
    };

    let traced_wall: Vec<f64> = t.iter().map(path_s).collect();
    let untraced_wall: Vec<f64> = untraced.iter().map(path_s).collect();
    put(
        "trace.overhead",
        ratio(median(&traced_wall), median(&untraced_wall)) - 1.0,
    );
    let glue: f64 = t
        .iter()
        .map(|p| self_times(&p.spans).get("bench").copied().unwrap_or(0.0))
        .sum();
    let root: f64 = t
        .iter()
        .filter_map(|p| p.spans.first())
        .map(|s| s.secs())
        .sum();
    put("trace.unattributed_share", ratio(glue, root));
    put(
        "trace.spans",
        ratio(t.iter().map(|p| p.spans.len() as f64).sum(), nt),
    );
    put("par.threads", mean(t, "par.threads").max(1.0));

    match w {
        Workload::NodeCycle => {
            put("workloads.generate_s", mean(t, "workloads.generate_s"));
            let (ck_s, ck_n) = span_busy(t, "node", "checkpoint");
            put("node.checkpoint.calls", ck_n / nt);
            put("node.checkpoint.busy_s", ck_s / nt);
            put(
                "node.checkpoint.mb_s",
                ratio(sum(t, "commit_bytes") / 1e6, ck_s),
            );
            let (rr_s, rr_n) = span_busy(t, "node", "restore_remote");
            put("node.restore_remote.calls", rr_n / nt);
            put("node.restore_remote.busy_s", rr_s / nt);
            put(
                "node.restore_remote.mb_s",
                ratio(sum(t, "restore_remote_bytes") / 1e6, rr_s),
            );
            let (rl_s, rl_n) = span_busy(t, "node", "restore_local");
            put("node.restore_local.calls", rl_n / nt);
            put("node.restore_local.busy_s", rl_s / nt);
            let mut useful = 0.0;
            for (step, calls, busy_s) in [
                (
                    "compress_step",
                    "ndp.compress_step.calls",
                    "ndp.compress_step.busy_s",
                ),
                ("ship_step", "ndp.ship_step.calls", "ndp.ship_step.busy_s"),
                (
                    "finalize_step",
                    "ndp.finalize_step.calls",
                    "ndp.finalize_step.busy_s",
                ),
            ] {
                let (s, n) = span_busy(t, "ndp", step);
                useful += n;
                put(calls, n / nt);
                put(busy_s, s / nt);
            }
            put("ndp.useful_step_ratio", ratio(useful, sum(t, "ndp.steps")));
            put("ndp.stalled_steps", mean(t, "ndp.stalled_steps"));
            put("ndp.paused_steps", mean(t, "ndp.paused_steps"));

            let crc_mb_s = ratio(
                sum(t, "integrity.crc_bytes") / 1e6,
                sum(t, "integrity.crc_s"),
            );
            put("integrity.crc_mb_s", crc_mb_s);
            let drained = sum(t, "durable_bytes");
            put(
                "integrity.verify_bytes_per_drained_byte",
                ratio(sum(t, "integrity.verify_bytes"), drained),
            );
            let (compress_s, _) = span_busy(t, "ndp", "compress_step");
            let gate_s = ratio(sum(t, "integrity.verify_bytes") / 1e6, crc_mb_s);
            put("integrity.drain_share", ratio(gate_s, compress_s));

            let raw_mb = sum(t, "codec.raw_bytes") / 1e6;
            let codec_mb_s = ratio(raw_mb, sum(t, "codec.compress_s"));
            put("codec.compress.busy_s", mean(t, "codec.compress_s"));
            put("codec.compress.mb_s", codec_mb_s);
            put("codec.decompress.busy_s", mean(t, "codec.decompress_s"));
            put(
                "codec.decompress.mb_s",
                ratio(raw_mb, sum(t, "codec.decompress_s")),
            );
            put(
                "codec.factor",
                ratio(sum(t, "codec.packed_bytes"), sum(t, "codec.raw_bytes")),
            );
            let model = |k: &str| mean(t, k) / 1e6;
            put(
                "codec.measured_vs_modeled",
                ratio(codec_mb_s, model("model.ndp_compress_bw")),
            );

            put(
                "nvm.peak_used_bytes",
                t.iter()
                    .map(|p| p.get("nvm.peak_used_bytes"))
                    .fold(0.0, f64::max),
            );
            put("nvm.evictions", mean(t, "nvm.evictions"));
            put("nvm.lock_contention", mean(t, "nvm.lock_contention"));
            put("remote.objects", mean(t, "remote.objects"));
            put(
                "remote.bytes_per_raw_byte",
                ratio(sum(t, "remote.bytes_written"), drained),
            );

            let v = |k: &str| sum(t, &format!("vclock.p1.{k}")) + sum(t, &format!("vclock.p2.{k}"));
            put("vclock.host_nvm_s", v("host_nvm_s") / nt);
            put("vclock.ndp_compute_s", v("ndp_compute_s") / nt);
            put("vclock.io_link_s", v("io_link_s") / nt);
            put("vclock.restore_io_s", v("restore_io_s") / nt);
            let wall: f64 = traced_wall.iter().sum();
            put(
                "vclock.critical_path_vs_wall",
                ratio(v("host_nvm_s") + v("restore_io_s"), wall),
            );
            let [(_, p1_virtual, p1_wall), (_, p2_virtual, p2_wall)] = vclock_phases(t);
            put("vclock.phase1_vs_wall", ratio(p1_virtual, p1_wall));
            put("vclock.phase2_vs_wall", ratio(p2_virtual, p2_wall));

            for row in model_rows(t) {
                put(row.metric, ratio(row.measured_mb_s, row.modeled_mb_s));
            }
        }
        Workload::Fleet => {
            let replica_ms = all_samples(t, "engine_replica_ms");
            put("engine.replica_ms_p50", percentile(&replica_ms, 50.0));
            put(
                "engine.stage_replica_ms_mean",
                ratio(sum(t, "engine.stage_s") * 1e3, sum(t, "engine.stage_calls")),
            );
            put(
                "engine.failures_per_replica",
                ratio(sum(t, "engine.failures"), sum(t, "replicas")),
            );
            put(
                "engine.events_per_replica",
                ratio(
                    sum(t, "engine.observed_events"),
                    sum(t, "engine.observed_replicas"),
                ),
            );
            let serial: f64 = replica_ms.iter().sum::<f64>() / 1e3;
            put(
                "par.efficiency",
                ratio(serial, mean(t, "par.threads") * sum(t, "phase1_s")),
            );
        }
        Workload::PaperSweep => {
            put(
                "engine.stage_replica_ms_mean",
                ratio(sum(t, "engine.stage_s") * 1e3, sum(t, "engine.stage_calls")),
            );
            let hits = sum(t, "cache.hits");
            let calls = hits + sum(t, "cache.misses");
            put("solve.calls", calls / nt);
            put("solve.busy_s", mean(t, "phase1_s"));
            put("cache.hit_ratio", ratio(hits, calls));
            put(
                "sweep.solver_share",
                ratio(sum(t, "phase1_s"), traced_wall.iter().sum()),
            );
            put(
                "sweep.engine_share",
                ratio(
                    sum(t, "engine.stage_s"),
                    mean(t, "par.threads") * sum(t, "phase2_s"),
                ),
            );
        }
    }
    out
}

/// A `NodeConfig` bandwidth beside the measured rate of its layer.
#[derive(Debug, Clone, Copy)]
pub struct ModelRow {
    /// Per-layer metric holding measured / modeled.
    pub metric: &'static str,
    /// The `NodeConfig` field.
    pub config: &'static str,
    /// Its value, MB/s.
    pub modeled_mb_s: f64,
    /// What the layer measured, MB/s.
    pub measured: &'static str,
    /// The measured rate, MB/s.
    pub measured_mb_s: f64,
}

/// The node's modeled bandwidths against measured rates, from traced
/// `node_cycle` passes.
pub fn model_rows(t: &[PassReport]) -> Vec<ModelRow> {
    let rate = |bytes: &str, layer: &str, name: &str| {
        ratio(sum(t, bytes) / 1e6, span_busy(t, layer, name).0)
    };
    let row = |metric, config, model_key: &str, measured, measured_mb_s| ModelRow {
        metric,
        config,
        modeled_mb_s: mean(t, model_key) / 1e6,
        measured,
        measured_mb_s,
    };
    vec![
        row(
            "vs_model.nvm",
            "nvm_bandwidth",
            "model.nvm_bw",
            "checkpoint_rank",
            rate("commit_bytes", "node", "checkpoint"),
        ),
        row(
            "vs_model.ndp_compress",
            "ndp_compress_bw",
            "model.ndp_compress_bw",
            "ndp compress steps",
            rate("durable_bytes", "ndp", "compress_step"),
        ),
        row(
            "vs_model.host_decompress",
            "host_decompress_bw",
            "model.host_decompress_bw",
            "remote restores",
            rate("restore_remote_bytes", "node", "restore_remote"),
        ),
        row(
            "vs_model.io",
            "io_bandwidth",
            "model.io_bw",
            "ndp ship steps",
            rate("remote.bytes_written", "ndp", "ship_step"),
        ),
    ]
}

/// The hand count behind `integrity.verify_bytes_per_drained_byte`: for
/// each drained checkpoint, its number of blocks weighted by its bytes,
/// over all drained bytes.
pub fn hand_count_per_drained_byte(t: &[PassReport]) -> f64 {
    ratio(
        sum(t, "integrity.hand_verify_bytes"),
        sum(t, "durable_bytes"),
    )
}

/// Virtual (`VClock`) vs wall seconds per phase, summed over traced
/// `node_cycle` passes. Phase 1 charges host NVM plus the slower of NDP
/// compute and the I/O link (they pipeline); phase 2 host NVM plus
/// restore I/O.
pub fn vclock_phases(t: &[PassReport]) -> [(&'static str, f64, f64); 2] {
    let p1: f64 = t
        .iter()
        .map(|p| {
            p.get("vclock.p1.host_nvm_s")
                + p.get("vclock.p1.ndp_compute_s")
                    .max(p.get("vclock.p1.io_link_s"))
        })
        .sum();
    let p2 = sum(t, "vclock.p2.host_nvm_s") + sum(t, "vclock.p2.restore_io_s");
    [
        ("phase1", p1, sum(t, "phase1_s")),
        ("phase2", p2, sum(t, "phase2_s")),
    ]
}

/// Reconciliation of one traced pass: layer self times must sum to the
/// root span (the timed path), and the root's own share must stay within
/// [`UNATTRIBUTED_BOUND`]. Returns the failure, if any.
pub fn reconcile(p: &PassReport) -> Result<(), String> {
    let Some(root) = p.spans.first() else {
        return Err("traced pass recorded no spans".into());
    };
    if root.parent.is_some() || p.spans.iter().skip(1).any(|s| s.parent.is_none()) {
        return Err("traced pass has more than one root span".into());
    }
    let st = self_times(&p.spans);
    let total: f64 = st.values().sum();
    if (total - root.secs()).abs() > 1e-6 * root.secs().max(1e-3) {
        return Err(format!(
            "layer self times sum to {total} s, timed path is {} s",
            root.secs()
        ));
    }
    let share = ratio(st.get("bench").copied().unwrap_or(0.0), root.secs());
    if share > UNATTRIBUTED_BOUND {
        return Err(format!(
            "unattributed share {share:.4} exceeds {UNATTRIBUTED_BOUND}"
        ));
    }
    Ok(())
}
