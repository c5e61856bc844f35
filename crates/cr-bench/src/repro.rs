//! The reports `crx repro <id>` prints: one render function per table
//! and figure of the paper's evaluation, plus the model-level
//! ablations. Each renders the data from [`crate::experiments`] as
//! plain-text tables; `results/repro_<id>.txt` holds the checked-in
//! output of each.

use std::fmt::{self, Write};

use cr_core::breakdown::Breakdown;
use cr_core::ndp_sizing::{NdpSizing, PAPER_UTILITIES};
use cr_core::params::{CompressionSpec, DrainLagModel, Strategy, SystemParams};
use cr_core::units::*;
use cr_core::{analytic, daly};

use crate::experiments as ex;
use crate::table::{emit, pct, TextTable};
use crate::ReproOpts;

/// Appends one report to `out`.
type Render = fn(&ReproOpts, &mut String) -> fmt::Result;

/// Every report by id, in the paper's order.
const REPROS: [(&str, Render); 12] = [
    ("fig1", fig1),
    ("fig3", fig3),
    ("fig4", fig4),
    ("fig5", fig5),
    ("fig6", fig6),
    ("fig7", fig7),
    ("fig8", fig8),
    ("fig9", fig9),
    ("table1", table1),
    ("table2", table2),
    ("table3", table3),
    ("ablations", ablations),
];

/// The valid report ids, in the paper's order.
pub fn ids() -> impl Iterator<Item = &'static str> {
    REPROS.iter().map(|(id, _)| *id)
}

/// Renders report `id` exactly as `crx repro <id>` prints it. An
/// unknown id is an error that lists the valid ones.
pub fn render(id: &str, opts: &ReproOpts) -> Result<String, String> {
    let (_, write) = REPROS.iter().find(|(k, _)| *k == id).ok_or_else(|| {
        format!(
            "unknown repro id {id:?}; valid ids: {}",
            ids().collect::<Vec<_>>().join(" ")
        )
    })?;
    let mut out = String::new();
    write(opts, &mut out).expect("writing to a String cannot fail");
    Ok(out)
}

/// Figure 1: progress rate of a system with C/R as a function of
/// `M/δ`.
fn fig1(_: &ReproOpts, out: &mut String) -> fmt::Result {
    let mut t = TextTable::new(vec!["M/delta", "progress rate"]);
    for (ratio, p) in &ex::fig1(33) {
        t.row(vec![format!("{ratio:.1}"), pct(*p)]);
    }
    emit(
        out,
        "Figure 1: progress rate vs M/delta (Daly optimum interval)",
        &t,
    )?;
    let r90 = daly::ratio_for_progress(0.90);
    writeln!(
        out,
        "90% progress requires M/delta ~ {r90:.0} (paper Sec. 3.3: \
         commit time ~ 1/200 of MTTI)"
    )
}

/// Figure 3 as ASCII timelines: two-level checkpointing with the host
/// writing to global I/O (3a) and with NDP offload (3b), then an NDP
/// run with failures (3c).
///
/// To make the structure visible at terminal width, the system is
/// scaled so activities have comparable spans (failures off: MTTI is
/// set enormous). Each panel is drawn from the replica's observability
/// events by [`ascii_timeline`](cr_obs::export::ascii_timeline).
fn fig3(_: &ReproOpts, out: &mut String) -> fmt::Result {
    use cr_obs::export::ascii_timeline;
    use cr_obs::{Bus, Event, EventKind, VecSink};
    use cr_sim::{run_engine_observed, SimFaults, SimOptions, SimResult};

    // One replica (no injected faults): its result and event stream.
    let observed =
        |sys: &SystemParams, strat: &Strategy, opts: &SimOptions| -> (SimResult, Vec<Event>) {
            let bus = Bus::with_sink(VecSink::new());
            let res = run_engine_observed(sys, strat, opts, &SimFaults::default(), &bus);
            (res, bus.drain())
        };

    // A demonstration system: local commits and I/O writes visible at
    // the same scale (I/O write = ~3 segments).
    let sys = SystemParams {
        mtti: 1e9, // failure-free window for the clean timeline
        checkpoint_bytes: 112.0 * GB,
        local_bw: 5.0 * GB,
        io_bw_per_node: 250.0 * MB,
    };
    let opts = SimOptions {
        seed: 3,
        min_failures: 0,
        min_work: 3600.0,
        max_wall: 1e12,
    };

    let window = 2800.0;
    writeln!(
        out,
        "(a) two-level checkpointing, host writes to I/O (every 4th ckpt):\n"
    )?;
    let host = Strategy::local_io_host(4, 0.85, None);
    let (res_a, events_a) = observed(&sys, &host, &opts);
    out.push_str(&ascii_timeline(&events_a, 0.0, window, 100));
    writeln!(
        out,
        "progress in window: {} (host blocks on every 'W')\n",
        pct(res_a.breakdown.progress_rate())
    )?;

    writeln!(out, "(b) two-level checkpointing with NDP drains:\n")?;
    let ndp = Strategy::local_io_ndp(0.85, None);
    let (res_b, events_b) = observed(&sys, &ndp, &opts);
    out.push_str(&ascii_timeline(&events_b, 0.0, window, 100));
    writeln!(
        out,
        "progress in window: {} (drains 'd' run under compute; '^' marks I/O durability)\n",
        pct(res_b.breakdown.progress_rate())
    )?;

    // And one with failures, to show recovery.
    writeln!(out, "(c) NDP timeline with failures (MTTI = 20 min):\n")?;
    let sys_f = SystemParams {
        mtti: 20.0 * MINUTE,
        ..sys
    };
    let opts_f = SimOptions {
        seed: 12,
        min_failures: 2,
        min_work: 0.0,
        max_wall: 1e12,
    };
    let (_, events_c) = observed(&sys_f, &ndp, &opts_f);
    let end = events_c
        .iter()
        .filter_map(|e| match e.kind {
            EventKind::Span { t1, .. } => Some(t1),
            _ => None,
        })
        .fold(0.0f64, f64::max)
        .min(4000.0);
    out.push_str(&ascii_timeline(&events_c, 0.0, end, 100));
    Ok(())
}

/// Figure 4: C/R overhead breakdown for `Local + I/O-Host` as the ratio
/// of locally-saved to I/O-saved checkpoints increases.
fn fig4(_: &ReproOpts, out: &mut String) -> fmt::Result {
    let sweep = ex::fig4(0.85, None, 60);
    let mut t = TextTable::new(vec![
        "ratio", "compute", "ckpt L", "ckpt IO", "restore", "rerun L", "rerun IO", "progress",
    ]);
    for (ratio, b) in &sweep {
        let f = b.as_fractions();
        t.row(vec![
            format!("{ratio}"),
            pct(f.compute),
            pct(f.checkpoint_local),
            pct(f.checkpoint_io),
            pct(f.restore()),
            pct(f.rerun_local),
            pct(f.rerun_io),
            pct(b.progress_rate()),
        ]);
    }
    emit(
        out,
        "Figure 4: overhead breakdown vs locally-saved:I/O-saved ratio \
         (Local(85%) + I/O-Host, no compression)",
        &t,
    )?;
    let (best_ratio, best) = sweep
        .iter()
        .map(|(r, b)| (*r, b.progress_rate()))
        .max_by(|a, b| a.1.total_cmp(&b.1))
        .unwrap();
    writeln!(out, "optimal ratio = {best_ratio} (progress {})", pct(best))
}

/// Figure 5: the optimal ratio of locally-saved to I/O-saved
/// checkpoints for host configurations (per recovery probability) and
/// the NDP drain ratio, across compression factors.
fn fig5(_: &ReproOpts, out: &mut String) -> fmt::Result {
    let rows = ex::fig5();
    let mut headers = vec!["Compression factor".to_string()];
    headers.extend(
        rows[0]
            .host
            .iter()
            .map(|(p, _)| format!("Host p_local {:.0}%", p * 100.0)),
    );
    headers.push("NDP".to_string());

    let mut t = TextTable::new(headers);
    for row in &rows {
        let mut cells = vec![match row.factor {
            None => "none".to_string(),
            Some(f) => format!("{:.0}%", f * 100.0),
        }];
        cells.extend(row.host.iter().map(|(_, ratio)| format!("{ratio}")));
        cells.push(format!("{}", row.ndp));
        t.row(cells);
    }
    emit(
        out,
        "Figure 5: optimal locally-saved : I/O-saved checkpoint ratios",
        &t,
    )?;
    writeln!(
        out,
        "NDP drains as frequently as sustainable (Sec. 6.2); its ratio \
         depends only on the compression factor, not on p_local."
    )
}

/// Figure 6: progress-rate comparison between `I/O Only`,
/// `Local(x%) + I/O-Host` and `Local(x%) + I/O-NDP`, without
/// compression and with each mini-app's gzip(1) compression factor.
fn fig6(opts: &ReproOpts, out: &mut String) -> fmt::Result {
    let data = ex::fig6(opts);
    let mut headers = vec!["Configuration".to_string()];
    headers.extend(data.columns.iter().cloned());
    let mut t_sim = TextTable::new(headers.clone());
    let mut t_ana = TextTable::new(headers);
    for (label, row) in data.rows.iter().zip(&data.values) {
        let mut sim_cells = vec![label.clone()];
        let mut ana_cells = vec![label.clone()];
        for cell in row {
            sim_cells.push(pct(cell.sim));
            ana_cells.push(pct(cell.analytic));
        }
        t_sim.row(sim_cells);
        t_ana.row(ana_cells);
    }
    emit(
        out,
        "Figure 6: progress rates, discrete-event simulation",
        &t_sim,
    )?;
    emit(out, "Figure 6: progress rates, analytic model", &t_ana)?;

    let (host, ndp) = ex::headline_averages(opts);
    writeln!(
        out,
        "Headline (Sec. 6.3, avg over p_local 20/50/80/96%): multilevel \
         + compression {} -> NDP + compression {} (paper: 51% -> 78%)",
        pct(host),
        pct(ndp)
    )
}

/// Figure 7: C/R overhead breakdown of the four multilevel
/// configurations at 4% I/O-recovery probability, 73% compression
/// factor.
fn fig7(opts: &ReproOpts, out: &mut String) -> fmt::Result {
    let rows = ex::fig7(opts);
    emit(
        out,
        "Figure 7 (simulated, pipelined drains): % of execution time",
        &breakdown_table(rows.iter().map(|r| (&r.label, &r.sim))),
    )?;
    emit(
        out,
        "Figure 7 (analytic, paper's lag-free NDP accounting)",
        &breakdown_table(rows.iter().map(|r| (&r.label, &r.analytic))),
    )?;
    writeln!(
        out,
        "Paper claims: Rerun-IO 17% (H) -> 9% (HC) -> 1.2% (N) -> 0.6% \
         (NC); Checkpoint-IO vanishes under NDP; NC approaches the 90% \
         single-level bound."
    )
}

/// One row per configuration: its time fractions by category.
fn breakdown_table<'a>(rows: impl Iterator<Item = (&'a String, &'a Breakdown)>) -> TextTable {
    let mut t = TextTable::new(vec![
        "Configuration",
        "compute",
        "ckpt L",
        "ckpt IO",
        "restore L",
        "restore IO",
        "rerun L",
        "rerun IO",
        "norm. total",
    ]);
    for (label, b) in rows {
        let f = b.as_fractions();
        t.row(vec![
            label.clone(),
            pct(f.compute),
            pct(f.checkpoint_local),
            pct(f.checkpoint_io),
            pct(f.restore_local),
            pct(f.restore_io),
            pct(f.rerun_local),
            pct(f.rerun_io),
            format!("{:.3}", b.normalized_to_compute().total()),
        ]);
    }
    t
}

/// One row per configuration, one column per sweep point.
fn sweep_table(data: &ex::SweepData, x_label: impl Fn(f64) -> String) -> TextTable {
    let mut headers = vec!["Configuration".to_string()];
    headers.extend(data.xs.iter().map(|&x| x_label(x)));
    let mut t = TextTable::new(headers);
    for (label, ys) in &data.series {
        let mut cells = vec![label.clone()];
        cells.extend(ys.iter().map(|&p| pct(p)));
        t.row(cells);
    }
    t
}

/// Figure 8: progress rate vs checkpoint size (10–80% of node memory)
/// for the five §6.5 sensitivity configurations.
fn fig8(opts: &ReproOpts, out: &mut String) -> fmt::Result {
    let t = sweep_table(&ex::fig8(opts), |x| format!("{x:.0}%"));
    emit(
        out,
        "Figure 8: progress vs checkpoint size (% of 140 GB node \
         memory); MTTI 30 min, p_local 85%, cf 73%",
        &t,
    )?;
    writeln!(
        out,
        "Paper claims: NDP's advantage grows with checkpoint size; \
         L-2GBps+NC >= L-15GBps+HC (a slow NVM with NDP substitutes for \
         a fast one without)."
    )
}

/// Figure 9: progress rate vs MTTI (30–150 minutes) for the five §6.5
/// sensitivity configurations.
fn fig9(opts: &ReproOpts, out: &mut String) -> fmt::Result {
    let t = sweep_table(&ex::fig9(opts), |x| format!("{x:.0} min"));
    emit(
        out,
        "Figure 9: progress vs MTTI; checkpoint 112 GB, p_local 85%, \
         cf 73%",
        &t,
    )?;
    writeln!(
        out,
        "Paper claims: the NDP advantage shrinks as MTTI grows (fewer \
         failures -> less rerun to hide); L-2GBps+N tracks L-15GBps+HC."
    )
}

/// Table 1: the exascale system projection scaled from the Titan Cray
/// XK7, plus the §3.3 derived C/R requirements.
fn table1(_: &ReproOpts, out: &mut String) -> fmt::Result {
    use cr_core::projection::ExascaleProjection;

    let mut t = TextTable::new(vec![
        "Parameter",
        "Titan Cray XK7",
        "Exascale Projection",
        "Factor change",
    ]);
    for row in ex::table1() {
        t.row(vec![
            row.parameter.to_string(),
            row.titan,
            row.exascale,
            row.factor,
        ]);
    }
    emit(out, "Table 1: exascale system projection", &t)?;

    let p = ExascaleProjection::paper_default();
    writeln!(out, "Derived C/R requirements (Sec. 3.2-3.4):")?;
    writeln!(
        out,
        "  socket-model system MTTF     : {:.2} min (assumed {:.0} min)",
        p.derived_mtti / MINUTE,
        p.mtti / MINUTE
    )?;
    writeln!(
        out,
        "  checkpoint size (80% memory) : {} per node",
        fmt_bytes(p.checkpoint_bytes)
    )?;
    writeln!(
        out,
        "  commit time for 90% progress : {:.1} s",
        p.required_commit_time
    )?;
    writeln!(
        out,
        "  required commit bandwidth    : {} per node ({} system-wide)",
        fmt_rate(p.required_commit_bw),
        fmt_rate(p.system_commit_bw())
    )?;
    writeln!(
        out,
        "  per-node share of global I/O : {} -> {} per checkpoint",
        fmt_rate(p.io_bw_per_node),
        fmt_secs(p.t_io_per_node())
    )
}

/// Table 2: compression factor and single-thread speed of each utility
/// family on each mini-app's (synthetic) checkpoint data. The paper
/// used multi-GB corpora; factors converge quickly with image size,
/// speeds are hardware-dependent.
fn table2(opts: &ReproOpts, out: &mut String) -> fmt::Result {
    use cr_compress::registry::{study_codecs, study_paper_labels};

    writeln!(
        out,
        "measuring {} MiB per mini-app; --mb to change\n",
        opts.image_mb
    )?;
    let rows = ex::table2(opts);

    let mut headers = vec!["Mini-app".to_string()];
    for (codec, paper) in study_codecs().iter().zip(study_paper_labels()) {
        headers.push(format!("{} [{}]", codec.label(), paper));
    }
    let mut tf = TextTable::new(headers.clone());
    let mut ts = TextTable::new(headers);
    for row in &rows {
        let mut rf = vec![row.app.to_string()];
        let mut rs = vec![row.app.to_string()];
        for c in &row.cells {
            rf.push(format!(
                "{:.1}% (p {:.1}%)",
                c.factor * 100.0,
                c.paper_factor * 100.0
            ));
            rs.push(format!(
                "{:.1} (p {:.1})",
                c.speed / 1e6,
                c.paper_speed / 1e6
            ));
        }
        tf.row(rf);
        ts.row(rs);
    }
    let mut rf = vec!["Average".to_string()];
    let mut rs = vec!["Average".to_string()];
    for ((f, s), paper) in ex::table2_averages(&rows).iter().zip(PAPER_UTILITIES) {
        rf.push(format!(
            "{:.1}% (p {:.1}%)",
            f * 100.0,
            paper.avg_factor * 100.0
        ));
        rs.push(format!("{:.1} (p {:.1})", s / 1e6, paper.avg_speed / 1e6));
    }
    tf.row(rf);
    ts.row(rs);

    emit(
        out,
        "Table 2a: compression factor, measured (p = paper)",
        &tf,
    )?;
    emit(
        out,
        "Table 2b: compression speed MB/s, measured (p = paper)",
        &ts,
    )
}

/// Table 3: required NDP compression speed, core count and smallest
/// checkpoint-to-I/O interval per utility — once from the paper's
/// Table 2 averages, once from our own codecs' measurements.
fn table3(opts: &ReproOpts, out: &mut String) -> fmt::Result {
    let sizing_table = |first: &str, rows: Vec<(String, NdpSizing)>| {
        let mut t = TextTable::new(vec![first, "Required speed", "NDP cores", "Ckpt interval"]);
        for (label, sizing) in rows {
            t.row(vec![
                label,
                format!("{:.0} MB/s", sizing.required_rate / 1e6),
                format!("{}", sizing.cores),
                format!("{:.0} s", sizing.min_interval),
            ]);
        }
        t
    };
    let paper = ex::table3_paper()
        .into_iter()
        .map(|(util, sizing)| (util.label(), sizing))
        .collect();
    emit(
        out,
        "Table 3 (from the paper's Table 2 averages)",
        &sizing_table("Utility (level)", paper),
    )?;
    let measured = ex::table3_measured(&ex::table2(opts));
    emit(
        out,
        "Table 3 (recomputed from our measured codecs)",
        &sizing_table("Our codec [paper utility]", measured),
    )
}

/// Model-level ablations of the paper's design choices (DESIGN.md §5):
///
/// * overlapping vs serializing NDP compression and the I/O transfer
///   (§4.2.2);
/// * host-side vs NDP-side decompression on restore (§4.3);
/// * drain-lag accounting (paper's lag-free rollback target vs the full
///   pipeline);
/// * incremental drains (§7 future work), measured on a functional node;
/// * local checkpoint interval sensitivity around the Daly optimum.
fn ablations(_: &ReproOpts, out: &mut String) -> fmt::Result {
    let sys = SystemParams::exascale_default();
    let comp = CompressionSpec::gzip1_ndp();
    let s = sys.checkpoint_bytes;

    // 1. Overlap vs serialize (Sec. 4.2.2): time to make one compressed
    // checkpoint durable on I/O.
    let t_compress = s / comp.compress_rate;
    let t_ship = s * comp.residual() / sys.io_bw_per_node;
    let mut t = TextTable::new(vec!["strategy", "drain time", "min ratio"]);
    let serialized = t_compress + t_ship;
    let overlapped = t_compress.max(t_ship);
    t.row(vec![
        "serialize (compress, then DMA)".to_string(),
        fmt_secs(serialized),
        format!("{}", (serialized / 150.0).ceil() as u32),
    ]);
    t.row(vec![
        "overlap (pipelined blocks)".to_string(),
        fmt_secs(overlapped),
        format!("{}", (overlapped / 150.0).ceil() as u32),
    ]);
    emit(
        out,
        "Ablation 1: NDP drain, serialize vs overlap (Sec. 4.2.2)",
        &t,
    )?;

    // 2. Restore-side decompression placement (Sec. 4.3).
    let io_read = s * comp.residual() / sys.io_bw_per_node;
    let mut t = TextTable::new(vec!["decompression site", "restore time"]);
    t.row(vec![
        "host, pipelined (16 GB/s)".to_string(),
        fmt_secs(io_read.max(s / comp.decompress_rate)),
    ]);
    t.row(vec![
        "NDP, pipelined (440 MB/s)".to_string(),
        fmt_secs(io_read.max(s / comp.compress_rate)),
    ]);
    t.row(vec![
        "NDP, serialized via NVM".to_string(),
        fmt_secs(io_read + s / comp.compress_rate),
    ]);
    emit(
        out,
        "Ablation 2: restore decompression placement (Sec. 4.3)",
        &t,
    )?;
    writeln!(
        out,
        "At 100 MB/s per-node I/O the read dominates either pipelined \
         option, so NDP-side decompression lets hosts idle at no cost \
         (the paper's low-power option).\n"
    )?;

    // 3. Drain-lag accounting.
    let mut t = TextTable::new(vec!["lag model", "progress (I/O-N)", "progress (I/O-NC)"]);
    for (name, lag) in [
        ("paper (lag-free rollback)", DrainLagModel::Ignore),
        ("full pipeline lag", DrainLagModel::Pipelined),
    ] {
        let mk = |c: Option<CompressionSpec>| Strategy::LocalIoNdp {
            interval: Some(150.0),
            ratio: None,
            p_local: 0.96,
            compression: c,
            drain_lag: lag,
        };
        t.row(vec![
            name.to_string(),
            pct(analytic::progress_rate(&sys, &mk(None))),
            pct(analytic::progress_rate(&sys, &mk(Some(comp)))),
        ]);
    }
    emit(out, "Ablation 3: NDP drain-lag accounting", &t)?;

    // 4. Incremental drains (§7 future work): measured payload
    // reduction on a drifting workload, and its model-level effect
    // expressed as an effective compression factor.
    {
        use cr_node::ndp::IncrementalPolicy;
        use cr_node::node::{ComputeNode, NodeConfig};
        use cr_workloads::CheckpointGenerator;

        let image = cr_workloads::by_name("HPCCG")
            .expect("known app")
            .generate(2 << 20, 77);
        let run = |incremental: bool| -> u64 {
            let mut node = ComputeNode::new(NodeConfig {
                drain_ratio: 1,
                codec: None,
                incremental: incremental.then(IncrementalPolicy::default),
                ..NodeConfig::small_test()
            });
            node.register_app("a");
            let mut state = image.clone();
            for step in 1..=8u64 {
                let stripe = (step as usize * 40_000) % state.len();
                let end = (stripe + 30_000).min(state.len());
                for b in &mut state[stripe..end] {
                    *b = b.wrapping_add(1);
                }
                node.checkpoint("a", &state).unwrap();
                node.drain_all().unwrap();
            }
            node.io().bytes_written
        };
        let full = run(false);
        let incr = run(true);
        let delta_factor = 1.0 - incr as f64 / full as f64;
        let mut t = TextTable::new(vec!["drain mode", "bytes shipped", "effective factor"]);
        t.row(vec![
            "full images".to_string(),
            format!("{full}"),
            "-".to_string(),
        ]);
        t.row(vec![
            "incremental deltas".to_string(),
            format!("{incr}"),
            pct(delta_factor),
        ]);
        emit(
            out,
            "Ablation 4: incremental NDP drains (Sec. 7 future work), 8 \
             checkpoints of a drifting 2 MiB state",
            &t,
        )?;
        // Feed the measured delta factor into the model as an effective
        // compression factor for I/O drains.
        let eff = delta_factor.clamp(0.0, 0.98);
        let mk = |factor: Option<f64>| Strategy::LocalIoNdp {
            interval: Some(150.0),
            ratio: None,
            p_local: 0.85,
            compression: factor.map(CompressionSpec::gzip1_ndp_with_factor),
            drain_lag: DrainLagModel::Pipelined,
        };
        writeln!(
            out,
            "model: NDP progress {} (full) -> {} (gzip 73%) -> {} (delta, {:.0}% effective)\n",
            pct(analytic::progress_rate(&sys, &mk(None))),
            pct(analytic::progress_rate(&sys, &mk(Some(0.73)))),
            pct(analytic::progress_rate(&sys, &mk(Some(eff)))),
            eff * 100.0
        )?;
    }

    // 5. Local interval sensitivity around Daly's optimum.
    let delta = sys.delta_local();
    let tau_opt = daly::optimum_interval(sys.mtti, delta);
    let mut t = TextTable::new(vec!["interval", "progress (Local only)"]);
    for mult in [0.25, 0.5, 1.0, 2.0, 4.0] {
        let tau = tau_opt * mult;
        let strat = Strategy::LocalOnly {
            interval: Some(tau),
        };
        t.row(vec![
            format!("{:.0} s ({}x opt)", tau, mult),
            pct(analytic::progress_rate(&sys, &strat)),
        ]);
    }
    emit(
        out,
        "Ablation 5: local checkpoint interval around the Daly optimum",
        &t,
    )
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn unknown_id_lists_every_valid_id() {
        let err = render("nosuch", &ReproOpts::quick()).unwrap_err();
        assert!(err.contains("\"nosuch\""), "{err}");
        for id in ids() {
            assert!(err.contains(id), "{id} missing from: {err}");
        }
        assert_eq!(ids().count(), 12);
    }
}
