//! `paper_sweep`: regenerates Figs. 4, 5, 8 and 9 through
//! `cr_bench::experiments`, once per process, starting cold (the cycle
//! cache and the engine pool live per thread, so a second sweep in the
//! same process would measure a warm memo).
//!
//! Phase 1 is the solver-only figures (4, 5), phase 2 the simulated
//! sensitivity sweeps (8, 9), in the paper's order.

use cr_bench::experiments::{fig4, fig5, fig8, fig9, SweepData};
use cr_bench::ReproOpts;
use cr_core::cache::global_cache_stats;

use crate::report::{Fnv, PassReport};
use crate::trace::Tracer;
use crate::Ctx;

/// Digest of Figs. 4 and 5, which do not depend on the seed.
pub const PINNED_SOLVER_DIGEST: &str = "277e8d79a78339dd";
/// Digest of Figs. 8 and 9 at full scale and seed 42 (the published
/// figures' settings).
pub const PINNED_SIM_DIGEST_SEED42: &str = "6dad5c6f740d84d2";

fn opts(ctx: &Ctx) -> ReproOpts {
    let base = if ctx.tiny {
        ReproOpts::quick()
    } else {
        ReproOpts {
            replicas: 4,
            failures: 2000,
            image_mb: 8,
            seed: 42,
        }
    };
    ReproOpts {
        seed: ctx.seed,
        ..base
    }
}

fn sweep_ok(d: &SweepData, xs: usize) -> Result<(), String> {
    if d.xs.len() != xs || d.series.len() != 5 {
        return Err(format!(
            "{} x values and {} series",
            d.xs.len(),
            d.series.len()
        ));
    }
    for (label, ys) in &d.series {
        if ys.len() != xs || ys.iter().any(|p| !(*p > 0.0 && *p < 1.0)) {
            return Err(format!("series {label} has a progress rate outside (0, 1)"));
        }
    }
    Ok(())
}

fn hash_sweep(h: &mut Fnv, d: &SweepData) {
    for (label, ys) in &d.series {
        h.bytes(label.as_bytes());
        ys.iter().for_each(|&y| h.f64(y));
    }
}

/// Runs one pass and returns its report.
pub fn run(ctx: &Ctx) -> PassReport {
    let mut rep = PassReport::default();
    let mut tr = Tracer::new(ctx.trace);
    let o = opts(ctx);
    rep.set("par.threads", ctx.threads as f64);
    rep.set("setup_s", ctx.since_spawn());
    if ctx.trace {
        cr_obs::stage::set_enabled(true);
    }

    tr.enter("bench", "pass");
    let (f4, s4) = tr.time("solve", "fig4", || fig4(0.85, None, 60));
    let (f5, s5) = tr.time("solve", "fig5", fig5);
    let (f8, s8) = tr.time("sweep", "fig8", || fig8(&o));
    let (f9, s9) = tr.time("sweep", "fig9", || fig9(&o));
    tr.exit();
    rep.set("phase1_s", s4 + s5);
    rep.set("phase2_s", s8 + s9);

    // Figure 4: the breakdown sweep has an interior optimum.
    let rates: Vec<f64> = f4.iter().map(|(_, b)| b.progress_rate()).collect();
    let best = (0..rates.len()).max_by(|&a, &b| rates[a].total_cmp(&rates[b]));
    rep.check(
        rates.len() == 60 && best.is_some_and(|b| b > 0 && b < 59),
        || format!("fig4: {} points, optimum at {best:?}", rates.len()),
    );
    // Figure 5: NDP drain ratio 8 without compression (Sec. 6.4).
    rep.check(
        f5.len() == 5 && f5[0].factor.is_none() && f5[0].ndp == 8,
        || {
            format!(
                "fig5: uncompressed NDP ratio {:?}",
                f5.first().map(|r| r.ndp)
            )
        },
    );
    let mut solver = Fnv::default();
    for (r, b) in &f4 {
        solver.bytes(&r.to_le_bytes());
        solver.f64(b.progress_rate());
    }
    for row in &f5 {
        row.host.iter().for_each(|&(p, r)| {
            solver.f64(p);
            solver.bytes(&r.to_le_bytes());
        });
        solver.bytes(&row.ndp.to_le_bytes());
    }
    rep.check(solver.hex() == PINNED_SOLVER_DIGEST, || {
        format!(
            "figs 4+5 digest {} differs from the pinned {PINNED_SOLVER_DIGEST}",
            solver.hex()
        )
    });
    for (name, d, xs) in [("fig8", &f8, 8), ("fig9", &f9, 5)] {
        let verdict = sweep_ok(d, xs);
        rep.check(verdict.is_ok(), || {
            format!("{name}: {}", verdict.unwrap_err())
        });
    }
    let mut sim = Fnv::default();
    hash_sweep(&mut sim, &f8);
    hash_sweep(&mut sim, &f9);
    if ctx.seed == 42 && !ctx.tiny {
        rep.check(sim.hex() == PINNED_SIM_DIGEST_SEED42, || {
            format!(
                "figs 8+9 digest {} differs from the pinned {PINNED_SIM_DIGEST_SEED42}",
                sim.hex()
            )
        });
    }
    rep.digest = format!("{}-{}", solver.hex(), sim.hex());
    rep.spans = tr.spans().to_vec();

    if ctx.trace {
        let (hits, misses) = global_cache_stats();
        rep.set("cache.hits", hits as f64);
        rep.set("cache.misses", misses as f64);
        let snap = cr_obs::stage::snapshot();
        for s in snap
            .iter()
            .filter(|s| matches!(s.stage.name(), "engine" | "solve"))
        {
            rep.set(&format!("{}.stage_calls", s.stage.name()), s.calls as f64);
            rep.set(&format!("{}.stage_s", s.stage.name()), s.nanos as f64 / 1e9);
        }
    }
    rep
}
