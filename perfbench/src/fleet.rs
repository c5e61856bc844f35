//! `fleet`: Monte-Carlo replicas of `Local + I/O-NDP` (exascale
//! defaults, `p_local` 0.85, `gzip1_ndp`), fanned out through
//! `simulate_avg_in` at `nproc` threads.
//!
//! Phase 1 runs replicas of `SimOptions::standard` length (engine-bound);
//! phase 2 runs ten times as many `SimOptions::quick` replicas, the same
//! engine work split into more items, so per-item costs of the executor
//! and the engine pool weigh more. The first pass and every traced pass
//! also run both sets on one thread, the reference the fan-outs must
//! match bit for bit; later passes must reproduce the first pass's
//! digest.

use cr_core::params::{CompressionSpec, Strategy, SystemParams};
use cr_sim::{
    run_engine, run_fleet_observed_in, simulate_avg_in, SimFaults, SimOptions, SimResult,
};

use crate::report::{Fnv, PassReport};
use crate::trace::Tracer;
use crate::Ctx;

/// Standard-length replicas per pass (phase 1); phase 2 runs ten times
/// as many quick ones.
fn replicas(tiny: bool) -> u64 {
    if tiny {
        4
    } else {
        96
    }
}

/// Bit-exact fingerprint of one replica.
fn fingerprint(h: &mut Fnv, r: &SimResult) {
    let b = &r.breakdown;
    for v in [
        b.compute,
        b.checkpoint_local,
        b.checkpoint_io,
        b.restore_local,
        b.restore_io,
        b.rerun_local,
        b.rerun_io,
        r.stats.wall_time,
        r.stats.work_done,
    ] {
        h.f64(v);
    }
    h.bytes(&r.stats.failures.to_le_bytes());
}

fn fingerprints(rs: &[SimResult]) -> Vec<String> {
    rs.iter()
        .map(|r| {
            let mut h = Fnv::default();
            fingerprint(&mut h, r);
            h.hex()
        })
        .collect()
}

/// Runs one pass and returns its report.
pub fn run(ctx: &Ctx) -> PassReport {
    let mut rep = PassReport::default();
    let mut tr = Tracer::new(ctx.trace);
    let sys = SystemParams::exascale_default();
    let strat = Strategy::local_io_ndp(0.85, Some(CompressionSpec::gzip1_ndp()));
    let long = SimOptions::standard(ctx.seed);
    let short = SimOptions::quick(ctx.seed);
    let n = replicas(ctx.tiny);
    let threads = ctx.threads;
    rep.set("replicas", n as f64);
    rep.set("par.threads", threads as f64);
    rep.set("setup_s", ctx.since_spawn());
    if ctx.trace {
        cr_obs::stage::set_enabled(true);
    }

    tr.enter("bench", "pass");
    let (fan_long, p1) = tr.time("par", "fan_out_standard", || {
        simulate_avg_in(threads, &sys, &strat, &long, n)
    });
    let (fan_short, p2) = tr.time("par", "fan_out_quick", || {
        simulate_avg_in(threads, &sys, &strat, &short, 10 * n)
    });
    tr.exit();
    rep.set("phase1_s", p1);
    rep.set("phase2_s", p2);
    rep.spans = tr.spans().to_vec();
    if ctx.trace {
        let snap = cr_obs::stage::snapshot();
        let engine = snap
            .iter()
            .find(|s| s.stage.name() == "engine")
            .expect("engine stage");
        rep.set("engine.stage_calls", engine.calls as f64);
        rep.set("engine.stage_s", engine.nanos as f64 / 1e9);
    }

    let long_fp = fingerprints(&fan_long.replicas);
    let short_fp = fingerprints(&fan_short.replicas);
    let mut h = Fnv::default();
    long_fp
        .iter()
        .chain(&short_fp)
        .for_each(|f| h.bytes(f.as_bytes()));
    rep.digest = h.hex();
    rep.check(
        long_fp.len() as u64 == n && short_fp.len() as u64 == 10 * n,
        || {
            format!(
                "fan-outs returned {} and {} replicas",
                long_fp.len(),
                short_fp.len()
            )
        },
    );
    for (name, fan) in [("standard", &fan_long), ("quick", &fan_short)] {
        let p = fan.progress_rate();
        rep.check(p > 0.0 && p < 1.0, || {
            format!("{name} pooled progress rate {p} outside (0, 1)")
        });
    }

    // One-thread reference, replica by replica (timed, outside the path).
    if ctx.pass == 0 || ctx.trace {
        for (opts, fps, name) in [(long, &long_fp, "standard"), (short, &short_fp, "quick")] {
            for (i, fp) in fps.iter().enumerate() {
                let o = SimOptions {
                    seed: opts.seed.wrapping_add(i as u64),
                    ..opts
                };
                let t = std::time::Instant::now();
                let r = run_engine(&sys, &strat, &o);
                if name == "standard" {
                    rep.sample("engine_replica_ms", t.elapsed().as_secs_f64() * 1e3);
                    rep.add("engine.failures", r.stats.failures as f64);
                }
                let mut hr = Fnv::default();
                fingerprint(&mut hr, &r);
                rep.check(hr.hex() == *fp, || {
                    format!("{name} replica {i}: {threads}-thread result differs from the 1-thread reference")
                });
            }
        }
    }
    if ctx.trace {
        // Event counts from the observed fleet entry point on a few of
        // the run's seeds; observation must not perturb the results.
        let probe = 2.min(n);
        let observed =
            run_fleet_observed_in(threads, &sys, &strat, &long, &SimFaults::default(), probe);
        let events: usize = observed.iter().map(|(_, ev)| ev.len()).sum();
        rep.set("engine.observed_replicas", probe as f64);
        rep.set("engine.observed_events", events as f64);
        for (i, ((r, _), fp)) in observed.iter().zip(&long_fp).enumerate() {
            let mut hr = Fnv::default();
            fingerprint(&mut hr, r);
            rep.check(hr.hex() == *fp, || {
                format!("observed replica {i} differs from the fan-out")
            });
        }
    }
    rep
}
