//! Determinism of the simulation plane under the work-stealing
//! executor: every thread count must produce bit-identical replica
//! results, observed event streams, and sweep outputs for a pinned
//! seed — parallelism is a pure performance change, never a semantic
//! one. The pinned-seed simulator indicators are held against the
//! checked-in `results/BENCH_sim_indicators.json`.

use ndp_checkpoint::cr_core::cache::{solve_cycle_cached, solve_cycle_many};
use ndp_checkpoint::cr_core::{analytic, ratio_opt};
use ndp_checkpoint::cr_obs::analyze::{diff_flat, flatten_numbers};
use ndp_checkpoint::cr_obs::json::{parse, Value};
use ndp_checkpoint::cr_sim::{
    run_fleet_observed_in, simulate_avg_in, SimFaults, SimOptions,
};
use ndp_checkpoint::prelude::*;

fn sys() -> SystemParams {
    SystemParams::exascale_default()
}

fn strat() -> Strategy {
    Strategy::local_io_ndp(0.85, Some(CompressionSpec::gzip1_ndp()))
}

#[test]
fn simulate_avg_is_bit_identical_across_thread_counts() {
    let opts = SimOptions::quick(42);
    let one = simulate_avg_in(1, &sys(), &strat(), &opts, 12);
    for threads in [2, 3, 8] {
        let many = simulate_avg_in(threads, &sys(), &strat(), &opts, 12);
        assert_eq!(
            one.pooled, many.pooled,
            "{threads}-thread pooled breakdown diverged"
        );
        assert_eq!(one.progress_rates, many.progress_rates);
        for (i, (a, b)) in
            one.replicas.iter().zip(&many.replicas).enumerate()
        {
            assert_eq!(a.breakdown, b.breakdown, "replica {i}");
            assert_eq!(a.stats, b.stats, "replica {i}");
        }
    }
}

#[test]
fn observed_fleet_streams_are_bit_identical_across_thread_counts() {
    let opts = SimOptions::quick(7);
    let faults = SimFaults {
        p_drain_error: 0.05,
        p_local_corrupt: 0.02,
        ..SimFaults::default()
    };
    let one = run_fleet_observed_in(1, &sys(), &strat(), &opts, &faults, 6);
    for threads in [2, 6] {
        let many = run_fleet_observed_in(
            threads,
            &sys(),
            &strat(),
            &opts,
            &faults,
            6,
        );
        assert_eq!(one.len(), many.len());
        for (i, ((ra, ea), (rb, eb))) in one.iter().zip(&many).enumerate() {
            assert_eq!(ra.breakdown, rb.breakdown, "replica {i} result");
            assert_eq!(ra.stats, rb.stats, "replica {i} stats");
            assert_eq!(ea, eb, "replica {i} event stream");
        }
    }
}

#[test]
fn cached_solver_is_bit_identical_to_direct_solver_in_sweeps() {
    // The memoized path feeding the ratio sweep must agree exactly with
    // the direct analytic solver for every grid point, hit or miss.
    let s = sys();
    let pairs: Vec<(SystemParams, Strategy)> = (1..=50)
        .map(|ratio| (s, Strategy::local_io_host(ratio, 0.8, None)))
        .collect();
    // Twice: first pass misses, second pass hits the cache.
    for pass in 0..2 {
        let batch = solve_cycle_many(&pairs);
        for ((sys_p, strat_p), got) in pairs.iter().zip(&batch) {
            let want = analytic::solve_cycle(sys_p, strat_p);
            assert_eq!(
                got.cycle_time.to_bits(),
                want.cycle_time.to_bits(),
                "pass {pass}"
            );
            assert_eq!(
                got.work_per_cycle.to_bits(),
                want.work_per_cycle.to_bits(),
                "pass {pass}"
            );
            let cached = solve_cycle_cached(sys_p, strat_p);
            assert_eq!(
                cached.progress_rate().to_bits(),
                want.progress_rate().to_bits(),
                "pass {pass}"
            );
        }
    }
}

#[test]
fn ratio_sweep_unchanged_by_memoized_batch_path() {
    // Figure 4's sweep now routes through solve_cycle_many; the result
    // must equal what per-point direct solves produce.
    let s = sys();
    let sweep = ratio_opt::host_overhead_sweep(&s, 0.8, None, 60);
    assert_eq!(sweep.len(), 60);
    for (ratio, breakdown) in &sweep {
        let strat = Strategy::local_io_host(*ratio, 0.8, None);
        let direct = analytic::solve_cycle(&s, &strat).breakdown;
        assert_eq!(breakdown, &direct, "ratio {ratio}");
    }
}

/// Recomputes the `bench_sim_indicators/v1` document: pinned-seed
/// progress and failure counts for the NDP, host and local-only
/// configurations, the analytic-vs-simulated NDP divergence, events per
/// observed replica, and whether a 2-thread fan-out reproduces the
/// 1-thread one bit for bit. Every value comes from simulated time and
/// event counts, never wall clock.
fn sim_indicators(seed: u64) -> Value {
    const REPLICAS: u64 = 8;
    let system = sys();
    let opts = SimOptions::quick(seed);
    let configs = [
        ("ndp", strat()),
        ("host", Strategy::local_io_host(12, 0.8, None)),
        ("local", Strategy::LocalOnly { interval: None }),
    ];
    let mut fields = Vec::new();
    let mut identical = true;
    let mut simulated = 0.0;
    for (name, config) in &configs {
        let one = simulate_avg_in(1, &system, config, &opts, REPLICAS);
        let two = simulate_avg_in(2, &system, config, &opts, REPLICAS);
        identical &= one.pooled == two.pooled
            && one.progress_rates == two.progress_rates;
        let failures: f64 =
            one.replicas.iter().map(|r| r.stats.failures as f64).sum();
        if *name == "ndp" {
            simulated = one.progress_rate();
        }
        fields.push((
            format!("sim_progress_{name}"),
            Value::Num(one.progress_rate()),
        ));
        fields.push((format!("sim_failures_{name}"), Value::Num(failures)));
    }
    let analytic = analytic::progress_rate(&system, &strat());
    fields.push(("analytic_progress_ndp".into(), Value::Num(analytic)));
    fields.push((
        "model_divergence_ndp".into(),
        Value::Num((simulated - analytic).abs() / analytic),
    ));
    let faults = SimFaults::default();
    let fleet =
        run_fleet_observed_in(1, &system, &strat(), &opts, &faults, REPLICAS);
    let fleet2 =
        run_fleet_observed_in(2, &system, &strat(), &opts, &faults, REPLICAS);
    identical &= fleet.iter().zip(&fleet2).all(|((ra, ea), (rb, eb))| {
        ra.breakdown == rb.breakdown && ra.stats == rb.stats && ea == eb
    });
    let events: u64 = fleet.iter().map(|(_, e)| e.len() as u64).sum();
    fields.push((
        "fleet_events_per_replica".into(),
        Value::Num((events / REPLICAS) as f64),
    ));
    fields.push((
        "threads_bit_identical".into(),
        Value::Num(if identical { 1.0 } else { 0.0 }),
    ));
    Value::Obj(vec![
        ("schema".into(), Value::Str("bench_sim_indicators/v1".into())),
        ("indicators".into(), Value::Obj(fields)),
    ])
}

#[test]
fn sim_indicators_match_checked_in_baseline() {
    let path = concat!(
        env!("CARGO_MANIFEST_DIR"),
        "/results/BENCH_sim_indicators.json"
    );
    let text = std::fs::read_to_string(path).expect("read baseline");
    let base = flatten_numbers(&parse(&text).expect("parse baseline"));
    let no_overrides = Default::default();

    let current = flatten_numbers(&sim_indicators(42));
    let report = diff_flat(&base, &current, 0.01, &no_overrides);
    assert_eq!(report.compared, 10, "{report:?}");
    assert!(report.ok(), "indicators drifted from baseline: {report:?}");
    assert_eq!(current["indicators.threads_bit_identical"], 1.0);

    // The gate has teeth: a different seed must trip it.
    let other = flatten_numbers(&sim_indicators(43));
    let report = diff_flat(&base, &other, 0.01, &no_overrides);
    assert!(!report.ok(), "seed 43 passed the seed-42 gate: {report:?}");
}
