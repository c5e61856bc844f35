//! Self-test: every workload runs at a tiny size and emits every metric
//! with its unit; the output checks trip on a tampered remote object;
//! `BENCHMARK.json` matches the metric definitions.

use std::process::Command;

use cr_obs::json::{parse, Value};
use perfbench::metrics::{reconcile, Metric, END_TO_END, PER_LAYER};
use perfbench::{Ctx, Workload};

fn bench(args: &[&str]) -> (i32, String) {
    let out = Command::new(env!("CARGO_BIN_EXE_perfbench"))
        .args(args)
        .output()
        .expect("benchmark binary runs");
    (
        out.status.code().unwrap_or(-1),
        String::from_utf8_lossy(&out.stdout).into_owned(),
    )
}

fn tiny(w: Workload, trace: &str, extra: &[&str]) -> (i32, String) {
    let mut args = vec![
        "--workload",
        w.name(),
        "--seed",
        "7",
        "--seconds",
        "0",
        "--trace",
        trace,
        "--tiny",
    ];
    args.extend_from_slice(extra);
    bench(&args)
}

/// The result object on the last stdout line.
fn result(stdout: &str) -> Value {
    parse(
        stdout
            .trim_end()
            .lines()
            .last()
            .expect("benchmark printed something"),
    )
    .expect("last line is JSON")
}

/// The JSON object after `record ` on the record line.
fn record(stdout: &str) -> Value {
    let line = stdout
        .lines()
        .find_map(|l| l.strip_prefix("record "))
        .expect("record line");
    parse(line).expect("record is JSON")
}

/// Value of `metrics[name]` if it carries the given unit.
fn metric(metrics: &Value, name: &str, unit: &str) -> Option<f64> {
    let m = metrics.get(name)?;
    (m.get("unit")?.as_str()? == unit).then_some(())?;
    m.get("value")?.as_f64()
}

#[test]
fn every_workload_emits_every_metric_with_its_unit() {
    for w in Workload::ALL {
        let (code, out) = tiny(w, "0", &[]);
        assert_eq!(code, 0, "{} untraced failed:\n{out}", w.name());
        let res = result(&out);
        assert_eq!(res.get("correct"), Some(&Value::Bool(true)), "{out}");
        let metrics = res.get("metrics").expect("metrics");
        assert_eq!(metrics.as_obj().map(<[_]>::len), Some(END_TO_END.len()));
        for m in END_TO_END {
            let v = metric(metrics, m.name, m.unit);
            assert!(
                v.is_some_and(|v| v > 0.0),
                "{}: {} missing or 0 in {out}",
                w.name(),
                m.name
            );
        }
        let rec = record(&out);
        assert_eq!(rec.get("error_rate").and_then(Value::as_f64), Some(0.0));
        assert_eq!(rec.get("seed").and_then(Value::as_f64), Some(7.0));
        let machine = rec.get("machine").expect("machine facts");
        for fact in [
            "nproc",
            "cpu_speedup_at_nproc",
            "rustc",
            "commit",
            "source_digest",
        ] {
            assert!(machine.get(fact).is_some(), "{fact} missing in the record");
        }
        let figures: &[(&str, &str)] = match w {
            Workload::NodeCycle => &[
                ("commit_ms_p50", "ms"),
                ("commit_ms_p90", "ms"),
                ("to_durable_ms_p50", "ms"),
                ("to_durable_ms_p90", "ms"),
                ("durable_mb_s", "MB/s"),
                ("restore_remote_ms_p50", "ms"),
                ("restore_remote_ms_p90", "ms"),
                ("restore_local_ms_p50", "ms"),
            ],
            Workload::Fleet => &[("fleet_replicas_s", "replicas/s")],
            Workload::PaperSweep => &[("sweep_s", "s")],
        };
        let figs = rec.get("figures").expect("figures");
        for (name, unit) in figures {
            assert!(
                metric(figs, name, unit).is_some(),
                "{}: {name} missing in the record",
                w.name()
            );
            assert!(
                figs.get(name).and_then(|f| f.get("n")).is_some(),
                "{name} has no sample count"
            );
        }

        let (code, out) = tiny(w, "1", &[]);
        assert_eq!(code, 0, "{} traced failed:\n{out}", w.name());
        let res = result(&out);
        let metrics = res.get("metrics").expect("metrics");
        assert_eq!(metrics.as_obj().map(<[_]>::len), Some(PER_LAYER.len()));
        for m in PER_LAYER {
            assert!(
                metric(metrics, m.name, m.unit).is_some(),
                "{}: {} missing in {out}",
                w.name(),
                m.name
            );
        }
    }
}

#[test]
fn tampered_remote_object_raises_the_error_rate() {
    let (code, out) = tiny(Workload::NodeCycle, "0", &["--tamper"]);
    assert_eq!(code, 1, "{out}");
    let res = result(&out);
    assert_eq!(res.get("correct"), Some(&Value::Bool(false)));
    assert!(res
        .get("failed")
        .and_then(Value::as_f64)
        .is_some_and(|f| f > 0.0));
    assert!(record(&out)
        .get("error_rate")
        .and_then(Value::as_f64)
        .is_some_and(|e| e > 0.0));
    assert!(out.contains("want RemoteIo"), "{out}");
}

#[test]
fn bad_arguments_exit_nonzero_without_a_result() {
    let (code, out) = bench(&[
        "--workload",
        "nope",
        "--seed",
        "1",
        "--seconds",
        "1",
        "--trace",
        "0",
    ]);
    assert_eq!(code, 2);
    assert!(out.is_empty());
}

#[test]
fn verify_bytes_agree_with_a_hand_count_and_spans_reconcile() {
    let rep = Workload::NodeCycle.run_pass(&Ctx::new(Workload::NodeCycle, 11, true, true));
    assert!(rep.fails.is_empty(), "{:?}", rep.fails);
    assert!(rep.get("integrity.verify_bytes") > 0.0);
    assert_eq!(
        rep.get("integrity.verify_bytes"),
        rep.get("integrity.hand_verify_bytes")
    );
    reconcile(&rep).expect("node_cycle spans reconcile");
    for w in [Workload::Fleet, Workload::PaperSweep] {
        let rep = w.run_pass(&Ctx::new(w, 11, true, true));
        assert!(rep.fails.is_empty(), "{}: {:?}", w.name(), rep.fails);
        reconcile(&rep).unwrap_or_else(|e| panic!("{}: {e}", w.name()));
    }
}

#[test]
fn benchmark_json_matches_the_metric_definitions() {
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
    let doc = parse(&std::fs::read_to_string(path).expect("BENCHMARK.json")).expect("valid JSON");
    let list = |key: &str| {
        doc.get(key)
            .and_then(Value::as_arr)
            .unwrap_or_else(|| panic!("{key} missing"))
            .to_vec()
    };
    let field = |v: &Value, k: &str| {
        v.get(k)
            .and_then(Value::as_str)
            .unwrap_or_default()
            .to_string()
    };
    let same = |key: &str, defs: &[Metric]| {
        let listed: Vec<(String, String, String)> = list(key)
            .iter()
            .map(|v| (field(v, "name"), field(v, "unit"), field(v, "better")))
            .collect();
        let defined: Vec<(String, String, String)> = defs
            .iter()
            .map(|m| (m.name.into(), m.unit.into(), m.better.into()))
            .collect();
        assert_eq!(listed, defined, "{key}");
    };
    same("end_to_end", END_TO_END);
    same("per_layer", PER_LAYER);
    // `fleet` runs but is not listed: on a shared 2-vCPU host its spread
    // comes too close to the largest bound (see README.md).
    let workloads: Vec<String> = list("workloads").iter().map(|v| field(v, "name")).collect();
    assert_eq!(workloads, ["node_cycle", "paper_sweep"]);
}
