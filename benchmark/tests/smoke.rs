//! Every workload end to end at a small scale: the binary's output against
//! what `BENCHMARK.json` declares, the digest's repeatability, and proof that
//! the byte check can fail.

use std::process::Command;

use tap_bench::bench::{self, Config, END_TO_END, PER_LAYER};
use tap_bench::json::{self, Value};
use tap_bench::workloads::Workload;

fn benchmark_json() -> Value {
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
    json::parse(&std::fs::read_to_string(path).expect("BENCHMARK.json at the repo root"))
        .expect("valid JSON")
}

/// `(name, unit)` pairs of one of the metric lists in `BENCHMARK.json`.
fn declared(doc: &Value, list: &str) -> Vec<(String, String)> {
    doc.get(list)
        .expect("metric list")
        .as_arr()
        .iter()
        .map(|m| {
            let field = |k: &str| {
                m.get(k)
                    .and_then(Value::as_str)
                    .expect("string field")
                    .to_string()
            };
            (field("name"), field("unit"))
        })
        .collect()
}

fn small(workload: Workload, seed: u64, ops: u64, nodes: usize) -> Config {
    Config {
        ops: Some(ops),
        nodes,
        ..Config::new(workload, seed)
    }
}

#[test]
fn benchmark_json_declares_what_the_code_prints() {
    let doc = benchmark_json();
    let own = |list: &[(&str, &str)]| -> Vec<(String, String)> {
        list.iter()
            .map(|(n, u)| (n.to_string(), u.to_string()))
            .collect()
    };
    assert_eq!(declared(&doc, "end_to_end"), own(&END_TO_END));
    assert_eq!(declared(&doc, "per_layer"), own(&PER_LAYER));
    let names: Vec<&str> = doc
        .get("workloads")
        .expect("workloads")
        .as_arr()
        .iter()
        .map(|w| w.get("name").and_then(Value::as_str).expect("name"))
        .collect();
    assert_eq!(names, Workload::ALL.map(Workload::name));
    assert!(declared(&doc, "end_to_end")
        .iter()
        .any(|(n, u)| n == "setup_s" && u == "s"));
}

#[test]
fn every_workload_prints_every_declared_metric_and_no_other() {
    let doc = benchmark_json();
    for workload in Workload::ALL {
        for (trace, list) in [("0", "end_to_end"), ("1", "per_layer")] {
            let out = Command::new(env!("CARGO_BIN_EXE_tap-bench"))
                .args([
                    "--workload",
                    workload.name(),
                    "--seed",
                    "7",
                    "--seconds",
                    "1",
                ])
                .args(["--trace", trace, "--ops", "50", "--nodes", "300"])
                .output()
                .expect("tap-bench starts");
            assert!(
                out.status.success(),
                "{} --trace {trace}: {out:?}",
                workload.name()
            );
            let stdout = String::from_utf8(out.stdout).expect("utf-8 output");
            let last = stdout.lines().last().expect("a result line");
            let result = json::parse(last).expect("the last line is JSON");

            let keys: Vec<&str> = result.as_obj().iter().map(|(k, _)| k.as_str()).collect();
            assert_eq!(keys, ["correct", "attempted", "failed", "metrics"]);
            assert_eq!(result.get("correct"), Some(&Value::Bool(true)), "{stdout}");
            assert_eq!(result.get("attempted"), Some(&Value::Num(50.0)));
            assert_eq!(result.get("failed"), Some(&Value::Num(0.0)));

            let printed: Vec<(String, String)> = result
                .get("metrics")
                .expect("metrics")
                .as_obj()
                .iter()
                .map(|(name, m)| {
                    let value = m
                        .get("value")
                        .and_then(Value::as_f64)
                        .expect("numeric value");
                    assert!(value.is_finite(), "{name} = {value}");
                    assert!(
                        name.chars()
                            .all(|c| c.is_ascii_alphanumeric() || "_.-".contains(c)),
                        "metric name {name}"
                    );
                    (
                        name.clone(),
                        m.get("unit")
                            .and_then(Value::as_str)
                            .expect("unit")
                            .to_string(),
                    )
                })
                .collect();
            assert_eq!(
                printed,
                declared(&doc, list),
                "{} --trace {trace}",
                workload.name()
            );
        }
    }
}

#[test]
fn sim_digest_repeats_and_follows_the_seed() {
    for workload in Workload::ALL {
        let first = bench::run(&small(workload, 11, 200, 400));
        let again = bench::run(&small(workload, 11, 200, 400));
        let other = bench::run(&small(workload, 12, 200, 400));
        assert!(
            first.correct(),
            "{}: {:?}",
            workload.name(),
            first.first_error
        );
        assert_eq!(first.sim_digest, again.sim_digest, "{}", workload.name());
        assert_ne!(first.sim_digest, other.sim_digest, "{}", workload.name());
        // The simulated metrics are a function of the same ops.
        for name in [
            "virt_p50_ms",
            "virt_p99_ms",
            "wire_bytes_per_xfer",
            "delivered_frac",
        ] {
            assert_eq!(
                first.metric(name),
                again.metric(name),
                "{} {name}",
                workload.name()
            );
        }
    }
}

#[test]
fn tracing_does_not_change_what_is_simulated() {
    for workload in Workload::ALL {
        let plain = bench::run(&small(workload, 5, 100, 300));
        let traced = bench::run(&Config {
            trace: true,
            ..small(workload, 5, 100, 300)
        });
        assert!(
            traced.correct(),
            "{}: {:?}",
            workload.name(),
            traced.first_error
        );
        assert_eq!(plain.sim_digest, traced.sim_digest, "{}", workload.name());
        let coverage = traced.metric("trace.coverage_frac").expect("coverage");
        assert!(coverage > 0.9, "{}: coverage {coverage}", workload.name());
    }
}

#[test]
fn a_corrupted_expected_payload_is_reported_as_a_failure() {
    for workload in Workload::ALL {
        let result = bench::run(&Config {
            corrupt_op: Some(3),
            ..small(workload, 9, 10, 300)
        });
        assert_eq!(result.failed, 1, "{}", workload.name());
        assert!(!result.correct());
        assert_eq!(result.metric("delivered_frac"), Some(0.9));
        let error = result.first_error.expect("the failure is described");
        assert!(
            error.starts_with("op 3:") && error.contains("bytes differ"),
            "{error}"
        );
    }
}
