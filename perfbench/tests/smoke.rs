//! Smoke tests: a tiny run of every workload, untraced and traced, must
//! print every metric `BENCHMARK.json` names, with its unit, and answer
//! every cell correctly; the circuit-quality metrics must repeat exactly.

use serde_json::Value;
use std::path::PathBuf;
use std::process::Command;

const WORKLOADS: [&str; 4] = ["paper-verify", "random-alloc", "serve-mixed", "warm-restart"];

fn manifest() -> Value {
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
    let text = std::fs::read_to_string(path).expect("BENCHMARK.json is readable");
    serde_json::from_str(&text).expect("BENCHMARK.json parses")
}

/// Runs one tiny workload in a scratch directory; returns its last line.
fn run(workload: &str, seed: u64, trace: bool) -> Value {
    run_with_info(workload, seed, trace).1
}

/// Runs one tiny workload in a scratch directory; returns the fields of
/// its info line and its last line.
fn run_with_info(workload: &str, seed: u64, trace: bool) -> (Value, Value) {
    let cwd: PathBuf = [env!("CARGO_TARGET_TMPDIR"), "smoke", workload].iter().collect();
    std::fs::create_dir_all(&cwd).expect("scratch directory");
    let out = Command::new(env!("CARGO_BIN_EXE_bittrans-perfbench"))
        .args(["--workload", workload, "--seed", &seed.to_string(), "--seconds", "1"])
        .args(["--trace", if trace { "1" } else { "0" }, "--size", "tiny"])
        .current_dir(&cwd)
        .output()
        .expect("the harness runs");
    let stdout = String::from_utf8(out.stdout).expect("utf-8 output");
    assert!(out.status.success(), "{workload}: exit {:?}\n{stdout}", out.status);
    let lines: Vec<&str> = stdout.lines().collect();
    let [.., info, last] = lines[..] else { panic!("{workload}: no info and result lines") };
    let info: Value = serde_json::from_str(info).expect("the info line is JSON");
    let info = info.get("info").cloned().expect("an info object");
    (info, serde_json::from_str(last).expect("the result line is JSON"))
}

fn metric(result: &Value, name: &str) -> (f64, String) {
    let m = result.get("metrics").and_then(|m| m.get(name)).unwrap_or_else(|| {
        panic!("metric {name} missing");
    });
    let value = m.get("value").and_then(Value::as_f64).expect("numeric value");
    let unit = m.get("unit").and_then(Value::as_str).expect("unit").to_string();
    (value, unit)
}

fn check_metrics(result: &Value, listed: &Value, workload: &str) {
    assert_eq!(result.get("correct").and_then(Value::as_bool), Some(true), "{workload}");
    assert_eq!(result.get("failed").and_then(Value::as_u64), Some(0), "{workload}");
    assert!(result.get("attempted").and_then(Value::as_u64).unwrap_or(0) > 0, "{workload}");
    let listed = listed.as_array().expect("metric list");
    let printed = match result.get("metrics") {
        Some(Value::Object(fields)) => fields.len(),
        _ => panic!("{workload}: no metrics object"),
    };
    assert_eq!(printed, listed.len(), "{workload}: exactly the listed metrics");
    for entry in listed {
        let name = entry.get("name").and_then(Value::as_str).expect("metric name");
        let unit = entry.get("unit").and_then(Value::as_str).expect("metric unit");
        let (value, got_unit) = metric(result, name);
        assert_eq!(got_unit, unit, "{workload} {name}");
        assert!(value.is_finite(), "{workload} {name}");
    }
}

/// Runs at the default seed, so the answers are also checked against the
/// committed reference: at tiny size the random grid is specs 0..8 of
/// seed 1, all pinned by expected.txt, and so is serve-mixed's read pool;
/// only serve-mixed's writes (new specs, 2 cells each) are computed.
#[test]
fn every_workload_prints_every_end_to_end_metric() {
    let listed = manifest().get("end_to_end").cloned().expect("end_to_end");
    for workload in WORKLOADS {
        let (info, result) = run_with_info(workload, 1, false);
        check_metrics(&result, &listed, workload);
        for entry in listed.as_array().expect("metric list") {
            let name = entry.get("name").and_then(Value::as_str).expect("name");
            assert!(metric(&result, name).0 != 0.0, "{workload} {name} reads 0");
        }
        let count = |key: &str| info.get(key).and_then(Value::as_f64).expect(key);
        assert!(count("reference_pinned_cells") > 0.0, "{workload}: nothing pinned");
        let computed = if workload == "serve-mixed" { 2.0 * count("writes") } else { 0.0 };
        assert_eq!(count("reference_computed_cells"), computed, "{workload}");
    }
}

#[test]
fn every_workload_prints_every_per_layer_metric() {
    let listed = manifest().get("per_layer").cloned().expect("per_layer");
    for workload in WORKLOADS {
        check_metrics(&run(workload, 3, true), &listed, workload);
    }
}

#[test]
fn circuit_quality_metrics_repeat_exactly() {
    for workload in ["paper-verify", "random-alloc", "serve-mixed"] {
        let first = run(workload, 5, false);
        let second = run(workload, 5, false);
        for name in ["cycle_saved_pct", "area_delta_pct"] {
            assert_eq!(metric(&first, name), metric(&second, name), "{workload} {name}");
        }
    }
}
