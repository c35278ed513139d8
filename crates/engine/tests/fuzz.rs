//! Integration tests for `engine::fuzz`: the invariants hold over clean
//! seeds, reports are deterministic, replay reproduces a case exactly,
//! and the differential (sharded) path agrees with single-process.

use bittrans_engine::fuzz::{self, Differential, FuzzOptions, Invariant, Shape};
use bittrans_engine::report::normalize_run_shape;
use bittrans_engine::shard::{LocalTransport, Transport};
use std::path::PathBuf;

fn temp_dir(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("bittrans_fuzz_test_{}_{tag}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).unwrap();
    dir
}

#[test]
fn a_fuzz_run_is_clean() {
    let options = FuzzOptions { count: 8, seed: 1, workers: Some(2), ..Default::default() };
    let report = fuzz::run(&options);
    assert_eq!(report.count, 8);
    assert_eq!(report.cells, 8 * 24, "4 latencies x 3 adders x 2 balance per case");
    assert!(report.feasible > 0);
    // All four shapes appear over 8 consecutive seeds.
    assert!(report.shapes.iter().all(|&(_, n)| n == 2));
    assert_eq!(report.total_violations(), 0, "{}", report.render_text());
    // The spec against itself plus at least one fragmentation per case.
    assert!(report.checks.iter().any(|&(i, n)| i == Invariant::CompiledInterpreted && n >= 16));
}

#[test]
fn reports_are_deterministic_modulo_elapsed() {
    let options = FuzzOptions { count: 6, seed: 40, workers: Some(2), ..Default::default() };
    let a = normalize_run_shape(&fuzz::run(&options).to_json());
    let b = normalize_run_shape(&fuzz::run(&options).to_json());
    assert_eq!(a, b);
}

#[test]
fn replay_reproduces_a_case() {
    let options = FuzzOptions { count: 1, seed: 11, workers: Some(2), ..Default::default() };
    let first = fuzz::run_case(11, &options);
    let again = fuzz::run_case(11, &options);
    assert_eq!(first.cells, again.cells);
    assert_eq!(first.feasible, again.feasible);
    assert_eq!(first.violations.len(), again.violations.len());
    assert_eq!(first.shape, Shape::of(11));
}

#[test]
fn shapes_are_a_pure_function_of_the_seed() {
    assert_eq!(Shape::of(0), Shape::Wide);
    assert_eq!(Shape::of(1), Shape::Deep);
    assert_eq!(Shape::of(2), Shape::MulHeavy);
    assert_eq!(Shape::of(3), Shape::Degenerate);
    assert_eq!(Shape::of(7), Shape::of(3));
}

#[test]
fn mul_prob_override_reaches_the_generator() {
    // Forcing muls everywhere still fuzzes clean on a few seeds.
    let options = FuzzOptions {
        count: 4,
        seed: 2,
        mul_prob: Some(1.0),
        workers: Some(2),
        ..Default::default()
    };
    let report = fuzz::run(&options);
    assert_eq!(report.mul_prob, Some(1.0));
    assert_eq!(report.total_violations(), 0, "{}", report.render_text());
}

/// The differential path with a worker binary that dies instantly: every
/// shard fails, the coordinator recomputes in-process, and the report
/// must still normalize byte-identical to single-process — the exact
/// recovery contract `run_sharded` documents.
#[test]
fn differential_agrees_even_when_workers_die() {
    let dir = temp_dir("diff");
    let options = FuzzOptions {
        count: 4,
        seed: 20,
        workers: Some(2),
        differential: Some(Differential {
            cache_dir: dir.clone(),
            shards: 2,
            transport: Transport::Local(LocalTransport {
                worker_binary: PathBuf::from("false"),
                threads_per_worker: Some(1),
            }),
        }),
        ..Default::default()
    };
    let report = fuzz::run(&options);
    assert_eq!(report.total_violations(), 0, "{}", report.render_text());
    assert!(report.checks.iter().any(|&(i, n)| i == Invariant::ShardIdentity && n == 4));
    let _ = std::fs::remove_dir_all(&dir);
}

/// Fuzzer-found regression (replay seed 32 of `fuzz --seed 31 --count 8`
/// against a serve fleet): `cache_entries` used to count the *whole*
/// result store, so two identical runs of one grid — one on a fresh
/// store, one on a store shared with earlier studies — could never
/// byte-compare even though every cell and hit/miss count agreed. It now
/// counts the batch's distinct keys, so the raw values agree, and
/// `report normalize` still blanks it like the other run-shape fields.
#[test]
fn normalized_reports_ignore_foreign_store_entries() {
    use bittrans_engine::{Engine, Study};

    let fresh = temp_dir("fresh_store");
    let shared = temp_dir("shared_store");
    let spec = |seed: u64| {
        bittrans_benchmarks::random_spec(seed, &bittrans_benchmarks::RandomSpecOptions::default())
    };
    // Populate the shared store with an unrelated study's entries.
    let warmup = Study::single(spec(90)).latencies([3, 4]);
    warmup.run(&Engine::default().with_cache_dir(&shared).unwrap());

    let study = Study::single(spec(91)).latencies([3, 4]).balance_both();
    let a = study.run(&Engine::default().with_cache_dir(&fresh).unwrap());
    let b = study.run(&Engine::default().with_cache_dir(&shared).unwrap());
    assert_eq!(
        a.stats.cache_entries, b.stats.cache_entries,
        "entries count the grid's distinct keys, not the store"
    );
    assert_eq!(
        normalize_run_shape(&a.to_json()),
        normalize_run_shape(&b.to_json()),
        "identical grids over differently-populated stores must normalize identically"
    );
    let _ = std::fs::remove_dir_all(&fresh);
    let _ = std::fs::remove_dir_all(&shared);
}

#[test]
fn the_json_document_is_well_formed() {
    let options = FuzzOptions { count: 2, seed: 0, workers: Some(2), ..Default::default() };
    let doc = fuzz::run(&options).to_json();
    let value = serde_json::from_str(&doc).expect("fuzz document parses");
    assert_eq!(value.get("schema").and_then(|v| v.as_str()), Some("bittrans-fuzz-v1"));
    assert_eq!(value.get("count").and_then(|v| v.as_u64()), Some(2));
    let violations = value.get("violations").unwrap();
    assert_eq!(violations.get("total").and_then(|v| v.as_u64()), Some(0));
    for key in [
        "adder_equivalence",
        "latency_monotonic",
        "staged_identity",
        "shard_identity",
        "compiled_interpreted",
    ] {
        assert!(violations.get(key).is_some(), "missing violations.{key}");
    }
    assert!(value.get("elapsed_ms").is_some());
}
