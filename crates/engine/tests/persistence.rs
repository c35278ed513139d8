//! Cross-process cache persistence: two engines sharing a cache directory
//! model two CLI/CI invocations — the second must be served from disk with
//! bit-identical results, and duplicate/infeasible jobs must keep their
//! accounting semantics along the way. Finished jobs live in the one
//! store, `stages/`, as `<JobKey>.stage` files behind a
//! `bittrans-stage 2 job ok` envelope.

use bittrans_core::CompareOptions;
use bittrans_engine::{Engine, EngineOptions, Job, PrunePolicy, Study};
use bittrans_ir::Spec;
use std::path::{Path, PathBuf};

fn three_adds() -> Spec {
    Spec::parse(
        "spec ex { input A: u16; input B: u16; input D: u16; input F: u16;
          C: u16 = A + B; E: u16 = C + D; G: u16 = E + F; output G; }",
    )
    .unwrap()
}

fn temp_dir(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("bittrans_engine_{tag}_{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    dir
}

const JOB_ENVELOPE: &str = "bittrans-stage 2 job ok\n";

/// The job files of a cache dir's store, sorted by name.
fn job_files(dir: &Path) -> Vec<PathBuf> {
    let Ok(entries) = std::fs::read_dir(dir.join("stages")) else { return Vec::new() };
    let mut files: Vec<PathBuf> = entries
        .map(|e| e.unwrap().path())
        .filter(|p| std::fs::read_to_string(p).is_ok_and(|t| t.starts_with(JOB_ENVELOPE)))
        .collect();
    files.sort();
    files
}

#[test]
fn warm_cache_dir_serves_a_fresh_engine_entirely_from_disk() {
    let dir = temp_dir("warm");
    let spec = three_adds();
    let study = Study::single(spec).latencies(2..=5).verify_vectors([0]);

    // First "process": cold cache, all misses, job files spilled to disk.
    let cold = Engine::default().with_cache_dir(&dir).unwrap();
    let first = study.run(&cold);
    assert_eq!(first.stats.cache_misses, 4);
    assert_eq!(job_files(&dir).len(), 4);
    // The store is the only thing the run wrote: no manifest, nothing at
    // the top level besides `stages/`.
    let top: Vec<_> = std::fs::read_dir(&dir).unwrap().map(|e| e.unwrap().file_name()).collect();
    assert_eq!(top, vec!["stages"]);

    // Second "process": a fresh engine reads the directory lazily and
    // reports a 100 % hit rate with bit-identical results, running no
    // stage at all.
    let warm = Engine::default().with_cache_dir(&dir).unwrap();
    let second = study.run(&warm);
    assert_eq!(second.stats.cache_hits, 4);
    assert_eq!(second.stats.cache_misses, 0);
    assert_eq!(second.stats.hit_rate(), 100.0);
    assert_eq!(second.stats.stage_hits + second.stats.stage_misses, 0);
    for (a, b) in first.cells.iter().zip(&second.cells) {
        assert!(b.from_cache);
        let (ca, cb) = (a.comparison().unwrap(), b.comparison().unwrap());
        assert_eq!(serde_json::to_string(ca).unwrap(), serde_json::to_string(cb).unwrap());
    }
}

#[test]
fn errors_are_not_persisted_but_successes_are() {
    let dir = temp_dir("errors");
    let spec = three_adds();
    let engine = Engine::default().with_cache_dir(&dir).unwrap();
    let report = engine.run(vec![Job::new(spec.clone(), 0), Job::new(spec, 3)]);
    assert!(report.outcomes[0].result.is_err());
    assert!(report.outcomes[1].result.is_ok());
    // Only the feasible job reached the directory.
    assert_eq!(job_files(&dir).len(), 1);

    // A fresh engine re-pays the error (miss) but not the success (hit).
    let engine = Engine::default().with_cache_dir(&dir).unwrap();
    let report = engine.run(vec![
        Job::new(three_adds(), 0),
        Job::new(three_adds(), 3),
        Job::new(three_adds(), 3),
    ]);
    assert_eq!(report.stats.cache_misses, 1);
    // One hit from disk plus one in-batch duplicate hit.
    assert_eq!(report.stats.cache_hits, 2);
    assert_eq!(report.stats.cache_entries, 2, "two distinct keys in the batch");
}

#[test]
fn corrupt_entries_are_recomputed_and_repaired() {
    let dir = temp_dir("repair");
    let spec = three_adds();
    let jobs = vec![Job::new(spec, 3)];
    let engine = Engine::default().with_cache_dir(&dir).unwrap();
    engine.run(jobs.clone());
    let entry = dir.join("stages").join(format!("{}.stage", jobs[0].key()));
    assert_eq!(job_files(&dir), vec![entry.clone()]);

    for garbage in ["definitely not a stage file", "bittrans-stage 2 job ok\ngarbage body\n"] {
        std::fs::write(&entry, garbage).unwrap();
        let engine = Engine::default().with_cache_dir(&dir).unwrap();
        let report = engine.run(jobs.clone());
        // The damaged entry is invisible: recomputed as a miss, from the
        // intact stage files...
        assert_eq!(report.stats.cache_misses, 1, "{garbage:?}");
        assert_eq!(report.stats.stage_misses, 0, "{garbage:?}");
        assert!(report.outcomes[0].result.is_ok());
        // ...and the spill has overwritten it with a valid entry again.
        let text = std::fs::read_to_string(&entry).unwrap();
        assert!(text.starts_with(JOB_ENVELOPE), "{text}");
    }
}

#[test]
fn disabled_cache_never_touches_the_directory() {
    let dir = temp_dir("disabled");
    let engine = Engine::new(EngineOptions { cache: false, ..Default::default() })
        .with_cache_dir(&dir)
        .unwrap();
    engine.run(vec![Job::new(three_adds(), 3)]);
    assert_eq!(std::fs::read_dir(&dir).unwrap().count(), 0);
    assert!(!engine.has_cache_dir());
}

/// The directory layout of builds before the one store: a JSON file per
/// finished job plus an `index.json` manifest at the top level, stage
/// artifacts under `stages/`. The top-level files are never read, so
/// every job resolves from its stage artifacts — and neither a run nor a
/// prune touches them.
#[test]
fn a_legacy_layout_resolves_from_stage_artifacts_and_keeps_its_top_level_files() {
    let dir = temp_dir("legacy");
    let study = Study::single(three_adds()).latencies(2..=4);
    let first = study.run(&Engine::default().with_cache_dir(&dir).unwrap());
    // Rewrite the store into the previous layout: job files move to the
    // top level as JSON, with a manifest beside them.
    for path in job_files(&dir) {
        std::fs::remove_file(path).unwrap();
    }
    let mut legacy = vec![dir.join("index.json")];
    let mut index = String::from("{\"schema\": 1, \"entries\": [");
    for (i, cell) in first.cells.iter().enumerate() {
        let path = dir.join(format!("{}.json", cell.key));
        std::fs::write(&path, serde_json::to_string(cell.comparison().unwrap()).unwrap()).unwrap();
        legacy.push(path);
        let sep = if i > 0 { ", " } else { "" };
        index.push_str(&format!(
            "{sep}{{\"key\": \"{}\", \"file\": \"{}.json\"}}",
            cell.key, cell.key
        ));
    }
    index.push_str("]}");
    std::fs::write(&legacy[0], index).unwrap();
    let snapshot = |paths: &[PathBuf]| -> Vec<(Vec<u8>, std::time::SystemTime)> {
        paths
            .iter()
            .map(|p| (std::fs::read(p).unwrap(), std::fs::metadata(p).unwrap().modified().unwrap()))
            .collect()
    };
    let before = snapshot(&legacy);

    let engine = Engine::default().with_cache_dir(&dir).unwrap();
    let again = study.run(&engine);
    assert_eq!(again.stats.cache_misses, 3, "legacy JSON job files are not read");
    assert_eq!(again.stats.stage_misses, 0, "every stage resolves from its artifact");
    assert!(again.stats.stage_hits > 0);
    assert_eq!(again.normalized().to_json(), first.normalized().to_json());
    assert_eq!(job_files(&dir).len(), 3, "the run respilled its jobs into the store");

    let report = Engine::default()
        .with_cache_dir(&dir)
        .unwrap()
        .prune_cache(PrunePolicy { max_bytes: Some(0), max_age: None })
        .unwrap();
    assert_eq!(report.kept, 0);
    assert_eq!(snapshot(&legacy), before, "run and prune leave the top-level files alone");
}

#[test]
fn a_plain_engine_keeps_finished_jobs_in_memory() {
    // A plain engine keeps finished jobs in memory: a second batch is
    // all hits, and the lifetime snapshot counts the resident results.
    let engine = Engine::default();
    let options = CompareOptions { verify_vectors: 0, ..Default::default() };
    let jobs: Vec<Job> = (2..=4).map(|l| Job::with_options(three_adds(), l, options)).collect();
    engine.run(jobs.clone());
    let again = engine.run(jobs);
    assert_eq!(again.stats.cache_hits, 3);
    assert_eq!(engine.stats().cache_entries, 3);
    assert!(!engine.has_cache_dir());
}
