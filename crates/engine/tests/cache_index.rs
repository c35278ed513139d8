//! The cache directory's store (`stages/`) and its eviction sweep, tested
//! through the public `Engine` API:
//!
//! * opening a directory is **lazy** — a job file is only parsed when a
//!   batch actually asks for its key;
//! * `Engine::prune_cache` evicts by size/age over every file of the
//!   store, finished jobs and stage artifacts alike, and never touches
//!   files pinned by the live run.

use bittrans_core::CompareOptions;
use bittrans_engine::{Engine, Job, PrunePolicy, Study};
use bittrans_ir::Spec;
use std::path::{Path, PathBuf};

fn three_adds() -> Spec {
    Spec::parse(
        "spec ex { input A: u16; input B: u16; input D: u16; input F: u16;
          C: u16 = A + B; E: u16 = C + D; G: u16 = E + F; output G; }",
    )
    .unwrap()
}

/// The job a `populate`d study ran at `latency` (same options as the
/// study's cells, so the content keys agree).
fn populated_job(latency: u32) -> Job {
    Job::with_options(
        three_adds(),
        latency,
        CompareOptions { verify_vectors: 0, ..Default::default() },
    )
}

fn temp_dir(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("bittrans_index_{tag}_{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    dir
}

/// Every file of the store (what a prune scans), sorted by name.
fn store_files(dir: &Path) -> Vec<PathBuf> {
    let mut files: Vec<PathBuf> = std::fs::read_dir(dir.join("stages"))
        .unwrap()
        .map(|e| e.unwrap().path())
        .filter(|p| p.file_name().is_some_and(|n| !n.to_string_lossy().starts_with('.')))
        .collect();
    files.sort();
    files
}

/// The job file `job` persists to.
fn job_file(dir: &Path, job: &Job) -> PathBuf {
    dir.join("stages").join(format!("{}.stage", job.key()))
}

fn populate(dir: &Path, latencies: std::ops::RangeInclusive<u32>) -> usize {
    let engine = Engine::default().with_cache_dir(dir).unwrap();
    let report = Study::single(three_adds()).latencies(latencies).verify_vectors([0]).run(&engine);
    report.cells.len()
}

#[test]
fn a_run_writes_one_job_file_per_distinct_cell() {
    let dir = temp_dir("written");
    let cells = populate(&dir, 2..=5);
    for latency in 2..=5 {
        let text = std::fs::read_to_string(job_file(&dir, &populated_job(latency))).unwrap();
        assert!(text.starts_with("bittrans-stage 2 job ok\n"), "{text}");
    }
    // Besides the jobs, the store holds the stages they ran.
    assert!(store_files(&dir).len() > cells);
}

#[test]
fn entries_load_lazily_not_at_open() {
    let dir = temp_dir("lazy");
    populate(&dir, 2..=5);
    // Corrupt the λ=2 job file (same size, same name) — if opening
    // parsed every file, the corruption would be noticed and repaired up
    // front.
    let victim = job_file(&dir, &populated_job(2));
    let size = std::fs::metadata(&victim).unwrap().len() as usize;
    std::fs::write(&victim, " ".repeat(size)).unwrap();

    // A fresh engine opens the directory and serves *other* keys without
    // ever reading the corrupt file.
    let engine = Engine::default().with_cache_dir(&dir).unwrap();
    let report = Study::single(three_adds()).latencies(3..=5).verify_vectors([0]).run(&engine);
    assert_eq!(report.stats.cache_hits, 3);
    let untouched = std::fs::read_to_string(&victim).unwrap();
    assert!(untouched.chars().all(|c| c == ' '), "lazy open must not have repaired the file");

    // Asking for every key finally trips over the corruption: exactly one
    // job recomputation, from intact stage files, and the respill repairs
    // the file.
    let engine = Engine::default().with_cache_dir(&dir).unwrap();
    let report = Study::single(three_adds()).latencies(2..=5).verify_vectors([0]).run(&engine);
    assert_eq!(report.stats.cache_misses, 1);
    assert_eq!(report.stats.cache_hits, 3);
    assert_eq!(report.stats.stage_misses, 0);
    assert!(std::fs::read_to_string(&victim).unwrap().starts_with("bittrans-stage 2 job ok\n"));
}

#[test]
fn prune_never_touches_entries_pinned_by_a_live_run() {
    let dir = temp_dir("pinned");
    populate(&dir, 2..=5);
    let scanned = store_files(&dir).len();

    // A live engine whose memo holds two of the four results.
    let live = Engine::default().with_cache_dir(&dir).unwrap();
    live.run(vec![populated_job(2), populated_job(3)]);

    // An impossible budget: everything unpinned goes, the live run's two
    // job files survive.
    let report = live.prune_cache(PrunePolicy { max_bytes: Some(0), max_age: None }).unwrap();
    assert_eq!(report.scanned, scanned);
    assert_eq!(report.removed, scanned - 2);
    assert_eq!(report.pinned, 2);
    assert_eq!(report.kept, 2);
    let mut expected = vec![job_file(&dir, &populated_job(2)), job_file(&dir, &populated_job(3))];
    expected.sort();
    assert_eq!(store_files(&dir), expected);

    // The surviving files are exactly the live run's keys.
    let warm = Engine::default().with_cache_dir(&dir).unwrap();
    let batch = warm.run(vec![populated_job(2), populated_job(3)]);
    assert_eq!(batch.stats.cache_hits, 2);
}

#[test]
fn prune_with_no_live_run_can_empty_the_directory() {
    let dir = temp_dir("empty");
    populate(&dir, 2..=5);
    let scanned = store_files(&dir).len();
    let engine = Engine::default().with_cache_dir(&dir).unwrap();
    // Nothing resident in memory: nothing is pinned.
    let report = engine.prune_cache(PrunePolicy { max_bytes: Some(0), max_age: None }).unwrap();
    assert_eq!(report.scanned, scanned);
    assert_eq!(report.removed, scanned);
    assert_eq!(report.kept, 0);
    assert_eq!(report.kept_bytes, 0);
    assert_eq!(report.pinned, 0);
    assert!(store_files(&dir).is_empty());
    // The default policy is a no-op.
    let report = engine.prune_cache(PrunePolicy::default()).unwrap();
    assert_eq!(report.removed, 0);
}

#[test]
fn prune_requires_an_attached_directory() {
    let engine = Engine::default();
    assert!(engine.prune_cache(PrunePolicy::default()).is_err());
}

#[test]
fn fresh_entries_survive_an_age_bound() {
    let dir = temp_dir("age");
    populate(&dir, 2..=4);
    let scanned = store_files(&dir).len();
    let engine = Engine::default().with_cache_dir(&dir).unwrap();
    // Everything was written milliseconds ago: a one-hour bound keeps all.
    let policy =
        PrunePolicy { max_age: Some(std::time::Duration::from_secs(3600)), max_bytes: None };
    let report = engine.prune_cache(policy).unwrap();
    assert_eq!(report.removed, 0);
    assert_eq!(report.kept, scanned);
    assert_eq!(store_files(&dir).len(), scanned);
}
