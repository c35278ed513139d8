//! The sharding protocol, tested hermetically (no real `bittrans` binary):
//!
//! * **partitioning is total and disjoint** — property tests over random
//!   job lists and shard counts: every key lands in exactly one shard and
//!   the union of the shards is the input;
//! * **the coordinator survives dead and lying children** — with a worker
//!   binary that exits nonzero (`false`) or exits zero without announcing
//!   an address (`true`), over an empty, warm, partial or corrupted store
//!   (filled in-process from [`shard_slice`]), the assembled report is
//!   bit-identical to the single-process run.

use bittrans_core::CompareOptions;
use bittrans_engine::shard::{
    partition, run_sharded, shard_slice, LocalTransport, ShardOptions, ShardedStudy, Transport,
};
use bittrans_engine::{Engine, JobKey, StudyReport};
use bittrans_rtl::AdderArch;
use proptest::prelude::*;
use std::collections::HashSet;
use std::path::{Path, PathBuf};

/// A tiny deterministic generator (xorshift64*) so perturbations are
/// reproducible from the proptest-drawn seed alone.
struct Gen(u64);

impl Gen {
    fn new(seed: u64) -> Self {
        Gen(seed.wrapping_mul(0x9e37_79b9_7f4a_7c15) | 1)
    }

    fn next(&mut self) -> u64 {
        self.0 ^= self.0 << 13;
        self.0 ^= self.0 >> 7;
        self.0 ^= self.0 << 17;
        self.0
    }

    fn pick(&mut self, n: u64) -> u64 {
        self.next() % n
    }
}

/// A random but always-parseable specification source: a chain of additive
/// operations over a few 16-bit inputs.
fn random_source(seed: u64) -> String {
    let mut g = Gen::new(seed);
    let inputs = 2 + g.pick(3) as usize;
    let ops = 2 + g.pick(4) as usize;
    let mut src = format!("spec p{seed} {{ ");
    for i in 0..inputs {
        src.push_str(&format!("input a{i}: u16; "));
    }
    let mut names: Vec<String> = (0..inputs).map(|i| format!("a{i}")).collect();
    for t in 0..ops {
        let lhs = &names[g.pick(names.len() as u64) as usize];
        let rhs = &names[g.pick(names.len() as u64) as usize];
        src.push_str(&format!("t{t}: u16 = {lhs} + {rhs}; "));
        names.push(format!("t{t}"));
    }
    src.push_str(&format!("output t{}; }}", ops - 1));
    src
}

/// A random study over `specs` sources and a random latency window.
fn random_study(seed: u64) -> ShardedStudy {
    let mut g = Gen::new(seed ^ 0xabcd);
    let sources: Vec<String> =
        (0..1 + g.pick(4)).map(|i| random_source(seed.wrapping_add(i * 7919))).collect();
    let lo = 1 + g.pick(4) as u32;
    let latencies: Vec<u32> = (lo..lo + 1 + g.pick(5) as u32).collect();
    ShardedStudy {
        sources,
        latencies,
        adder_archs: (g.pick(2) == 0)
            .then(|| vec![AdderArch::RippleCarry, AdderArch::CarryLookahead]),
        balance: (g.pick(2) == 0).then(|| vec![true, false]),
        verify_vectors: None,
        base: CompareOptions { verify_vectors: 0, ..Default::default() },
    }
}

/// Runs `shard_slice(study, index, count)` — its first `limit` jobs — on
/// an engine over `dir`, spilling every success into the store exactly as
/// a `serve` endpoint answering that shard request would.
fn fill_store(study: &ShardedStudy, index: usize, count: usize, limit: usize, dir: &Path) {
    let mut jobs = shard_slice(&study.study().unwrap(), index, count);
    jobs.truncate(limit);
    Engine::default().with_cache_dir(dir).unwrap().run(jobs);
}

fn temp_dir(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("bittrans_shard_{tag}_{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).unwrap();
    dir
}

fn sorted_keys(study: &ShardedStudy) -> Vec<JobKey> {
    let mut keys: Vec<JobKey> =
        study.study().unwrap().distinct_jobs().iter().map(|j| j.key()).collect();
    keys.sort();
    keys
}

/// The per-cell JSON of a report — everything except the run-shape stats
/// (workers, elapsed), so two runs that computed identical results compare
/// equal byte for byte.
fn cells_json(report: &StudyReport) -> String {
    serde_json::to_string(&report.cells).unwrap()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(32))]

    /// Index-range partitioning covers `0..len` exactly once for any
    /// length and shard count.
    #[test]
    fn prop_partition_is_total_and_disjoint(len in 0usize..4000, shards in 1usize..64) {
        let ranges = partition(len, shards);
        prop_assert_eq!(ranges.len(), shards);
        let mut covered = 0usize;
        let mut cursor = 0usize;
        for range in &ranges {
            prop_assert_eq!(range.start, cursor, "ranges must be contiguous");
            prop_assert!(range.end >= range.start);
            covered += range.len();
            cursor = range.end;
        }
        prop_assert_eq!(cursor, len);
        prop_assert_eq!(covered, len);
    }

    /// For random job lists and any K, every `JobKey` lands in exactly one
    /// shard and the union of the shards equals the deduplicated input.
    #[test]
    fn prop_shards_cover_every_key_exactly_once(seed in 0u64..500, shards in 1usize..9) {
        let study = random_study(seed);
        let all = sorted_keys(&study);
        let mut seen: Vec<JobKey> = Vec::new();
        let mut per_shard: Vec<HashSet<JobKey>> = Vec::new();
        for index in 0..shards {
            let jobs = shard_slice(&study.study().unwrap(), index, shards);
            let keys: HashSet<JobKey> = jobs.iter().map(|j| j.key()).collect();
            prop_assert_eq!(keys.len(), jobs.len(), "a shard never repeats a key");
            seen.extend(keys.iter().copied());
            per_shard.push(keys);
        }
        // Disjoint: no key in two shards.
        for a in 0..per_shard.len() {
            for b in a + 1..per_shard.len() {
                prop_assert!(per_shard[a].is_disjoint(&per_shard[b]));
            }
        }
        // Total: the union is the deduplicated grid.
        seen.sort();
        prop_assert_eq!(seen, all);
    }
}

fn reference_report(study: &ShardedStudy) -> StudyReport {
    study.study().unwrap().run(&Engine::default())
}

fn options(worker_binary: &str, shards: usize) -> ShardOptions {
    ShardOptions {
        shards,
        transport: Transport::Local(LocalTransport {
            worker_binary: PathBuf::from(worker_binary),
            threads_per_worker: Some(1),
        }),
    }
}

#[test]
fn coordinator_recovers_when_every_worker_dies() {
    let study = random_study(42);
    let dir = temp_dir("all_dead");
    // `false` exits 1 immediately: every shard fails, nothing reaches the
    // store, and the coordinator must retry the full job list in-process.
    let run = run_sharded(&study, &dir, &options("false", 3)).unwrap();
    let distinct = study.study().unwrap().distinct_jobs().len();
    assert_eq!(run.failed.len(), run.shard_stats.len());
    assert!(run.shard_stats.iter().all(Option::is_none));
    assert_eq!(run.retried.len(), distinct);
    assert_eq!(run.merged.jobs, distinct as u64);
    assert_eq!(run.merged.cache_hits + run.merged.cache_misses, run.merged.jobs);
    // The report is still bit-identical to the single-process run.
    assert_eq!(cells_json(&run.report), cells_json(&reference_report(&study)));
    assert_eq!(run.report.stats.jobs, distinct as u64);
    assert_eq!(run.report.stats.cache_misses, distinct as u64);
    assert_eq!(run.report.stats.cache_hits, 0);
}

#[test]
fn coordinator_recovers_from_a_lying_worker() {
    let study = random_study(43);
    let dir = temp_dir("liar");
    // `true` exits 0 without writing results or printing stats: the shard
    // is treated as failed and its range recomputed.
    let run = run_sharded(&study, &dir, &options("true", 2)).unwrap();
    assert!(!run.failed.is_empty());
    assert_eq!(cells_json(&run.report), cells_json(&reference_report(&study)));
}

#[test]
fn workers_fill_the_store_and_the_coordinator_reassembles_it() {
    let study = random_study(44);
    let dir = temp_dir("warm");
    // Run every shard in-process first — the store ends up fully
    // populated, exactly as if real `serve` children had run.
    for index in 0..2 {
        fill_store(&study, index, 2, usize::MAX, &dir);
    }
    // The coordinator's workers all "fail" (`true` does nothing), but the
    // store already holds every comparison: nothing is retried, and every
    // cell reports from_cache.
    let run = run_sharded(&study, &dir, &options("true", 2)).unwrap();
    assert!(run.retried.is_empty());
    assert!(run.report.cells.iter().all(|c| c.from_cache));
    assert_eq!(run.report.stats.cache_misses, run.report.stats.jobs - run.report.stats.cache_hits);
    // Reference: a single-process warm run over the same store.
    let warm = Engine::default().with_cache_dir(&dir).unwrap();
    let reference = study.study().unwrap().run(&warm);
    assert_eq!(cells_json(&run.report), cells_json(&reference));
}

#[test]
fn a_partial_shard_is_completed_by_the_coordinator() {
    let study = random_study(45);
    let distinct = study.study().unwrap().distinct_jobs().len();
    assert!(distinct >= 2, "study too small to stop mid-shard");
    // Two identical partial stores: shard 0 of 1 died after one job.
    let (dir_a, dir_b) = (temp_dir("fault_a"), temp_dir("fault_b"));
    for dir in [&dir_a, &dir_b] {
        fill_store(&study, 0, 1, 1, dir);
    }
    // Coordinator over the partial store: the missing tail is recomputed
    // and the report matches a single-process run over the same state.
    let run = run_sharded(&study, &dir_a, &options("true", 1)).unwrap();
    let warm = Engine::default().with_cache_dir(&dir_b).unwrap();
    let reference = study.study().unwrap().run(&warm);
    assert_eq!(cells_json(&run.report), cells_json(&reference));
    assert_eq!(run.report.stats.jobs, distinct as u64);
    assert_eq!(run.failed, vec![0], "the child announced nothing");
    assert_eq!(run.retried.len(), distinct - 1, "only the unfinished tail is recomputed");
}

#[test]
fn corrupt_preloaded_entry_does_not_break_bit_identity() {
    let study = random_study(47);
    // Two identical warm stores...
    let (dir_a, dir_b) = (temp_dir("corrupt_a"), temp_dir("corrupt_b"));
    for dir in [&dir_a, &dir_b] {
        fill_store(&study, 0, 1, usize::MAX, dir);
    }
    // ...each with the same job file overwritten by garbage of the same
    // length (its name and size still look like a valid entry).
    let victim_key = sorted_keys(&study)[0];
    for dir in [&dir_a, &dir_b] {
        let victim = dir.join("stages").join(format!("{victim_key}.stage"));
        let size = std::fs::metadata(&victim).unwrap().len() as usize;
        std::fs::write(&victim, " ".repeat(size)).unwrap();
    }
    // The sharded run must classify the corrupt key exactly like the
    // single-process run: a recomputed miss, not a from_cache hit.
    let run = run_sharded(&study, &dir_a, &options("true", 2)).unwrap();
    let warm = Engine::default().with_cache_dir(&dir_b).unwrap();
    let reference = study.study().unwrap().run(&warm);
    assert_eq!(cells_json(&run.report), cells_json(&reference));
    assert_eq!(run.report.stats.cache_hits, reference.stats.cache_hits);
    assert_eq!(run.report.stats.cache_misses, reference.stats.cache_misses);
    assert_eq!(run.report.stats.cache_entries, reference.stats.cache_entries);
    let victim_cell =
        run.report.cells.iter().find(|cell| cell.key == victim_key).expect("victim in grid");
    assert!(!victim_cell.from_cache, "a corrupt entry is not a cache hit");
}

#[test]
fn a_whole_shard_slice_fills_the_store_once_per_key() {
    let study = random_study(46);
    let dir = temp_dir("whole_slice");
    let jobs = shard_slice(&study.study().unwrap(), 0, 1);
    let engine = || Engine::default().with_cache_dir(&dir).unwrap();
    let first = engine().run(jobs.clone());
    assert_eq!(first.stats.jobs, jobs.len() as u64);
    assert_eq!(first.stats.cache_hits + first.stats.cache_misses, first.stats.jobs);
    // A fresh engine over the store finds every feasible key on disk;
    // only infeasible coordinates, whose errors are never persisted, miss.
    let infeasible = first.outcomes.iter().filter(|o| o.result.is_err()).count() as u64;
    assert_eq!(engine().run(jobs).stats.cache_misses, infeasible);
}
