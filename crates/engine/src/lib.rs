//! # bittrans-engine
//!
//! A job-oriented, multi-threaded batch engine over the `bittrans-core`
//! presynthesis pipeline.
//!
//! Every entry point in `bittrans-core` runs one specification at one
//! latency on one thread. Real workloads — benchmark suites, latency
//! sweeps, design-space exploration over transformation options — run the
//! pipeline hundreds of times, and most of those runs repeat earlier ones
//! exactly (a sweep re-run with one changed spec, overlapping latency
//! ranges, the same spec under several reporting front ends). This crate
//! adds the three missing layers:
//!
//! * **parallelism** — a [`Job`] is a `spec × latency × options` triple;
//!   [`Engine::run`] fans a batch of jobs out across a pool of worker
//!   threads ([`executor`]) and returns results in submission order, so
//!   batch output is deterministic regardless of worker count;
//! * **content-addressed caching** — every job is keyed by a stable hash
//!   of its canonicalized specification text, latency and options
//!   ([`key`]); results live in an in-memory [`cache`] shared by all
//!   batches run on one engine, with hit/miss counters surfaced through
//!   [`EngineStats`], and optionally spill to an indexed directory
//!   ([`Engine::with_cache_dir`]) that later processes read lazily and
//!   prune by size or age ([`Engine::prune_cache`]);
//! * **design-space exploration** — a [`Study`] spans a typed axis grid
//!   (specs × latencies × adder architectures × balancing × verification)
//!   and returns a [`StudyReport`] of labelled cells, replacing every
//!   hand-rolled sweep loop in the benches, examples and CLI;
//! * **sharded multi-process execution** — [`shard::run_sharded`]
//!   partitions a study's deduplicated job list by [`JobKey`] range across
//!   `serve` endpoints that share one cache directory — local children or
//!   a running fleet, a per-run [`shard::Transport`] choice — then merges
//!   their statistics and reassembles the exact single-process
//!   [`StudyReport`];
//! * **a long-running service** — [`serve::Server`] answers
//!   newline-delimited JSON study requests over TCP from one warm engine,
//!   so many clients share a single in-memory cache (backed by the cache
//!   directory) instead of each paying a cold start.
//!
//! ```
//! use bittrans_engine::{Engine, Job};
//! use bittrans_ir::Spec;
//!
//! # fn main() -> Result<(), Box<dyn std::error::Error>> {
//! let spec = Spec::parse(
//!     "spec ex { input A: u16; input B: u16; input D: u16; input F: u16;
//!       C: u16 = A + B; E: u16 = C + D; G: u16 = E + F; output G; }",
//! )?;
//! let engine = Engine::default();
//! let jobs: Vec<Job> = (2..=5).map(|lat| Job::new(spec.clone(), lat)).collect();
//!
//! let first = engine.run(jobs.clone());
//! assert_eq!(first.outcomes.len(), 4);
//! assert_eq!(first.stats.cache_hits, 0);
//!
//! // The same batch again: served entirely from the content-addressed
//! // cache, no pipeline work at all.
//! let again = engine.run(jobs);
//! assert_eq!(again.stats.cache_hits, 4);
//! assert_eq!(again.stats.hit_rate(), 100.0);
//! # Ok(())
//! # }
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod bench;
pub mod cache;
pub mod executor;
pub mod fuzz;
pub mod job;
pub mod key;
mod persist;
pub mod proto;
pub mod report;
pub mod sched;
pub mod serve;
pub mod shard;
pub mod stagecache;
pub mod stats;
pub mod study;
pub mod sweep;
pub mod trace;

pub use cache::ResultCache;
pub use job::{Job, JobOutcome, JobResult};
pub use key::JobKey;
pub use persist::{PrunePolicy, PruneReport};
pub use report::{StudyCell, StudyReport};
pub use serve::{ServeOptions, Server, DEFAULT_MAX_INFLIGHT};
pub use stats::{BatchReport, EndpointStats, EngineStats, SchedStats, ServiceStats};
pub use study::Study;

use bittrans_core::{compare, SweepPoint};
use bittrans_ir::Spec;
use persist::DirIndex;
use stagecache::{StageCache, StageTally};
use std::path::PathBuf;
use std::sync::{Arc, Mutex};
use std::time::Instant;

/// Configuration of an [`Engine`].
#[derive(Clone, Copy, Debug)]
pub struct EngineOptions {
    /// Worker threads. `None` uses [`std::thread::available_parallelism`].
    pub workers: Option<usize>,
    /// Whether results are cached across jobs and batches.
    pub cache: bool,
}

impl Default for EngineOptions {
    fn default() -> Self {
        EngineOptions { workers: None, cache: true }
    }
}

/// Which cache tier answered a [`Engine::lookup`].
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
enum HitTier {
    /// Resident in the in-memory cache.
    Memory,
    /// Lazily loaded (and promoted) from the cache directory.
    Disk,
}

/// The batch-optimization engine: a worker pool plus a content-addressed
/// result cache shared by every batch run through it, optionally spilled
/// to disk ([`Engine::with_cache_dir`]) so separate processes share it too.
#[derive(Debug, Default)]
pub struct Engine {
    options: EngineOptions,
    cache: ResultCache,
    disk: Option<Mutex<DirIndex>>,
    /// Incremental sub-job memo: pipeline stages keyed by their inputs,
    /// shared by every batch and serve request ([`stagecache`]).
    stages: StageCache,
}

impl Engine {
    /// An engine with the given options and an empty cache.
    pub fn new(options: EngineOptions) -> Self {
        Engine { options, cache: ResultCache::new(), disk: None, stages: StageCache::default() }
    }

    /// Attaches a persistent cache directory: one JSON file per [`JobKey`],
    /// written by any earlier process, indexed by an `index.json` manifest.
    /// Opening reads (or rebuilds) the index only — entry bodies are parsed
    /// lazily, on first lookup — and every comparison this engine computes
    /// from here on is spilled back with an atomic rename. A repeated CLI
    /// or CI invocation over the same inputs is therefore served entirely
    /// from disk and reports a 100 % hit rate, without having paid an
    /// upfront parse of the whole directory.
    ///
    /// A corrupt entry is invisible: its job recomputes (a miss) and the
    /// respill repairs the file. A stale or damaged `index.json` is rebuilt
    /// from the directory contents. A failed spill leaves the entry in
    /// memory only — the cache is an optimization, never a correctness
    /// dependency. Only successful comparisons are persisted; pipeline
    /// errors are recomputed. Persistence is inert when
    /// [`EngineOptions::cache`] is false.
    ///
    /// # Errors
    ///
    /// I/O errors creating or scanning the directory.
    pub fn with_cache_dir(mut self, dir: impl Into<PathBuf>) -> std::io::Result<Self> {
        let dir = dir.into();
        std::fs::create_dir_all(&dir)?;
        if self.options.cache {
            self.disk = Some(Mutex::new(DirIndex::open(&dir)?));
            // Verify-stage tokens live in a subdirectory the job-entry
            // scan ignores (it only considers top-level `*.json` files).
            self.stages.attach_disk(dir.join(persist::STAGE_SUBDIR));
        }
        Ok(self)
    }

    /// Whether a persistent cache directory is attached (and caching
    /// enabled) — i.e. whether this engine's results are visible to other
    /// processes sharing the store. The `serve` front end uses this to
    /// reject shard requests on a store-less server, whose work could
    /// never reach the dispatching coordinator.
    pub fn has_cache_dir(&self) -> bool {
        self.disk.is_some()
    }

    /// Serves `key` from the in-memory cache or, failing that, lazily from
    /// the attached cache directory (promoting the entry into memory).
    /// Corrupt disk entries are dropped from the index so the caller
    /// recomputes and respills them. The returned provenance says which
    /// tier answered — the trace collector attributes every hit with it.
    fn lookup(&self, key: &JobKey) -> Option<HitTier> {
        if self.cache.peek(key).is_some() {
            return Some(HitTier::Memory);
        }
        let mut disk = self.disk.as_ref()?.lock().expect("cache index lock");
        match disk.load(*key) {
            Some(comparison) => {
                self.cache.insert(*key, Arc::new(Ok(comparison)));
                Some(HitTier::Disk)
            }
            None => {
                disk.forget(*key);
                None
            }
        }
    }

    /// Results resident in memory plus on-disk entries not yet promoted.
    fn resident_entries(&self) -> usize {
        let in_memory = self.cache.len();
        match &self.disk {
            None => in_memory,
            Some(disk) => {
                let disk = disk.lock().expect("cache index lock");
                in_memory + disk.keys().filter(|key| self.cache.peek(key).is_none()).count()
            }
        }
    }

    /// Admits one computed result: inserts it into the in-memory cache and
    /// spills it to the attached directory (best-effort, same policy as
    /// [`Engine::run`]'s batch spill). The scheduled `serve` path computes
    /// jobs outside `Engine::run` and admits them one by one as they
    /// finish, so concurrent requests see each other's results as early as
    /// possible. A no-op with caching disabled.
    pub(crate) fn admit(&self, key: JobKey, result: &Arc<JobResult>) {
        if !self.options.cache {
            return;
        }
        self.cache.insert(key, Arc::clone(result));
        if let (Some(disk), Ok(comparison)) = (&self.disk, result.as_ref()) {
            let _ = disk.lock().expect("cache index lock").save(key, comparison);
        }
    }

    /// Flushes the cache directory's index manifest if admissions dirtied
    /// it — the end-of-batch counterpart of [`Engine::admit`].
    pub(crate) fn flush_disk(&self) {
        if let Some(disk) = &self.disk {
            disk.lock().expect("cache index lock").write_if_dirty();
        }
    }

    /// Folds one request's hit/miss classification into the engine's
    /// lifetime counters (inert with caching disabled), mirroring what
    /// [`Engine::run`] records for a batch.
    pub(crate) fn record_lifetime(&self, hits: u64, misses: u64) {
        if self.options.cache {
            self.cache.record(hits, misses);
        }
    }

    /// Runs one eviction sweep over the attached cache directory: entries
    /// older than [`PrunePolicy::max_age`] go first, then oldest-first
    /// until the directory fits in [`PrunePolicy::max_bytes`]. Entries
    /// whose result is resident in this engine's in-memory cache are
    /// pinned — a live run never loses the files backing it. The
    /// `index.json` manifest is rewritten to match.
    ///
    /// # Errors
    ///
    /// If no cache directory is attached ([`Engine::with_cache_dir`]), or
    /// deleting an entry fails.
    pub fn prune_cache(&self, policy: PrunePolicy) -> std::io::Result<PruneReport> {
        let disk = self.disk.as_ref().ok_or_else(|| {
            std::io::Error::new(std::io::ErrorKind::NotFound, "no cache directory attached")
        })?;
        let mut disk = disk.lock().expect("cache index lock");
        let pinned = self.cache.keys().into_iter().collect();
        let pinned_stages = self.stages.resident_keys();
        let now = std::time::SystemTime::now()
            .duration_since(std::time::SystemTime::UNIX_EPOCH)
            .map_or(0, |d| d.as_secs());
        persist::prune(&mut disk, &policy, &pinned, &pinned_stages, now)
    }

    /// Computes one comparison: through the memoized stage path
    /// ([`stagecache::StageCache::compare_staged`]) when caching is
    /// enabled — recording stage hits/misses into `tally` — or the
    /// monolithic pipeline when it is not. Both paths compose the same
    /// `bittrans-core` stage functions in the same order, so their
    /// results are bit-identical.
    pub(crate) fn compute(&self, job: &Job, tally: &StageTally) -> JobResult {
        if self.options.cache {
            self.stages.compare_staged(&job.spec, job.latency, &job.options, tally)
        } else {
            compare(&job.spec, job.latency, &job.options)
        }
    }

    /// The number of worker threads a batch will use.
    pub fn worker_count(&self) -> usize {
        self.options
            .workers
            .filter(|&w| w > 0)
            .unwrap_or_else(|| std::thread::available_parallelism().map(|n| n.get()).unwrap_or(1))
    }

    /// Runs a batch of jobs and returns one [`JobOutcome`] per job, in
    /// submission order (independent of worker count and scheduling).
    ///
    /// Jobs whose [`JobKey`] is already cached are served from the cache.
    /// Duplicate keys within the batch are computed once: the first
    /// occurrence counts as a miss, the rest as hits (their outcomes carry
    /// `from_cache = true` — they did no pipeline work). Everything else
    /// fans out across [`Engine::worker_count`] threads.
    pub fn run(&self, jobs: Vec<Job>) -> BatchReport {
        let _batch = trace::span_attrs("engine.run", |a| {
            a.num("jobs", jobs.len() as u64);
        });
        let started = Instant::now();
        let keys: Vec<JobKey> = jobs.iter().map(Job::key).collect();

        // Classify each job: cached, duplicate-of-earlier, or to-compute.
        // `fresh[i]` marks the one job per key that actually runs. Each
        // classification is one `job` trace event whose provenance
        // (memory / disk / duplicate, plus `computed` in the pool below)
        // reconciles exactly with the hit/miss counters.
        let mut hits = 0u64;
        let mut to_compute: Vec<(usize, JobKey)> = Vec::new();
        let mut fresh = vec![false; jobs.len()];
        let mut scheduled: std::collections::HashSet<JobKey> = std::collections::HashSet::new();
        for (i, key) in keys.iter().enumerate() {
            let tier = if self.options.cache { self.lookup(key) } else { None };
            if let Some(tier) = tier {
                hits += 1;
                trace::event("job", |a| {
                    a.str("key", &key.to_string()).str(
                        "provenance",
                        match tier {
                            HitTier::Memory => "memory",
                            HitTier::Disk => "disk",
                        },
                    );
                });
            } else if scheduled.insert(*key) {
                fresh[i] = true;
                to_compute.push((i, *key));
            } else {
                // Duplicate of a job already scheduled in this batch: its
                // outcome shares the first occurrence's computation, so it
                // counts as a hit.
                hits += 1;
                trace::event("job", |a| {
                    a.str("key", &key.to_string()).str("provenance", "duplicate");
                });
            }
        }
        let misses = to_compute.len() as u64;

        // Fan the uncached jobs out across the worker pool. Workers
        // share the engine's stage memo, so jobs that differ only in
        // latency (or only in options) share their common stage prefix
        // even within one cold batch — the `OnceLock` slots make the
        // first worker to need a stage compute it while the rest block
        // and reuse it.
        let workers = self.worker_count().min(to_compute.len().max(1));
        let tally = StageTally::default();
        let computed: Vec<(JobKey, Arc<JobResult>)> = executor::map_ordered(
            to_compute.iter().map(|&(i, key)| (key, &jobs[i])).collect(),
            workers,
            |(key, job): (JobKey, &Job)| {
                let result = Arc::new(self.compute(job, &tally));
                trace::event("job", |a| {
                    a.str("key", &key.to_string())
                        .str("provenance", "computed")
                        .flag("ok", result.is_ok());
                });
                (key, result)
            },
        );
        if self.options.cache {
            for (key, result) in &computed {
                self.cache.insert(*key, Arc::clone(result));
                // Best-effort spill: a failed write costs a recomputation
                // in some later process, never this batch's result.
                if let (Some(disk), Ok(comparison)) = (&self.disk, result.as_ref()) {
                    let _ = disk.lock().expect("cache index lock").save(*key, comparison);
                }
            }
            if let Some(disk) = &self.disk {
                disk.lock().expect("cache index lock").write_if_dirty();
            }
            self.cache.record(hits, misses);
        }

        // Assemble outcomes in submission order. Every key is now either
        // in the cache or (with caching disabled) in the computed list.
        let computed: std::collections::HashMap<JobKey, Arc<JobResult>> =
            computed.into_iter().collect();
        let outcomes: Vec<JobOutcome> = jobs
            .iter()
            .zip(&keys)
            .enumerate()
            .map(|(i, (job, key))| {
                let result = match computed.get(key) {
                    Some(result) => Arc::clone(result),
                    None => self.cache.peek(key).expect("batch result neither computed nor cached"),
                };
                JobOutcome {
                    name: job.spec.name().to_string(),
                    latency: job.latency,
                    key: *key,
                    from_cache: !fresh[i],
                    result,
                }
            })
            .collect();

        let stats = EngineStats {
            jobs: jobs.len() as u64,
            cache_hits: hits,
            cache_misses: misses,
            cache_entries: self.resident_entries(),
            workers,
            elapsed: started.elapsed(),
            stage_hits: tally.hits(),
            stage_misses: tally.misses(),
        };
        trace::event("engine.batch", |a| {
            a.num("jobs", stats.jobs)
                .num("cache_hits", stats.cache_hits)
                .num("cache_misses", stats.cache_misses)
                .num("workers", stats.workers as u64)
                .num("stage_hits", stats.stage_hits)
                .num("stage_misses", stats.stage_misses);
        });
        BatchReport { outcomes, stats }
    }

    /// Regenerates the Fig. 4 experiment — cycle length of both flows
    /// across a latency range — with the latencies spread over the worker
    /// pool instead of `bittrans_core::latency_sweep`'s serial loop.
    ///
    /// A thin wrapper over a single-axis [`Study`]: latencies where either
    /// flow is infeasible are skipped, and points come back in input order,
    /// exactly like the serial version. Sweeps over overlapping ranges (or
    /// re-runs) hit the cache.
    pub fn sweep(
        &self,
        spec: &Spec,
        latencies: impl IntoIterator<Item = u32>,
        options: &bittrans_core::CompareOptions,
    ) -> Vec<SweepPoint> {
        sweep::sweep(self, spec, latencies, options)
    }

    /// Cumulative statistics across every batch run on this engine.
    pub fn stats(&self) -> EngineStats {
        EngineStats {
            jobs: self.cache.hits() + self.cache.misses(),
            cache_hits: self.cache.hits(),
            cache_misses: self.cache.misses(),
            cache_entries: self.resident_entries(),
            workers: self.worker_count(),
            elapsed: std::time::Duration::ZERO,
            stage_hits: self.stages.hits(),
            stage_misses: self.stages.misses(),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn three_adds() -> Spec {
        Spec::parse(
            "spec ex { input A: u16; input B: u16; input D: u16; input F: u16;
              C: u16 = A + B; E: u16 = C + D; G: u16 = E + F; output G; }",
        )
        .unwrap()
    }

    #[test]
    fn batch_results_match_direct_compare() {
        let spec = three_adds();
        let engine = Engine::default();
        let report = engine.run(vec![Job::new(spec.clone(), 3)]);
        let direct = compare(&spec, 3, &Default::default()).unwrap();
        let got = report.outcomes[0].result.as_ref().as_ref().unwrap();
        assert_eq!(got.optimized.cycle_delta, direct.optimized.cycle_delta);
        assert_eq!(got.original.cycle_delta, direct.original.cycle_delta);
    }

    #[test]
    fn second_batch_is_all_hits() {
        let spec = three_adds();
        let engine = Engine::default();
        let jobs: Vec<Job> = (2..=4).map(|l| Job::new(spec.clone(), l)).collect();
        let first = engine.run(jobs.clone());
        assert_eq!(first.stats.cache_hits, 0);
        assert_eq!(first.stats.cache_misses, 3);
        let second = engine.run(jobs);
        assert_eq!(second.stats.cache_hits, 3);
        assert_eq!(second.stats.hit_rate(), 100.0);
        assert!(second.outcomes.iter().all(|o| o.from_cache));
    }

    #[test]
    fn duplicate_jobs_in_one_batch_compute_once() {
        let spec = three_adds();
        let engine = Engine::default();
        let report = engine.run(vec![Job::new(spec.clone(), 3), Job::new(spec, 3)]);
        assert_eq!(report.outcomes.len(), 2);
        assert_eq!(report.stats.cache_entries, 1);
        // One computation, one dedup: the duplicate counts as a hit and is
        // marked from_cache.
        assert_eq!(report.stats.cache_misses, 1);
        assert_eq!(report.stats.cache_hits, 1);
        assert!(!report.outcomes[0].from_cache);
        assert!(report.outcomes[1].from_cache);
        // Both outcomes share one computed result.
        assert!(Arc::ptr_eq(&report.outcomes[0].result, &report.outcomes[1].result));
    }

    #[test]
    fn infeasible_jobs_report_errors_in_place() {
        let spec = three_adds();
        let engine = Engine::default();
        let report = engine.run(vec![Job::new(spec.clone(), 0), Job::new(spec, 3)]);
        assert!(report.outcomes[0].result.is_err());
        assert!(report.outcomes[1].result.is_ok());
    }

    #[test]
    fn caching_can_be_disabled() {
        let spec = three_adds();
        let engine = Engine::new(EngineOptions { cache: false, ..Default::default() });
        let jobs = vec![Job::new(spec, 3)];
        engine.run(jobs.clone());
        let second = engine.run(jobs);
        assert_eq!(second.stats.cache_hits, 0);
        // A disabled cache bypasses the stage memo entirely (monolithic
        // pipeline) and never accrues lifetime counters either.
        assert_eq!(second.stats.stage_hits + second.stats.stage_misses, 0);
        assert_eq!(engine.stats().jobs, 0);
        assert_eq!(engine.stats().stage_misses, 0);
    }

    #[test]
    fn latency_sweep_batch_shares_the_extract_stage() {
        let spec = three_adds();
        let engine = Engine::default();
        let jobs: Vec<Job> = (2..=5).map(|l| Job::new(spec.clone(), l)).collect();
        let cold = engine.run(jobs.clone());
        // `extract` is λ-invariant: the stage memo computes it once and
        // the other three points hit it — even in one cold batch, where
        // the OnceLock slot serializes concurrent workers.
        assert!(cold.stats.stage_hits >= 3, "{:?}", cold.stats);
        assert!(cold.stats.stage_misses > 0);
        // A warm re-run is served at job granularity: zero stages run,
        // so zero parse/extract/fragment recomputes — and zero hits,
        // because nothing even consulted the stage memo.
        let warm = engine.run(jobs);
        assert_eq!(warm.stats.cache_hits, 4);
        assert_eq!(warm.stats.stage_hits + warm.stats.stage_misses, 0, "{:?}", warm.stats);
        // Lifetime stage counters survive on the engine.
        assert!(engine.stats().stage_misses > 0);
    }
}
