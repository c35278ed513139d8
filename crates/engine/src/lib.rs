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
//!   ([`key`]); finished jobs and the pipeline stages they ran live in
//!   one bounded store ([`stagecache`]) shared by all batches run on one
//!   engine, with hit/miss counters surfaced through [`EngineStats`],
//!   and optionally spill to a directory ([`Engine::with_cache_dir`])
//!   that later processes read lazily and prune by size or age
//!   ([`Engine::prune_cache`]);
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

pub use job::{Job, JobOutcome, JobResult};
pub use key::JobKey;
pub use persist::{PrunePolicy, PruneReport};
pub use report::{StudyCell, StudyReport};
pub use serve::{ServeOptions, Server, DEFAULT_MAX_INFLIGHT};
pub use stats::{BatchReport, EndpointStats, EngineStats, SchedStats, ServiceStats};
pub use study::Study;

use bittrans_core::{compare, SweepPoint};
use bittrans_ir::Spec;
use stagecache::{StageCache, StageTally};
use std::collections::{HashMap, HashSet};
use std::path::PathBuf;
use std::sync::Arc;
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

/// The batch-optimization engine: a worker pool plus a content-addressed
/// result store shared by every batch run through it, optionally spilled
/// to disk ([`Engine::with_cache_dir`]) so separate processes share it too.
#[derive(Debug, Default)]
pub struct Engine {
    options: EngineOptions,
    /// Lifetime job hit/miss counters across every batch and request.
    cache: StageTally,
    /// The result store: finished jobs and the pipeline stages they ran,
    /// keyed by their inputs and shared by every batch and serve request
    /// ([`stagecache`]).
    stages: StageCache,
}

impl Engine {
    /// An engine with the given options and an empty cache.
    pub fn new(options: EngineOptions) -> Self {
        Engine { options, cache: StageTally::default(), stages: StageCache::default() }
    }

    /// Attaches a persistent cache directory: every finished comparison
    /// and every pipeline stage is one `stages/<key>.stage` file, written
    /// by any earlier process. Opening reads nothing — a file is parsed
    /// on first lookup of its key — and every comparison and stage this
    /// engine computes from here on is spilled back with an atomic
    /// rename. A repeated CLI or CI invocation over the same inputs is
    /// therefore served entirely from disk and reports a 100 % hit rate.
    ///
    /// A corrupt file is invisible: it is deleted, its job or stage
    /// recomputes (a miss), and the respill repairs it. A failed spill
    /// leaves the entry in memory only — the cache is an optimization,
    /// never a correctness dependency. Only successes are persisted;
    /// pipeline errors are recomputed. The JSON job files and manifest
    /// older builds left at the top level of the directory are ignored.
    /// Persistence is inert when [`EngineOptions::cache`] is false.
    ///
    /// # Errors
    ///
    /// I/O errors creating the directory.
    pub fn with_cache_dir(mut self, dir: impl Into<PathBuf>) -> std::io::Result<Self> {
        let dir = dir.into();
        std::fs::create_dir_all(&dir)?;
        if self.options.cache {
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
        self.stages.disk_dir().is_some()
    }

    /// Runs one eviction sweep over the attached cache directory's
    /// `stages/` store: files older than [`PrunePolicy::max_age`] go
    /// first, then oldest-first until the store fits in
    /// [`PrunePolicy::max_bytes`]. Files whose job or stage is resident
    /// in this engine's memo are pinned — a live run never loses the
    /// files backing it.
    ///
    /// # Errors
    ///
    /// If no cache directory is attached ([`Engine::with_cache_dir`]), or
    /// deleting a file fails.
    pub fn prune_cache(&self, policy: PrunePolicy) -> std::io::Result<PruneReport> {
        let dir = self.stages.disk_dir().ok_or_else(|| {
            std::io::Error::new(std::io::ErrorKind::NotFound, "no cache directory attached")
        })?;
        let now = std::time::SystemTime::now()
            .duration_since(std::time::SystemTime::UNIX_EPOCH)
            .map_or(0, |d| d.as_secs());
        persist::prune(dir, &policy, &self.stages.resident_keys(), now)
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
        // reconciles exactly with the hit/miss counters. `resolved` keeps
        // every result this batch holds, so assembly never goes back to
        // the bounded store, which may have evicted it since.
        let mut hits = 0u64;
        let mut to_compute: Vec<(usize, JobKey)> = Vec::new();
        let mut fresh = vec![false; jobs.len()];
        let mut resolved: HashMap<JobKey, Arc<JobResult>> = HashMap::new();
        let mut scheduled: HashSet<JobKey> = HashSet::new();
        for (i, key) in keys.iter().enumerate() {
            let hit = match resolved.get(key) {
                Some(result) => Some((Arc::clone(result), "memory")),
                None if self.options.cache => self.stages.job(*key),
                None => None,
            };
            if let Some((result, provenance)) = hit {
                hits += 1;
                trace::event("job", |a| {
                    a.str("key", &key.to_string()).str("provenance", provenance);
                });
                resolved.insert(*key, result);
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
            // Admitted after the batch, so job entries never push this
            // batch's own stages out of the bounded memo. A failed spill
            // costs a recomputation in some later process, never this
            // batch's result.
            for (key, result) in &computed {
                self.stages.admit_job(*key, result);
            }
            self.cache.record(hits, misses);
        }
        resolved.extend(computed);

        let outcomes: Vec<JobOutcome> = jobs
            .iter()
            .zip(&keys)
            .enumerate()
            .map(|(i, (job, key))| JobOutcome {
                name: job.spec.name().to_string(),
                latency: job.latency,
                key: *key,
                from_cache: !fresh[i],
                result: Arc::clone(&resolved[key]),
            })
            .collect();

        let stats = EngineStats {
            jobs: jobs.len() as u64,
            cache_hits: hits,
            cache_misses: misses,
            cache_entries: resolved.len(),
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
            cache_entries: self.stages.resident_jobs(),
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

    #[test]
    fn a_batch_larger_than_the_memo_returns_every_outcome() {
        let dir = std::env::temp_dir()
            .join(format!("bittrans_engine_bounded_memo_{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        let spec = three_adds();
        let mut jobs: Vec<Job> = (2..=5)
            .flat_map(|latency| {
                let spec = spec.clone();
                [true, false].map(move |balance| {
                    let options = bittrans_core::CompareOptions { balance, ..Default::default() };
                    Job::with_options(spec.clone(), latency, options)
                })
            })
            .collect();
        jobs.push(jobs[0].clone());
        let engine = Engine::default().with_cache_dir(&dir).unwrap();
        engine.stages.set_memo_capacity(3);

        // Eight distinct jobs through a three-slot memo: every admission
        // evicts, yet every outcome comes back and equals the monolithic
        // pipeline's.
        let report = engine.run(jobs.clone());
        assert_eq!(report.outcomes.len(), jobs.len());
        assert_eq!(report.stats.cache_entries, 8);
        assert!(engine.stages.resident_keys().len() <= 3);
        for (outcome, job) in report.outcomes.iter().zip(&jobs) {
            let direct = compare(&job.spec, job.latency, &job.options).unwrap();
            let got = outcome.result.as_ref().as_ref().unwrap();
            assert_eq!(
                serde_json::to_string(got).unwrap(),
                serde_json::to_string(&direct).unwrap()
            );
        }
        // The evicted jobs come back from their files: all hits, on this
        // engine and on a fresh one over the same directory.
        let again = engine.run(jobs.clone());
        assert_eq!(again.stats.hit_rate(), 100.0);
        let fresh = Engine::default().with_cache_dir(&dir).unwrap().run(jobs);
        assert_eq!(fresh.stats.hit_rate(), 100.0);
        assert_eq!(fresh.stats.stage_misses, 0);
        std::fs::remove_dir_all(&dir).unwrap();
    }
}
