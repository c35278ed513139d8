//! Batch and engine statistics: how much work ran, how much the cache
//! absorbed, and how wide the pool was.

use crate::job::JobOutcome;
use serde::ser::SerializeStruct;
use serde::{Serialize, Serializer};
use std::fmt;
use std::time::Duration;

/// Counters for one batch (in [`BatchReport`]) or for an engine's lifetime
/// (from [`crate::Engine::stats`]).
///
/// # Hit/miss semantics
///
/// Every submitted job is classified as exactly one hit or one miss, so
/// `cache_hits + cache_misses == jobs` always holds for a batch:
///
/// * a job whose [`crate::JobKey`] is already resident — from an earlier
///   batch on this engine, or preloaded from a persistent cache directory
///   ([`crate::Engine::with_cache_dir`]) — is a **hit**;
/// * an in-batch duplicate (a later job with the same key as an earlier
///   one in the same batch) is a **hit**: it does no pipeline work and
///   shares the first occurrence's result;
/// * the first occurrence of each distinct uncached key is a **miss**.
///
/// With caching disabled ([`crate::EngineOptions::cache`] = false), batch
/// stats keep the same per-batch classification (in-batch duplicates still
/// count as hits) but nothing is recorded into the engine's lifetime
/// counters.
#[derive(Clone, Debug)]
pub struct EngineStats {
    /// Jobs submitted.
    pub jobs: u64,
    /// Jobs served without pipeline work: resident cache entries plus
    /// in-batch duplicates (see the type-level semantics).
    pub cache_hits: u64,
    /// Jobs that required running the pipeline.
    pub cache_misses: u64,
    /// Distinct job keys the batch resolved — the results a fresh engine
    /// holds after the same batch. In a lifetime snapshot
    /// ([`crate::Engine::stats`]): the finished jobs resident in memory.
    pub cache_entries: usize,
    /// Worker threads used.
    pub workers: usize,
    /// Wall-clock time of the batch (zero for lifetime snapshots).
    pub elapsed: Duration,
    /// Pipeline stages served from the stage cache (memory or disk)
    /// instead of being recomputed. Only cache-miss jobs run stages at
    /// all, so these counters describe sharing *within* the misses; like
    /// `workers` and `elapsed` they depend on the run shape (a sharded
    /// run shares fewer stages per process than a single-process run) and
    /// are blanked by report normalization.
    pub stage_hits: u64,
    /// Pipeline stages computed (stage-cache misses).
    pub stage_misses: u64,
}

impl EngineStats {
    /// Cache hits as a percentage of submitted jobs (0 when idle).
    pub fn hit_rate(&self) -> f64 {
        if self.jobs == 0 {
            0.0
        } else {
            self.cache_hits as f64 / self.jobs as f64 * 100.0
        }
    }

    /// The all-zero counters — the identity of [`EngineStats::absorb`].
    pub fn zero() -> Self {
        EngineStats {
            jobs: 0,
            cache_hits: 0,
            cache_misses: 0,
            cache_entries: 0,
            workers: 0,
            elapsed: Duration::ZERO,
            stage_hits: 0,
            stage_misses: 0,
        }
    }

    /// Folds another batch's counters into this one, as when merging the
    /// per-shard statistics of a multi-process run: `jobs`, `cache_hits`,
    /// `cache_misses` and `workers` add (the job sets are disjoint and the
    /// pools ran side by side); `cache_entries` takes the maximum (a
    /// coordinator's gap-fill batch already spans every key, so summing
    /// would double-count);
    /// `elapsed` takes the maximum (the batches overlapped in time).
    pub fn absorb(&mut self, other: &EngineStats) {
        self.jobs += other.jobs;
        self.cache_hits += other.cache_hits;
        self.cache_misses += other.cache_misses;
        self.cache_entries = self.cache_entries.max(other.cache_entries);
        self.workers += other.workers;
        self.elapsed = self.elapsed.max(other.elapsed);
        self.stage_hits += other.stage_hits;
        self.stage_misses += other.stage_misses;
    }

    /// Merges any number of batch statistics ([`EngineStats::absorb`]
    /// semantics), e.g. the per-shard stats of a sharded run.
    pub fn merged<'a>(parts: impl IntoIterator<Item = &'a EngineStats>) -> EngineStats {
        let mut total = EngineStats::zero();
        for part in parts {
            total.absorb(part);
        }
        total
    }
}

impl Serialize for EngineStats {
    fn serialize<S: Serializer>(&self, serializer: S) -> Result<S::Ok, S::Error> {
        let mut st = serializer.serialize_struct("EngineStats", 9)?;
        st.serialize_field("jobs", &self.jobs)?;
        st.serialize_field("cache_hits", &self.cache_hits)?;
        st.serialize_field("cache_misses", &self.cache_misses)?;
        st.serialize_field("hit_rate_pct", &self.hit_rate())?;
        st.serialize_field("cache_entries", &self.cache_entries)?;
        st.serialize_field("workers", &self.workers)?;
        st.serialize_field("stage_hits", &self.stage_hits)?;
        st.serialize_field("stage_misses", &self.stage_misses)?;
        st.serialize_field("elapsed_ms", &(self.elapsed.as_secs_f64() * 1e3))?;
        st.end()
    }
}

impl fmt::Display for EngineStats {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "{} jobs, {} cache hits / {} misses ({:.0}% hit rate), \
             {} cached results, {} workers",
            self.jobs,
            self.cache_hits,
            self.cache_misses,
            self.hit_rate(),
            self.cache_entries,
            self.workers,
        )?;
        if self.stage_hits + self.stage_misses > 0 {
            write!(f, ", {} stage hits / {} stages computed", self.stage_hits, self.stage_misses)?;
        }
        if !self.elapsed.is_zero() {
            write!(f, ", {:.1} ms", self.elapsed.as_secs_f64() * 1e3)?;
        }
        Ok(())
    }
}

/// Attribution of one dispatch target's share of a multi-process run:
/// which shards it served and the merged [`EngineStats`] of that work.
/// A sharded run ([`crate::shard::run_sharded`]) reports one of these per
/// endpoint that did work — the `serve` endpoints of a `Remote`
/// transport, the `local` worker-process pool of a `Local` one, and the
/// `coordinator` itself when gap-fill recomputation ran — so the merged
/// totals stay auditable: every job in the sum can be pointed at the
/// machine that ran it.
#[derive(Clone, Debug)]
pub struct EndpointStats {
    /// Who did the work: a `host:port` endpoint, `local` for worker
    /// processes, or `coordinator` for in-process gap-fill.
    pub endpoint: String,
    /// The shard indices this endpoint completed.
    pub shards: Vec<usize>,
    /// The merged statistics of those shards
    /// ([`EngineStats::merged`] semantics).
    pub stats: EngineStats,
}

impl Serialize for EndpointStats {
    fn serialize<S: Serializer>(&self, serializer: S) -> Result<S::Ok, S::Error> {
        let mut st = serializer.serialize_struct("EndpointStats", 3)?;
        st.serialize_field("endpoint", &self.endpoint)?;
        st.serialize_field("shards", &self.shards)?;
        st.serialize_field("stats", &self.stats)?;
        st.end()
    }
}

impl fmt::Display for EndpointStats {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "endpoint {}: {} shard(s) {:?}, {}",
            self.endpoint,
            self.shards.len(),
            self.shards,
            self.stats
        )
    }
}

/// A snapshot of the fair scheduler's gauges ([`crate::sched::Scheduler::stats`]):
/// how deep the shared queue is, how many requests are interleaving right
/// now, and the lifetime dispatch counters. Served by the `serve` front
/// end's `{"stats": true}` introspection so an operator can see queueing
/// pressure without attaching a tracer.
#[derive(Clone, Debug)]
pub struct SchedStats {
    /// Worker threads in the shared pool.
    pub workers: usize,
    /// Tasks enqueued and not yet handed to a worker.
    pub queue_depth: u64,
    /// Requests with at least one unfinished task.
    pub active_requests: u64,
    /// Requests ever admitted to the queue.
    pub admitted_requests: u64,
    /// Requests whose every task has finished.
    pub completed_requests: u64,
    /// Tasks handed to a worker so far.
    pub dispatched_tasks: u64,
    /// Tasks that finished (including panicked ones).
    pub completed_tasks: u64,
    /// Tasks whose closure panicked (caught; the pool survived).
    pub panicked_tasks: u64,
    /// Cumulative enqueue→dispatch wait summed over dispatched tasks.
    pub total_wait: Duration,
}

impl SchedStats {
    /// Mean enqueue→dispatch wait per dispatched task (zero when idle).
    ///
    /// Computed in `u128` nanoseconds: `Duration`'s `Div` takes a `u32`
    /// divisor, and the previous `u32::try_from(...).unwrap_or(u32::MAX)`
    /// clamp silently inflated the mean once a long-lived service passed
    /// `u32::MAX` dispatched tasks.
    pub fn mean_wait(&self) -> Duration {
        if self.dispatched_tasks == 0 {
            return Duration::ZERO;
        }
        let mean_ns = self.total_wait.as_nanos() / u128::from(self.dispatched_tasks);
        Duration::from_nanos(u64::try_from(mean_ns).unwrap_or(u64::MAX))
    }
}

impl Serialize for SchedStats {
    fn serialize<S: Serializer>(&self, serializer: S) -> Result<S::Ok, S::Error> {
        let mut st = serializer.serialize_struct("SchedStats", 10)?;
        st.serialize_field("workers", &self.workers)?;
        st.serialize_field("queue_depth", &self.queue_depth)?;
        st.serialize_field("active_requests", &self.active_requests)?;
        st.serialize_field("admitted_requests", &self.admitted_requests)?;
        st.serialize_field("completed_requests", &self.completed_requests)?;
        st.serialize_field("dispatched_tasks", &self.dispatched_tasks)?;
        st.serialize_field("completed_tasks", &self.completed_tasks)?;
        st.serialize_field("panicked_tasks", &self.panicked_tasks)?;
        st.serialize_field("total_wait_ms", &(self.total_wait.as_secs_f64() * 1e3))?;
        st.serialize_field("mean_wait_ms", &(self.mean_wait().as_secs_f64() * 1e3))?;
        st.end()
    }
}

impl fmt::Display for SchedStats {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "{} workers, {} queued, {} active / {} completed requests, \
             {} tasks dispatched ({:.1} ms mean wait)",
            self.workers,
            self.queue_depth,
            self.active_requests,
            self.completed_requests,
            self.dispatched_tasks,
            self.mean_wait().as_secs_f64() * 1e3,
        )
    }
}

/// Process-lifetime counters of a long-running service front end
/// ([`crate::serve`]), distinct from the **per-request** [`EngineStats`]
/// that travel inside each response's report: a service answers many
/// requests over one warm engine, so "how did this request do" (one
/// batch's hits/misses) and "what has this process absorbed so far"
/// (cumulative engine counters, request totals, uptime) are different
/// questions with different counters.
#[derive(Clone, Debug)]
pub struct ServiceStats {
    /// Study requests answered with a report.
    pub requests: u64,
    /// Requests rejected at the protocol layer (malformed JSON, unknown
    /// fields, oversized bodies, unparseable or invalid studies) — these
    /// never reach the engine.
    pub errors: u64,
    /// Time since the service started.
    pub uptime: Duration,
    /// The engine's cumulative counters ([`crate::Engine::stats`]) across
    /// every request served so far.
    pub engine: EngineStats,
}

impl Serialize for ServiceStats {
    fn serialize<S: Serializer>(&self, serializer: S) -> Result<S::Ok, S::Error> {
        let mut st = serializer.serialize_struct("ServiceStats", 4)?;
        st.serialize_field("requests", &self.requests)?;
        st.serialize_field("errors", &self.errors)?;
        st.serialize_field("uptime_ms", &(self.uptime.as_secs_f64() * 1e3))?;
        st.serialize_field("engine", &self.engine)?;
        st.end()
    }
}

impl fmt::Display for ServiceStats {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "{} requests served, {} rejected, up {:.1} s; engine: {}",
            self.requests,
            self.errors,
            self.uptime.as_secs_f64(),
            self.engine,
        )
    }
}

/// Everything one [`crate::Engine::run`] call produces.
#[derive(Clone, Debug)]
pub struct BatchReport {
    /// One outcome per submitted job, in submission order.
    pub outcomes: Vec<JobOutcome>,
    /// The batch's statistics.
    pub stats: EngineStats,
}

impl BatchReport {
    /// Outcomes whose pipeline run succeeded.
    pub fn successes(&self) -> impl Iterator<Item = &JobOutcome> {
        self.outcomes.iter().filter(|o| o.result.is_ok())
    }

    /// Outcomes whose pipeline run failed (e.g. infeasible latency).
    pub fn failures(&self) -> impl Iterator<Item = &JobOutcome> {
        self.outcomes.iter().filter(|o| o.result.is_err())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn hit_rate_handles_zero_jobs() {
        let stats = EngineStats { workers: 1, ..EngineStats::zero() };
        assert_eq!(stats.hit_rate(), 0.0);
    }

    #[test]
    fn zero_job_stats_serialize_a_finite_hit_rate() {
        // The zero-jobs guard in `hit_rate()` must reach the wire: an
        // empty grid (or a stats-only introspection request) serializes
        // `0.0`, never `NaN`/`null`, so downstream JSON consumers always
        // see a number.
        let json = serde_json::to_string(&EngineStats::zero()).unwrap();
        assert!(json.contains("\"jobs\":0"), "{json}");
        assert!(json.contains("\"hit_rate_pct\":0.0"), "{json}");
        assert!(!json.contains("null"), "{json}");
        assert!(!json.to_lowercase().contains("nan"), "{json}");
        let text = EngineStats::zero().to_string();
        assert!(text.contains("0% hit rate"), "{text}");
    }

    #[test]
    fn idle_service_stats_serialize_a_finite_hit_rate() {
        // A `{"stats":true}` request against a freshly started server
        // reports a zero-job engine; the embedded stats must stay clean
        // JSON numbers all the way down.
        let stats = ServiceStats {
            requests: 0,
            errors: 0,
            uptime: Duration::ZERO,
            engine: EngineStats::zero(),
        };
        let json = serde_json::to_string(&stats).unwrap();
        assert!(json.contains("\"requests\":0"), "{json}");
        assert!(json.contains("\"hit_rate_pct\":0.0"), "{json}");
        assert!(!json.contains("null"), "{json}");
        assert!(serde_json::from_str(&json).is_ok(), "{json}");
    }

    #[test]
    fn merge_sums_disjoint_work_and_maxes_shared_state() {
        let a = EngineStats {
            jobs: 4,
            cache_hits: 1,
            cache_misses: 3,
            cache_entries: 10,
            workers: 2,
            elapsed: Duration::from_millis(8),
            stage_hits: 6,
            stage_misses: 9,
        };
        let b = EngineStats {
            jobs: 5,
            cache_hits: 0,
            cache_misses: 5,
            cache_entries: 10,
            workers: 3,
            elapsed: Duration::from_millis(5),
            stage_hits: 1,
            stage_misses: 20,
        };
        let merged = EngineStats::merged([&a, &b]);
        assert_eq!(merged.jobs, 9);
        assert_eq!(merged.cache_hits, 1);
        assert_eq!(merged.cache_misses, 8);
        assert_eq!(merged.cache_hits + merged.cache_misses, merged.jobs);
        assert_eq!(merged.cache_entries, 10);
        assert_eq!(merged.workers, 5);
        assert_eq!(merged.elapsed, Duration::from_millis(8));
        // Stage work sums like job work: the shards ran disjoint stages.
        assert_eq!(merged.stage_hits, 7);
        assert_eq!(merged.stage_misses, 29);
        assert_eq!(EngineStats::merged([]).jobs, 0);
    }

    #[test]
    fn service_stats_serialize_and_display() {
        let stats = ServiceStats {
            requests: 3,
            errors: 1,
            uptime: Duration::from_millis(1500),
            engine: EngineStats { jobs: 9, cache_hits: 6, cache_misses: 3, ..EngineStats::zero() },
        };
        let json = serde_json::to_string(&stats).unwrap();
        assert!(json.contains("\"requests\":3"), "{json}");
        assert!(json.contains("\"errors\":1"), "{json}");
        assert!(json.contains("\"uptime_ms\":1500"), "{json}");
        assert!(json.contains("\"engine\":{"), "{json}");
        let text = stats.to_string();
        assert!(text.contains("3 requests served, 1 rejected"), "{text}");
    }

    #[test]
    fn endpoint_stats_serialize_and_display() {
        let stats = EndpointStats {
            endpoint: "127.0.0.1:4850".to_string(),
            shards: vec![0, 2],
            stats: EngineStats { jobs: 6, cache_hits: 0, cache_misses: 6, ..EngineStats::zero() },
        };
        let json = serde_json::to_string(&stats).unwrap();
        assert!(json.contains("\"endpoint\":\"127.0.0.1:4850\""), "{json}");
        assert!(json.contains("\"shards\":[0,2]"), "{json}");
        assert!(json.contains("\"stats\":{"), "{json}");
        let text = stats.to_string();
        assert!(text.contains("endpoint 127.0.0.1:4850: 2 shard(s) [0, 2]"), "{text}");
    }

    #[test]
    fn sched_stats_serialize_and_display() {
        let stats = SchedStats {
            workers: 4,
            queue_depth: 7,
            active_requests: 2,
            admitted_requests: 10,
            completed_requests: 8,
            dispatched_tasks: 100,
            completed_tasks: 93,
            panicked_tasks: 0,
            total_wait: Duration::from_millis(200),
        };
        let json = serde_json::to_string(&stats).unwrap();
        assert!(json.contains("\"workers\":4"), "{json}");
        assert!(json.contains("\"queue_depth\":7"), "{json}");
        assert!(json.contains("\"active_requests\":2"), "{json}");
        assert!(json.contains("\"total_wait_ms\":200"), "{json}");
        assert!(json.contains("\"mean_wait_ms\":2"), "{json}");
        assert!(serde_json::from_str(&json).is_ok(), "{json}");
        let text = stats.to_string();
        assert!(text.contains("4 workers, 7 queued"), "{text}");
        // Idle scheduler divides by zero nowhere.
        let idle = SchedStats {
            workers: 1,
            queue_depth: 0,
            active_requests: 0,
            admitted_requests: 0,
            completed_requests: 0,
            dispatched_tasks: 0,
            completed_tasks: 0,
            panicked_tasks: 0,
            total_wait: Duration::ZERO,
        };
        assert_eq!(idle.mean_wait(), Duration::ZERO);
    }

    #[test]
    fn mean_wait_is_exact_past_the_u32_divisor_boundary() {
        // 2^33 dispatched tasks at 100 ns each. The old computation
        // clamped the divisor to u32::MAX and reported ~200 ns — double
        // the true mean — once a long-lived service crossed the boundary.
        let tasks: u64 = 1 << 33;
        let stats = SchedStats {
            workers: 8,
            queue_depth: 0,
            active_requests: 0,
            admitted_requests: tasks,
            completed_requests: tasks,
            dispatched_tasks: tasks,
            completed_tasks: tasks,
            panicked_tasks: 0,
            total_wait: Duration::from_nanos(100u64 << 33),
        };
        assert_eq!(stats.total_wait.as_nanos(), u128::from(tasks) * 100);
        assert_eq!(stats.mean_wait(), Duration::from_nanos(100));
        // Exactly at the boundary the old clamp happened to be fine;
        // stay exact there too.
        let at_boundary = SchedStats {
            dispatched_tasks: u64::from(u32::MAX),
            total_wait: Duration::from_nanos(7) * u32::MAX,
            ..stats
        };
        assert_eq!(at_boundary.mean_wait(), Duration::from_nanos(7));
    }

    #[test]
    fn display_mentions_hits_and_workers() {
        let stats = EngineStats {
            jobs: 4,
            cache_hits: 4,
            cache_misses: 0,
            cache_entries: 4,
            workers: 2,
            elapsed: Duration::from_millis(5),
            stage_hits: 0,
            stage_misses: 0,
        };
        let text = stats.to_string();
        assert!(text.contains("100% hit rate"), "{text}");
        assert!(text.contains("2 workers"), "{text}");
        assert!(!text.contains("stage"), "no stage noise when none ran: {text}");
        let staged = EngineStats { stage_hits: 3, stage_misses: 2, ..stats };
        assert!(staged.to_string().contains("3 stage hits / 2 stages computed"));
    }
}
