//! The performance-trajectory harness behind `bittrans bench`: a small,
//! self-contained benchmark suite over the real engine, service and shard
//! coordinator, reported as one JSON document (`BENCH_<n>.json` in the
//! repository root tracks it release over release).
//!
//! Seven timed metric groups, each exercising a different layer:
//!
//! * **throughput** — jobs/second of one cold batch at 1, 2 and 4
//!   workers, on a fresh engine each time ([`crate::executor`] scaling);
//! * **cache** — the same batch cold then warm on one engine, so the
//!   speedup is the price of the pipeline relative to a content-addressed
//!   hit on a finished job ([`crate::stagecache`]);
//! * **incremental** — a verify-heavy grid walked point by point on one
//!   engine, so every point after the first resolves its extract,
//!   fragment, verify and schedule stages from the stage memo
//!   ([`crate::stagecache`]) and only recomputes the allocation suffix;
//! * **serve** — round-trip p50/p99 of concurrent clients against an
//!   in-process [`Server`], measured through the real TCP codec
//!   ([`crate::proto`]);
//! * **sharding** — wall-clock of the same study dispatched over 1 and 2
//!   single-threaded serve endpoints by [`shard::run_sharded`]'s remote
//!   transport, with scaling efficiency;
//! * **multi_tenant** — small-tenant round-trip p50/p99 while a large
//!   grid saturates a width-1 server, the fairness cost the scheduler's
//!   round-robin interleaving ([`crate::sched`]) is supposed to bound;
//! * **fuzz** — cases/second of a fixed-seed in-process
//!   [`crate::fuzz`] run (every case is a full grid with cross-
//!   configuration invariant checks), so the differential fuzzer's
//!   throughput — what bounds how many seeds a CI budget covers — is
//!   tracked release over release like any other pipeline cost.
//!
//! A final group, **trace_check**, cross-checks the observability layer
//! against the statistics layer: it runs a cold+warm batch under the
//! in-memory trace collector and reconciles the per-job provenance
//! events ([`crate::trace`]) with the [`EngineStats`](crate::stats::EngineStats) counters — the two
//! systems count the same work through entirely different code paths, so
//! agreement here is a real invariant, not a tautology.
//!
//! Numbers come from wall clocks and are machine-dependent. Every timed
//! group runs [`BENCH_RUNS`] times and reports the median repetition (by
//! the group's primary scalar) plus the min-to-max spread in percent, so
//! a committed document carries its own noise estimate. CI gates on
//! consecutive `BENCH_<n>.json` deltas: a >2× regression beyond the two
//! documents' combined `spread_pct` allowance fails the job, within it
//! only warns. The `quick` mode shrinks every axis so CI can validate
//! the schema in seconds.

use crate::shard::{self, RemoteTransport, ShardOptions, ShardedStudy, Transport};
use crate::{proto, trace, Engine, EngineOptions, Job, ServeOptions, Server};
use bittrans_core::CompareOptions;
use bittrans_ir::Spec;
use serde_json::Value;
use std::io;
use std::path::PathBuf;
use std::sync::Mutex;
use std::time::{Duration, Instant};

/// Configuration of one [`run`].
#[derive(Clone, Copy, Debug, Default)]
pub struct BenchOptions {
    /// Shrink every axis (fewer jobs, fewer vectors, fewer requests) so
    /// the whole suite finishes in seconds — the CI schema-validation
    /// mode. Full runs produce the committed trajectory document.
    pub quick: bool,
}

/// One worker-count throughput measurement.
#[derive(Clone, Copy, Debug)]
pub struct ThroughputPoint {
    /// Worker threads the batch ran with.
    pub workers: usize,
    /// Jobs in the batch (all cold).
    pub jobs: u64,
    /// Batch wall clock.
    pub elapsed: Duration,
}

impl ThroughputPoint {
    /// Jobs per second (0 for a degenerate zero-duration clock).
    pub fn jobs_per_sec(&self) -> f64 {
        let secs = self.elapsed.as_secs_f64();
        if secs > 0.0 {
            self.jobs as f64 / secs
        } else {
            0.0
        }
    }
}

/// Cold-versus-warm cache measurement on one engine.
#[derive(Clone, Copy, Debug)]
pub struct CachePoint {
    /// First batch: everything computed.
    pub cold: Duration,
    /// Second identical batch: everything served from memory.
    pub warm: Duration,
    /// Hits the warm batch reported.
    pub warm_hits: u64,
}

impl CachePoint {
    /// How many times faster the warm batch was.
    pub fn speedup(&self) -> f64 {
        let warm = self.warm.as_secs_f64();
        if warm > 0.0 {
            self.cold.as_secs_f64() / warm
        } else {
            0.0
        }
    }
}

/// Round-trip latency distribution of concurrent serve clients.
#[derive(Clone, Copy, Debug)]
pub struct ServePoint {
    /// Concurrent client connections.
    pub clients: usize,
    /// Total requests measured across all clients.
    pub requests: usize,
    /// Median round trip.
    pub p50: Duration,
    /// 99th-percentile round trip.
    pub p99: Duration,
}

/// Small-tenant latency behind a large tenant on a deliberately narrow
/// (width-1) server — the fairness measurement.
#[derive(Clone, Copy, Debug)]
pub struct MultiTenantPoint {
    /// Cells in the large tenant's saturating grid.
    pub large_cells: u64,
    /// Small (2-cell, always-cold) requests measured behind it.
    pub small_requests: usize,
    /// Median small-tenant round trip while the large grid runs.
    pub small_p50: Duration,
    /// 99th-percentile small-tenant round trip.
    pub small_p99: Duration,
    /// The large tenant's own round trip.
    pub large_elapsed: Duration,
}

/// One shard-count scaling measurement.
#[derive(Clone, Copy, Debug)]
pub struct ShardPoint {
    /// Shards (and single-threaded endpoints) the study was cut across.
    pub shards: usize,
    /// Coordinator wall clock for the whole sharded run.
    pub elapsed: Duration,
}

/// Incremental-compute measurement over the engine's stage memo: one
/// verify-heavy spec walked point by point across allocation-layer
/// options on a single engine.
#[derive(Clone, Copy, Debug)]
pub struct IncrementalPoint {
    /// Grid points walked (first one cold, the rest warm).
    pub points: u64,
    /// Wall clock of the first point: every stage computes.
    pub cold_point: Duration,
    /// Mean wall clock of the remaining points, whose extract, fragment,
    /// verify and schedule stages resolve from the stage memo.
    pub warm_point: Duration,
    /// Stage resolutions served from the memo across the whole walk.
    pub stage_hits: u64,
    /// Stage resolutions computed across the whole walk.
    pub stage_misses: u64,
}

impl IncrementalPoint {
    /// How many times faster a warm point was than the cold one.
    pub fn speedup(&self) -> f64 {
        let warm = self.warm_point.as_secs_f64();
        if warm > 0.0 {
            self.cold_point.as_secs_f64() / warm
        } else {
            0.0
        }
    }

    /// Share of stage resolutions served from the memo, in percent.
    pub fn stage_hit_rate_pct(&self) -> f64 {
        let total = self.stage_hits + self.stage_misses;
        if total > 0 {
            self.stage_hits as f64 / total as f64 * 100.0
        } else {
            0.0
        }
    }
}

/// Throughput of a fixed-seed in-process fuzz run: full grid cases
/// checked per second, the number that bounds how many seeds a CI
/// budget covers.
#[derive(Clone, Copy, Debug)]
pub struct FuzzPoint {
    /// Cases (seeds) the run covered.
    pub cases: u64,
    /// Grid cells those cases evaluated.
    pub cells: u64,
    /// Invariant violations found (must be 0 on a healthy tree).
    pub violations: u64,
    /// Wall clock of the whole run.
    pub elapsed: Duration,
}

impl FuzzPoint {
    /// Cases per second (0 for a degenerate zero-duration clock).
    pub fn cases_per_sec(&self) -> f64 {
        let secs = self.elapsed.as_secs_f64();
        if secs > 0.0 {
            self.cases as f64 / secs
        } else {
            0.0
        }
    }
}

/// Repetitions of every timed metric group; the report carries the
/// median run and the min-to-max spread across all of them.
pub const BENCH_RUNS: u32 = 3;

/// Min-to-max spread (in percent of the median) of each timed group's
/// primary scalar across the [`BENCH_RUNS`] repetitions — the run-to-run
/// noise floor a trajectory gate has to tolerate.
#[derive(Clone, Copy, Debug, Default, PartialEq)]
pub struct SpreadPct {
    /// Throughput group (scalar: jobs/sec at the highest worker count).
    pub throughput: f64,
    /// Cache group (scalar: cold-to-warm speedup).
    pub cache: f64,
    /// Incremental group (scalar: cold-to-warm point speedup).
    pub incremental: f64,
    /// Serve group (scalar: p50 round trip).
    pub serve: f64,
    /// Sharding group (scalar: wall clock at the highest shard count).
    pub sharding: f64,
    /// Multi-tenant group (scalar: small-tenant p50).
    pub multi_tenant: f64,
    /// Fuzz group (scalar: cases/sec).
    pub fuzz: f64,
}

impl SpreadPct {
    /// The noisiest group's spread — the single number to read when
    /// judging whether a trajectory delta clears the noise floor.
    pub fn max(&self) -> f64 {
        [self.throughput, self.cache, self.incremental, self.serve, self.sharding]
            .into_iter()
            .chain([self.multi_tenant, self.fuzz])
            .fold(0.0, f64::max)
    }
}

/// The median repetition of one timed group plus the spread of its
/// primary scalar across all repetitions.
struct Measured<T> {
    median: T,
    spread_pct: f64,
}

/// Runs `f` `runs` times, picks the repetition whose `primary` scalar is
/// the median, and reports the min-to-max spread as a percentage of that
/// median (0 when the median is 0 or only one run was taken).
fn measured<T>(
    runs: u32,
    primary: impl Fn(&T) -> f64,
    mut f: impl FnMut() -> io::Result<T>,
) -> io::Result<Measured<T>> {
    let mut samples = Vec::new();
    for _ in 0..runs.max(1) {
        samples.push(f()?);
    }
    let keys: Vec<f64> = samples.iter().map(&primary).collect();
    let mut order: Vec<usize> = (0..samples.len()).collect();
    order.sort_by(|&a, &b| keys[a].total_cmp(&keys[b]));
    let mid = order[(order.len() - 1) / 2];
    let median_key = keys[mid];
    let (lo, hi) = (keys[order[0]], keys[order[order.len() - 1]]);
    let spread_pct = if median_key != 0.0 { (hi - lo) / median_key.abs() * 100.0 } else { 0.0 };
    Ok(Measured { median: samples.swap_remove(mid), spread_pct })
}

/// Trace-versus-stats reconciliation of one cold+warm batch pair.
#[derive(Clone, Copy, Debug)]
pub struct TraceCheck {
    /// `job` events with `provenance: "computed"` in the trace.
    pub traced_computed: u64,
    /// `job` events with a hit provenance (memory / disk / duplicate).
    pub traced_hits: u64,
    /// Misses the two batches' [`EngineStats`](crate::stats::EngineStats) reported.
    pub stats_misses: u64,
    /// Hits the two batches' [`EngineStats`](crate::stats::EngineStats) reported.
    pub stats_hits: u64,
}

impl TraceCheck {
    /// Whether the trace events and the statistics counters agree.
    pub fn consistent(&self) -> bool {
        self.traced_computed == self.stats_misses && self.traced_hits == self.stats_hits
    }
}

/// Everything one benchmark run measured.
#[derive(Clone, Debug)]
pub struct BenchReport {
    /// Whether the reduced `quick` grid ran.
    pub quick: bool,
    /// Distinct jobs in the workload batch.
    pub jobs: usize,
    /// Repetitions each timed group ran; the group fields below hold the
    /// median repetition.
    pub runs: u32,
    /// Per-group run-to-run spread across the repetitions.
    pub spread: SpreadPct,
    /// Cold throughput at each worker count.
    pub throughput: Vec<ThroughputPoint>,
    /// Cold-versus-warm cache speedup.
    pub cache: CachePoint,
    /// Stage-memo incremental-compute speedup.
    pub incremental: IncrementalPoint,
    /// Serve round-trip distribution.
    pub serve: ServePoint,
    /// Sharded scaling, ascending shard counts (first entry is the
    /// single-shard baseline).
    pub sharding: Vec<ShardPoint>,
    /// Small-tenant latency behind a saturating large tenant.
    pub multi_tenant: MultiTenantPoint,
    /// Differential-fuzz throughput.
    pub fuzz: FuzzPoint,
    /// Trace/stats cross-check.
    pub trace_check: TraceCheck,
}

/// Identifies the document layout; bumped if fields change shape.
/// v2 added the `multi_tenant` group; v3 added `incremental`; v4 made
/// every timed group a median-of-[`BENCH_RUNS`] and added the top-level
/// `runs` count and `spread_pct` noise-floor object; v5 added the
/// `fuzz` throughput group.
pub const SCHEMA: &str = "bittrans-bench-v5";

impl BenchReport {
    /// The report as one pretty-printed JSON document (the committed
    /// `BENCH_<n>.json` format). Hand-assembled so float formatting is
    /// stable across serializer changes.
    pub fn to_json(&self) -> String {
        let mut out = String::new();
        out.push_str(&format!(
            "{{\n  \"schema\": \"{SCHEMA}\",\n  \"quick\": {},\n  \"jobs\": {},\n  \
             \"runs\": {},\n",
            self.quick, self.jobs, self.runs
        ));
        out.push_str(&format!(
            "  \"spread_pct\": {{\"throughput\": {:.1}, \"cache\": {:.1}, \
             \"incremental\": {:.1}, \"serve\": {:.1}, \"sharding\": {:.1}, \
             \"multi_tenant\": {:.1}, \"fuzz\": {:.1}}},\n",
            self.spread.throughput,
            self.spread.cache,
            self.spread.incremental,
            self.spread.serve,
            self.spread.sharding,
            self.spread.multi_tenant,
            self.spread.fuzz,
        ));
        out.push_str("  \"throughput\": [\n");
        for (i, point) in self.throughput.iter().enumerate() {
            let comma = if i + 1 < self.throughput.len() { "," } else { "" };
            out.push_str(&format!(
                "    {{\"workers\": {}, \"jobs\": {}, \"elapsed_ms\": {:.3}, \
                 \"jobs_per_sec\": {:.1}}}{comma}\n",
                point.workers,
                point.jobs,
                point.elapsed.as_secs_f64() * 1e3,
                point.jobs_per_sec(),
            ));
        }
        out.push_str("  ],\n");
        out.push_str(&format!(
            "  \"cache\": {{\"cold_ms\": {:.3}, \"warm_ms\": {:.3}, \"speedup\": {:.1}, \
             \"warm_hits\": {}}},\n",
            self.cache.cold.as_secs_f64() * 1e3,
            self.cache.warm.as_secs_f64() * 1e3,
            self.cache.speedup(),
            self.cache.warm_hits,
        ));
        out.push_str(&format!(
            "  \"incremental\": {{\"points\": {}, \"cold_point_ms\": {:.3}, \
             \"warm_point_ms\": {:.3}, \"speedup\": {:.1}, \"stage_hits\": {}, \
             \"stage_misses\": {}, \"stage_hit_rate_pct\": {:.1}}},\n",
            self.incremental.points,
            self.incremental.cold_point.as_secs_f64() * 1e3,
            self.incremental.warm_point.as_secs_f64() * 1e3,
            self.incremental.speedup(),
            self.incremental.stage_hits,
            self.incremental.stage_misses,
            self.incremental.stage_hit_rate_pct(),
        ));
        out.push_str(&format!(
            "  \"serve\": {{\"clients\": {}, \"requests\": {}, \"p50_ms\": {:.3}, \
             \"p99_ms\": {:.3}}},\n",
            self.serve.clients,
            self.serve.requests,
            self.serve.p50.as_secs_f64() * 1e3,
            self.serve.p99.as_secs_f64() * 1e3,
        ));
        out.push_str(&format!(
            "  \"multi_tenant\": {{\"large_cells\": {}, \"small_requests\": {}, \
             \"small_p50_ms\": {:.3}, \"small_p99_ms\": {:.3}, \"large_elapsed_ms\": {:.3}}},\n",
            self.multi_tenant.large_cells,
            self.multi_tenant.small_requests,
            self.multi_tenant.small_p50.as_secs_f64() * 1e3,
            self.multi_tenant.small_p99.as_secs_f64() * 1e3,
            self.multi_tenant.large_elapsed.as_secs_f64() * 1e3,
        ));
        out.push_str("  \"sharding\": [\n");
        let baseline = self.sharding.first().map_or(Duration::ZERO, |p| p.elapsed);
        for (i, point) in self.sharding.iter().enumerate() {
            let comma = if i + 1 < self.sharding.len() { "," } else { "" };
            let speedup = if point.elapsed.as_secs_f64() > 0.0 {
                baseline.as_secs_f64() / point.elapsed.as_secs_f64()
            } else {
                0.0
            };
            let efficiency = if point.shards > 0 { speedup / point.shards as f64 } else { 0.0 };
            out.push_str(&format!(
                "    {{\"shards\": {}, \"elapsed_ms\": {:.3}, \"speedup\": {:.2}, \
                 \"efficiency\": {:.2}}}{comma}\n",
                point.shards,
                point.elapsed.as_secs_f64() * 1e3,
                speedup,
                efficiency,
            ));
        }
        out.push_str("  ],\n");
        out.push_str(&format!(
            "  \"fuzz\": {{\"cases\": {}, \"cells\": {}, \"violations\": {}, \
             \"elapsed_ms\": {:.3}, \"cases_per_sec\": {:.1}}},\n",
            self.fuzz.cases,
            self.fuzz.cells,
            self.fuzz.violations,
            self.fuzz.elapsed.as_secs_f64() * 1e3,
            self.fuzz.cases_per_sec(),
        ));
        out.push_str(&format!(
            "  \"trace_check\": {{\"traced_computed\": {}, \"traced_hits\": {}, \
             \"stats_misses\": {}, \"stats_hits\": {}, \"consistent\": {}}}\n}}\n",
            self.trace_check.traced_computed,
            self.trace_check.traced_hits,
            self.trace_check.stats_misses,
            self.trace_check.stats_hits,
            self.trace_check.consistent(),
        ));
        out
    }

    /// A short human-readable summary (the default `bittrans bench`
    /// output when `--json` is not given).
    pub fn summary(&self) -> String {
        let mut out = format!(
            "bench ({} jobs{}, median of {} runs, noise floor {:.1}%):\n",
            self.jobs,
            if self.quick { ", quick" } else { "" },
            self.runs,
            self.spread.max(),
        );
        for point in &self.throughput {
            out.push_str(&format!(
                "  {} worker(s): {:.1} jobs/sec\n",
                point.workers,
                point.jobs_per_sec()
            ));
        }
        out.push_str(&format!(
            "  cache: cold {:.1} ms, warm {:.3} ms ({:.0}x)\n",
            self.cache.cold.as_secs_f64() * 1e3,
            self.cache.warm.as_secs_f64() * 1e3,
            self.cache.speedup(),
        ));
        out.push_str(&format!(
            "  incremental: cold point {:.1} ms, warm point {:.1} ms ({:.1}x, \
             {:.0}% stage hits)\n",
            self.incremental.cold_point.as_secs_f64() * 1e3,
            self.incremental.warm_point.as_secs_f64() * 1e3,
            self.incremental.speedup(),
            self.incremental.stage_hit_rate_pct(),
        ));
        out.push_str(&format!(
            "  serve: p50 {:.2} ms, p99 {:.2} ms over {} requests from {} clients\n",
            self.serve.p50.as_secs_f64() * 1e3,
            self.serve.p99.as_secs_f64() * 1e3,
            self.serve.requests,
            self.serve.clients,
        ));
        out.push_str(&format!(
            "  multi-tenant: small p50 {:.2} ms / p99 {:.2} ms behind a {}-cell grid \
             ({:.1} ms)\n",
            self.multi_tenant.small_p50.as_secs_f64() * 1e3,
            self.multi_tenant.small_p99.as_secs_f64() * 1e3,
            self.multi_tenant.large_cells,
            self.multi_tenant.large_elapsed.as_secs_f64() * 1e3,
        ));
        for point in &self.sharding {
            out.push_str(&format!(
                "  {} shard(s): {:.1} ms\n",
                point.shards,
                point.elapsed.as_secs_f64() * 1e3
            ));
        }
        out.push_str(&format!(
            "  fuzz: {:.1} cases/sec ({} cases, {} violations)\n",
            self.fuzz.cases_per_sec(),
            self.fuzz.cases,
            self.fuzz.violations,
        ));
        out.push_str(&format!(
            "  trace/stats reconciliation: {}\n",
            if self.trace_check.consistent() { "consistent" } else { "INCONSISTENT" }
        ));
        out
    }
}

/// The workload: 3-add chains at several bit widths — distinct content
/// keys, identical structure — crossed with a feasible latency range,
/// made compute-heavy through the verification budget so worker scaling
/// is measurable on such small specs.
struct Workload {
    sources: Vec<String>,
    latencies: Vec<u32>,
    options: CompareOptions,
}

impl Workload {
    fn new(quick: bool) -> Workload {
        let widths: &[u32] = if quick { &[8, 16] } else { &[8, 10, 12, 14, 16, 20, 24, 32] };
        let latencies: Vec<u32> = if quick { vec![2, 3] } else { vec![2, 3, 4, 5] };
        let sources = widths
            .iter()
            .map(|w| {
                format!(
                    "spec chain{w} {{ input A: u{w}; input B: u{w}; input D: u{w}; \
                     input F: u{w}; C: u{w} = A + B; E: u{w} = C + D; G: u{w} = E + F; \
                     output G; }}"
                )
            })
            .collect();
        let options = CompareOptions {
            verify_vectors: if quick { 64 } else { 2000 },
            ..CompareOptions::default()
        };
        Workload { sources, latencies, options }
    }

    fn jobs(&self) -> Vec<Job> {
        let specs: Vec<Spec> =
            self.sources.iter().map(|src| Spec::parse(src).expect("bench spec parses")).collect();
        specs
            .iter()
            .flat_map(|spec| {
                self.latencies
                    .iter()
                    .map(|&latency| Job::with_options(spec.clone(), latency, self.options))
            })
            .collect()
    }

    fn sharded_study(&self) -> ShardedStudy {
        ShardedStudy {
            sources: self.sources.clone(),
            latencies: self.latencies.clone(),
            adder_archs: None,
            balance: None,
            verify_vectors: None,
            base: self.options,
        }
    }
}

/// Runs the whole suite: every timed group [`BENCH_RUNS`] times (each
/// repetition on fresh engines/servers, so counters stay exact), keeping
/// the median repetition and the cross-run spread. The trace collector
/// is taken over for the `trace_check` group (in-memory sink) and
/// released afterwards, so `bench` should not be combined with a file
/// trace of the same process; that group is a consistency check, not a
/// timing, and runs once.
///
/// # Errors
///
/// I/O from the in-process serve fleet or the scratch cache directories.
pub fn run(options: &BenchOptions) -> io::Result<BenchReport> {
    let workload = Workload::new(options.quick);
    let jobs = workload.jobs();
    let runs = BENCH_RUNS;

    let throughput = measured(
        runs,
        |points: &Vec<ThroughputPoint>| points.last().map_or(0.0, ThroughputPoint::jobs_per_sec),
        || Ok(measure_throughput(&jobs, options.quick)),
    )?;
    let cache = measured(runs, CachePoint::speedup, || Ok(measure_cache(&jobs)))?;
    let incremental =
        measured(runs, IncrementalPoint::speedup, || Ok(measure_incremental(options.quick)))?;
    let serve = measured(
        runs,
        |point: &ServePoint| point.p50.as_secs_f64(),
        || measure_serve(&workload, options.quick),
    )?;
    let sharding = measured(
        runs,
        |points: &Vec<ShardPoint>| points.last().map_or(0.0, |p| p.elapsed.as_secs_f64()),
        || measure_sharding(&workload),
    )?;
    let multi_tenant = measured(
        runs,
        |point: &MultiTenantPoint| point.small_p50.as_secs_f64(),
        || measure_multi_tenant(&workload, options.quick),
    )?;
    let fuzz = measured(runs, FuzzPoint::cases_per_sec, || Ok(measure_fuzz(options.quick)))?;
    let trace_check = measure_trace_check(&jobs);

    Ok(BenchReport {
        quick: options.quick,
        jobs: jobs.len(),
        runs,
        spread: SpreadPct {
            throughput: throughput.spread_pct,
            cache: cache.spread_pct,
            incremental: incremental.spread_pct,
            serve: serve.spread_pct,
            sharding: sharding.spread_pct,
            multi_tenant: multi_tenant.spread_pct,
            fuzz: fuzz.spread_pct,
        },
        throughput: throughput.median,
        cache: cache.median,
        incremental: incremental.median,
        serve: serve.median,
        sharding: sharding.median,
        multi_tenant: multi_tenant.median,
        fuzz: fuzz.median,
        trace_check,
    })
}

/// Cold batches on fresh engines at ascending worker counts.
fn measure_throughput(jobs: &[Job], quick: bool) -> Vec<ThroughputPoint> {
    let counts: &[usize] = if quick { &[1, 2] } else { &[1, 2, 4] };
    counts
        .iter()
        .map(|&workers| {
            let engine = Engine::new(EngineOptions { workers: Some(workers), cache: true });
            let batch = engine.run(jobs.to_vec());
            ThroughputPoint { workers, jobs: batch.stats.jobs, elapsed: batch.stats.elapsed }
        })
        .collect()
}

/// The same batch cold then warm on one engine.
fn measure_cache(jobs: &[Job]) -> CachePoint {
    let engine = Engine::default();
    let cold = engine.run(jobs.to_vec());
    let warm = engine.run(jobs.to_vec());
    CachePoint {
        cold: cold.stats.elapsed,
        warm: warm.stats.elapsed,
        warm_hits: warm.stats.cache_hits,
    }
}

/// One verify-heavy spec walked point by point across the allocation
/// axes (adder architecture, and cycle balancing in full mode) on a
/// single engine, one batch per point so each point's wall clock and
/// stage counters are observable in isolation. Every point is a distinct
/// job key — the job-level cache never hits — but the stage memo serves
/// the allocation-invariant prefix (extract, fragment, the expensive
/// verify, both schedules) to every point after the first, so the
/// cold-to-warm point ratio is the speedup incremental stage caching
/// buys when only downstream options change.
fn measure_incremental(quick: bool) -> IncrementalPoint {
    use bittrans_rtl::AdderArch;

    let spec = Spec::parse(
        "spec inc { input A: u16; input B: u16; input D: u16; input F: u16; \
         C: u16 = A + B; E: u16 = C + D; G: u16 = E + F; output G; }",
    )
    .expect("bench spec parses");
    // Verification dominates the cold point so the shared-prefix saving
    // is well above timer noise even on the quick grid.
    let vectors = if quick { 4000 } else { 40_000 };
    let archs = [AdderArch::RippleCarry, AdderArch::CarryLookahead, AdderArch::CarrySelect];
    let balances: &[bool] = if quick { &[true] } else { &[true, false] };

    let engine = Engine::default();
    let mut cold_point = Duration::ZERO;
    let mut warm_total = Duration::ZERO;
    let mut warm_points = 0u32;
    let mut stage_hits = 0u64;
    let mut stage_misses = 0u64;
    let mut points = 0u64;
    for &balance in balances {
        for arch in archs {
            let options = CompareOptions {
                adder_arch: arch,
                balance,
                verify_vectors: vectors,
                ..CompareOptions::default()
            };
            let batch = engine.run(vec![Job::with_options(spec.clone(), 3, options)]);
            stage_hits += batch.stats.stage_hits;
            stage_misses += batch.stats.stage_misses;
            if points == 0 {
                cold_point = batch.stats.elapsed;
            } else {
                warm_total += batch.stats.elapsed;
                warm_points += 1;
            }
            points += 1;
        }
    }
    IncrementalPoint {
        points,
        cold_point,
        warm_point: warm_total / warm_points.max(1),
        stage_hits,
        stage_misses,
    }
}

/// Concurrent clients round-tripping a small study against an in-process
/// server; the engine is warm after each client's first request, so the
/// distribution mostly measures the protocol and the scheduler's
/// admission path.
fn measure_serve(workload: &Workload, quick: bool) -> io::Result<ServePoint> {
    let server = Server::bind(&ServeOptions::default())?;
    let addr = server.local_addr().to_string();
    let server = std::thread::spawn(move || server.run());

    let clients = if quick { 2 } else { 4 };
    let per_client = if quick { 3 } else { 8 };
    let body = serde_json::to_string(&workload.sharded_study()).expect("study serializes");
    let timeout = Duration::from_secs(120);
    let latencies: Mutex<Vec<Duration>> = Mutex::new(Vec::new());
    std::thread::scope(|scope| {
        for _ in 0..clients {
            scope.spawn(|| {
                let Ok(mut client) = proto::LineClient::connect(&addr, timeout) else { return };
                for _ in 0..per_client {
                    let started = Instant::now();
                    if client.request(&body).is_err() {
                        return;
                    }
                    latencies.lock().expect("latency lock").push(started.elapsed());
                }
            });
        }
    });
    let mut samples = latencies.into_inner().expect("latency lock");
    samples.sort_unstable();

    let mut shutdown = proto::LineClient::connect(&addr, timeout)?;
    let _ = shutdown.request("{\"shutdown\":true}");
    let _ = server.join();

    let percentile = |p: usize| -> Duration {
        if samples.is_empty() {
            Duration::ZERO
        } else {
            samples[(samples.len() - 1) * p / 100]
        }
    };
    Ok(ServePoint { clients, requests: samples.len(), p50: percentile(50), p99: percentile(99) })
}

/// Small 2-cell tenants round-tripping against a deliberately width-1
/// server that a large grid is saturating. Every small request uses a
/// fresh spec (always cold), so the p50/p99 measure how quickly the fair
/// scheduler interleaves a newcomer's two tasks into a long backlog —
/// under the old per-request run lock these latencies would approach the
/// large tenant's whole wall clock.
fn measure_multi_tenant(workload: &Workload, quick: bool) -> io::Result<MultiTenantPoint> {
    let server = Server::bind(&ServeOptions { workers: Some(1), ..ServeOptions::default() })?;
    let addr = server.local_addr().to_string();
    let server = std::thread::spawn(move || server.run());
    let timeout = Duration::from_secs(300);

    let large_body = serde_json::to_string(&workload.sharded_study()).expect("study serializes");
    let large_cells = (workload.sources.len() * workload.latencies.len()) as u64;
    let addr_large = addr.clone();
    let large = std::thread::spawn(move || -> io::Result<Duration> {
        let mut client = proto::LineClient::connect(&addr_large, timeout)?;
        let started = Instant::now();
        client.request(&large_body)?;
        Ok(started.elapsed())
    });

    // Give the large grid a head start onto the scheduler so the small
    // tenants demonstrably arrive behind its backlog.
    std::thread::sleep(Duration::from_millis(if quick { 20 } else { 100 }));
    let small_requests = if quick { 2 } else { 8 };
    let mut samples = Vec::new();
    let mut client = proto::LineClient::connect(&addr, timeout)?;
    for i in 0..small_requests {
        let body = format!(
            "{{\"sources\": [\"spec tenant{i} {{ input a: u8; input b: u8; \
             s: u8 = a + b; output s; }}\"], \"latencies\": [2, 3]}}"
        );
        let started = Instant::now();
        client.request(&body)?;
        samples.push(started.elapsed());
    }
    let large_elapsed = large.join().expect("large tenant thread")?;
    samples.sort_unstable();

    let mut shutdown = proto::LineClient::connect(&addr, timeout)?;
    let _ = shutdown.request("{\"shutdown\":true}");
    let _ = server.join();

    let percentile = |p: usize| -> Duration {
        if samples.is_empty() {
            Duration::ZERO
        } else {
            samples[(samples.len() - 1) * p / 100]
        }
    };
    Ok(MultiTenantPoint {
        large_cells,
        small_requests: samples.len(),
        small_p50: percentile(50),
        small_p99: percentile(99),
        large_elapsed,
    })
}

/// The same study dispatched over 1 and 2 single-threaded in-process
/// serve endpoints, each run from a cold scratch store, through the real
/// remote shard transport.
fn measure_sharding(workload: &Workload) -> io::Result<Vec<ShardPoint>> {
    let sharded = workload.sharded_study();
    let mut points = Vec::new();
    for (which, shards) in [1usize, 2].into_iter().enumerate() {
        let cache_dir = scratch_dir(which)?;
        let mut endpoints = Vec::new();
        let mut servers = Vec::new();
        for _ in 0..shards {
            let server = Server::bind(&ServeOptions {
                workers: Some(1),
                cache_dir: Some(cache_dir.clone()),
                ..ServeOptions::default()
            })?;
            endpoints.push(server.local_addr().to_string());
            servers.push(std::thread::spawn(move || server.run()));
        }
        let options = ShardOptions {
            shards,
            transport: Transport::Remote(RemoteTransport {
                endpoints: endpoints.clone(),
                timeout: Duration::from_secs(120),
            }),
        };
        let started = Instant::now();
        let run = shard::run_sharded(&sharded, &cache_dir, &options)
            .map_err(|e| io::Error::other(e.to_string()))?;
        let elapsed = started.elapsed();
        drop(run);
        for endpoint in &endpoints {
            if let Ok(mut client) = proto::LineClient::connect(endpoint, Duration::from_secs(5)) {
                let _ = client.request("{\"shutdown\":true}");
            }
        }
        for server in servers {
            let _ = server.join();
        }
        let _ = std::fs::remove_dir_all(&cache_dir);
        points.push(ShardPoint { shards, elapsed });
    }
    Ok(points)
}

/// A fixed-seed in-process [`crate::fuzz`] run, all four spec shapes
/// covered, no differential (the sharded path spawns `serve` processes,
/// which would make the number a process-launch benchmark). Seed 100
/// keeps the workload disjoint from the seeds the fuzz tests pin.
fn measure_fuzz(quick: bool) -> FuzzPoint {
    let options = crate::fuzz::FuzzOptions {
        count: if quick { 4 } else { 24 },
        seed: 100,
        ..crate::fuzz::FuzzOptions::default()
    };
    let report = crate::fuzz::run(&options);
    FuzzPoint {
        cases: report.count as u64,
        cells: report.cells as u64,
        violations: report.total_violations() as u64,
        elapsed: Duration::from_millis(report.elapsed_ms as u64),
    }
}

/// A cold+warm batch pair under the in-memory trace collector, with the
/// per-job provenance events reconciled against the statistics counters.
fn measure_trace_check(jobs: &[Job]) -> TraceCheck {
    trace::install_memory();
    let engine = Engine::default();
    let cold = engine.run(jobs.to_vec());
    let warm = engine.run(jobs.to_vec());
    let lines = trace::drain();
    trace::uninstall();

    let mut traced_computed = 0u64;
    let mut traced_hits = 0u64;
    for line in &lines {
        let Ok(value) = serde_json::from_str(line) else { continue };
        if value.get("name").and_then(Value::as_str) != Some("job") {
            continue;
        }
        match value.get("provenance").and_then(Value::as_str) {
            Some("computed") => traced_computed += 1,
            Some("memory" | "disk" | "duplicate") => traced_hits += 1,
            _ => {}
        }
    }
    TraceCheck {
        traced_computed,
        traced_hits,
        stats_misses: cold.stats.cache_misses + warm.stats.cache_misses,
        stats_hits: cold.stats.cache_hits + warm.stats.cache_hits,
    }
}

/// A process-unique scratch cache directory under the system temp dir.
fn scratch_dir(which: usize) -> io::Result<PathBuf> {
    let dir = std::env::temp_dir().join(format!("bittrans-bench-{}-{which}", std::process::id()));
    if dir.exists() {
        std::fs::remove_dir_all(&dir)?;
    }
    std::fs::create_dir_all(&dir)?;
    Ok(dir)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn measured_picks_the_median_run_and_reports_the_spread() {
        let samples = [4.0f64, 1.0, 2.0];
        let mut next = 0usize;
        let got = measured(
            3,
            |v: &f64| *v,
            || {
                next += 1;
                Ok(samples[next - 1])
            },
        )
        .unwrap();
        assert_eq!(got.median, 2.0);
        // (4 - 1) / 2 = 150% min-to-max spread around the median.
        assert!((got.spread_pct - 150.0).abs() < 1e-9, "{}", got.spread_pct);

        let single = measured(1, |v: &f64| *v, || Ok(7.0)).unwrap();
        assert_eq!(single.median, 7.0);
        assert_eq!(single.spread_pct, 0.0);

        let zero = measured(3, |v: &f64| *v, || Ok(0.0)).unwrap();
        assert_eq!(zero.spread_pct, 0.0, "zero median degrades to zero spread");
    }

    #[test]
    fn quick_bench_produces_a_valid_consistent_document() {
        let report = run(&BenchOptions { quick: true }).expect("quick bench runs");
        assert!(report.quick);
        assert!(report.jobs > 0);
        assert_eq!(report.runs, BENCH_RUNS);
        for (group, spread) in [
            ("throughput", report.spread.throughput),
            ("cache", report.spread.cache),
            ("incremental", report.spread.incremental),
            ("serve", report.spread.serve),
            ("sharding", report.spread.sharding),
            ("multi_tenant", report.spread.multi_tenant),
            ("fuzz", report.spread.fuzz),
        ] {
            assert!(spread.is_finite() && spread >= 0.0, "{group} spread {spread}");
        }
        assert!(report.spread.max() >= report.spread.cache);
        assert_eq!(report.throughput.len(), 2);
        assert!(report.throughput.iter().all(|p| p.jobs == report.jobs as u64));
        assert!(report.cache.warm_hits == report.jobs as u64);
        // The incremental walk: 3 points (one per adder arch), the first
        // cold (9 stages computed), the rest sharing the 5-stage
        // allocation-invariant prefix each.
        assert_eq!(report.incremental.points, 3);
        assert_eq!(report.incremental.stage_misses, 9 + 2 * 4);
        assert_eq!(report.incremental.stage_hits, 2 * 5);
        assert!(report.incremental.stage_hit_rate_pct() > 0.0);
        assert!(
            report.incremental.speedup() > 1.0,
            "warm points must beat the verify-heavy cold point: {:?}",
            report.incremental
        );
        assert!(report.serve.requests > 0);
        assert_eq!(report.fuzz.cases, 4);
        assert_eq!(report.fuzz.cells, 4 * 24);
        assert_eq!(report.fuzz.violations, 0, "quick bench fuzz must run clean");
        assert_eq!(report.sharding.len(), 2);
        assert_eq!(report.multi_tenant.small_requests, 2);
        assert!(report.multi_tenant.large_cells > 0);
        assert!(
            report.trace_check.consistent(),
            "trace {:?} disagrees with stats",
            report.trace_check
        );

        // The JSON document parses and carries every metric group.
        let json = report.to_json();
        let value: Value = serde_json::from_str(&json).expect("bench JSON parses");
        assert_eq!(value.get("schema").and_then(Value::as_str), Some(SCHEMA));
        assert_eq!(value.get("runs").and_then(Value::as_u64), Some(u64::from(BENCH_RUNS)));
        for group in [
            "spread_pct",
            "throughput",
            "cache",
            "incremental",
            "serve",
            "multi_tenant",
            "sharding",
            "fuzz",
            "trace_check",
        ] {
            assert!(value.get(group).is_some(), "missing `{group}` in {json}");
        }
        assert_eq!(
            value.get("trace_check").and_then(|t| t.get("consistent")).and_then(Value::as_bool),
            Some(true)
        );
        assert!(!report.summary().is_empty());
    }
}
