//! bittrans benchmark harness.
//!
//! ```text
//! perfbench --workload <paper-verify|random-alloc|serve-mixed|warm-restart>
//!           --seed <n> --seconds <s> --trace <0|1> [--size full|tiny]
//! perfbench --write-expected <file>
//! ```
//!
//! Every workload drives the pipeline through the engine's public API,
//! checks every answered cell against the reference, and prints as its
//! last stdout line one JSON object: `correct`, `attempted`, `failed`
//! and `metrics` (the end-to-end metrics with `--trace 0`, the per-layer
//! metrics of a traced run with `--trace 1`). Earlier stdout lines carry
//! the host fingerprint and the sample counts. See `README.md`.

mod grid;
mod host;
mod layers;
mod serve;

use bittrans_engine::{BatchReport, Engine, EngineOptions, EngineStats, Job};
use grid::{CellKey, CellResult, Reference, Tally};
use std::collections::BTreeMap;
use std::path::{Path, PathBuf};
use std::process::ExitCode;
use std::time::{Duration, Instant};

/// End-to-end metrics, printed with `--trace 0`: (name, unit).
const END_TO_END: [(&str, &str); 8] = [
    ("cells_per_s", "1/s"),
    ("req_per_s", "1/s"),
    ("rtt_p50_ms", "ms"),
    ("rtt_p95_ms", "ms"),
    ("cycle_saved_pct", "%"),
    ("area_delta_pct", "%"),
    ("setup_s", "s"),
    ("peak_rss_mb", "MB"),
];

/// Per-layer metrics of a traced run, printed with `--trace 1`. A layer
/// a workload does not exercise reads 0.
const PER_LAYER: [(&str, &str); 35] = [
    ("core.extract.calls", "count"),
    ("core.extract.busy_ms", "ms"),
    ("core.fragment.calls", "count"),
    ("core.fragment.busy_ms", "ms"),
    ("core.verify.calls", "count"),
    ("core.verify.busy_ms", "ms"),
    ("core.schedule.calls", "count"),
    ("core.schedule.busy_ms", "ms"),
    ("core.allocate.calls", "count"),
    ("core.allocate.busy_ms", "ms"),
    ("core.time.calls", "count"),
    ("core.time.busy_ms", "ms"),
    ("core.busy_ms", "ms"),
    ("sim.vectors_per_s", "1/s"),
    ("alloc.calls_per_cell", "count"),
    ("stagecache.hits", "count"),
    ("stagecache.misses", "count"),
    ("stagecache.hit_ratio", "ratio"),
    ("engine.run_ms", "ms"),
    ("executor.busy_ratio", "ratio"),
    ("engine.unattributed_ms", "ms"),
    ("cache.hits", "count"),
    ("cache.misses", "count"),
    ("cache.hit_ratio", "ratio"),
    ("persist.open_ms", "ms"),
    ("persist.lookup_us", "us"),
    ("persist.store_bytes", "bytes"),
    ("persist.store_files", "count"),
    ("serve.server_ms_p50", "ms"),
    ("proto.wire_ms_p50", "ms"),
    ("proto.wire_ms_p95", "ms"),
    ("sched.mean_wait_ms", "ms"),
    ("serve.errors", "count"),
    ("ir.parse_us", "us"),
    ("trace.overhead_pct", "%"),
];

/// The four workloads.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
enum Workload {
    PaperVerify,
    RandomAlloc,
    ServeMixed,
    WarmRestart,
}

impl Workload {
    fn parse(name: &str) -> Option<Workload> {
        Some(match name {
            "paper-verify" => Workload::PaperVerify,
            "random-alloc" => Workload::RandomAlloc,
            "serve-mixed" => Workload::ServeMixed,
            "warm-restart" => Workload::WarmRestart,
            _ => return None,
        })
    }
}

/// One run's configuration.
pub struct Config {
    workload: Workload,
    pub seed: u64,
    pub budget: Duration,
    pub trace: bool,
    pub tiny: bool,
    /// Engine worker threads and client connections: two, or fewer on a
    /// smaller host.
    pub workers: usize,
    /// Scratch directory for cache stores, removed when the run ends.
    pub work_dir: PathBuf,
}

/// What a workload measured and checked.
#[derive(Default)]
pub struct Outcome {
    pub attempted: u64,
    pub failed: u64,
    /// Why the run is not correct, beyond counted failures (reference or
    /// reconciliation trouble); the first few mismatches, for the log.
    pub problems: Vec<String>,
    /// Set when a check other than the per-cell comparison failed.
    pub broken: bool,
    pub metrics: BTreeMap<&'static str, f64>,
    /// Sample counts and similar context, printed on an info line.
    pub info: Vec<(&'static str, f64)>,
}

impl Outcome {
    pub fn set(&mut self, name: &'static str, value: f64) {
        self.metrics.insert(name, value);
    }

    pub fn fail(&mut self, problem: String) {
        self.broken = true;
        self.problems.push(problem);
    }
}

fn parse_args() -> Result<Option<Config>, String> {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let mut workload = None;
    let mut seed = grid::DEFAULT_SEED;
    let mut seconds = 10.0_f64;
    let mut trace = false;
    let mut tiny = false;
    let mut at = 0;
    while at < args.len() {
        let value = args.get(at + 1).ok_or_else(|| format!("{} needs a value", args[at]))?;
        match args[at].as_str() {
            "--workload" => {
                workload = Some(
                    Workload::parse(value).ok_or_else(|| format!("unknown workload `{value}`"))?,
                );
            }
            "--seed" => seed = value.parse().map_err(|_| format!("bad seed `{value}`"))?,
            "--seconds" => {
                seconds = value.parse().map_err(|_| format!("bad seconds `{value}`"))?;
                if !(seconds > 0.0 && seconds <= 3600.0) {
                    return Err(format!("seconds out of range: {value}"));
                }
            }
            "--trace" => {
                trace = match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(format!("--trace takes 0 or 1, not `{value}`")),
                }
            }
            "--size" => {
                tiny = match value.as_str() {
                    "full" => false,
                    "tiny" => true,
                    _ => return Err(format!("--size takes full or tiny, not `{value}`")),
                }
            }
            "--write-expected" => {
                let text = grid::write_expected(default_workers())?;
                std::fs::write(value, text).map_err(|e| format!("writing {value}: {e}"))?;
                return Ok(None);
            }
            other => return Err(format!("unknown argument `{other}`")),
        }
        at += 2;
    }
    let workload = workload.ok_or("--workload is required")?;
    let work_dir = Path::new(".bench_work").join(format!("run-{}", std::process::id()));
    Ok(Some(Config {
        workload,
        seed,
        budget: Duration::from_secs_f64(seconds),
        trace,
        tiny,
        workers: default_workers(),
        work_dir,
    }))
}

fn default_workers() -> usize {
    std::thread::available_parallelism().map_or(1, |n| n.get()).min(2)
}

fn main() -> ExitCode {
    let config = match parse_args() {
        Ok(Some(config)) => config,
        Ok(None) => return ExitCode::SUCCESS,
        Err(e) => {
            eprintln!("perfbench: {e}");
            return ExitCode::from(2);
        }
    };
    println!("{}", host::fingerprint_line(config.workers));
    let outcome = std::fs::create_dir_all(&config.work_dir)
        .map_err(|e| format!("creating {}: {e}", config.work_dir.display()))
        .and_then(|()| match config.workload {
            Workload::PaperVerify | Workload::RandomAlloc | Workload::WarmRestart => {
                run_grid(&config)
            }
            Workload::ServeMixed => serve::run(&config),
        });
    let _ = std::fs::remove_dir_all(&config.work_dir);
    let _ = std::fs::remove_dir(".bench_work");
    let outcome = match outcome {
        Ok(outcome) => outcome,
        Err(e) => {
            eprintln!("perfbench: {e}");
            return ExitCode::FAILURE;
        }
    };
    for problem in &outcome.problems {
        eprintln!("perfbench: {problem}");
    }
    let correct = outcome.failed == 0 && !outcome.broken && outcome.attempted > 0;
    let info: Vec<String> = outcome.info.iter().map(|(k, v)| format!("\"{k}\": {v}")).collect();
    println!("{{\"info\": {{{}}}}}", info.join(", "));
    let names: &[(&str, &str)] = if config.trace { &PER_LAYER } else { &END_TO_END };
    let mut metrics = Vec::new();
    for (name, unit) in names {
        let mut value = outcome.metrics.get(name).copied().unwrap_or(0.0);
        if !value.is_finite() {
            value = 0.0;
        }
        metrics.push(format!("\"{name}\": {{\"value\": {value}, \"unit\": \"{unit}\"}}"));
    }
    println!(
        "{{\"correct\": {correct}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
        outcome.attempted.max(1),
        outcome.failed,
        metrics.join(", ")
    );
    if correct {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}

/// Resets the peak resident set to the current one, so that `VmHWM`
/// covers only what runs after; false where the kernel does not allow it.
/// Heap that earlier work freed is first handed back to the kernel, so
/// set-up's leftovers do not stand in for the timed phase's own memory.
pub fn reset_peak_rss() -> bool {
    #[cfg(all(target_os = "linux", target_env = "gnu"))]
    {
        extern "C" {
            fn malloc_trim(pad: usize) -> i32;
        }
        // SAFETY: glibc's malloc_trim only releases free heap pages; it
        // takes no pointer and is safe to call from any thread.
        unsafe {
            malloc_trim(0);
        }
    }
    std::fs::write("/proc/self/clear_refs", "5").is_ok()
}

/// Peak resident set of this process since the last reset, in MB
/// (`VmHWM`).
pub fn peak_rss_mb() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|status| {
            status.lines().find_map(|line| {
                let kb = line.strip_prefix("VmHWM:")?.trim().strip_suffix("kB")?.trim();
                kb.parse::<f64>().ok()
            })
        })
        .map_or(0.0, |kb| kb / 1024.0)
}

/// Bytes and files under `dir`, recursively.
pub fn dir_usage(dir: &Path) -> (u64, u64) {
    let mut bytes = 0;
    let mut files = 0;
    let mut stack = vec![dir.to_path_buf()];
    while let Some(at) = stack.pop() {
        let Ok(entries) = std::fs::read_dir(&at) else { continue };
        for entry in entries.flatten() {
            let Ok(meta) = entry.metadata() else { continue };
            if meta.is_dir() {
                stack.push(entry.path());
            } else {
                bytes += meta.len();
                files += 1;
            }
        }
    }
    (bytes, files)
}

/// Source text of every distinct spec of a job list, for the parse-time
/// probe: the DSL rendering where it parses back, the canonical codec
/// text otherwise (as a client would send it to `serve`).
fn spec_texts(jobs: &[Job]) -> Vec<String> {
    let mut seen = std::collections::HashSet::new();
    jobs.iter()
        .filter(|job| seen.insert(job.spec.name().to_string()))
        .map(|job| {
            let text = job.spec.to_string();
            if bittrans_ir::Spec::parse(&text).is_ok() {
                text
            } else {
                job.spec.to_canonical()
            }
        })
        .collect()
}

/// One timed request: a fresh engine answers the whole grid.
struct Request {
    wall: Duration,
    /// Time spent opening the cache directory (warm-restart only).
    open: Duration,
    stats: EngineStats,
}

/// The three grid workloads. A request builds a fresh engine with
/// `workers` threads — cold for paper-verify and random-alloc, opened on
/// the populated cache directory for warm-restart — and answers the
/// whole grid through `Engine::run`.
fn run_grid(config: &Config) -> Result<Outcome, String> {
    let mut reference = Reference::load()?;
    let warm = config.workload == Workload::WarmRestart;
    // Warm-restart fills its store from the first half of the random
    // grid's specs, so its set-up stays a few seconds.
    let random_specs = match (config.tiny, warm) {
        (true, _) => 8,
        (false, false) => grid::RANDOM_SPECS,
        (false, true) => grid::RANDOM_SPECS / 2,
    };
    let options = EngineOptions { workers: Some(config.workers), cache: true };
    let mut out = Outcome::default();

    // Set-up, repeated so its median is steady: build the grid and, for
    // warm-restart, fill a cache directory with one cold pass.
    let repeats = if warm { 3 } else { 31 };
    let mut setup_s = Vec::new();
    let mut prepared = None;
    for round in 0..repeats {
        let started = Instant::now();
        let jobs = match config.workload {
            Workload::PaperVerify => grid::paper_jobs(config.tiny),
            _ => grid::random_jobs(config.seed, random_specs),
        };
        let store = if warm {
            let dir = config.work_dir.join(format!("store-{round}"));
            let engine = Engine::new(options)
                .with_cache_dir(&dir)
                .map_err(|e| format!("opening {}: {e}", dir.display()))?;
            let populate = engine.run(jobs.clone());
            Some((dir, populate))
        } else {
            None
        };
        setup_s.push(started.elapsed().as_secs_f64());
        if let Some((old, _)) = prepared.replace((jobs, store)).and_then(|(_, store)| store) {
            let _ = std::fs::remove_dir_all(old);
        }
    }
    let (jobs, store) = prepared.expect("at least one set-up round");
    out.set("setup_s", layers::median(&setup_s));

    // Answers are tallied while timing and checked after it; the pass
    // that filled the store is checked with them.
    let mut tally = Tally::new(jobs.len());
    let dir = store.map(|(dir, populate)| {
        tally.add(populate.outcomes.iter().map(grid::outcome_result).collect());
        out.attempted += populate.outcomes.len() as u64;
        dir
    });
    let send = || -> Result<(Request, Vec<CellResult>), String> {
        let batch = jobs.clone();
        let started = Instant::now();
        let engine = match &dir {
            Some(dir) => Engine::new(options)
                .with_cache_dir(dir)
                .map_err(|e| format!("opening {}: {e}", dir.display()))?,
            None => Engine::new(options),
        };
        let open = if dir.is_some() { started.elapsed() } else { Duration::ZERO };
        let BatchReport { outcomes, stats } = engine.run(batch);
        let wall = started.elapsed();
        drop(engine);
        Ok((Request { wall, open, stats }, outcomes.iter().map(grid::outcome_result).collect()))
    };
    // Sends requests until `budget` is spent, tallying each answer;
    // returns the requests and the peak resident set during each. Every
    // request starts, like a restarted process, without free heap left
    // over from the one before.
    let phase = |budget: Duration, tally: &mut Tally, out: &mut Outcome| {
        let started = Instant::now();
        let mut requests = Vec::new();
        let mut peaks = Vec::new();
        while requests.is_empty() || started.elapsed() < budget {
            reset_peak_rss();
            let (request, results) = send()?;
            peaks.push(peak_rss_mb());
            out.attempted += results.len() as u64;
            tally.add(results);
            requests.push(request);
        }
        Ok::<_, String>((requests, peaks))
    };
    let walls = |requests: &[Request]| -> Vec<f64> {
        requests.iter().map(|r| r.wall.as_secs_f64()).collect()
    };

    if !config.trace {
        if !reset_peak_rss() {
            out.fail("cannot reset the peak resident set (/proc/self/clear_refs)".to_string());
        }
        let (requests, peaks) = phase(config.budget, &mut tally, &mut out)?;
        // Every request repeats the same work, and a shared host only
        // ever adds time to it, so the timings come from the fastest
        // request (the rule `timeit` follows for repeated work); a slower
        // program slows every request.
        let walls = walls(&requests);
        let fastest = walls.iter().copied().fold(f64::INFINITY, f64::min);
        out.set("cells_per_s", jobs.len() as f64 / fastest);
        out.set("req_per_s", 1.0 / fastest);
        out.set("rtt_p50_ms", fastest * 1e3);
        out.set("rtt_p95_ms", fastest * 1e3);
        out.set("peak_rss_mb", layers::median(&peaks));
        let (saved, area) = grid::quality(&tally.first());
        out.set("cycle_saved_pct", saved);
        out.set("area_delta_pct", area);
        out.info.push(("requests", requests.len() as f64));
        out.info.push(("cells_per_request", jobs.len() as f64));
        out.info.push(("median_request_ms", layers::median(&walls) * 1e3));
        check_answers(&mut reference, &jobs, &tally, config.workers, &mut out);
        return Ok(out);
    }

    // Traced run: half the budget untraced, half under the stage
    // observer; the ratio of their mean request times is the overhead.
    let (plain, _) = phase(config.budget / 2, &mut tally, &mut out)?;
    out.set("ir.parse_us", layers::parse_us(&spec_texts(&jobs)));
    let totals = layers::start();
    let traced = phase(config.budget / 2, &mut tally, &mut out);
    layers::stop();
    let (traced, _) = traced?;
    let traced_walls = walls(&traced);
    let mean = |walls: &[f64]| walls.iter().sum::<f64>() / walls.len() as f64;
    out.set("trace.overhead_pct", (mean(&traced_walls) / mean(&walls(&plain)) - 1.0) * 100.0);
    // Per-layer counts and times are per request.
    let requests = traced.len() as f64;
    let sum = |f: fn(&EngineStats) -> u64| traced.iter().map(|r| f(&r.stats)).sum::<u64>() as f64;
    let stage_misses = sum(|s| s.stage_misses);
    let stage_hits = sum(|s| s.stage_hits);
    let cache_misses = sum(|s| s.cache_misses);
    let cache_hits = sum(|s| s.cache_hits);
    reconcile(&totals, stage_misses as u64, &mut out);
    set_stage_metrics(&mut out, &totals, requests, jobs[0].options.verify_vectors, cache_misses);
    out.set("stagecache.hits", stage_hits / requests);
    out.set("stagecache.misses", stage_misses / requests);
    out.set("stagecache.hit_ratio", layers::ratio(stage_hits, stage_hits + stage_misses));
    out.set("cache.hits", cache_hits / requests);
    out.set("cache.misses", cache_misses / requests);
    out.set("cache.hit_ratio", layers::ratio(cache_hits, cache_hits + cache_misses));
    let wall_ms: f64 = traced_walls.iter().sum::<f64>() * 1e3;
    let workers = config.workers as f64;
    out.set("engine.run_ms", wall_ms / requests);
    out.set("executor.busy_ratio", layers::ratio(totals.total_busy_ms(), wall_ms * workers));
    out.set("engine.unattributed_ms", (wall_ms - totals.total_busy_ms() / workers) / requests);
    if let Some(dir) = &dir {
        let opens: Vec<f64> = traced.iter().map(|r| r.open.as_secs_f64() * 1e3).collect();
        let lookups: Vec<f64> = traced
            .iter()
            .map(|r| (r.wall - r.open).as_secs_f64() * 1e6 / jobs.len() as f64)
            .collect();
        out.set("persist.open_ms", layers::median(&opens));
        out.set("persist.lookup_us", layers::median(&lookups));
        let (bytes, files) = dir_usage(dir);
        out.set("persist.store_bytes", bytes as f64);
        out.set("persist.store_files", files as f64);
    }
    out.info.push(("untraced_requests", plain.len() as f64));
    out.info.push(("traced_requests", traced.len() as f64));
    out.info.push(("stage_observer_calls", totals.total_calls() as f64));
    out.info.push(("stage_misses", stage_misses));
    check_answers(&mut reference, &jobs, &tally, config.workers, &mut out);
    Ok(out)
}

/// Checks every tallied answer against the reference. The oracle runs
/// after timing: it is the harness's own work, and its memory stays out
/// of `peak_rss_mb`.
fn check_answers(
    reference: &mut Reference,
    jobs: &[Job],
    tally: &Tally,
    workers: usize,
    out: &mut Outcome,
) {
    let keys: Vec<CellKey> = jobs.iter().map(CellKey::of).collect();
    let expected = reference.expect(jobs, workers);
    out.failed += tally.mismatches(&keys, &expected, &mut out.problems);
    reference_info(reference, out);
}

/// How many reference cells came from the committed file and how many
/// the monolithic pipeline computed.
pub fn reference_info(reference: &Reference, out: &mut Outcome) {
    out.info.push(("reference_pinned_cells", reference.pinned_cells as f64));
    out.info.push(("reference_computed_cells", reference.computed_cells as f64));
}

/// Samples above the nearest-rank p95 of `n` samples.
pub fn beyond_p95(n: usize) -> usize {
    n - (n as f64 * 0.95).ceil() as usize
}

/// Every observed stage run must be a stage-memo miss the engine
/// counted, and vice versa; otherwise the per-layer numbers are void.
pub fn reconcile(totals: &layers::StageTotals, stage_misses: u64, out: &mut Outcome) {
    if totals.total_calls() != stage_misses {
        out.fail(format!(
            "trace does not reconcile: {} stage observer calls, {stage_misses} stage misses",
            totals.total_calls()
        ));
    }
}

/// The per-stage rows, averaged over `units` (passes or requests).
pub fn set_stage_metrics(
    out: &mut Outcome,
    totals: &layers::StageTotals,
    units: f64,
    vectors: usize,
    cells_computed: f64,
) {
    const CALLS: [&str; 6] = [
        "core.extract.calls",
        "core.fragment.calls",
        "core.verify.calls",
        "core.schedule.calls",
        "core.allocate.calls",
        "core.time.calls",
    ];
    const BUSY: [&str; 6] = [
        "core.extract.busy_ms",
        "core.fragment.busy_ms",
        "core.verify.busy_ms",
        "core.schedule.busy_ms",
        "core.allocate.busy_ms",
        "core.time.busy_ms",
    ];
    let units = units.max(1.0);
    for (at, stage) in layers::STAGES.iter().enumerate() {
        out.set(CALLS[at], totals.calls(stage) as f64 / units);
        out.set(BUSY[at], totals.busy_ms(stage) / units);
    }
    out.set("core.busy_ms", totals.total_busy_ms() / units);
    let verify_s = totals.busy_ms("verify") / 1e3;
    out.set(
        "sim.vectors_per_s",
        layers::ratio(totals.calls("verify") as f64 * vectors as f64, verify_s),
    );
    out.set("alloc.calls_per_cell", layers::ratio(totals.calls("allocate") as f64, cells_computed));
}
