//! The serve-mixed workload: a closed loop of client connections, with
//! no think time, against an in-process `Server` (one engine worker, a
//! cache directory). Three of every four requests repeat a study of the
//! read pool, which set-up answered once, so they are memory hits; the
//! fourth sends a new seeded random spec, which the server computes and
//! spills to disk. Every study has two cells (λ 2 and 4).

use crate::grid::{self, CellKey, CellResult, Flow, Outputs, Reference};
use crate::{layers, Config, Outcome};
use bittrans_engine::proto::LineClient;
use bittrans_engine::{Job, ServeOptions, Server, ServiceStats, Study};
use bittrans_ir::Spec;
use serde_json::Value;
use std::io;
use std::path::PathBuf;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Mutex;
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

const LATENCIES: [u32; 2] = [2, 4];
const TIMEOUT: Duration = Duration::from_secs(120);

/// One study the clients can send.
struct Request {
    body: String,
    jobs: Vec<Job>,
}

impl Request {
    /// A study over `specs` × λ 2 and 4 at 8 verification vectors.
    fn new(specs: Vec<Spec>) -> Request {
        let sources: Vec<String> = specs
            .iter()
            .map(|s| serde_json::to_string(&s.to_canonical()).expect("a string serializes"))
            .collect();
        let body = format!(
            "{{\"sources\": [{}], \"latencies\": [{}, {}], \"verify_vectors\": [{}]}}",
            sources.join(", "),
            LATENCIES[0],
            LATENCIES[1],
            grid::RANDOM_VECTORS
        );
        let jobs =
            Study::over(specs).latencies(LATENCIES).verify_vectors([grid::RANDOM_VECTORS]).jobs();
        Request { body, jobs }
    }
}

/// What one response carried.
struct Response {
    results: Vec<CellResult>,
    server_ms: f64,
    stage_misses: u64,
    stage_hits: u64,
    cache_misses: u64,
    cache_hits: u64,
}

/// One timed request: which study it sent and what came back.
struct Sample {
    rtt_ms: f64,
    /// Index into the read pool, or the write's own jobs.
    sent: Result<usize, Vec<Job>>,
    response: Result<Response, String>,
}

/// The in-process server; stopped (shutdown request, then join) when
/// dropped, so no early return leaves its threads running.
struct Running {
    addr: String,
    dir: PathBuf,
    handle: Option<JoinHandle<io::Result<ServiceStats>>>,
}

impl Running {
    fn start(dir: PathBuf) -> Result<(Running, Duration), String> {
        let started = Instant::now();
        let server = Server::bind(&ServeOptions {
            workers: Some(1),
            cache_dir: Some(dir.clone()),
            ..ServeOptions::default()
        })
        .map_err(|e| format!("binding the server: {e}"))?;
        let bind = started.elapsed();
        let addr = server.local_addr().to_string();
        let handle = Some(std::thread::spawn(move || server.run()));
        Ok((Running { addr, dir, handle }, bind))
    }

    fn stop(&mut self) {
        if let Some(handle) = self.handle.take() {
            if let Ok(mut client) = LineClient::connect(&self.addr, TIMEOUT) {
                let _ = client.request("{\"shutdown\": true}");
            }
            let _ = handle.join();
        }
    }
}

impl Drop for Running {
    fn drop(&mut self) {
        self.stop();
    }
}

pub fn run(config: &Config) -> Result<Outcome, String> {
    let mut reference = Reference::load()?;
    let pool_size = if config.tiny { 8 } else { grid::RANDOM_SPECS };
    let clients = config.workers;
    let mut out = Outcome::default();

    let pool_specs: Vec<Spec> =
        (0..pool_size as u64).map(|i| grid::random_case(config.seed, i)).collect();
    let pool: Vec<Request> =
        pool_specs.iter().map(|spec| Request::new(vec![spec.clone()])).collect();
    let pool_jobs: Vec<Job> = pool.iter().flat_map(|request| request.jobs.clone()).collect();

    // Set-up, three times for a steady median: bind a fresh server on an
    // empty cache directory and answer the whole pool in one request.
    let mut setup_s = Vec::new();
    let mut binds = Vec::new();
    let mut server = None;
    let mut pool_results = Vec::new();
    for round in 0..3 {
        if let Some(mut old) = server.take() {
            Running::stop(&mut old);
            let _ = std::fs::remove_dir_all(&old.dir);
        }
        let started = Instant::now();
        let (running, bind) = Running::start(config.work_dir.join(format!("serve-{round}")))?;
        let warm = Request::new(pool_specs.clone());
        let line = LineClient::connect(&running.addr, TIMEOUT)
            .and_then(|mut client| client.request(&warm.body))
            .map_err(|e| format!("warm-up: {e}"))?;
        pool_results = parse_response(&line).map_err(|e| format!("warm-up: {e}"))?.results;
        setup_s.push(started.elapsed().as_secs_f64());
        binds.push(bind.as_secs_f64() * 1e3);
        server = Some(running);
    }
    let mut server = server.expect("at least one set-up round");
    out.set("setup_s", layers::median(&setup_s));
    let (saved, area) = grid::quality(&pool_results);
    out.set("cycle_saved_pct", saved);
    out.set("area_delta_pct", area);

    let writes = AtomicU64::new(0);
    let drive = |budget: Duration| -> (Vec<Sample>, Duration) {
        let samples = Mutex::new(Vec::new());
        let started = Instant::now();
        std::thread::scope(|scope| {
            for connection in 0..clients {
                let (samples, pool, writes, addr) = (&samples, &pool, &writes, &server.addr);
                scope.spawn(move || {
                    let mut mine = Vec::new();
                    let mut rng = config.seed ^ (connection as u64 + 1).wrapping_mul(0x9e37);
                    let mut client = match LineClient::connect(addr, TIMEOUT) {
                        Ok(client) => Some(client),
                        Err(e) => {
                            let response = Err(format!("connect: {e}"));
                            mine.push(Sample { rtt_ms: 0.0, sent: Ok(0), response });
                            None
                        }
                    };
                    let mut k = 0u64;
                    while let Some(conn) = client.as_mut() {
                        if started.elapsed() >= budget {
                            break;
                        }
                        let write;
                        let (sent, body) = if k % 4 == 3 {
                            let n = writes.fetch_add(1, Ordering::Relaxed);
                            let index = grid::RANDOM_SPECS as u64 + n;
                            write = Request::new(vec![grid::random_case(config.seed, index)]);
                            (Err(write.jobs.clone()), write.body.as_str())
                        } else {
                            let at = (splitmix(&mut rng) % pool.len() as u64) as usize;
                            (Ok(at), pool[at].body.as_str())
                        };
                        k += 1;
                        let sent_at = Instant::now();
                        let line = conn.request(body);
                        let rtt_ms = sent_at.elapsed().as_secs_f64() * 1e3;
                        let response = match line {
                            Ok(line) => parse_response(&line),
                            Err(e) => {
                                client = None;
                                Err(format!("request: {e}"))
                            }
                        };
                        mine.push(Sample { rtt_ms, sent, response });
                    }
                    samples.lock().expect("samples lock").extend(mine);
                });
            }
        });
        let wall = started.elapsed();
        (samples.into_inner().expect("samples lock"), wall)
    };

    let texts: Vec<String> = pool_specs.iter().map(Spec::to_canonical).collect();
    let mut stats = [None, None];
    let (samples, wall, plain) = if config.trace {
        let (plain, _) = drive(config.budget / 2);
        out.set("ir.parse_us", layers::parse_us(&texts));
        stats[0] = stats_probe(&server.addr);
        let totals = layers::start();
        let (samples, wall) = drive(config.budget / 2);
        layers::stop();
        stats[1] = stats_probe(&server.addr);
        (samples, wall, Some((plain, totals)))
    } else {
        if !crate::reset_peak_rss() {
            out.fail("cannot reset the peak resident set (/proc/self/clear_refs)".to_string());
        }
        let (samples, wall) = drive(config.budget);
        out.set("peak_rss_mb", crate::peak_rss_mb());
        (samples, wall, None)
    };
    server.stop();
    let (store_bytes, store_files) = crate::dir_usage(&server.dir);

    // Check every response once timing is over (the oracle is the
    // harness's own work): the set-up's answer to the whole pool and the
    // reads against the pool reference, writes against the reference of
    // their own specs.
    let pool_expected = reference.expect(&pool_jobs, config.workers);
    let keys: Vec<CellKey> = pool_jobs.iter().map(CellKey::of).collect();
    out.attempted += 1;
    out.failed +=
        u64::from(grid::mismatches(&keys, &pool_results, &pool_expected, &mut out.problems) > 0);
    let mut all = samples.iter().collect::<Vec<_>>();
    if let Some((plain, _)) = &plain {
        all.extend(plain.iter());
    }
    let write_jobs: Vec<Job> =
        all.iter().filter_map(|s| s.sent.as_ref().err()).flatten().cloned().collect();
    let write_expected = reference.expect(&write_jobs, config.workers);
    let mut next_write = 0;
    for sample in &all {
        let (jobs, expected): (&[Job], &[CellResult]) = match &sample.sent {
            Ok(at) => {
                let per = LATENCIES.len();
                (&pool_jobs[at * per..(at + 1) * per], &pool_expected[at * per..(at + 1) * per])
            }
            Err(jobs) => {
                next_write += jobs.len();
                (jobs, &write_expected[next_write - jobs.len()..next_write])
            }
        };
        out.attempted += 1;
        match &sample.response {
            Ok(response) => {
                let keys: Vec<CellKey> = jobs.iter().map(CellKey::of).collect();
                let got = &response.results;
                let bad = if got.len() == expected.len() {
                    grid::mismatches(&keys, got, expected, &mut out.problems)
                } else {
                    out.problems.push(format!("{} cells in a response, not 2", got.len()));
                    1
                };
                out.failed += u64::from(bad > 0);
            }
            Err(e) => {
                out.failed += 1;
                if out.problems.len() < 8 {
                    out.problems.push(e.clone());
                }
            }
        }
    }

    let ok: Vec<&Response> = samples.iter().filter_map(|s| s.response.as_ref().ok()).collect();
    let rtts: Vec<f64> = samples.iter().map(|s| s.rtt_ms).collect();
    let cells: usize = ok.iter().map(|r| r.results.len()).sum();
    out.info.push(("requests", samples.len() as f64));
    out.info.push(("writes", writes.load(Ordering::Relaxed) as f64));
    out.info.push(("samples_beyond_p95", crate::beyond_p95(samples.len()) as f64));
    crate::reference_info(&reference, &mut out);

    let Some((plain, totals)) = plain else {
        let secs = wall.as_secs_f64();
        out.set("cells_per_s", cells as f64 / secs);
        out.set("req_per_s", samples.len() as f64 / secs);
        out.set("rtt_p50_ms", layers::median(&rtts));
        out.set("rtt_p95_ms", layers::percentile(&rtts, 95.0));
        return Ok(out);
    };

    let n = samples.len() as f64;
    let sum = |f: fn(&Response) -> u64| ok.iter().map(|r| f(r)).sum::<u64>() as f64;
    let stage_misses = sum(|r| r.stage_misses);
    let stage_hits = sum(|r| r.stage_hits);
    let cache_misses = sum(|r| r.cache_misses);
    let cache_hits = sum(|r| r.cache_hits);
    crate::reconcile(&totals, stage_misses as u64, &mut out);
    crate::set_stage_metrics(&mut out, &totals, n, grid::RANDOM_VECTORS, cache_misses);
    out.set("stagecache.hits", stage_hits / n);
    out.set("stagecache.misses", stage_misses / n);
    out.set("stagecache.hit_ratio", layers::ratio(stage_hits, stage_hits + stage_misses));
    out.set("cache.hits", cache_hits / n);
    out.set("cache.misses", cache_misses / n);
    out.set("cache.hit_ratio", layers::ratio(cache_hits, cache_hits + cache_misses));
    let server_ms: Vec<f64> = ok.iter().map(|r| r.server_ms).collect();
    let server_total: f64 = server_ms.iter().sum();
    out.set("engine.run_ms", server_total / n);
    out.set("executor.busy_ratio", layers::ratio(totals.total_busy_ms(), wall.as_secs_f64() * 1e3));
    out.set("engine.unattributed_ms", (server_total - totals.total_busy_ms()) / n);
    out.set("persist.open_ms", layers::median(&binds));
    out.set("persist.store_bytes", store_bytes as f64);
    out.set("persist.store_files", store_files as f64);
    out.set("serve.server_ms_p50", layers::median(&server_ms));
    let wire: Vec<f64> = samples
        .iter()
        .filter_map(|s| s.response.as_ref().ok().map(|r| s.rtt_ms - r.server_ms))
        .collect();
    out.set("proto.wire_ms_p50", layers::median(&wire));
    out.set("proto.wire_ms_p95", layers::percentile(&wire, 95.0));
    // Scheduler wait over the traced phase alone: the difference of the
    // two probes around it (set-up's warm-up request queues far longer).
    match stats {
        [Some(before), Some(after)] => {
            let waited = after[0] - before[0];
            out.set("sched.mean_wait_ms", layers::ratio(waited, after[1] - before[1]));
            out.set("serve.errors", after[2]);
        }
        _ => out.fail("the {\"stats\": true} probe failed".to_string()),
    }
    let plain_rtts: Vec<f64> = plain.iter().map(|s| s.rtt_ms).collect();
    out.set(
        "trace.overhead_pct",
        (layers::median(&rtts) / layers::median(&plain_rtts) - 1.0) * 100.0,
    );
    out.info.push(("stage_observer_calls", totals.total_calls() as f64));
    out.info.push(("stage_misses", stage_misses));
    Ok(out)
}

/// The scheduler's cumulative wait (ms) and dispatched tasks, and the
/// service's error count, from `{"stats": true}`.
fn stats_probe(addr: &str) -> Option<[f64; 3]> {
    let mut client = LineClient::connect(addr, TIMEOUT).ok()?;
    let reply = serde_json::from_str(&client.request("{\"stats\": true}").ok()?).ok()?;
    let sched = reply.get("sched")?;
    Some([
        sched.get("total_wait_ms")?.as_f64()?,
        sched.get("dispatched_tasks")?.as_f64()?,
        reply.get("service")?.get("errors")?.as_f64()?,
    ])
}

fn parse_response(line: &str) -> Result<Response, String> {
    let value = serde_json::from_str(line).map_err(|e| format!("unparsable response: {e}"))?;
    if value.get("ok").and_then(Value::as_bool) != Some(true) {
        let error = value.get("error").and_then(Value::as_str).unwrap_or("no error text");
        return Err(format!("request refused: {error}"));
    }
    let malformed = || format!("malformed response: {}", &line[..line.len().min(200)]);
    let report = value.get("report").ok_or_else(malformed)?;
    let stats = report.get("stats").ok_or_else(malformed)?;
    let count = |key: &str| stats.get(key).and_then(Value::as_u64).ok_or_else(malformed);
    let cells = report.get("cells").and_then(Value::as_array).ok_or_else(malformed)?;
    let results: Result<Vec<CellResult>, String> =
        cells.iter().map(|cell| cell_result(cell).ok_or_else(malformed)).collect();
    Ok(Response {
        results: results?,
        server_ms: stats.get("elapsed_ms").and_then(Value::as_f64).ok_or_else(malformed)?,
        stage_misses: count("stage_misses")?,
        stage_hits: count("stage_hits")?,
        cache_misses: count("cache_misses")?,
        cache_hits: count("cache_hits")?,
    })
}

fn cell_result(cell: &Value) -> Option<CellResult> {
    if cell.get("ok")?.as_bool()? {
        let cmp = cell.get("comparison")?;
        let flow = |imp: &Value| -> Option<Flow> {
            Some(Flow {
                cycle_delta: u32::try_from(imp.get("cycle_delta")?.as_u64()?).ok()?,
                cycle_ns: imp.get("cycle_ns")?.as_f64()?,
                area: imp.get("area")?.get("total")?.as_f64()?,
                stored_bits: u32::try_from(imp.get("stored_bits")?.as_u64()?).ok()?,
            })
        };
        Some(Ok(Outputs {
            original: flow(cmp.get("original")?)?,
            optimized: flow(cmp.get("optimized")?)?,
        }))
    } else {
        Some(Err(cell.get("error")?.as_str()?.to_string()))
    }
}

fn splitmix(state: &mut u64) -> u64 {
    *state = state.wrapping_add(0x9e37_79b9_7f4a_7c15);
    let mut z = *state;
    z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    z ^ (z >> 31)
}
