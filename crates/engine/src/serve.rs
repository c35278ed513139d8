//! A long-running [`Study`] service over one warm [`Engine`]: newline-
//! delimited JSON over TCP, so many clients share a single in-memory
//! cache (backed by the cache directory) instead of each paying a cold
//! start.
//!
//! # Protocol
//!
//! One request per line, connections may carry any number of requests. A
//! request is a **study body**, read back by [`ShardedStudy::from_value`]:
//!
//! ```text
//! {"sources": ["spec ex { ... }"], "latencies": [3, 4],
//!  "adder_archs": ["rca", "cla"], "balance": [true, false],
//!  "verify_vectors": [50], "base": {...}}
//! ```
//!
//! Only `sources` is required; absent axes collapse exactly as they do in
//! [`Study`]. Unknown top-level fields are rejected — a typo'd axis name
//! must fail loudly, not silently run the default grid. The special
//! request `{"shutdown": true}` asks the server to stop accepting, finish
//! in-flight requests and exit.
//!
//! A study body carrying `shard_index`/`shard_count`
//! ([`crate::shard::SHARD_COORD_FIELDS`]) is a **shard request**: the
//! server executes only that range of the study's key-sorted distinct
//! jobs ([`crate::shard::shard_slice`]) and answers
//! `{"ok":true,"shard_index":…,"shard_count":…,"service":{…},"stats":{…}}`
//! — the batch's [`EngineStats`] instead of a report. The results travel
//! through the server's `--cache-dir` (which must be the store the
//! dispatching coordinator reads), so shard requests are rejected on a
//! server started without one.
//!
//! A successful response is `{"ok":true,"service":{...},"report":{...}}`
//! with the **report field last**: its value is byte-for-byte the
//! [`StudyReport`] JSON that a single-process [`Study::run`] serializes,
//! so clients can slice it out of the line without re-serializing. The
//! `service` field carries process-lifetime [`ServiceStats`]. A rejected
//! request gets `{"ok":false,"error":"..."}` and — except after an
//! oversized body, whose line framing is unrecoverable — the connection
//! stays usable.
//!
//! ## Streaming
//!
//! A study body carrying `"stream": true` asks for **progressive
//! results**: as each grid cell's job resolves, the server writes one
//! frame line
//!
//! ```text
//! {"cell": {…StudyCell…}, "index": G}
//! ```
//!
//! where `index` is the cell's grid position, before the normal final
//! response line. Frames lead with `"cell"` and the final line with
//! `"ok"`, so a reader classifies each line by prefix
//! ([`crate::proto::is_frame`]); the final line's bytes are identical to
//! the batch response for the same request over the same cache state, so
//! streaming costs nothing in comparability. Cache hits stream first (in
//! grid order); computed cells follow in completion order. `stream` is
//! rejected on shard requests (their reply carries no cells).
//!
//! # Execution model
//!
//! Requests from all connections share one [`Scheduler`]: a persistent
//! worker pool — as wide as the engine's worker count — fed by a fair
//! per-request round-robin queue ([`crate::sched`]). Each study expands
//! its grid, registers its distinct uncached jobs and enqueues them as
//! one scheduling unit; workers grant every active request one task per
//! pass, so a 2-cell study admitted behind a 10,000-cell one finishes
//! after a handful of grants instead of waiting for the whole backlog
//! (the old global run lock serialized entire studies). Determinism
//! survives the interleaving because results slot back by index and
//! reports assemble from keyed cells: each response is a function of the
//! request and the cache state it observed, never of scheduling order.
//!
//! Concurrent requests wanting the **same** job never compute it twice:
//! the first to classify a key registers it in a shared in-flight table,
//! and later requests subscribe to that computation (counted as a cache
//! hit — they do no pipeline work, exactly like a resident entry).
//!
//! Connections are **pipelined**: a client may send further requests
//! before reading responses, up to [`ServeOptions::max_inflight`]
//! concurrently executing studies per connection (beyond that, requests
//! are rejected with a protocol error, never stalled). Responses are
//! written in completion order, so a pipelining client must correlate
//! them itself (or use one connection per outstanding request); a client
//! that awaits each response before the next request observes exactly
//! the old strictly-ordered protocol.
//!
//! # Shutdown
//!
//! The `shutdown` request is the graceful path: stop accepting, drain
//! in-flight work, return the final [`ServiceStats`]. Abrupt termination
//! (SIGTERM/SIGKILL — std offers no signal hooks and this workspace
//! vendors no libc) is *safe by design*: every cache write is an atomic
//! temp-file + rename, so a killed server never leaves a half-written
//! entry, and the next server warms straight back up from the directory.

use crate::key::JobKey;
use crate::report::{StudyCell, StudyReport};
use crate::sched::Scheduler;
use crate::shard::{self, ShardedStudy};
use crate::stats::{EngineStats, ServiceStats};
use crate::study::Study;
use crate::{trace, Engine, EngineOptions, Job, JobResult};
use serde_json::Value;
use std::collections::{HashMap, HashSet};
use std::io::{self, BufRead, BufReader, Read, Write};
use std::net::{SocketAddr, TcpListener, TcpStream};
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::path::PathBuf;
use std::sync::atomic::{AtomicBool, AtomicU64, AtomicUsize, Ordering};
use std::sync::{mpsc, Arc, Mutex, PoisonError};
use std::time::{Duration, Instant};

/// Default cap on one request line. A study body is source text plus axis
/// lists — far below this — so anything larger is a runaway or hostile
/// client, and reading it unbounded would let one connection exhaust the
/// server's memory.
pub const DEFAULT_MAX_REQUEST_BYTES: usize = 4 * 1024 * 1024;

/// Default cap on concurrently executing studies per connection. One
/// warm client legitimately pipelines a few requests; dozens in flight
/// on a single connection is a runaway loop or abuse, and admitting them
/// unbounded would let one socket monopolize the fair queue.
pub const DEFAULT_MAX_INFLIGHT: usize = 8;

/// Upper bound on a shard request's `shard_count`. Real fleets are a
/// handful of machines; anything bigger is a typo or abuse, and a hard
/// cap keeps hostile coordinates from costing the service anything —
/// the request is one error response, like every other rejection.
pub const MAX_SHARD_COUNT: usize = 1 << 16;

/// How long a handler blocks on an idle connection before re-checking the
/// shutdown flag, so graceful shutdown never waits on a silent client.
const IDLE_POLL: Duration = Duration::from_millis(200);

/// Upper bound on one blocked response write. A client that requests a
/// study and then never drains its socket would otherwise pin its handler
/// in `write_all` forever — and [`Server::run`] joins every handler at
/// shutdown, so one such client could hang the whole drain.
const WRITE_TIMEOUT: Duration = Duration::from_secs(30);

/// Configuration of a [`Server`].
#[derive(Clone, Debug)]
pub struct ServeOptions {
    /// Address to bind, `host:port` (port 0 picks a free one — read the
    /// real address back from [`Server::local_addr`]).
    pub addr: String,
    /// Worker threads of the shared engine (`None`: all cores).
    pub workers: Option<usize>,
    /// Persistent cache directory backing the warm in-memory cache
    /// (`None`: memory only, the cache dies with the process).
    pub cache_dir: Option<PathBuf>,
    /// Reject request lines longer than this many bytes.
    pub max_request_bytes: usize,
    /// Reject a connection's study/shard requests beyond this many
    /// concurrently executing ones (a protocol error, never a stall).
    pub max_inflight: usize,
}

impl Default for ServeOptions {
    fn default() -> Self {
        ServeOptions {
            addr: "127.0.0.1:0".to_string(),
            workers: None,
            cache_dir: None,
            max_request_bytes: DEFAULT_MAX_REQUEST_BYTES,
            max_inflight: DEFAULT_MAX_INFLIGHT,
        }
    }
}

/// The bound service: one listener, one warm [`Engine`]. Created by
/// [`Server::bind`], driven by [`Server::run`].
pub struct Server {
    listener: TcpListener,
    state: Arc<ServerState>,
}

/// One request's subscription to a job another request is computing: the
/// subscriber's slot index and the sender of its collection channel.
struct Waiter {
    slot: usize,
    tx: mpsc::Sender<(usize, Arc<JobResult>)>,
}

/// Everything handler threads share.
struct ServerState {
    engine: Engine,
    /// The shared fair worker pool; see the module docs.
    sched: Scheduler,
    /// Jobs currently computing, by key: the first request to want a key
    /// registers it here; later requests subscribe instead of recomputing.
    /// The computing task admits its result to the cache **before**
    /// removing the entry, so a request that misses the cache while
    /// holding this lock always finds a live registration to join.
    in_flight: Mutex<HashMap<JobKey, Vec<Waiter>>>,
    shutdown: AtomicBool,
    requests: AtomicU64,
    errors: AtomicU64,
    /// Request-id allocator for the structured per-request logs; counts
    /// every received line, unlike `requests` (answered studies only).
    next_request: AtomicU64,
    /// Per-class answer counters for `{"stats":true}` introspection:
    /// study reports, shard ranges, stats snapshots.
    class_study: AtomicU64,
    class_shard: AtomicU64,
    class_stats: AtomicU64,
    started: Instant,
    max_request_bytes: usize,
    max_inflight: usize,
    local_addr: SocketAddr,
}

impl ServerState {
    fn service_stats(&self) -> ServiceStats {
        ServiceStats {
            requests: self.requests.load(Ordering::SeqCst),
            errors: self.errors.load(Ordering::SeqCst),
            uptime: self.started.elapsed(),
            engine: self.engine.stats(),
        }
    }

    fn lock_in_flight(&self) -> std::sync::MutexGuard<'_, HashMap<JobKey, Vec<Waiter>>> {
        // The table is a plain registry, valid at every step; recover a
        // poisoned guard rather than letting one panic wedge the service.
        self.in_flight.lock().unwrap_or_else(PoisonError::into_inner)
    }
}

impl Server {
    /// Binds the listener and opens the engine (and its cache directory,
    /// when configured). No request is served until [`Server::run`].
    ///
    /// # Errors
    ///
    /// Binding the address or opening the cache directory.
    pub fn bind(options: &ServeOptions) -> io::Result<Server> {
        let engine = Engine::new(EngineOptions { workers: options.workers, cache: true });
        let engine = match &options.cache_dir {
            Some(dir) => engine.with_cache_dir(dir)?,
            None => engine,
        };
        let listener = TcpListener::bind(options.addr.as_str())?;
        let local_addr = listener.local_addr()?;
        let sched = Scheduler::new(engine.worker_count());
        let state = Arc::new(ServerState {
            engine,
            sched,
            in_flight: Mutex::new(HashMap::new()),
            shutdown: AtomicBool::new(false),
            requests: AtomicU64::new(0),
            errors: AtomicU64::new(0),
            next_request: AtomicU64::new(0),
            class_study: AtomicU64::new(0),
            class_shard: AtomicU64::new(0),
            class_stats: AtomicU64::new(0),
            started: Instant::now(),
            max_request_bytes: options.max_request_bytes,
            max_inflight: options.max_inflight.max(1),
            local_addr,
        });
        Ok(Server { listener, state })
    }

    /// The address actually bound (resolves port 0).
    pub fn local_addr(&self) -> SocketAddr {
        self.state.local_addr
    }

    /// Accepts connections until a `shutdown` request arrives, then joins
    /// every handler (in-flight requests finish and are answered) and
    /// returns the final process-lifetime statistics.
    ///
    /// # Errors
    ///
    /// Never on per-connection trouble — a bad client costs one handler
    /// thread, not the service. The `Result` exists for future fatal
    /// accept-loop conditions and keeps the CLI's `?` shape.
    pub fn run(self) -> io::Result<ServiceStats> {
        let mut handlers: Vec<std::thread::JoinHandle<()>> = Vec::new();
        for stream in self.listener.incoming() {
            if self.state.shutdown.load(Ordering::SeqCst) {
                break;
            }
            match stream {
                Ok(stream) => {
                    // A long-lived process must not hoard finished handles.
                    handlers.retain(|h| !h.is_finished());
                    let state = Arc::clone(&self.state);
                    handlers.push(std::thread::spawn(move || handle_connection(stream, state)));
                }
                Err(e) => {
                    // Transient accept failures (EMFILE under load) must
                    // not kill the service; back off briefly so a
                    // persistent condition cannot spin the loop.
                    trace::stderr_log("serve", "accept_error", |a| {
                        a.str("error", &e.to_string());
                    });
                    std::thread::sleep(Duration::from_millis(10));
                }
            }
        }
        for handler in handlers {
            let _ = handler.join();
        }
        Ok(self.state.service_stats())
    }
}

/// What one request line parsed to.
enum Classified {
    /// A rejection to send; the connection keeps serving.
    Error(String),
    /// Acknowledge, then stop the whole service.
    Shutdown,
    /// Pure introspection: answer the lifetime counters inline.
    Stats,
    /// A validated study (`coords` set for a shard request), to execute
    /// on the shared scheduler.
    Run { study: Study, coords: Option<(usize, usize)>, stream: bool },
}

/// Serves one connection: bounded line reads, one response per request,
/// study/shard execution on per-request runner threads so requests from
/// one connection pipeline (up to the in-flight cap). Returns — after
/// joining the runners, so every admitted request is answered — on EOF,
/// I/O trouble, oversized requests, or service shutdown.
fn handle_connection(stream: TcpStream, state: Arc<ServerState>) {
    let peer = stream.peer_addr().map_or_else(|_| "?".to_string(), |a| a.to_string());
    // Idle reads wake periodically so shutdown can drain this thread, and
    // writes are bounded so a client that never reads its response cannot
    // pin the handler (both options are socket-wide, shared by the clone).
    let _ = stream.set_read_timeout(Some(IDLE_POLL));
    let _ = stream.set_write_timeout(Some(WRITE_TIMEOUT));
    let writer = match stream.try_clone() {
        Ok(clone) => Arc::new(Mutex::new(clone)),
        Err(_) => return,
    };
    let mut reader = BufReader::new(stream);
    // Studies this connection has admitted and not yet answered. The
    // reader loop is the only incrementer, so load-then-add is race-free.
    let inflight = Arc::new(AtomicUsize::new(0));
    let mut runners: Vec<std::thread::JoinHandle<()>> = Vec::new();
    loop {
        let line = match read_request_line(&mut reader, &state) {
            LineRead::Line(line) => line,
            LineRead::Closed => break,
            LineRead::Oversized => {
                state.errors.fetch_add(1, Ordering::SeqCst);
                let message = format!(
                    "request exceeds the {} byte limit; closing connection",
                    state.max_request_bytes
                );
                trace::stderr_log("serve", "rejected", |a| {
                    a.str("peer", &peer).str("error", &message);
                });
                let _ = respond_error(&writer, &message);
                // Drain the rest of the oversized line before closing:
                // dropping the socket with unread input queued makes the
                // close an RST, which can destroy the error reply in
                // transit before the client reads it.
                drain_line(&mut reader);
                break;
            }
        };
        if line.is_empty() {
            continue; // blank keep-alive line
        }
        runners.retain(|h| !h.is_finished());
        // Every received request line gets a process-unique id; it ties
        // the structured log lines below to the request's trace span.
        let req = state.next_request.fetch_add(1, Ordering::SeqCst) + 1;
        match classify_request(&line, &state) {
            Classified::Error(message) => {
                let _span = trace::span_attrs("serve.request", |a| {
                    a.num("req", req).str("peer", &peer);
                });
                state.errors.fetch_add(1, Ordering::SeqCst);
                trace::stderr_log("serve", "rejected", |a| {
                    a.num("req", req).str("peer", &peer).str("error", &message);
                });
                if respond_error(&writer, &message).is_err() {
                    break;
                }
            }
            Classified::Stats => {
                let _span = trace::span_attrs("serve.request", |a| {
                    a.num("req", req).str("peer", &peer);
                });
                state.class_stats.fetch_add(1, Ordering::SeqCst);
                trace::stderr_log("serve", "stats", |a| {
                    a.num("req", req).str("peer", &peer);
                });
                if write_line(&writer, &stats_reply(&state)).is_err() {
                    break;
                }
            }
            Classified::Shutdown => {
                trace::stderr_log("serve", "shutdown", |a| {
                    a.num("req", req).str("peer", &peer);
                });
                let _ = write_line(&writer, "{\"ok\":true,\"shutdown\":true}");
                state.shutdown.store(true, Ordering::SeqCst);
                // Wake the accept loop so it observes the flag. A wildcard
                // bind (0.0.0.0 / ::) is not connectable on every
                // platform, so aim the wake-up at loopback on the bound
                // port instead.
                let mut wake = state.local_addr;
                if wake.ip().is_unspecified() {
                    wake.set_ip(match wake {
                        SocketAddr::V4(_) => std::net::Ipv4Addr::LOCALHOST.into(),
                        SocketAddr::V6(_) => std::net::Ipv6Addr::LOCALHOST.into(),
                    });
                }
                let _ = TcpStream::connect(wake);
                break;
            }
            Classified::Run { study, coords, stream } => {
                if inflight.load(Ordering::SeqCst) >= state.max_inflight {
                    let message = format!(
                        "too many in-flight studies on this connection (limit {}); \
                         read a response before sending the next request",
                        state.max_inflight
                    );
                    state.errors.fetch_add(1, Ordering::SeqCst);
                    trace::stderr_log("serve", "rejected", |a| {
                        a.num("req", req).str("peer", &peer).str("error", &message);
                    });
                    if respond_error(&writer, &message).is_err() {
                        break;
                    }
                    continue;
                }
                inflight.fetch_add(1, Ordering::SeqCst);
                let state = Arc::clone(&state);
                let writer = Arc::clone(&writer);
                let inflight = Arc::clone(&inflight);
                let peer = peer.clone();
                runners.push(std::thread::spawn(move || {
                    let outcome = catch_unwind(AssertUnwindSafe(|| {
                        let _span = trace::span_attrs("serve.request", |a| {
                            a.num("req", req).str("peer", &peer);
                        });
                        match coords {
                            Some((index, count)) => {
                                run_shard_request(
                                    &state, &study, index, count, req, &peer, &writer,
                                );
                            }
                            None => run_study_request(&state, &study, stream, req, &peer, &writer),
                        }
                    }));
                    if outcome.is_err() {
                        // "Never happens" on validated studies, but a
                        // service must outlive it: answer with an error
                        // instead of silently dropping the request.
                        state.errors.fetch_add(1, Ordering::SeqCst);
                        trace::stderr_log("serve", "request_panicked", |a| {
                            a.num("req", req).str("peer", &peer);
                        });
                        let _ =
                            respond_error(&writer, "internal error: request execution panicked");
                    }
                    inflight.fetch_sub(1, Ordering::SeqCst);
                }));
            }
        }
    }
    for runner in runners {
        let _ = runner.join();
    }
}

/// One bounded line read.
enum LineRead {
    /// A complete, trimmed request line.
    Line(String),
    /// EOF, an unrecoverable read error, or shutdown while idle.
    Closed,
    /// The line outgrew the configured limit before its newline arrived.
    Oversized,
}

/// Reads up to a newline, never buffering more than the configured limit,
/// and re-checking the shutdown flag whenever the idle timeout fires with
/// nothing accumulated. A final unterminated line (client sent a request
/// and shut down its write side) is still served.
fn read_request_line(reader: &mut BufReader<TcpStream>, state: &ServerState) -> LineRead {
    let mut line: Vec<u8> = Vec::new();
    loop {
        if state.shutdown.load(Ordering::SeqCst) {
            return LineRead::Closed;
        }
        // +1 beyond the cap: the newline delimiter is framing, not body,
        // so a body of exactly `max_request_bytes` plus its newline must
        // still fit — only a strictly longer *body* trips the cap.
        let budget = (state.max_request_bytes + 1).saturating_sub(line.len());
        let mut limited = reader.by_ref().take(budget as u64);
        match limited.read_until(b'\n', &mut line) {
            Ok(0) if line.is_empty() => return LineRead::Closed, // clean EOF
            Ok(_) if line.ends_with(b"\n") => {
                line.pop(); // strip the delimiter before judging the body
                if line.len() > state.max_request_bytes {
                    return LineRead::Oversized;
                }
                return finish_line(line);
            }
            Ok(0) | Ok(_) if line.len() > state.max_request_bytes => return LineRead::Oversized,
            Ok(0) => {
                // EOF (or exhausted budget — excluded above) mid-line:
                // serve the trailing request.
                return finish_line(line);
            }
            Ok(_) => continue, // partial read before the timeout hit
            Err(e) if matches!(e.kind(), io::ErrorKind::WouldBlock | io::ErrorKind::TimedOut) => {
                continue;
            }
            Err(e) if e.kind() == io::ErrorKind::Interrupted => continue,
            Err(_) => return LineRead::Closed,
        }
    }
}

/// How much of an oversized line is read-and-discarded before the hard
/// close: a client still streaming one request beyond this is hostile,
/// and at that point an RST is the right answer.
const DRAIN_LIMIT: u64 = 64 * 1024 * 1024;

/// Discards input until the end of the current line (or EOF, the idle
/// timeout, or [`DRAIN_LIMIT`]), so closing after an oversized-request
/// rejection sends a clean FIN and the error reply survives transit.
fn drain_line(reader: &mut BufReader<TcpStream>) {
    let mut chunk = [0u8; 8192];
    let mut discarded: u64 = 0;
    while discarded < DRAIN_LIMIT {
        match reader.read(&mut chunk) {
            Ok(0) => return,
            Ok(n) => {
                if chunk[..n].contains(&b'\n') {
                    return;
                }
                discarded += n as u64;
            }
            Err(e) if e.kind() == io::ErrorKind::Interrupted => {}
            // Timeout included: a client that stopped sending has nothing
            // left to drain.
            Err(_) => return,
        }
    }
}

fn finish_line(line: Vec<u8>) -> LineRead {
    match String::from_utf8(line) {
        Ok(text) => LineRead::Line(text.trim().to_string()),
        // Not UTF-8, so certainly not JSON: hand the parser a line that
        // cannot parse, producing a normal (recoverable) rejection.
        Err(_) => LineRead::Line("\u{fffd}".to_string()),
    }
}

/// Parses and validates one request line, without running anything.
fn classify_request(line: &str, state: &ServerState) -> Classified {
    let value: Value = match serde_json::from_str(line) {
        Ok(value) => value,
        Err(e) => return Classified::Error(format!("bad request: {e}")),
    };
    let Value::Object(fields) = &value else {
        return Classified::Error("bad request: body must be a JSON object".to_string());
    };
    match value.get("shutdown") {
        Some(Value::Bool(true)) => return Classified::Shutdown,
        Some(_) => return Classified::Error("bad request: `shutdown` must be `true`".to_string()),
        None => {}
    }
    // `{"stats":true}` is pure introspection: answer the lifetime
    // counters without running anything — and without disturbing them,
    // so interleaved stats probes never change what study clients see.
    match value.get("stats") {
        Some(Value::Bool(true)) => {
            if fields.len() > 1 {
                return Classified::Error(
                    "bad request: `stats` must be the only field".to_string(),
                );
            }
            return Classified::Stats;
        }
        Some(_) => return Classified::Error("bad request: `stats` must be `true`".to_string()),
        None => {}
    }
    // Strict field check: a typo'd axis must not silently collapse to the
    // default grid.
    for (key, _) in fields {
        let known = ShardedStudy::FIELDS.contains(&key.as_str())
            || shard::SHARD_COORD_FIELDS.contains(&key.as_str())
            || key == "stream";
        if !known {
            return Classified::Error(format!(
                "unknown field `{key}` (expected {}, {}, stream, or shutdown)",
                ShardedStudy::FIELDS.join(", "),
                shard::SHARD_COORD_FIELDS.join(", "),
            ));
        }
    }
    let stream = match value.get("stream") {
        None => false,
        Some(Value::Bool(stream)) => *stream,
        Some(_) => return Classified::Error("bad request: `stream` must be a boolean".to_string()),
    };
    let coords = match shard_coords(&value) {
        Ok(coords) => coords,
        Err(why) => return Classified::Error(format!("bad request: {why}")),
    };
    if stream && coords.is_some() {
        return Classified::Error(
            "bad request: `stream` is not supported on shard requests \
             (their reply carries no cells)"
                .to_string(),
        );
    }
    let sharded = match ShardedStudy::from_value(&value) {
        Ok(sharded) => sharded,
        Err(e) => return Classified::Error(format!("bad request: {e}")),
    };
    let study = match sharded.study() {
        Ok(study) => study,
        Err(e) => return Classified::Error(format!("bad request: {e}")),
    };
    // Pre-validate axis ranges: Study::run panics on them (programmer
    // error in code-built grids), and a client's bad request must never
    // bring a worker thread down.
    if let Err(e) = study.check() {
        return Classified::Error(format!("bad request: {e}"));
    }
    if coords.is_some() && !state.engine.has_cache_dir() {
        // A shard request's results travel through the shared store, so a
        // server without one cannot usefully serve shards — reject loudly
        // instead of letting the coordinator recompute everything.
        return Classified::Error(
            "shard requests need a server started with --cache-dir \
             (the shared result store the coordinator reads)"
                .to_string(),
        );
    }
    Classified::Run { study, coords, stream }
}

/// Reads the optional shard coordinates off a request: both fields or
/// neither, well-typed and in range.
fn shard_coords(value: &Value) -> Result<Option<(usize, usize)>, String> {
    let read = |key: &str| {
        value
            .get(key)
            .map(|v| {
                v.as_u64()
                    .and_then(|n| usize::try_from(n).ok())
                    .ok_or_else(|| format!("`{key}` is not an unsigned integer"))
            })
            .transpose()
    };
    match (read("shard_index")?, read("shard_count")?) {
        (None, None) => Ok(None),
        (Some(index), Some(count)) => {
            if count == 0 || index >= count {
                return Err(format!("shard {index} of {count} is out of range"));
            }
            if count > MAX_SHARD_COUNT {
                return Err(format!("shard_count {count} exceeds the {MAX_SHARD_COUNT} limit"));
            }
            Ok(Some((index, count)))
        }
        _ => Err("`shard_index` and `shard_count` must be given together".to_string()),
    }
}

/// The `{"stats":true}` introspection reply: lifetime service counters,
/// scheduler gauges, per-class answer counts.
fn stats_reply(state: &ServerState) -> String {
    let service = serde_json::to_string(&state.service_stats()).expect("service stats serialize");
    let sched = serde_json::to_string(&state.sched.stats()).expect("sched stats serialize");
    format!(
        "{{\"ok\":true,\"stats\":true,\"service\":{service},\"sched\":{sched},\
         \"classes\":{{\"study\":{},\"shard\":{},\"stats\":{}}}}}",
        state.class_study.load(Ordering::SeqCst),
        state.class_shard.load(Ordering::SeqCst),
        state.class_stats.load(Ordering::SeqCst),
    )
}

/// What a scheduled execution resolved: every distinct key's shared
/// result plus whether it was a hit (resident, or joined another
/// request's in-flight computation), and the request-scoped statistics.
struct ScheduledRun {
    resolved: HashMap<JobKey, (Arc<JobResult>, bool)>,
    stats: EngineStats,
}

/// Executes one request's distinct jobs through the shared scheduler.
///
/// Classification happens under the in-flight registry lock: each key is
/// either resident (hit), computing on behalf of another request
/// (subscribe — a hit), or registered and enqueued here (miss). The
/// per-request statistics mirror [`Engine::run`]'s exactly — same
/// hit/miss semantics, `workers` clamped to the computed-job count,
/// `cache_entries` the request's distinct-key count (what a fresh
/// single-process engine would hold after the same grid) — which is what
/// keeps served reports byte-identical to `Study::run` references.
///
/// `on_resolved` fires once per distinct key, hits first (in slot
/// order), computed and subscribed keys in completion order — the
/// streaming hook.
///
/// # Panics
///
/// If a scheduled job's worker caught a panic (the result can never
/// arrive). This request's dangling registrations are cleaned up first
/// so sibling requests fail fast instead of hanging; the per-connection
/// runner catches the panic and answers with a protocol error.
fn run_scheduled(
    state: &Arc<ServerState>,
    jobs: &[Job],
    mut on_resolved: impl FnMut(&JobKey, &Arc<JobResult>, bool),
) -> ScheduledRun {
    let started = Instant::now();
    let total = jobs.len();
    let keys: Vec<JobKey> = jobs.iter().map(Job::key).collect();
    let (tx, rx) = mpsc::channel::<(usize, Arc<JobResult>)>();
    let mut resolved: HashMap<JobKey, (Arc<JobResult>, bool)> = HashMap::with_capacity(total);
    let mut hits: u64 = 0;
    let mut to_compute: Vec<(usize, JobKey)> = Vec::new();
    let mut immediate: Vec<(JobKey, Arc<JobResult>)> = Vec::new();
    let mut slot_is_hit = vec![false; total];
    let mut pending: usize = 0;
    {
        // Classify every key under one registry lock hold, so a request
        // observes each key atomically: resident, in-flight, or absent —
        // never the gap between a sibling's admission and its
        // deregistration (admission happens first; see `in_flight`).
        let mut in_flight = state.lock_in_flight();
        let mut seen: HashSet<JobKey> = HashSet::with_capacity(total);
        for (slot, key) in keys.iter().enumerate() {
            if !seen.insert(*key) {
                // An in-request duplicate (callers pass deduplicated
                // lists, but the invariant is cheap to keep local): it
                // shares the first slot's result and counts as a hit,
                // exactly like Engine::run's in-batch duplicates.
                hits += 1;
                slot_is_hit[slot] = true;
                continue;
            }
            if let Some((result, provenance)) = state.engine.stages.job(*key) {
                hits += 1;
                slot_is_hit[slot] = true;
                trace::event("job", |a| {
                    a.str("key", &key.to_string()).str("provenance", provenance);
                });
                immediate.push((*key, result));
            } else if let Some(waiters) = in_flight.get_mut(key) {
                // Another request is computing this key right now:
                // subscribe to that computation instead of repeating it.
                hits += 1;
                slot_is_hit[slot] = true;
                trace::event("job", |a| {
                    a.str("key", &key.to_string()).str("provenance", "in-flight");
                });
                waiters.push(Waiter { slot, tx: tx.clone() });
                pending += 1;
            } else {
                in_flight.insert(*key, Vec::new());
                to_compute.push((slot, *key));
            }
        }
    }
    let misses = to_compute.len() as u64;
    let workers = state.engine.worker_count().min(to_compute.len().max(1));
    pending += to_compute.len();
    let owned = to_compute.clone();
    // Per-request stage counters, shared into the task closures; stage
    // work a sibling request's tasks did on our behalf lands in *their*
    // tally — each stage resolution is tallied exactly once.
    let stage_tally = Arc::new(crate::stagecache::StageTally::default());

    // Deliver the immediate hits (outside the registry lock — the
    // callback may write to a socket).
    for (key, result) in immediate {
        resolved.insert(key, (Arc::clone(&result), true));
        on_resolved(&key, &result, true);
    }

    // Enqueue the misses as one fairness unit on the shared pool.
    let parent = trace::current_span_id();
    let tasks: Vec<crate::sched::Task> = to_compute
        .into_iter()
        .map(|(slot, key)| {
            let job = jobs[slot].clone();
            let state = Arc::clone(state);
            let tx = tx.clone();
            let stage_tally = Arc::clone(&stage_tally);
            Box::new(move || {
                let _span = trace::span_under(parent, "serve.job", |a| {
                    a.num("slot", slot as u64);
                });
                let result = Arc::new(state.engine.compute(&job, &stage_tally));
                trace::event("job", |a| {
                    a.str("key", &key.to_string())
                        .str("provenance", "computed")
                        .flag("ok", result.is_ok());
                });
                // Admit before deregistering, so no classifier can fall
                // into the gap between the two (see `in_flight`).
                state.engine.stages.admit_job(key, &result);
                let waiters = state.lock_in_flight().remove(&key).unwrap_or_default();
                let _ = tx.send((slot, Arc::clone(&result)));
                for waiter in waiters {
                    let _ = waiter.tx.send((waiter.slot, Arc::clone(&result)));
                }
            }) as crate::sched::Task
        })
        .collect();
    drop(tx);
    state.sched.submit(tasks);

    // Collect exactly the owed results; completion order is scheduling
    // order, but slots key everything back deterministically.
    while pending > 0 {
        match rx.recv() {
            Ok((slot, result)) => {
                pending -= 1;
                let key = keys[slot];
                let hit = slot_is_hit[slot];
                resolved.insert(key, (Arc::clone(&result), hit));
                on_resolved(&key, &result, hit);
            }
            Err(_) => {
                // Every sender is gone with results still owed: a
                // scheduled job panicked (its worker caught it, so the
                // send never happened). Drop this request's dangling
                // registrations — which drops its subscribers' senders,
                // so they fail fast the same way instead of hanging —
                // then surface the failure.
                {
                    let mut in_flight = state.lock_in_flight();
                    for (_, key) in &owned {
                        if !resolved.contains_key(key) {
                            in_flight.remove(key);
                        }
                    }
                }
                panic!("a scheduled job died before reporting its result");
            }
        }
    }

    state.engine.cache.record(hits, misses);
    let stats = EngineStats {
        jobs: total as u64,
        cache_hits: hits,
        cache_misses: misses,
        cache_entries: resolved.len(),
        workers,
        elapsed: started.elapsed(),
        stage_hits: stage_tally.hits(),
        stage_misses: stage_tally.misses(),
    };
    ScheduledRun { resolved, stats }
}

/// Builds the [`StudyCell`] for one grid cell from its resolved result.
fn make_cell(job: &Job, key: JobKey, result: &Arc<JobResult>, from_cache: bool) -> StudyCell {
    StudyCell {
        spec: job.spec.name().to_string(),
        latency: job.latency,
        adder_arch: job.options.adder_arch,
        balance: job.options.balance,
        verify_vectors: job.options.verify_vectors,
        key,
        from_cache,
        result: Arc::clone(result),
    }
}

/// Runs one study request on the scheduler and writes its response (and,
/// when streaming, a cell frame per grid cell as results resolve).
fn run_study_request(
    state: &Arc<ServerState>,
    study: &Study,
    stream: bool,
    req: u64,
    peer: &str,
    writer: &Mutex<TcpStream>,
) {
    let grid = study.dedup();
    // Grid cells per key, in grid order: the streaming path fans each
    // resolved key back out to every cell it covers, first occurrence
    // carrying the hit flag and the rest marked as in-grid duplicates —
    // the same marking `assemble` gives the final report.
    let mut cells_of_key: HashMap<JobKey, Vec<usize>> = HashMap::new();
    if stream {
        for (index, key) in grid.keys.iter().enumerate() {
            cells_of_key.entry(*key).or_default().push(index);
        }
    }
    let mut frames_ok = true;
    let run = run_scheduled(state, &grid.distinct, |key, result, hit| {
        if !stream || !frames_ok {
            return;
        }
        for (occurrence, &index) in cells_of_key.get(key).into_iter().flatten().enumerate() {
            let cell = make_cell(&grid.cells[index], *key, result, hit || occurrence > 0);
            let cell = serde_json::to_string(&cell).expect("study cell serializes");
            let frame = format!("{{\"cell\":{cell},\"index\":{index}}}");
            if write_line(writer, &frame).is_err() {
                // The client stopped reading; stop framing but finish the
                // computation — it warms the cache for everyone else.
                frames_ok = false;
                break;
            }
        }
    });
    let resolved = run.resolved;
    let cells = crate::study::assemble(grid.cells, grid.keys, |key| {
        let (result, hit) = &resolved[&key];
        (Arc::clone(result), *hit)
    });
    let report = StudyReport { cells, stats: run.stats };
    state.requests.fetch_add(1, Ordering::SeqCst);
    state.class_study.fetch_add(1, Ordering::SeqCst);
    trace::stderr_log("serve", "report", |a| {
        a.num("req", req)
            .str("peer", peer)
            .num("cells", report.cells.len() as u64)
            .num("ok", report.successes().count() as u64)
            .num("failed", report.failures().count() as u64)
            .num("cache_hits", report.stats.cache_hits)
            .num("cache_misses", report.stats.cache_misses)
            .str("summary", &report.summary());
    });
    let service = serde_json::to_string(&state.service_stats()).expect("service stats serialize");
    // `report` goes last so clients can slice the exact single-process
    // StudyReport bytes out of the line; see the module docs.
    let line = format!("{{\"ok\":true,\"service\":{service},\"report\":{}}}", report.to_json());
    if write_line(writer, &line).is_err() {
        // The client vanished mid-run. Its study already ran (and warmed
        // the cache for everyone else); only the reply is lost.
        trace::stderr_log("serve", "client_gone", |a| {
            a.num("req", req).str("peer", peer);
        });
    }
}

/// Runs one shard request's job range on the scheduler and writes the
/// batch-statistics reply; every success spills into the shared store.
fn run_shard_request(
    state: &Arc<ServerState>,
    study: &Study,
    index: usize,
    count: usize,
    req: u64,
    peer: &str,
    writer: &Mutex<TcpStream>,
) {
    let jobs = shard::shard_slice(study, index, count);
    let run = run_scheduled(state, &jobs, |_, _, _| {});
    let stats = run.stats;
    state.requests.fetch_add(1, Ordering::SeqCst);
    state.class_shard.fetch_add(1, Ordering::SeqCst);
    trace::stderr_log("serve", "shard", |a| {
        a.num("req", req)
            .str("peer", peer)
            .num("shard_index", index as u64)
            .num("shard_count", count as u64)
            .num("jobs", stats.jobs)
            .num("cache_hits", stats.cache_hits)
            .num("cache_misses", stats.cache_misses);
    });
    let service = serde_json::to_string(&state.service_stats()).expect("service stats serialize");
    let stats = serde_json::to_string(&stats).expect("engine stats serialize");
    let line = format!(
        "{{\"ok\":true,\"shard_index\":{index},\"shard_count\":{count},\
         \"service\":{service},\"stats\":{stats}}}"
    );
    if write_line(writer, &line).is_err() {
        trace::stderr_log("serve", "client_gone", |a| {
            a.num("req", req).str("peer", peer);
        });
    }
}

/// Writes one response line. The mutex makes concurrent runner and
/// reader writes line-atomic — frames and responses interleave only at
/// line boundaries.
fn write_line(writer: &Mutex<TcpStream>, line: &str) -> io::Result<()> {
    let mut writer = writer.lock().unwrap_or_else(PoisonError::into_inner);
    writer.write_all(line.as_bytes())?;
    writer.write_all(b"\n")?;
    writer.flush()
}

fn respond_error(writer: &Mutex<TcpStream>, message: &str) -> io::Result<()> {
    let escaped = serde_json::to_string(message)
        .map_err(|e| io::Error::new(io::ErrorKind::InvalidData, e.to_string()))?;
    write_line(writer, &format!("{{\"ok\":false,\"error\":{escaped}}}"))
}
