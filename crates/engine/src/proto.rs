//! The `serve` wire codec shared by every client of the study service:
//! the CLI `client` subcommand, the shard coordinator ([`crate::shard`],
//! both transports), and the integration suites.
//!
//! The protocol itself lives in [`crate::serve`]: one JSON request per
//! line, one response line per request. This module owns the *client
//! side* of that framing, and its one hard rule is that **every read has
//! a deadline**. A stalled or half-dead endpoint must surface as a
//! [`std::io::ErrorKind::TimedOut`] error the caller can retry or fall
//! back from — never as a hung caller. The one exception is asked for
//! explicitly: a timeout too large to add to the clock (`Duration::MAX`)
//! means no deadline, which the local shard transport uses because its
//! endpoints are its own children, whose exit closes the socket.

use crate::stats::EngineStats;
use crate::trace;
use serde_json::Value;
use std::io::{self, BufRead, BufReader, Write};
use std::net::{SocketAddr, TcpStream, ToSocketAddrs};
use std::time::{Duration, Instant};

/// Default deadline for connecting to an endpoint and for one whole
/// response read. A study computes server-side before its response line
/// appears, so this is generous; interactive callers can lower it (the
/// CLI's `--timeout` flag).
pub const DEFAULT_TIMEOUT: Duration = Duration::from_secs(120);

/// Cap on one buffered response line. Reports scale with the grid, so
/// this sits far above any real study's report; a longer line is a
/// runaway or hostile endpoint, and buffering it unbounded would let one
/// endpoint exhaust the caller's memory.
pub const MAX_RESPONSE_BYTES: usize = 64 * 1024 * 1024;

/// When a budget of `timeout` starting now runs out. `None` means no
/// deadline: a timeout too large to add to the clock (`Duration::MAX`)
/// waits for as long as the endpoint takes.
fn deadline_after(timeout: Duration) -> Option<Instant> {
    Instant::now().checked_add(timeout)
}

/// Time left until `deadline` as a socket timeout (`Some(None)`: block
/// without a limit), `None` once it has passed.
fn remaining(deadline: Option<Instant>) -> Option<Option<Duration>> {
    let Some(deadline) = deadline else { return Some(None) };
    let left = deadline.saturating_duration_since(Instant::now());
    (!left.is_zero()).then_some(Some(left))
}

/// One connection to a `serve` endpoint: line-oriented requests with
/// deadlines on connect, write and the **whole** of every response read
/// — an endpoint trickling bytes cannot reset its way past the budget.
pub struct LineClient {
    writer: TcpStream,
    reader: BufReader<TcpStream>,
    timeout: Duration,
}

impl LineClient {
    /// Connects with `timeout` as the total connect budget — shared
    /// across every address the endpoint resolves to, so a multi-address
    /// name whose first address blackholes cannot cost one timeout per
    /// address — and keeps the same duration as the per-exchange
    /// deadline of every later call. A `timeout` too large to add to the
    /// clock means no deadline at all.
    ///
    /// # Errors
    ///
    /// Resolution failure, no reachable address, or socket configuration.
    pub fn connect(endpoint: &str, timeout: Duration) -> io::Result<LineClient> {
        let started = Instant::now();
        let deadline = deadline_after(timeout);
        let addrs: Vec<SocketAddr> = endpoint.to_socket_addrs()?.collect();
        let mut last: Option<io::Error> = None;
        for addr in addrs {
            let Some(left) = remaining(deadline) else { break };
            let connected = match left {
                Some(left) => TcpStream::connect_timeout(&addr, left),
                None => TcpStream::connect(addr),
            };
            match connected {
                Ok(stream) => {
                    trace::event("proto.connect", |a| {
                        a.str("endpoint", endpoint).num(
                            "elapsed_ns",
                            u64::try_from(started.elapsed().as_nanos()).unwrap_or(u64::MAX),
                        );
                    });
                    return LineClient::over(stream, timeout);
                }
                Err(e) => last = Some(e),
            }
        }
        let error = last.unwrap_or_else(|| {
            io::Error::new(
                io::ErrorKind::InvalidInput,
                format!("`{endpoint}` resolves to no address"),
            )
        });
        trace::event("proto.connect_error", |a| {
            a.str("endpoint", endpoint).str("error", &error.to_string());
        });
        Err(error)
    }

    /// Wraps an already-connected stream (the test-harness path),
    /// installing `timeout` as its exchange deadline.
    ///
    /// # Errors
    ///
    /// Socket configuration (setting the deadlines, cloning the handle).
    pub fn over(stream: TcpStream, timeout: Duration) -> io::Result<LineClient> {
        stream.set_write_timeout(Some(timeout))?;
        let writer = stream.try_clone()?;
        Ok(LineClient { writer, reader: BufReader::new(stream), timeout })
    }

    /// Sends one request line (the newline delimiter is appended).
    ///
    /// # Errors
    ///
    /// Transport errors, including a write blocked past the deadline.
    pub fn send(&mut self, line: &str) -> io::Result<()> {
        let outcome = self
            .writer
            .write_all(line.as_bytes())
            .and_then(|()| self.writer.write_all(b"\n"))
            .and_then(|()| self.writer.flush());
        if let Err(e) = &outcome {
            trace::event("proto.write_error", |a| {
                a.num("bytes", line.len() as u64 + 1).str("error", &e.to_string());
            });
        }
        outcome
    }

    /// Reads one complete response line under one overall deadline.
    ///
    /// The deadline covers the **whole line**, re-checked after every
    /// chunk the socket delivers — an endpoint trickling one byte per
    /// read cannot reset its way past the budget, and the buffered line
    /// is capped at [`MAX_RESPONSE_BYTES`].
    ///
    /// # Errors
    ///
    /// [`io::ErrorKind::TimedOut`] when the deadline passes without the
    /// line completing (a stalled or dripping endpoint),
    /// [`io::ErrorKind::UnexpectedEof`] when the connection closes before
    /// the line starts or inside it (a truncated reply),
    /// [`io::ErrorKind::InvalidData`] on an oversized or non-UTF-8 line,
    /// and any other transport error as-is.
    pub fn receive(&mut self) -> io::Result<String> {
        let deadline = deadline_after(self.timeout);
        let mut line: Vec<u8> = Vec::new();
        loop {
            if line.len() > MAX_RESPONSE_BYTES {
                return Err(io::Error::new(
                    io::ErrorKind::InvalidData,
                    format!("response line exceeds the {MAX_RESPONSE_BYTES} byte cap"),
                ));
            }
            let Some(left) = remaining(deadline) else {
                return Err(stalled(line.len()));
            };
            self.reader.get_ref().set_read_timeout(left)?;
            let available = match self.reader.fill_buf() {
                Ok(available) => available,
                Err(e) if e.kind() == io::ErrorKind::Interrupted => continue,
                Err(e)
                    if matches!(e.kind(), io::ErrorKind::WouldBlock | io::ErrorKind::TimedOut) =>
                {
                    return Err(stalled(line.len()));
                }
                Err(e) => return Err(e),
            };
            if available.is_empty() {
                // EOF: before the line started, or inside it.
                return Err(if line.is_empty() {
                    io::Error::new(
                        io::ErrorKind::UnexpectedEof,
                        "connection closed without a response",
                    )
                } else {
                    io::Error::new(
                        io::ErrorKind::UnexpectedEof,
                        format!(
                            "connection closed mid-response ({} bytes of a truncated line)",
                            line.len()
                        ),
                    )
                });
            }
            let (taken, complete) = match available.iter().position(|&b| b == b'\n') {
                Some(newline) => (newline + 1, true),
                None => (available.len(), false),
            };
            line.extend_from_slice(&available[..taken]);
            self.reader.consume(taken);
            if complete {
                line.pop(); // the newline delimiter
                let text = String::from_utf8(line).map_err(|_| {
                    io::Error::new(io::ErrorKind::InvalidData, "response line is not UTF-8")
                })?;
                return Ok(text.trim().to_string());
            }
        }
    }

    /// One full exchange: [`LineClient::send`] then [`LineClient::receive`].
    ///
    /// # Errors
    ///
    /// Whatever either half reports.
    pub fn request(&mut self, line: &str) -> io::Result<String> {
        self.send(line)?;
        self.receive()
    }

    /// Reads a **streaming** response: every `{"cell":…}` frame line
    /// (sent when the request carried `"stream": true`) is handed to
    /// `on_frame` as it arrives, and the first non-frame line — the
    /// normal final response — is returned. Each line gets the full
    /// per-read deadline ([`LineClient::receive`]), so a server steadily
    /// streaming a large grid never times the client out between cells.
    ///
    /// Also correct against a non-streaming response (e.g. an `ok:false`
    /// rejection of the `stream` field by an older server): the first
    /// line is no frame, so it comes straight back with `on_frame` never
    /// called.
    ///
    /// # Errors
    ///
    /// Whatever [`LineClient::receive`] reports.
    pub fn receive_streaming(&mut self, mut on_frame: impl FnMut(&str)) -> io::Result<String> {
        loop {
            let line = self.receive()?;
            if is_frame(&line) {
                on_frame(&line);
            } else {
                return Ok(line);
            }
        }
    }
}

fn stalled(buffered: usize) -> io::Error {
    trace::event("proto.read_timeout", |a| {
        a.num("buffered_bytes", buffered as u64);
    });
    io::Error::new(
        io::ErrorKind::TimedOut,
        "endpoint stalled: the response line timed out before completing",
    )
}

/// Whether a response line is a streaming cell frame (`{"cell":…}`).
/// The server puts `cell` first in frames and `ok` first in final
/// responses precisely so one prefix check classifies every line.
pub fn is_frame(line: &str) -> bool {
    line.starts_with("{\"cell\":")
}

/// Splits a streaming frame into its grid index and the exact
/// [`crate::StudyCell`] JSON slice — no re-serialization, mirroring
/// [`report_slice`]. `None` for anything that is not a well-formed
/// `{"cell":…,"index":N}` frame line.
pub fn frame_cell(line: &str) -> Option<(u64, &str)> {
    let rest = line.strip_prefix("{\"cell\":")?;
    let rest = rest.strip_suffix('}')?;
    let (cell, index) = rest.rsplit_once(",\"index\":")?;
    Some((index.parse().ok()?, cell))
}

/// The exact `StudyReport` bytes embedded in a successful response line —
/// the server serializes the `report` field **last** precisely so this
/// slice exists without re-serializing (and re-ordering) anything. `None`
/// when the line carries no report or is not a complete JSON object.
pub fn report_slice(line: &str) -> Option<&str> {
    let needle = "\"report\":";
    let start = line.find(needle)?;
    if !line.ends_with('}') {
        return None;
    }
    Some(&line[start + needle.len()..line.len() - 1])
}

/// Reads an [`EngineStats`] object back from its parsed JSON form — the
/// shape the `Serialize` impl writes. `None` on any missing or ill-typed
/// counter, so callers treat a damaged reply as a failed exchange.
pub fn stats_from_value(value: &Value) -> Option<EngineStats> {
    Some(EngineStats {
        jobs: value.get("jobs")?.as_u64()?,
        cache_hits: value.get("cache_hits")?.as_u64()?,
        cache_misses: value.get("cache_misses")?.as_u64()?,
        cache_entries: usize::try_from(value.get("cache_entries")?.as_u64()?).ok()?,
        workers: usize::try_from(value.get("workers")?.as_u64()?).ok()?,
        elapsed: Duration::from_secs_f64(value.get("elapsed_ms")?.as_f64()?.max(0.0) / 1e3),
        // Lenient: replies from engines predating stage caching simply
        // carry zero stage work, they are not damaged.
        stage_hits: value.get("stage_hits").and_then(Value::as_u64).unwrap_or(0),
        stage_misses: value.get("stage_misses").and_then(Value::as_u64).unwrap_or(0),
    })
}

/// Validates one `host:port` endpoint spelling without resolving it: a
/// non-empty host and a nonzero 16-bit port. (Port 0 means "pick one" to
/// a *listener*; as a dial target nothing can be listening there.)
///
/// # Errors
///
/// A human-readable description of what is wrong with the spelling.
pub fn validate_endpoint(endpoint: &str) -> Result<(), String> {
    let Some((host, port)) = endpoint.rsplit_once(':') else {
        return Err(format!("`{endpoint}` is not host:port"));
    };
    if host.is_empty() {
        return Err(format!("`{endpoint}` has an empty host"));
    }
    match port.parse::<u16>() {
        Ok(0) => Err(format!("`{endpoint}` dials port 0, which nothing can listen on")),
        Ok(_) => Ok(()),
        Err(_) => Err(format!("`{endpoint}` has a bad port `{port}`")),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn stats_roundtrip_through_json() {
        let stats = EngineStats {
            jobs: 7,
            cache_hits: 2,
            cache_misses: 5,
            cache_entries: 9,
            workers: 3,
            elapsed: Duration::from_millis(12),
            stage_hits: 11,
            stage_misses: 13,
        };
        let parse = |text: &str| serde_json::from_str(text).ok();
        let back =
            stats_from_value(&parse(&serde_json::to_string(&stats).unwrap()).unwrap()).unwrap();
        assert_eq!(back.jobs, 7);
        assert_eq!(back.cache_hits, 2);
        assert_eq!(back.cache_misses, 5);
        assert_eq!(back.cache_entries, 9);
        assert_eq!(back.workers, 3);
        assert!((back.elapsed.as_secs_f64() - 0.012).abs() < 1e-9);
        assert_eq!(back.stage_hits, 11);
        assert_eq!(back.stage_misses, 13);
        assert!(stats_from_value(&parse("{\"jobs\": 1}").unwrap()).is_none(), "missing counters");
        assert!(stats_from_value(&parse("[1, 2]").unwrap()).is_none());
        // Pre-stage-cache replies lack the stage counters; that is old
        // age, not damage.
        let legacy = stats_from_value(
            &parse(
                "{\"jobs\":1,\"cache_hits\":0,\"cache_misses\":1,\"hit_rate_pct\":0.0,\
                 \"cache_entries\":1,\"workers\":1,\"elapsed_ms\":2.0}",
            )
            .unwrap(),
        )
        .unwrap();
        assert_eq!(legacy.stage_hits, 0);
        assert_eq!(legacy.stage_misses, 0);
    }

    #[test]
    fn an_unrepresentable_timeout_means_no_deadline() {
        // Port 1 on loopback refuses at once: the connect fails cleanly
        // instead of overflowing `Instant + Duration::MAX`.
        assert!(LineClient::connect("127.0.0.1:1", Duration::MAX).is_err());
        assert!(deadline_after(Duration::MAX).is_none());
        assert_eq!(remaining(None), Some(None));
        assert_eq!(remaining(Some(Instant::now())), None, "a passed deadline has no time left");
    }

    #[test]
    fn report_slice_requires_the_trailing_field() {
        let line = "{\"ok\":true,\"service\":{},\"report\":{\"cells\":[]}}";
        assert_eq!(report_slice(line), Some("{\"cells\":[]}"));
        assert!(report_slice("{\"ok\":true}").is_none(), "no report field");
        assert!(report_slice("{\"report\":{\"cells\":[").is_none(), "truncated line");
    }

    #[test]
    fn frames_are_classified_and_sliced_by_prefix() {
        let frame = "{\"cell\":{\"spec\":\"ex\",\"latency\":3},\"index\":7}";
        assert!(is_frame(frame));
        assert_eq!(frame_cell(frame), Some((7, "{\"spec\":\"ex\",\"latency\":3}")));
        // A cell whose body itself contains an "index" key still splits
        // at the frame-level field (rightmost occurrence).
        let tricky = "{\"cell\":{\"a\":1,\"index\":9},\"index\":2}";
        assert_eq!(frame_cell(tricky), Some((2, "{\"a\":1,\"index\":9}")));
        for not_frame in ["{\"ok\":true}", "{\"ok\":false,\"error\":\"x\"}", "", "{\"cells\":[]}"] {
            assert!(!is_frame(not_frame), "{not_frame}");
            assert!(frame_cell(not_frame).is_none(), "{not_frame}");
        }
        assert!(frame_cell("{\"cell\":{},\"index\":notanum}").is_none());
        assert!(frame_cell("{\"cell\":{}").is_none(), "truncated frame");
    }

    #[test]
    fn endpoint_spellings_are_validated() {
        assert!(validate_endpoint("127.0.0.1:4850").is_ok());
        assert!(validate_endpoint("grid-7.internal:80").is_ok());
        assert!(validate_endpoint("[::1]:4850").is_ok());
        for bad in ["", "nohost", ":5", "h:", "h:0", "h:notaport", "h:70000"] {
            assert!(validate_endpoint(bad).is_err(), "`{bad}` should not validate");
        }
    }
}
