//! End-to-end tests of `bittrans serve` / `bittrans client` against the
//! compiled binary: a real server process on a loopback port, driven by
//! real client invocations. The warm-cache contract is the headline: two
//! identical requests must produce byte-identical reports (modulo the
//! wall-clock line) with the second served entirely from the cache — and
//! protocol abuse must cost one response, never the server.

mod support;

use std::io::{BufRead, BufReader, Write};
use std::net::TcpStream;
use std::path::PathBuf;
use support::{repo, run, ServerProc};

fn temp_dir(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("bittrans_servecli_{tag}_{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    dir
}

/// Drops the volatile wall-clock value from a compact report.
fn strip_elapsed(json: &str) -> String {
    bittrans::engine::report::strip_elapsed_ms(json)
}

/// Cuts a compact report down to its cell payload — everything except the
/// cache-visibility metadata that legitimately differs between a cold and
/// a warm run of the same grid (`from_cache` flags and the stats block).
fn payload(report: &str) -> String {
    let stats = report.find(",\"stats\":").expect("report has stats");
    report[..stats].replace("\"from_cache\":true", "\"from_cache\":false")
}

#[test]
fn repeated_requests_are_byte_identical_and_warm() {
    let cache = temp_dir("warm");
    let server = ServerProc::start(&cache, 2);
    let spec = repo("specs/saturating_mac.spec");
    let grid = [spec.to_str().unwrap(), "--latency", "3..5", "--adders", "rca,cla", "--json"];

    let (ok, cold, stderr) = server.client(&grid);
    assert!(ok, "cold request failed: {stderr}");
    assert!(cold.starts_with("{\"cells\":"), "{cold}");
    assert!(cold.contains("\"cache_misses\":6"), "{cold}");

    let (ok, warm, _) = server.client(&grid);
    assert!(ok);
    // The warm run recomputed nothing, yet every comparison byte matches.
    assert_eq!(payload(&cold), payload(&warm));
    assert!(warm.contains("\"hit_rate_pct\":100.0"), "{warm}");
    assert!(warm.contains("\"cache_hits\":6"), "{warm}");

    // Two warm runs are byte-identical outright (modulo wall clock).
    let (ok, warm_again, _) = server.client(&grid);
    assert!(ok);
    assert_eq!(strip_elapsed(&warm), strip_elapsed(&warm_again));

    // The human-readable client view reports the same reuse.
    let (ok, summary, _) =
        server.client(&[spec.to_str().unwrap(), "--latency", "3..5", "--adders", "rca,cla"]);
    assert!(ok);
    assert!(
        summary.contains("6 cells (6 ok, 0 failed), 6 served from the warm cache"),
        "{summary}"
    );

    server.shutdown();
}

#[test]
fn raw_protocol_rejections_leave_the_server_serving() {
    let cache = temp_dir("faults");
    let server = ServerProc::start(&cache, 2);

    // Speak the protocol directly, like a hand-rolled netcat client.
    let mut stream = TcpStream::connect(&server.addr).expect("connect");
    let mut reader = BufReader::new(stream.try_clone().unwrap());
    for (request, expect) in [
        ("{ garbage", "\"ok\":false"),
        (
            "{\"sources\": [\"spec x { input a: u4; output o = a; }\"], \"latency\": [3]}",
            "unknown field `latency`",
        ),
        ("{\"sources\": [\"not a spec\"]}", "\"ok\":false"),
    ] {
        stream.write_all(request.as_bytes()).unwrap();
        stream.write_all(b"\n").unwrap();
        let mut reply = String::new();
        reader.read_line(&mut reply).unwrap();
        assert!(reply.contains(expect), "request {request} got {reply}");
    }
    drop((stream, reader));

    // A well-formed client request still succeeds after the abuse.
    let spec = repo("specs/ewf_section.spec");
    let (ok, _, stderr) = server.client(&[spec.to_str().unwrap(), "--latency", "3"]);
    assert!(ok, "post-abuse request failed: {stderr}");

    // And a client-side failure surfaces as a clean nonzero exit.
    let missing = repo("specs/does_not_exist.spec");
    let (ok, _, stderr) = server.client(&[missing.to_str().unwrap(), "--latency", "3"]);
    assert!(!ok);
    assert!(stderr.contains("error:"), "{stderr}");

    server.shutdown();
}

#[test]
fn client_read_times_out_on_a_stalled_server() {
    // The latent-timeout regression: the client once read responses with
    // no deadline, so a server that accepted and never wrote hung it
    // forever. A listener that accepts and stays silent must now cost one
    // bounded, clearly-reported timeout.
    let listener = std::net::TcpListener::bind("127.0.0.1:0").expect("bind silent listener");
    let addr = listener.local_addr().unwrap().to_string();
    let holder = std::thread::spawn(move || {
        let (stream, _) = listener.accept().expect("accept");
        // Hold the connection open, reading until the client gives up and
        // closes (EOF) — never write a byte. No sleeps: the client's own
        // deadline is the only clock.
        let mut reader = BufReader::new(stream);
        let mut sink = String::new();
        while reader.read_line(&mut sink).map(|n| n > 0).unwrap_or(false) {}
    });

    let spec = repo("specs/saturating_mac.spec");
    let started = std::time::Instant::now();
    let (ok, _, stderr) = run(&[
        "client",
        spec.to_str().unwrap(),
        "--latency",
        "3",
        "--addr",
        &addr,
        "--timeout",
        "1",
    ]);
    assert!(!ok, "a stalled server must be an error, not a hang");
    assert!(stderr.contains("reading response"), "{stderr}");
    assert!(stderr.contains("timed out"), "{stderr}");
    assert!(started.elapsed() < std::time::Duration::from_secs(30), "bounded");
    holder.join().unwrap();
}

#[test]
fn serve_and_client_validate_their_flags() {
    // No --addr: both sides refuse before touching the network.
    let spec = repo("specs/ewf_section.spec");
    let (ok, _, stderr) = run(&["serve"]);
    assert!(!ok);
    assert!(stderr.contains("--addr"), "{stderr}");
    let (ok, _, stderr) = run(&["client", spec.to_str().unwrap()]);
    assert!(!ok);
    assert!(stderr.contains("--addr"), "{stderr}");

    // serve shares the CLI's worker-pool guard: a zero-thread service is
    // always a mistyped flag.
    let (ok, _, stderr) = run(&["serve", "--addr", "127.0.0.1:0", "--jobs", "0"]);
    assert!(!ok);
    assert!(stderr.contains("--jobs must be at least 1"), "{stderr}");

    // serve takes no spec operands.
    let (ok, _, stderr) = run(&["serve", spec.to_str().unwrap(), "--addr", "127.0.0.1:0"]);
    assert!(!ok);
    assert!(stderr.contains("no spec operands"), "{stderr}");

    // A client pointed at nothing reports the connection failure.
    let (ok, _, stderr) = run(&["client", spec.to_str().unwrap(), "--addr", "127.0.0.1:1"]);
    assert!(!ok);
    assert!(stderr.contains("connecting"), "{stderr}");
}

#[test]
fn an_unrepresentable_client_timeout_means_no_deadline() {
    // `--timeout u64::MAX` once overflowed `Instant + Duration` and the
    // client panicked (exit 101). It now means "no deadline", so a dead
    // endpoint is the usual clean connection error.
    let spec = repo("specs/ewf_section.spec");
    let out = std::process::Command::new(support::bin())
        .args(["client", "--addr", "127.0.0.1:1", "--timeout", &u64::MAX.to_string()])
        .arg(spec)
        .output()
        .expect("bittrans runs");
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert_eq!(out.status.code(), Some(1), "{stderr}");
    assert!(stderr.starts_with("error: connecting 127.0.0.1:1"), "{stderr}");
    assert!(!stderr.contains("panicked"), "{stderr}");
}
