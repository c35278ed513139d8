//! End-to-end tests of `explore --shards K` against the compiled binary:
//! the sharded run's `--json` output must be byte-identical to the
//! single-process run on the same grid (after dropping the `elapsed_ms`
//! line, which differs even between two identical single-process runs),
//! the merged `EngineStats` totals must account for every deduplicated job
//! exactly once, and the local `serve` children must be gone once the
//! coordinator returns, whether the run succeeded or failed.
//!
//! The remote-transport half drives `explore --workers` against spawned
//! `bittrans serve` processes: the same byte-identity contract over TCP,
//! plus flag validation and the unreachable-fleet fallback.

mod support;

use std::path::PathBuf;
use support::{repo, run_env, ServerProc};

fn temp_dir(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("bittrans_shardcli_{tag}_{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    dir
}

/// Additionally blanks `workers`, which legitimately differs once a shard
/// died (its pool is no longer part of the sum) — the same normalization
/// `bittrans report normalize` applies.
fn strip_run_shape(json: &str) -> String {
    bittrans::engine::report::normalize_run_shape(json)
}

fn stat(json: &str, field: &str) -> u64 {
    // The stats block is the only object with these counters; grab the
    // first occurrence of `"<field>": N`.
    let needle = format!("\"{field}\": ");
    let start = json.find(&needle).unwrap_or_else(|| panic!("{field} in {json}")) + needle.len();
    json[start..].chars().take_while(char::is_ascii_digit).collect::<String>().parse().unwrap()
}

/// The paper grid both runs share: 2 specs × 3 latencies × 2 adders = 12
/// deduplicated jobs.
fn grid_args<'a>(cache: &'a str, extra: &[&'a str]) -> Vec<String> {
    let mut args: Vec<String> = vec![
        "explore".into(),
        repo("specs/ewf_section.spec").to_string_lossy().into_owned(),
        repo("specs/saturating_mac.spec").to_string_lossy().into_owned(),
        "--latency".into(),
        "3..5".into(),
        "--adders".into(),
        "rca,cla".into(),
        "--jobs".into(),
        "4".into(),
        "--cache-dir".into(),
        cache.into(),
        "--json".into(),
    ];
    args.extend(extra.iter().map(|s| (*s).to_string()));
    args
}

fn run_grid(cache: &std::path::Path, extra: &[&str], env: &[(&str, &str)]) -> (String, String) {
    let cache = cache.to_string_lossy().into_owned();
    let args = grid_args(&cache, extra);
    let args: Vec<&str> = args.iter().map(String::as_str).collect();
    let (ok, stdout, stderr) = run_env(&args, env);
    assert!(ok, "explore failed: {stderr}");
    (stdout, stderr)
}

#[test]
fn sharded_json_is_byte_identical_to_single_process() {
    let (dir_a, dir_b) = (temp_dir("diff_a"), temp_dir("diff_b"));
    let (single, _) = run_grid(&dir_a, &[], &[]);
    let (sharded, stderr) = run_grid(&dir_b, &["--shards", "4"], &[]);

    // Byte-identical modulo the run shape — including from_cache flags
    // and per-cell comparisons. The stage counters are part of the run
    // shape: four single-job shard batches share fewer stage prefixes
    // than one 12-job pool, without changing a result byte.
    assert_eq!(strip_run_shape(&single), strip_run_shape(&sharded));

    // Merged totals: every deduplicated job exactly once.
    assert_eq!(stat(&sharded, "jobs"), 12);
    assert_eq!(stat(&sharded, "cache_hits") + stat(&sharded, "cache_misses"), 12);
    assert_eq!(stat(&sharded, "cache_misses"), stat(&single, "cache_misses"));
    // All four workers reported in.
    for shard in 0..4 {
        assert!(stderr.contains(&format!("shard {shard}/4:")), "{stderr}");
    }
    assert!(!stderr.contains("failed"), "{stderr}");
}

#[test]
fn sharded_rerun_is_served_from_the_shared_store() {
    let dir = temp_dir("warm");
    run_grid(&dir, &["--shards", "3"], &[]);
    let (warm, _) = run_grid(&dir, &["--shards", "3"], &[]);
    assert_eq!(stat(&warm, "cache_hits"), 12, "{warm}");
    assert_eq!(stat(&warm, "cache_misses"), 0);
    assert!(warm.contains("\"hit_rate_pct\": 100.0"), "{warm}");
    assert!(warm.contains("\"from_cache\": true"));
    assert!(!warm.contains("\"from_cache\": false"));
    // And it matches a single-process warm run over a store with the same
    // content (modulo `workers`: an all-hits single-process batch reports
    // its idle pool as 1, the sharded run sums the three shard pools).
    let dir_single = temp_dir("warm_single");
    run_grid(&dir_single, &[], &[]);
    let (warm_single, _) = run_grid(&dir_single, &[], &[]);
    assert_eq!(strip_run_shape(&warm_single), strip_run_shape(&warm));
}

#[test]
fn single_shard_and_ephemeral_cache_dir_work() {
    // --shards 1 still goes through a local serve child; without
    // --cache-dir the coordinator shards into a temporary store and cleans
    // it up.
    let spec = repo("specs/saturating_mac.spec");
    let (ok, stdout, stderr) = run_env(
        &["explore", spec.to_str().unwrap(), "--latency", "3..4", "--shards", "1", "--json"],
        &[],
    );
    assert!(ok, "stderr: {stderr}");
    assert_eq!(stat(&stdout, "jobs"), 2);
    assert!(stderr.contains("shard 0/1:"), "{stderr}");
}

#[test]
fn remote_workers_match_single_process_byte_for_byte() {
    let (shared, dir_single) = (temp_dir("remote"), temp_dir("remote_single"));
    std::fs::create_dir_all(&shared).unwrap();
    let a = ServerProc::start(&shared, 1);
    let b = ServerProc::start(&shared, 1);
    let workers = format!("{},{}", a.addr, b.addr);

    let (single, _) = run_grid(&dir_single, &[], &[]);
    let (remote, stderr) = run_grid(&shared, &["--workers", &workers, "--shards", "2"], &[]);

    // Byte-identical modulo wall clock and pool shape (the remote merged
    // `workers` sums the fleet's batch pools, not one local pool).
    assert_eq!(strip_run_shape(&single), strip_run_shape(&remote));
    // run_grid passes --jobs, which remote dispatch cannot honor — the
    // CLI must say so instead of silently dropping the cap.
    assert!(stderr.contains("--jobs has no effect with --workers"), "{stderr}");
    assert_eq!(stat(&remote, "jobs"), 12);
    assert_eq!(stat(&remote, "cache_hits") + stat(&remote, "cache_misses"), 12);
    // Both shards dispatched, none failed, and the per-endpoint
    // attribution lines name the fleet.
    assert!(stderr.contains("shard 0/2:"), "{stderr}");
    assert!(stderr.contains("shard 1/2:"), "{stderr}");
    assert!(!stderr.contains("failed"), "{stderr}");
    assert!(
        stderr.contains(&format!("endpoint {}", a.addr))
            || stderr.contains(&format!("endpoint {}", b.addr)),
        "{stderr}"
    );

    // A warm remote rerun is served entirely from the shared store.
    let (warm, _) = run_grid(&shared, &["--workers", &workers, "--shards", "2"], &[]);
    assert_eq!(stat(&warm, "cache_hits"), 12, "{warm}");
    assert_eq!(stat(&warm, "cache_misses"), 0);
    assert!(warm.contains("\"hit_rate_pct\": 100.0"), "{warm}");

    a.shutdown();
    b.shutdown();
}

#[test]
fn unreachable_fleet_falls_back_to_in_process() {
    let (dir_a, dir_b) = (temp_dir("fallback_a"), temp_dir("fallback_b"));
    let (single, _) = run_grid(&dir_a, &[], &[]);
    // Port 1 on loopback refuses instantly; the run must complete via the
    // coordinator's in-process recomputation, not hang or fail.
    let (remote, stderr) = run_grid(&dir_b, &["--workers", "127.0.0.1:1", "--timeout", "2"], &[]);
    assert_eq!(strip_run_shape(&single), strip_run_shape(&remote));
    assert!(stderr.contains("the coordinator recomputes the range"), "{stderr}");
    assert!(stderr.contains("retried 12 missing job(s) in-process"), "{stderr}");
}

#[test]
fn workers_flag_is_validated() {
    let spec = repo("specs/saturating_mac.spec");
    let spec = spec.to_str().unwrap();
    let cache = temp_dir("workers_valid");
    let cache = cache.to_string_lossy().into_owned();

    // An empty endpoint list.
    let (ok, _, stderr) = run_env(&["explore", spec, "--workers", "", "--cache-dir", &cache], &[]);
    assert!(!ok);
    assert!(stderr.contains("at least one host:port"), "{stderr}");

    // Unparseable endpoints: no port, bad port.
    for bad in ["nohost", "h:notaport", "h:0", "a:1,,b:2"] {
        let (ok, _, stderr) =
            run_env(&["explore", spec, "--workers", bad, "--cache-dir", &cache], &[]);
        assert!(!ok, "`--workers {bad}` should be rejected");
        assert!(stderr.contains("error:"), "{stderr}");
    }

    // Remote dispatch without the shared store is refused up front.
    let (ok, _, stderr) = run_env(&["explore", spec, "--workers", "127.0.0.1:4850"], &[]);
    assert!(!ok);
    assert!(stderr.contains("--cache-dir"), "{stderr}");

    // A zero timeout is always a mistyped flag.
    let (ok, _, stderr) = run_env(
        &["explore", spec, "--workers", "127.0.0.1:4850", "--cache-dir", &cache, "--timeout", "0"],
        &[],
    );
    assert!(!ok);
    assert!(stderr.contains("--timeout must be at least 1"), "{stderr}");
}

/// `pid: cmdline` of every process whose command line names `needle`.
#[cfg(target_os = "linux")]
fn processes_naming(needle: &str) -> Vec<String> {
    let mut found = Vec::new();
    for entry in std::fs::read_dir("/proc").expect("procfs").flatten() {
        let Ok(cmdline) = std::fs::read(entry.path().join("cmdline")) else { continue };
        let cmdline = String::from_utf8_lossy(&cmdline).replace('\0', " ");
        if cmdline.contains(needle) {
            found.push(format!("{}: {cmdline}", entry.file_name().to_string_lossy()));
        }
    }
    found
}

#[cfg(target_os = "linux")]
#[test]
fn local_serve_children_are_reaped_on_success_and_failure() {
    // Success: a cold 3-shard run over a fresh store.
    let dir = temp_dir("reap_ok");
    run_grid(&dir, &["--shards", "3"], &[]);
    let store = dir.to_string_lossy().into_owned();
    assert!(processes_naming(&store).is_empty(), "{:?}", processes_naming(&store));
    assert!(!dir.join(".shards").exists(), "no scratch directory is left in the store");

    // Failure after spawning: every cell is infeasible (λ = 0), so the
    // children run their shards and the coordinator then fails the run.
    let dir = temp_dir("reap_fail");
    let store = dir.to_string_lossy().into_owned();
    let specs = [repo("specs/ewf_section.spec"), repo("specs/saturating_mac.spec")];
    let (ok, _, stderr) = run_env(
        &[
            "explore",
            specs[0].to_str().unwrap(),
            specs[1].to_str().unwrap(),
            "--latency",
            "0",
            "--adders",
            "rca,cla",
            "--shards",
            "3",
            "--cache-dir",
            &store,
        ],
        &[],
    );
    assert!(!ok);
    assert!(stderr.contains("all 4 grid cells failed"), "{stderr}");
    assert!(stderr.contains("shard 2/3:"), "three children were spawned: {stderr}");
    assert!(processes_naming(&store).is_empty(), "{:?}", processes_naming(&store));
}
