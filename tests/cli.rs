//! Integration tests for the `bittrans` command-line tool: drive the
//! compiled binary on the shipped `.spec` files and check its output.

use std::path::PathBuf;
use std::process::Command;

fn bin() -> PathBuf {
    // target/<profile>/bittrans, next to the test executable's directory.
    let mut p = std::env::current_exe().expect("test exe path");
    p.pop(); // deps/
    p.pop(); // debug|release/
    p.push(format!("bittrans{}", std::env::consts::EXE_SUFFIX));
    p
}

fn repo(path: &str) -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR")).join(path)
}

fn run(args: &[&str]) -> (bool, String, String) {
    let out = Command::new(bin())
        .args(args)
        .output()
        .expect("bittrans binary runs (build it with the test profile)");
    (
        out.status.success(),
        String::from_utf8_lossy(&out.stdout).into_owned(),
        String::from_utf8_lossy(&out.stderr).into_owned(),
    )
}

#[test]
fn check_reports_stats() {
    let spec = repo("specs/ewf_section.spec");
    let (ok, stdout, stderr) = run(&["check", spec.to_str().unwrap()]);
    assert!(ok, "stderr: {stderr}");
    assert!(stdout.contains("ewf_section"), "{stdout}");
    assert!(stdout.contains("critical path"), "{stdout}");
}

#[test]
fn compare_prints_table() {
    let spec = repo("specs/saturating_mac.spec");
    let (ok, stdout, _) = run(&["compare", spec.to_str().unwrap(), "--latency", "4"]);
    assert!(ok);
    assert!(stdout.contains("Conventional"));
    assert!(stdout.contains("Optimized"));
    assert!(stdout.contains("cycle saved"));
}

#[test]
fn optimize_emits_vhdl_and_netlist() {
    let dir = std::env::temp_dir().join("bittrans_cli_test");
    let _ = std::fs::remove_dir_all(&dir);
    let spec = repo("specs/ewf_section.spec");
    let (ok, stdout, stderr) = run(&[
        "optimize",
        spec.to_str().unwrap(),
        "--latency",
        "4",
        "--netlist",
        "--emit-vhdl",
        dir.to_str().unwrap(),
    ]);
    assert!(ok, "stderr: {stderr}");
    assert!(stdout.contains("netlist ewf_section"), "{stdout}");
    let transformed = dir.join("ewf_section_transformed.vhd");
    let datapath = dir.join("ewf_section_datapath.vhd");
    assert!(transformed.exists() && datapath.exists());
    let vhd = std::fs::read_to_string(transformed).unwrap();
    assert!(vhd.contains("entity ewf_section_kernel_frag is"));
}

#[test]
fn fragments_lists_mobilities() {
    let spec = repo("specs/saturating_mac.spec");
    let (ok, stdout, _) = run(&["fragments", spec.to_str().unwrap(), "--latency", "3"]);
    assert!(ok);
    assert!(stdout.contains("cycle"), "{stdout}");
    assert!(stdout.contains("schedule:"), "{stdout}");
}

#[test]
fn sweep_prints_series() {
    let spec = repo("specs/saturating_mac.spec");
    let (ok, stdout, _) = run(&["sweep", spec.to_str().unwrap(), "--from", "2", "--to", "5"]);
    assert!(ok);
    assert!(stdout.lines().count() >= 5, "{stdout}");
}

#[test]
fn explore_prints_grid_table() {
    let spec = repo("specs/saturating_mac.spec");
    let (ok, stdout, stderr) = run(&[
        "explore",
        spec.to_str().unwrap(),
        "--latency",
        "3..5",
        "--adders",
        "rca,cla",
        "--balance",
        "both",
    ]);
    assert!(ok, "stderr: {stderr}");
    // 3 latencies × 2 adders × 2 balance settings = 12 labelled cells.
    let rows = stdout.lines().filter(|l| l.starts_with("saturating_mac")).count();
    assert_eq!(rows, 12, "{stdout}");
    assert!(stdout.contains("carry-lookahead"), "{stdout}");
    assert!(stdout.contains("engine:"), "{stdout}");
}

#[test]
fn explore_emits_json_and_reuses_a_cache_dir() {
    let dir =
        std::env::temp_dir().join(format!("bittrans_cli_explore_cache_{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    let spec = repo("specs/ewf_section.spec");
    let args = [
        "explore",
        spec.to_str().unwrap(),
        "--latency",
        "3..4",
        "--cache-dir",
        dir.to_str().unwrap(),
        "--json",
    ];
    let (ok, cold, stderr) = run(&args);
    assert!(ok, "stderr: {stderr}");
    assert!(cold.contains("\"cells\""), "{cold}");
    assert!(cold.contains("\"cache_misses\": 2"), "{cold}");

    // Second invocation = second process: served entirely from disk.
    let (ok, warm, _) = run(&args);
    assert!(ok);
    assert!(warm.contains("\"cache_hits\": 2"), "{warm}");
    assert!(warm.contains("\"hit_rate_pct\": 100.0"), "{warm}");
    assert!(warm.contains("\"from_cache\": true"), "{warm}");
}

#[test]
fn cache_prune_sweeps_a_directory_and_keeps_the_index_consistent() {
    let dir = std::env::temp_dir().join(format!("bittrans_cli_prune_{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    let spec = repo("specs/ewf_section.spec");
    let (ok, _, stderr) = run(&[
        "explore",
        spec.to_str().unwrap(),
        "--latency",
        "3..4",
        "--cache-dir",
        dir.to_str().unwrap(),
    ]);
    assert!(ok, "stderr: {stderr}");

    // The store holds the two finished jobs plus the stages they ran.
    let store = dir.join("stages");
    let files = std::fs::read_dir(&store).unwrap().count();
    assert!(files > 2, "{files} files");

    // A generous age bound removes nothing.
    let (ok, stdout, _) =
        run(&["cache", "prune", "--cache-dir", dir.to_str().unwrap(), "--max-age", "86400"]);
    assert!(ok);
    assert!(stdout.contains(&format!("pruned 0 of {files} entries")), "{stdout}");

    // A zero byte budget (no live run in this process) empties the store.
    let (ok, stdout, _) = run(&[
        "cache",
        "prune",
        "--cache-dir",
        dir.to_str().unwrap(),
        "--max-bytes",
        "0",
        "--json",
    ]);
    assert!(ok);
    assert!(stdout.contains(&format!("\"removed\": {files}")), "{stdout}");
    assert!(stdout.contains("\"kept\": 0"), "{stdout}");
    // Only the emptied `stages/` store remains: no manifest, no top-level
    // entries.
    let names: Vec<String> = std::fs::read_dir(&dir)
        .unwrap()
        .map(|e| e.unwrap().file_name().to_string_lossy().into_owned())
        .collect();
    assert_eq!(names, vec!["stages"]);
    assert_eq!(std::fs::read_dir(&store).unwrap().count(), 0);

    // Misuse fails cleanly.
    let (ok, _, stderr) = run(&["cache", "prune"]);
    assert!(!ok);
    assert!(stderr.contains("--cache-dir"), "{stderr}");
    // A mistyped path must error, not silently create an empty store.
    let missing = dir.join("no-such-subdir");
    let (ok, _, stderr) = run(&["cache", "prune", "--cache-dir", missing.to_str().unwrap()]);
    assert!(!ok);
    assert!(stderr.contains("not a directory"), "{stderr}");
    assert!(!missing.exists());
    let (ok, _, stderr) = run(&["cache", "flush", "--cache-dir", dir.to_str().unwrap()]);
    assert!(!ok);
    assert!(stderr.contains("unknown cache action"), "{stderr}");
}

#[test]
fn json_flag_works_on_batch_and_sweep_but_not_elsewhere() {
    let spec = repo("specs/saturating_mac.spec");
    let (ok, stdout, stderr) = run(&["batch", spec.to_str().unwrap(), "--latency", "4", "--json"]);
    assert!(ok, "stderr: {stderr}");
    assert!(stdout.contains("\"cells\""), "{stdout}");
    let (ok, stdout, _) =
        run(&["sweep", spec.to_str().unwrap(), "--from", "2", "--to", "4", "--json"]);
    assert!(ok);
    assert!(stdout.contains("\"optimized_ns\""), "{stdout}");
    let (ok, _, stderr) = run(&["optimize", spec.to_str().unwrap(), "--latency", "4", "--json"]);
    assert!(!ok);
    assert!(stderr.contains("--json is not supported"), "{stderr}");
}

#[test]
fn explore_fails_when_every_cell_is_infeasible() {
    let spec = repo("specs/ewf_section.spec");
    // λ = 0 is infeasible for every flow: the grid produces nothing.
    let (ok, _, stderr) = run(&["explore", spec.to_str().unwrap(), "--latency", "0"]);
    assert!(!ok);
    assert!(stderr.contains("all 1 grid cells failed"), "{stderr}");
    // A partly feasible sweep (λ=0 fails, λ=3 succeeds) stays green.
    let (ok, stdout, stderr) = run(&["explore", spec.to_str().unwrap(), "--latency", "0..3"]);
    assert!(ok, "stderr: {stderr}");
    assert!(stdout.contains("error:"), "{stdout}");
}

#[test]
fn explore_rejects_bad_axes() {
    let spec = repo("specs/ewf_section.spec");
    let (ok, _, stderr) = run(&["explore", spec.to_str().unwrap(), "--latency", "5..2"]);
    assert!(!ok);
    assert!(stderr.contains("empty range"), "{stderr}");
    let (ok, _, stderr) = run(&["explore", spec.to_str().unwrap(), "--adders", "quantum"]);
    assert!(!ok);
    assert!(stderr.contains("unknown adder"), "{stderr}");
    let (ok, _, stderr) = run(&["compare", spec.to_str().unwrap(), "--latency", "2..4"]);
    assert!(!ok);
    assert!(stderr.contains("single --latency"), "{stderr}");
}

/// Regression tests for the degenerate-count guards: a zero worker pool
/// or a zero-shard partition is always a mistyped flag, and an inverted
/// range must be an error, never a silently empty sweep.
#[test]
fn zero_jobs_and_zero_shards_are_rejected() {
    let spec = repo("specs/ewf_section.spec");
    for command in ["explore", "sweep", "batch"] {
        let (ok, _, stderr) = run(&[command, spec.to_str().unwrap(), "--jobs", "0"]);
        assert!(!ok, "{command} accepted --jobs 0");
        assert!(stderr.contains("--jobs must be at least 1"), "{command}: {stderr}");
    }
    let (ok, _, stderr) = run(&["explore", spec.to_str().unwrap(), "--shards", "0"]);
    assert!(!ok);
    assert!(stderr.contains("--shards must be at least 1"), "{stderr}");
}

#[test]
fn inverted_ranges_are_errors_not_empty_sweeps() {
    let spec = repo("specs/ewf_section.spec");
    // `--latency 9..3` must never expand to an empty grid — on any
    // command that takes the range syntax.
    for command in ["explore", "batch"] {
        let (ok, stdout, stderr) = run(&[command, spec.to_str().unwrap(), "--latency", "9..3"]);
        assert!(!ok, "{command} accepted an inverted latency range: {stdout}");
        assert!(stderr.contains("empty range"), "{command}: {stderr}");
    }
    // sweep's separate --from/--to spelling has the same guard.
    let (ok, _, stderr) = run(&["sweep", spec.to_str().unwrap(), "--from", "9", "--to", "3"]);
    assert!(!ok);
    assert!(stderr.contains("--from must not exceed --to"), "{stderr}");
}

#[test]
fn bad_usage_fails_cleanly() {
    let (ok, _, stderr) = run(&["frobnicate", "nonexistent.spec"]);
    assert!(!ok);
    assert!(stderr.contains("error:"), "{stderr}");
    let spec = repo("specs/ewf_section.spec");
    let (ok, _, stderr) = run(&["compare", spec.to_str().unwrap(), "--latency", "zero"]);
    assert!(!ok);
    assert!(stderr.contains("bad --latency"));
}

#[test]
fn parse_errors_have_positions() {
    let dir = std::env::temp_dir().join("bittrans_cli_badspec");
    std::fs::create_dir_all(&dir).unwrap();
    let bad = dir.join("bad.spec");
    std::fs::write(&bad, "spec x { input a: u8; output o = a ?? a; }").unwrap();
    let (ok, _, stderr) = run(&["check", bad.to_str().unwrap()]);
    assert!(!ok);
    assert!(stderr.contains("parse error"), "{stderr}");
}
