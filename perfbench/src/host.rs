//! The host fingerprint printed at the top of every run, so two runs are
//! only compared when they ran on like hosts and builds.

use std::process::Command;

/// One JSON line: `{"host": {...}}`.
pub fn fingerprint_line(workers: usize) -> String {
    let parallelism = std::thread::available_parallelism().map_or(0, |n| n.get());
    format!(
        "{{\"host\": {{\"available_parallelism\": {parallelism}, \"workers\": {workers}, \
         \"target\": \"{}\", \"profile\": \"{}\", \"rustc\": \"{}\", \"git_commit\": \"{}\"}}}}",
        env!("PERFBENCH_TARGET"),
        env!("PERFBENCH_PROFILE"),
        env!("PERFBENCH_RUSTC").replace('"', "'"),
        git_commit(),
    )
}

/// `git rev-parse HEAD` of the working directory, or `unknown` outside a
/// git checkout.
fn git_commit() -> String {
    Command::new("git")
        .args(["rev-parse", "HEAD"])
        .output()
        .ok()
        .filter(|out| out.status.success())
        .and_then(|out| String::from_utf8(out.stdout).ok())
        .map(|text| text.trim().to_string())
        .filter(|sha| !sha.is_empty() && sha.chars().all(|c| c.is_ascii_hexdigit()))
        .unwrap_or_else(|| "unknown".to_string())
}
