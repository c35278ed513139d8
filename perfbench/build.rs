//! Records the toolchain facts the host fingerprint reports: the rustc
//! version, the target triple and the build profile.

use std::process::Command;

fn main() {
    let rustc = std::env::var("RUSTC").unwrap_or_else(|_| "rustc".to_string());
    let version = Command::new(rustc)
        .arg("--version")
        .output()
        .ok()
        .and_then(|out| String::from_utf8(out.stdout).ok())
        .map(|text| text.trim().to_string())
        .filter(|text| !text.is_empty())
        .unwrap_or_else(|| "unknown".to_string());
    println!("cargo:rustc-env=PERFBENCH_RUSTC={version}");
    println!("cargo:rustc-env=PERFBENCH_TARGET={}", std::env::var("TARGET").unwrap_or_default());
    println!("cargo:rustc-env=PERFBENCH_PROFILE={}", std::env::var("PROFILE").unwrap_or_default());
    println!("cargo:rerun-if-changed=build.rs");
}
