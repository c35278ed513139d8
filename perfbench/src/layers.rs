//! Per-layer collection for traced runs: per-stage call counts and busy
//! time through the pipeline's public stage observer, plus the small
//! statistics helpers every workload shares.

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::time::Duration;

/// The stage names the pipeline reports to its observer.
pub const STAGES: [&str; 6] = ["extract", "fragment", "verify", "schedule", "allocate", "time"];

/// Calls and busy nanoseconds per stage; index `STAGES.len()` collects
/// any stage name this harness does not know, so the reconciliation
/// still counts it.
#[derive(Default)]
pub struct StageTotals {
    calls: [AtomicU64; STAGES.len() + 1],
    busy_ns: [AtomicU64; STAGES.len() + 1],
}

impl StageTotals {
    fn record(&self, name: &str, took: Duration) {
        let at = STAGES.iter().position(|s| *s == name).unwrap_or(STAGES.len());
        self.calls[at].fetch_add(1, Ordering::Relaxed);
        self.busy_ns[at].fetch_add(took.as_nanos() as u64, Ordering::Relaxed);
    }

    /// Observer calls of `stage`.
    pub fn calls(&self, stage: &str) -> u64 {
        let at = STAGES.iter().position(|s| *s == stage).expect("known stage");
        self.calls[at].load(Ordering::Relaxed)
    }

    /// Summed busy milliseconds of `stage`.
    pub fn busy_ms(&self, stage: &str) -> f64 {
        let at = STAGES.iter().position(|s| *s == stage).expect("known stage");
        self.busy_ns[at].load(Ordering::Relaxed) as f64 / 1e6
    }

    /// Observer calls across every stage name, known or not.
    pub fn total_calls(&self) -> u64 {
        self.calls.iter().map(|c| c.load(Ordering::Relaxed)).sum()
    }

    /// Busy milliseconds across every stage name, known or not.
    pub fn total_busy_ms(&self) -> f64 {
        self.busy_ns.iter().map(|c| c.load(Ordering::Relaxed)).sum::<u64>() as f64 / 1e6
    }
}

/// Registers a fresh observer; every stage run anywhere in the process
/// lands in the returned totals until [`stop`].
pub fn start() -> Arc<StageTotals> {
    let totals = Arc::new(StageTotals::default());
    let sink = Arc::clone(&totals);
    bittrans_core::stage::set_observer(move |name, took| sink.record(name, took));
    totals
}

/// Unregisters the observer.
pub fn stop() {
    bittrans_core::stage::clear_observer();
}

/// Median of `values` (mean of the middle pair for an even count).
pub fn median(values: &[f64]) -> f64 {
    if values.is_empty() {
        return 0.0;
    }
    let mut sorted = values.to_vec();
    sorted.sort_by(f64::total_cmp);
    let mid = sorted.len() / 2;
    if sorted.len() % 2 == 1 {
        sorted[mid]
    } else {
        (sorted[mid - 1] + sorted[mid]) / 2.0
    }
}

/// Nearest-rank percentile `p` (0..=100) of `values`.
pub fn percentile(values: &[f64], p: f64) -> f64 {
    if values.is_empty() {
        return 0.0;
    }
    let mut sorted = values.to_vec();
    sorted.sort_by(f64::total_cmp);
    let rank = ((p / 100.0) * sorted.len() as f64).ceil() as usize;
    sorted[rank.clamp(1, sorted.len()) - 1]
}

/// `part / whole`, or 0 when `whole` is 0.
pub fn ratio(part: f64, whole: f64) -> f64 {
    if whole > 0.0 {
        part / whole
    } else {
        0.0
    }
}

/// Median time to parse one of `texts` the way `serve` parses request
/// sources (`Spec::parse` for DSL text, the canonical codec for canonical
/// text), in microseconds (five timed rounds over the whole set).
pub fn parse_us(texts: &[String]) -> f64 {
    let rounds: Vec<f64> = (0..5)
        .map(|_| {
            let started = std::time::Instant::now();
            for text in texts {
                std::hint::black_box(
                    bittrans_engine::shard::parse_source(text).expect("spec text parses"),
                );
            }
            started.elapsed().as_secs_f64() * 1e6 / texts.len().max(1) as f64
        })
        .collect();
    median(&rounds)
}
