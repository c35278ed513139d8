//! # bittrans-core
//!
//! The complete presynthesis optimisation pipeline of *"Behavioural
//! Transformation to Improve Circuit Performance in High-Level Synthesis"*
//! (Ruiz-Sautua et al., DATE 2005), plus the baseline flow and the
//! comparison harness behind every table and figure of the paper.
//!
//! ## The two flows
//!
//! ```text
//!            ┌────────────┐   ┌──────────────┐   ┌───────────┐
//! original ──► kernel      ├──►  fragmentation├──► fragment   ├──► allocate ──► optimized
//!   spec      │ extraction │   │  (bit ASAP/  │   │ scheduler │      │          implementation
//!             └────────────┘   │   ALAP)      │   └───────────┘      ▼
//!                              └──────────────┘                   area/cycle
//!
//! original ──► conventional scheduler (atomic ops + chaining) ──► allocate ──► baseline
//! ```
//!
//! [`optimize`] runs the paper's three phases (§3.1–§3.3) and synthesises
//! the result; [`baseline`] plays Synopsys Behavioral Compiler on the
//! untransformed spec; [`compare`] runs both at the same latency and
//! reports the table rows (cycle saved %, area delta %); and
//! [`latency_sweep`] regenerates the Fig. 4 curves.
//!
//! ```
//! use bittrans_ir::prelude::*;
//! use bittrans_core::{compare, CompareOptions};
//!
//! # fn main() -> Result<(), Box<dyn std::error::Error>> {
//! let spec = Spec::parse(
//!     "spec ex { input A: u16; input B: u16; input D: u16; input F: u16;
//!       C: u16 = A + B; E: u16 = C + D; G: u16 = E + F; output G; }",
//! )?;
//! let cmp = compare(&spec, 3, &CompareOptions::default())?;
//! assert!(cmp.cycle_saved_pct() > 50.0); // the paper's headline effect
//! # Ok(())
//! # }
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod canonical;
pub mod report;
pub mod stage;

use bittrans_alloc::{allocate, AllocOptions};
use bittrans_frag::{fragment, FragError, FragmentOptions};
use bittrans_ir::prelude::*;
use bittrans_kernel::extract;
use bittrans_rtl::{AdderArch, AreaReport};
use bittrans_sched::conventional::{schedule_conventional, ConventionalOptions};
use bittrans_sched::fragment::{schedule_fragments, FragmentScheduleOptions};
use bittrans_sched::SchedError;
use bittrans_sim::equivalence::{check_equivalence, Inequivalence};
use bittrans_timing::{Delta, TimingModel};
use serde::Serialize;
use std::fmt;

pub use bittrans_alloc::Datapath;
pub use bittrans_frag::Fragmented;
pub use bittrans_ir::canonical::CodecError;
pub use bittrans_sched::conventional::Chaining;
pub use bittrans_sched::Schedule;

/// Options shared by [`optimize`], [`baseline`] and [`compare`].
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct CompareOptions {
    /// Adder micro-architecture used in the datapath cost model.
    pub adder_arch: AdderArch,
    /// δ→ns conversion.
    pub timing: TimingModel,
    /// Balance operations across cycles in both schedulers.
    pub balance: bool,
    /// Number of random vectors for the built-in equivalence check of the
    /// optimized flow (0 disables verification).
    pub verify_vectors: usize,
}

impl Default for CompareOptions {
    fn default() -> Self {
        CompareOptions {
            adder_arch: AdderArch::RippleCarry,
            timing: TimingModel::paper_calibrated(),
            balance: true,
            verify_vectors: 50,
        }
    }
}

impl CompareOptions {
    /// A validated builder starting from [`CompareOptions::default`].
    ///
    /// The struct's fields stay public (struct-update syntax keeps working),
    /// but the builder is the front door for configuration assembled from
    /// user input — CLI flags, study axes — because [`build`] range-checks
    /// what a struct literal cannot: the timing model must be physical and
    /// the verification budget bounded.
    ///
    /// [`build`]: CompareOptionsBuilder::build
    pub fn builder() -> CompareOptionsBuilder {
        CompareOptionsBuilder { options: CompareOptions::default() }
    }
}

/// Upper bound on [`CompareOptions::verify_vectors`] accepted by the
/// builder: beyond this the equivalence check dominates every pipeline run
/// by orders of magnitude, which is always a mistyped flag.
pub const MAX_VERIFY_VECTORS: usize = 1_000_000;

/// Builder for [`CompareOptions`] with range validation. Created by
/// [`CompareOptions::builder`].
#[derive(Clone, Copy, Debug)]
pub struct CompareOptionsBuilder {
    options: CompareOptions,
}

impl CompareOptionsBuilder {
    /// Sets the adder micro-architecture of the datapath cost model.
    pub fn adder_arch(mut self, adder_arch: AdderArch) -> Self {
        self.options.adder_arch = adder_arch;
        self
    }

    /// Sets the δ→ns timing model (validated in [`Self::build`]).
    pub fn timing(mut self, timing: TimingModel) -> Self {
        self.options.timing = timing;
        self
    }

    /// Enables or disables per-cycle operation balancing in both schedulers.
    pub fn balance(mut self, balance: bool) -> Self {
        self.options.balance = balance;
        self
    }

    /// Sets the number of random vectors for the built-in equivalence check
    /// (0 disables verification; validated in [`Self::build`]).
    pub fn verify_vectors(mut self, verify_vectors: usize) -> Self {
        self.options.verify_vectors = verify_vectors;
        self
    }

    /// Validates and returns the options.
    ///
    /// # Errors
    ///
    /// [`OptionsError`] when the timing model is non-physical (δ not finite
    /// and positive, overhead not finite and non-negative) or
    /// `verify_vectors` exceeds [`MAX_VERIFY_VECTORS`].
    pub fn build(self) -> Result<CompareOptions, OptionsError> {
        let CompareOptions { timing, verify_vectors, .. } = self.options;
        if !(timing.delta_ns.is_finite() && timing.delta_ns > 0.0) {
            return Err(OptionsError::BadDelta(timing.delta_ns));
        }
        if !(timing.overhead_ns.is_finite() && timing.overhead_ns >= 0.0) {
            return Err(OptionsError::BadOverhead(timing.overhead_ns));
        }
        if verify_vectors > MAX_VERIFY_VECTORS {
            return Err(OptionsError::TooManyVectors(verify_vectors));
        }
        Ok(self.options)
    }
}

/// A [`CompareOptionsBuilder::build`] rejection.
#[derive(Clone, Copy, Debug, PartialEq)]
pub enum OptionsError {
    /// `timing.delta_ns` was not finite and positive.
    BadDelta(f64),
    /// `timing.overhead_ns` was not finite and non-negative.
    BadOverhead(f64),
    /// `verify_vectors` exceeded [`MAX_VERIFY_VECTORS`].
    TooManyVectors(usize),
}

impl fmt::Display for OptionsError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            OptionsError::BadDelta(v) => {
                write!(f, "timing delta_ns must be finite and positive (got {v})")
            }
            OptionsError::BadOverhead(v) => {
                write!(f, "timing overhead_ns must be finite and non-negative (got {v})")
            }
            OptionsError::TooManyVectors(n) => {
                write!(f, "verify_vectors {n} exceeds the maximum of {MAX_VERIFY_VECTORS}")
            }
        }
    }
}

impl std::error::Error for OptionsError {}

/// Errors from the pipeline.
#[derive(Clone, Debug)]
pub enum PipelineError {
    /// IR construction failed during a rewrite.
    Ir(IrError),
    /// Fragmentation failed (infeasible latency, non-additive spec, …).
    Frag(FragError),
    /// Scheduling failed.
    Sched(SchedError),
    /// The transformed specification disagreed with the original — a bug
    /// guard that should never fire.
    Verification(Inequivalence),
}

impl PipelineError {
    /// Whether this error means "this latency has no feasible design" —
    /// the expected, skippable outcome of probing a latency range — as
    /// opposed to a fatal defect of the specification or the pipeline
    /// itself (parse/rewrite failures, a non-additive spec, a failed
    /// equivalence check), which no other latency will cure.
    ///
    /// [`latency_sweep`] skips infeasible points and propagates everything
    /// else.
    pub fn is_infeasible(&self) -> bool {
        match self {
            // Every scheduler error is a latency/cycle feasibility verdict.
            PipelineError::Sched(_) => true,
            PipelineError::Frag(e) => {
                matches!(e, FragError::Infeasible { .. } | FragError::ZeroLatency)
            }
            PipelineError::Ir(_) | PipelineError::Verification(_) => false,
        }
    }
}

impl fmt::Display for PipelineError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            PipelineError::Ir(e) => write!(f, "ir: {e}"),
            PipelineError::Frag(e) => write!(f, "fragmentation: {e}"),
            PipelineError::Sched(e) => write!(f, "scheduling: {e}"),
            PipelineError::Verification(e) => write!(f, "verification: {e}"),
        }
    }
}

impl std::error::Error for PipelineError {}

impl From<IrError> for PipelineError {
    fn from(e: IrError) -> Self {
        PipelineError::Ir(e)
    }
}
impl From<FragError> for PipelineError {
    fn from(e: FragError) -> Self {
        PipelineError::Frag(e)
    }
}
impl From<SchedError> for PipelineError {
    fn from(e: SchedError) -> Self {
        PipelineError::Sched(e)
    }
}
impl From<Inequivalence> for PipelineError {
    fn from(e: Inequivalence) -> Self {
        PipelineError::Verification(e)
    }
}

/// Measured characteristics of one synthesised implementation — one column
/// of the paper's Table I, or one cell row of Tables II/III.
#[derive(Clone, Debug, Serialize)]
pub struct Implementation {
    /// Specification name.
    pub name: String,
    /// Latency λ in cycles.
    pub latency: u32,
    /// Cycle duration in δ (chained 1-bit additions).
    pub cycle_delta: Delta,
    /// Cycle duration in ns under the calibrated model.
    pub cycle_ns: f64,
    /// Execution time (λ · cycle) in ns.
    pub execution_ns: f64,
    /// Datapath + controller area split.
    #[serde(serialize_with = "serialize_area")]
    pub area: AreaReport,
    /// Non-glue operation count of the scheduled specification.
    pub op_count: usize,
    /// Register bits stored across cycle boundaries.
    pub stored_bits: u32,
}

fn serialize_area<S: serde::Serializer>(a: &AreaReport, s: S) -> Result<S::Ok, S::Error> {
    use serde::ser::SerializeStruct;
    let mut st = s.serialize_struct("AreaReport", 5)?;
    st.serialize_field("fu", &a.fu)?;
    st.serialize_field("registers", &a.registers)?;
    st.serialize_field("routing", &a.routing)?;
    st.serialize_field("controller", &a.controller)?;
    st.serialize_field("total", &a.total())?;
    st.end()
}

fn implementation(
    name: &str,
    spec: &Spec,
    schedule: &Schedule,
    datapath: &Datapath,
    timing: &TimingModel,
) -> Implementation {
    Implementation {
        name: name.to_string(),
        latency: schedule.latency,
        cycle_delta: schedule.cycle,
        cycle_ns: timing.cycle_ns(schedule.cycle),
        execution_ns: timing.execution_ns(schedule.cycle, schedule.latency),
        area: datapath.area,
        op_count: spec.stats().non_glue(),
        stored_bits: datapath.stored_bits,
    }
}

// ---------------------------------------------------------------------------
// Stage functions
//
// The pipeline decomposed into its individually cacheable stages. Each
// stage is a pure function of the arguments listed in its signature —
// nothing else — which is what lets `engine::stagecache` key a stage's
// output by its inputs alone. [`optimize`], [`baseline`], [`blc`] and
// [`compare`] below are thin compositions of these functions, and the
// engine's memoized path composes the very same functions in the very
// same order, so both paths produce bit-identical results. Every stage
// keeps its `stage::observe` wrapper (and its established span name), so
// trace output is unchanged no matter who drives the stages.
// ---------------------------------------------------------------------------

/// Stage `extract`: rewrites `spec` into additive form (§3.1 kernel
/// extraction). Latency-invariant: a latency sweep shares one extraction.
///
/// # Errors
///
/// [`PipelineError::Ir`] when a rewrite step fails.
pub fn stage_extract(spec: &Spec) -> Result<Spec, PipelineError> {
    Ok(stage::observe("extract", || extract(spec))?)
}

/// Stage `fragment`: splits the additive-form `kernel` for latency λ
/// (§3.2 cycle estimation + §3.3 fragmentation).
///
/// # Errors
///
/// [`PipelineError::Frag`] when λ is infeasible or the kernel is not in
/// additive form.
pub fn stage_fragment(kernel: &Spec, latency: u32) -> Result<Fragmented, PipelineError> {
    Ok(stage::observe("fragment", || fragment(kernel, &FragmentOptions::with_latency(latency)))?)
}

/// Stage `verify`: co-simulates the transformed spec against the original
/// on the all-zeros and all-ones vectors plus `vectors` seeded random
/// vectors (fixed seed, so the check is a pure function of its
/// arguments), 64 vectors per pass of a compiled bit-sliced simulation. A
/// no-op when `vectors` is zero.
///
/// # Errors
///
/// [`PipelineError::Verification`] on any disagreement.
pub fn stage_verify(
    original: &Spec,
    transformed: &Spec,
    vectors: usize,
) -> Result<(), PipelineError> {
    if vectors == 0 {
        return Ok(());
    }
    Ok(stage::observe("verify", || check_equivalence(original, transformed, 0x2005, vectors))?)
}

/// Stage `schedule` (conventional): schedules the untransformed spec with
/// atomic operations and the given chaining model at latency λ.
///
/// # Errors
///
/// [`PipelineError::Sched`] when no feasible cycle exists.
pub fn stage_schedule_conventional(
    spec: &Spec,
    latency: u32,
    chaining: Chaining,
    balance: bool,
) -> Result<Schedule, PipelineError> {
    Ok(stage::observe("schedule", || {
        schedule_conventional(
            spec,
            &ConventionalOptions { latency, cycle_override: None, chaining, balance },
        )
    })?)
}

/// Stage `schedule` (fragment): schedules the fragmented spec.
///
/// # Errors
///
/// [`PipelineError::Sched`] when the fragment schedule is infeasible.
pub fn stage_schedule_fragments(
    fragmented: &Fragmented,
    balance: bool,
) -> Result<Schedule, PipelineError> {
    Ok(stage::observe("schedule", || {
        schedule_fragments(fragmented, &FragmentScheduleOptions { balance })
    })?)
}

/// Stage `allocate`: binds the scheduled spec to a priced datapath.
/// Infallible.
pub fn stage_allocate(spec: &Spec, schedule: &Schedule, adder_arch: AdderArch) -> Datapath {
    stage::observe("allocate", || allocate(spec, schedule, &AllocOptions { adder_arch }))
}

/// Stage `time`: derives the measured characteristics of one synthesised
/// design point. Pure arithmetic; infallible.
pub fn stage_time(
    name: &str,
    spec: &Spec,
    schedule: &Schedule,
    datapath: &Datapath,
    timing: &TimingModel,
) -> Implementation {
    stage::observe("time", || implementation(name, spec, schedule, datapath, timing))
}

/// The optimized flow's full result.
#[derive(Clone, Debug)]
pub struct OptimizedDesign {
    /// The additive-form spec after kernel extraction (§3.1).
    pub kernel: Spec,
    /// The fragmented spec with its metadata (§3.3).
    pub fragmented: Fragmented,
    /// The fragment schedule.
    pub schedule: Schedule,
    /// The allocated datapath.
    pub datapath: Datapath,
    /// Measured characteristics.
    pub implementation: Implementation,
}

/// The baseline flow's full result.
#[derive(Clone, Debug)]
pub struct BaselineDesign {
    /// The conventional schedule of the original spec.
    pub schedule: Schedule,
    /// The allocated datapath.
    pub datapath: Datapath,
    /// Measured characteristics.
    pub implementation: Implementation,
}

/// Runs the paper's presynthesis optimisation and synthesises the result.
///
/// Phases: kernel extraction → cycle estimation + fragmentation → fragment
/// scheduling → allocation. When `verify_vectors > 0`, the transformed
/// specification is co-simulated against the original.
///
/// # Errors
///
/// Any [`PipelineError`]; with default options the only realistic one is an
/// infeasible latency.
pub fn optimize(
    spec: &Spec,
    latency: u32,
    options: &CompareOptions,
) -> Result<OptimizedDesign, PipelineError> {
    let kernel = stage_extract(spec)?;
    let fragmented = stage_fragment(&kernel, latency)?;
    stage_verify(spec, &fragmented.spec, options.verify_vectors)?;
    let schedule = stage_schedule_fragments(&fragmented, options.balance)?;
    let datapath = stage_allocate(&fragmented.spec, &schedule, options.adder_arch);
    let implementation =
        stage_time(spec.name(), &fragmented.spec, &schedule, &datapath, &options.timing);
    Ok(OptimizedDesign { kernel, fragmented, schedule, datapath, implementation })
}

/// Runs the conventional baseline (atomic operations, chaining) on the
/// original specification at the minimal feasible cycle for `latency`.
///
/// # Errors
///
/// Scheduling errors, e.g. zero latency.
pub fn baseline(
    spec: &Spec,
    latency: u32,
    options: &CompareOptions,
) -> Result<BaselineDesign, PipelineError> {
    let schedule =
        stage_schedule_conventional(spec, latency, Chaining::ComponentSum, options.balance)?;
    let datapath = stage_allocate(spec, &schedule, options.adder_arch);
    let implementation = stage_time(spec.name(), spec, &schedule, &datapath, &options.timing);
    Ok(BaselineDesign { schedule, datapath, implementation })
}

/// Runs the bit-level-chaining (BLC) prior-art design point: the
/// conventional scheduler with ripple-overlap chaining (the paper's
/// Fig. 1 d / Table I middle column, after \[3\]).
///
/// # Errors
///
/// Scheduling errors, e.g. zero latency.
pub fn blc(
    spec: &Spec,
    latency: u32,
    options: &CompareOptions,
) -> Result<BaselineDesign, PipelineError> {
    let schedule = stage_schedule_conventional(spec, latency, Chaining::BitLevel, options.balance)?;
    let datapath = stage_allocate(spec, &schedule, options.adder_arch);
    let implementation = stage_time(spec.name(), spec, &schedule, &datapath, &options.timing);
    Ok(BaselineDesign { schedule, datapath, implementation })
}

/// A baseline-vs-optimized pair at equal latency: one row of Tables II/III.
#[derive(Clone, Debug, Serialize)]
pub struct Comparison {
    /// Baseline (original specification) implementation.
    pub original: Implementation,
    /// Optimized (transformed specification) implementation.
    pub optimized: Implementation,
}

impl Comparison {
    /// Cycle-duration saving in percent (the paper's "Saved" column).
    pub fn cycle_saved_pct(&self) -> f64 {
        (self.original.cycle_ns - self.optimized.cycle_ns) / self.original.cycle_ns * 100.0
    }

    /// Total-area change in percent, positive = optimized is larger (the
    /// paper's "Area increment" column).
    pub fn area_delta_pct(&self) -> f64 {
        self.optimized.area.delta_pct(&self.original.area)
    }

    /// Operation-count growth of the transformed specification in percent.
    pub fn op_growth_pct(&self) -> f64 {
        (self.optimized.op_count as f64 - self.original.op_count as f64)
            / self.original.op_count as f64
            * 100.0
    }
}

/// Runs both flows at latency `λ` and pairs the results.
///
/// # Errors
///
/// Propagates either flow's [`PipelineError`].
pub fn compare(
    spec: &Spec,
    latency: u32,
    options: &CompareOptions,
) -> Result<Comparison, PipelineError> {
    let base = baseline(spec, latency, options)?;
    let opt = optimize(spec, latency, options)?;
    Ok(Comparison { original: base.implementation, optimized: opt.implementation })
}

/// One point of the Fig. 4 curves.
#[derive(Clone, Copy, Debug, Serialize)]
pub struct SweepPoint {
    /// Latency λ.
    pub latency: u32,
    /// Baseline cycle length in ns.
    pub original_ns: f64,
    /// Optimized cycle length in ns.
    pub optimized_ns: f64,
}

/// Regenerates the Fig. 4 experiment: cycle length of both flows across a
/// latency range. Latencies where a flow is infeasible
/// ([`PipelineError::is_infeasible`]) are skipped — that is the expected
/// outcome of probing a range — while fatal errors (bad spec, failed
/// equivalence check) abort the sweep.
///
/// # Errors
///
/// The first non-infeasible [`PipelineError`] encountered.
pub fn latency_sweep(
    spec: &Spec,
    latencies: impl IntoIterator<Item = u32>,
    options: &CompareOptions,
) -> Result<Vec<SweepPoint>, PipelineError> {
    sweep_by(spec, latencies, options, compare)
}

/// [`latency_sweep`] parameterised by the comparison function, so tests
/// can inject failures that the real pipeline cannot produce (a genuine
/// mid-sweep `Inequivalence` requires a pipeline bug).
fn sweep_by(
    spec: &Spec,
    latencies: impl IntoIterator<Item = u32>,
    options: &CompareOptions,
    mut compare_fn: impl FnMut(&Spec, u32, &CompareOptions) -> Result<Comparison, PipelineError>,
) -> Result<Vec<SweepPoint>, PipelineError> {
    let mut points = Vec::new();
    for latency in latencies {
        match compare_fn(spec, latency, options) {
            Ok(cmp) => points.push(SweepPoint {
                latency,
                original_ns: cmp.original.cycle_ns,
                optimized_ns: cmp.optimized.cycle_ns,
            }),
            Err(e) if e.is_infeasible() => continue,
            Err(e) => return Err(e),
        }
    }
    Ok(points)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn three_adds() -> Spec {
        Spec::parse(
            "spec ex { input A: u16; input B: u16; input D: u16; input F: u16;
              C: u16 = A + B; E: u16 = C + D; G: u16 = E + F; output G; }",
        )
        .unwrap()
    }

    #[test]
    fn optimize_reproduces_table1_column3() {
        let spec = three_adds();
        let opt = optimize(&spec, 3, &CompareOptions::default()).unwrap();
        let imp = &opt.implementation;
        assert_eq!(imp.cycle_delta, 6);
        assert!((imp.cycle_ns - 3.55).abs() < 0.05, "{}", imp.cycle_ns);
        assert!((imp.execution_ns - 10.66).abs() < 0.15, "{}", imp.execution_ns);
        assert!((imp.area.total() - 452.0).abs() / 452.0 < 0.10);
        assert_eq!(imp.stored_bits, 5, "C5, E4 and three carries");
    }

    #[test]
    fn baseline_reproduces_table1_column1() {
        let spec = three_adds();
        let base = baseline(&spec, 3, &CompareOptions::default()).unwrap();
        let imp = &base.implementation;
        assert_eq!(imp.cycle_delta, 16);
        assert!((imp.cycle_ns - 9.4).abs() < 0.05);
        assert!((imp.execution_ns - 28.22).abs() < 0.15);
        assert!((imp.area.total() - 479.0).abs() / 479.0 < 0.02);
    }

    #[test]
    fn comparison_shows_the_headline_effect() {
        let spec = three_adds();
        let cmp = compare(&spec, 3, &CompareOptions::default()).unwrap();
        // Paper: 62.2 % shorter cycles, slightly *smaller* area.
        assert!(cmp.cycle_saved_pct() > 55.0, "{}", cmp.cycle_saved_pct());
        assert!(cmp.area_delta_pct() < 5.0, "{}", cmp.area_delta_pct());
        assert!(cmp.op_growth_pct() > 0.0);
    }

    #[test]
    fn sweep_diverges_with_latency() {
        let spec = three_adds();
        // From λ = 3 the baseline cycle flattens at the 16δ adder bound
        // while the optimized cycle keeps shrinking — the Fig. 4 shape.
        let points = latency_sweep(&spec, 3..=9, &CompareOptions::default()).unwrap();
        assert!(points.len() >= 4);
        let gap_small = points.first().unwrap();
        let gap_large = points.last().unwrap();
        let g0 = gap_small.original_ns - gap_small.optimized_ns;
        let g1 = gap_large.original_ns - gap_large.optimized_ns;
        assert!(g1 > g0, "Fig. 4 divergence: {g0} vs {g1}");
        // The optimized curve decreases monotonically with latency.
        for w in points.windows(2) {
            assert!(w[1].optimized_ns <= w[0].optimized_ns + 1e-9);
        }
    }

    #[test]
    fn sweep_skips_infeasible_latencies_only() {
        let spec = three_adds();
        // λ = 0 is infeasible (not a pipeline bug) and must be skipped,
        // not aborted on and not silently conflated with real failures.
        let points = latency_sweep(&spec, 0..=5, &CompareOptions::default()).unwrap();
        assert!(points.iter().all(|p| p.latency >= 1), "λ=0 skipped");
        assert!(points.len() >= 4);
    }

    #[test]
    fn sweep_propagates_fatal_errors() {
        let spec = three_adds();
        // A mid-sweep verification failure is unreachable without a
        // pipeline bug, so inject one through the `sweep_by` seam: the
        // first two points succeed, then the "pipeline" disagrees.
        let result = sweep_by(&spec, 3..=9, &CompareOptions::default(), |s, latency, o| {
            if latency >= 5 {
                return Err(PipelineError::Verification(Inequivalence::PortMismatch {
                    detail: "injected mid-sweep failure".into(),
                }));
            }
            compare(s, latency, o)
        });
        match result {
            Err(PipelineError::Verification(Inequivalence::PortMismatch { detail })) => {
                assert!(detail.contains("injected"));
            }
            other => panic!("fatal error must abort the sweep, got {other:?}"),
        }
    }

    #[test]
    fn error_classification_separates_infeasible_from_fatal() {
        assert!(PipelineError::Frag(FragError::ZeroLatency).is_infeasible());
        assert!(PipelineError::Sched(SchedError::ZeroLatency).is_infeasible());
        assert!(PipelineError::Sched(SchedError::LatencyExceeded { needed: 4, latency: 2 })
            .is_infeasible());
        assert!(!PipelineError::Verification(Inequivalence::PortMismatch {
            detail: "width".into()
        })
        .is_infeasible());
        // A non-additive kernel is a spec defect: no latency cures it.
        let spec = Spec::parse("spec s { input a: u4; input b: u4; output o = a + b; }").unwrap();
        let err = stage_fragment(&spec, 0).unwrap_err();
        assert!(err.is_infeasible());
    }

    #[test]
    fn staged_composition_matches_monolithic_paths() {
        let spec = three_adds();
        let options = CompareOptions::default();
        let mono = compare(&spec, 3, &options).unwrap();

        // Drive the stage functions directly, the way the engine's
        // memoized path does, and demand bit-identical numbers.
        let base_sched =
            stage_schedule_conventional(&spec, 3, Chaining::ComponentSum, options.balance).unwrap();
        let base_dp = stage_allocate(&spec, &base_sched, options.adder_arch);
        let base = stage_time(spec.name(), &spec, &base_sched, &base_dp, &options.timing);
        let kernel = stage_extract(&spec).unwrap();
        let fragmented = stage_fragment(&kernel, 3).unwrap();
        stage_verify(&spec, &fragmented.spec, options.verify_vectors).unwrap();
        let opt_sched = stage_schedule_fragments(&fragmented, options.balance).unwrap();
        let opt_dp = stage_allocate(&fragmented.spec, &opt_sched, options.adder_arch);
        let opt = stage_time(spec.name(), &fragmented.spec, &opt_sched, &opt_dp, &options.timing);

        assert_eq!(
            serde_json::to_string(&mono).unwrap(),
            serde_json::to_string(&Comparison { original: base, optimized: opt }).unwrap()
        );
    }

    #[test]
    fn infeasible_latency_is_reported() {
        let spec = Spec::parse("spec s { input a: u4; input b: u4; output o = a + b; }").unwrap();
        // λ larger than the bit-level critical path still works (cycle 1δ);
        // but a zero latency must fail cleanly.
        assert!(matches!(
            optimize(&spec, 0, &CompareOptions::default()),
            Err(PipelineError::Frag(_))
        ));
    }

    #[test]
    fn verification_runs_and_passes() {
        let spec = Spec::parse(
            "spec s { input a: i8; input b: i8; input c1: u8;
              p: i16 = a * b;
              q: i16 = p - c1;
              m: i16 = max(q, p);
              output m; }",
        )
        .unwrap();
        let opt = optimize(&spec, 4, &CompareOptions { verify_vectors: 150, ..Default::default() })
            .unwrap();
        assert!(opt.fragmented.spec.is_additive_form());
    }

    #[test]
    fn errors_display() {
        let e = PipelineError::Frag(FragError::ZeroLatency);
        assert!(e.to_string().contains("fragmentation"));
        let e = PipelineError::Sched(SchedError::ZeroLatency);
        assert!(e.to_string().contains("scheduling"));
    }

    #[test]
    fn builder_defaults_match_default() {
        let built = CompareOptions::builder().build().unwrap();
        assert_eq!(built, CompareOptions::default());
    }

    #[test]
    fn builder_sets_every_field() {
        let timing = TimingModel { delta_ns: 0.3, overhead_ns: 0.1 };
        let built = CompareOptions::builder()
            .adder_arch(bittrans_rtl::AdderArch::CarrySelect)
            .timing(timing)
            .balance(false)
            .verify_vectors(7)
            .build()
            .unwrap();
        assert_eq!(built.adder_arch, bittrans_rtl::AdderArch::CarrySelect);
        assert_eq!(built.timing, timing);
        assert!(!built.balance);
        assert_eq!(built.verify_vectors, 7);
    }

    #[test]
    fn builder_rejects_out_of_range_values() {
        for delta in [0.0, -1.0, f64::NAN, f64::INFINITY] {
            let r = CompareOptions::builder()
                .timing(TimingModel { delta_ns: delta, overhead_ns: 0.0 })
                .build();
            assert!(matches!(r, Err(OptionsError::BadDelta(_))), "delta {delta}");
        }
        for overhead in [-0.1, f64::NAN] {
            let r = CompareOptions::builder()
                .timing(TimingModel { delta_ns: 0.5, overhead_ns: overhead })
                .build();
            assert!(matches!(r, Err(OptionsError::BadOverhead(_))), "overhead {overhead}");
        }
        let r = CompareOptions::builder().verify_vectors(MAX_VERIFY_VECTORS + 1).build();
        assert!(matches!(r, Err(OptionsError::TooManyVectors(_))));
        assert!(r.unwrap_err().to_string().contains("verify_vectors"));
    }
}
