//! The benchmark's inputs and its oracle: the paper grid, the seeded
//! random grid, the per-cell output projection, and the reference every
//! answered cell is checked against.

use bittrans_core::Comparison;
use bittrans_engine::fuzz::Shape;
use bittrans_engine::{Engine, EngineOptions, Job, JobOutcome, Study};
use bittrans_ir::Spec;
use bittrans_rtl::AdderArch;
use std::collections::HashMap;
use std::fmt::Write as _;

/// Every adder architecture of the cost model.
pub const ADDERS: [AdderArch; 3] =
    [AdderArch::RippleCarry, AdderArch::CarryLookahead, AdderArch::CarrySelect];

/// Latency axis of the random grid.
pub const RANDOM_LATENCIES: [u32; 2] = [2, 4];

/// Verification budget of the random grid and of served studies.
pub const RANDOM_VECTORS: usize = 8;

/// Verification budget of the full paper grid.
pub const PAPER_VECTORS: usize = 600;

/// Random specs in the full random grid.
pub const RANDOM_SPECS: usize = 192;

/// The seed whose random grid the committed reference pins.
pub const DEFAULT_SEED: u64 = 1;

/// The committed expected outputs (see `write_expected`).
const EXPECTED: &str = include_str!("../expected.txt");

/// Grid coordinate of one answered cell.
#[derive(Clone, Debug, PartialEq, Eq, Hash)]
pub struct CellKey {
    pub spec: String,
    pub latency: u32,
    pub adder: String,
    pub balance: bool,
}

impl CellKey {
    pub fn of(job: &Job) -> CellKey {
        CellKey {
            spec: job.spec.name().to_string(),
            latency: job.latency,
            adder: job.options.adder_arch.code().to_string(),
            balance: job.options.balance,
        }
    }
}

/// The checked characteristics of one flow's implementation.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct Flow {
    pub cycle_delta: u32,
    pub cycle_ns: f64,
    pub area: f64,
    pub stored_bits: u32,
}

/// Both flows of one cell: (original, optimized).
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct Outputs {
    pub original: Flow,
    pub optimized: Flow,
}

impl Outputs {
    pub fn of(cmp: &Comparison) -> Outputs {
        let flow = |imp: &bittrans_core::Implementation| Flow {
            cycle_delta: imp.cycle_delta,
            cycle_ns: imp.cycle_ns,
            area: imp.area.total(),
            stored_bits: imp.stored_bits,
        };
        Outputs { original: flow(&cmp.original), optimized: flow(&cmp.optimized) }
    }
}

/// What one cell resolved to: its outputs or the pipeline error.
pub type CellResult = Result<Outputs, String>;

pub fn outcome_result(outcome: &JobOutcome) -> CellResult {
    match outcome.result.as_ref() {
        Ok(cmp) => Ok(Outputs::of(cmp)),
        Err(e) => Err(e.to_string()),
    }
}

/// The two quality columns over the cells that succeeded, as totals:
/// the cycle time saved over the summed original cycle times, and the
/// area increment over the summed original areas, both in percent.
/// Totals weight each cell by its size, so a few tiny random specs with
/// extreme percentages cannot swing the figure from seed to seed.
pub fn quality(results: &[CellResult]) -> (f64, f64) {
    let ok: Vec<&Outputs> = results.iter().filter_map(|r| r.as_ref().ok()).collect();
    let sum = |f: fn(&Outputs) -> f64| ok.iter().map(|o| f(o)).sum::<f64>();
    let (ns, ns_opt) = (sum(|o| o.original.cycle_ns), sum(|o| o.optimized.cycle_ns));
    let (area, area_opt) = (sum(|o| o.original.area), sum(|o| o.optimized.area));
    ((ns - ns_opt) / ns * 100.0, (area_opt - area) / area * 100.0)
}

/// The axis grid over `specs`: latencies × adders × balance.
fn full_grid(
    specs: Vec<Spec>,
    latencies: &[u32],
    adders: &[AdderArch],
    balance: &[bool],
    vectors: usize,
) -> Vec<Job> {
    Study::over(specs)
        .latencies(latencies.iter().copied())
        .adder_archs(adders.iter().copied())
        .balance(balance.iter().copied())
        .verify_vectors([vectors])
        .jobs()
}

/// The paper grid: Table II, Table III, the extended set, the
/// motivational example and the Fig. 3 DFG at their paper latencies,
/// with ripple-carry adders and balancing on: one cell, and so one
/// verification, per (spec, λ). `tiny` keeps only the last two specs.
pub fn paper_jobs(tiny: bool) -> Vec<Job> {
    let vectors = if tiny { 64 } else { PAPER_VECTORS };
    let mut sets: Vec<(Spec, Vec<u32>)> = Vec::new();
    if !tiny {
        for bench in bittrans_benchmarks::table2_benchmarks()
            .into_iter()
            .chain(bittrans_benchmarks::table3_benchmarks())
            .chain(bittrans_benchmarks::extended_benchmarks())
        {
            sets.push((bench.spec, bench.latencies));
        }
    }
    sets.push((bittrans_benchmarks::three_adds(), vec![3]));
    sets.push((bittrans_benchmarks::fig3_dfg(), vec![3]));
    let rca = [AdderArch::RippleCarry];
    sets.into_iter()
        .flat_map(|(spec, lats)| full_grid(vec![spec], &lats, &rca, &[true], vectors))
        .collect()
}

/// The `index`-th random spec of a run seeded `seed`, in the fuzzer's
/// four generator shapes (the shape follows the generator seed). Indices
/// beyond the grid's spec count are the serve workload's writes.
pub fn random_case(seed: u64, index: u64) -> Spec {
    let case = seed.wrapping_mul(1_000_000).wrapping_add(index);
    bittrans_benchmarks::random_spec(case, &Shape::of(case).options(None))
}

/// The random grid: `specs` seeded random specs × λ ∈ {2,4} × 3
/// adders × balance both, at 8 verification vectors.
pub fn random_jobs(seed: u64, specs: usize) -> Vec<Job> {
    let specs = (0..specs as u64).map(|i| random_case(seed, i)).collect();
    full_grid(specs, &RANDOM_LATENCIES, &ADDERS, &[true, false], RANDOM_VECTORS)
}

/// The oracle: committed outputs where the reference file pins the
/// cell, otherwise a fresh run of the monolithic (uncached, unstaged)
/// pipeline.
pub struct Reference {
    pinned: HashMap<CellKey, Outputs>,
    /// Cells answered from the committed file so far.
    pub pinned_cells: u64,
    /// Cells computed by the monolithic pipeline so far.
    pub computed_cells: u64,
}

impl Reference {
    /// Parses the committed reference and cross-checks it against the
    /// cells the paper itself pins, so the file cannot silently drift
    /// with the code that produced it.
    pub fn load() -> Result<Reference, String> {
        let pinned = parse_expected(EXPECTED)?;
        let paper = [("example", 16, 6), ("fig3", 8, 3)];
        for (spec, original, optimized) in paper {
            let mut seen = 0;
            for (key, out) in &pinned {
                if key.spec == spec && key.latency == 3 {
                    seen += 1;
                    if out.original.cycle_delta != original
                        || out.optimized.cycle_delta != optimized
                    {
                        return Err(format!(
                            "reference {spec} λ3 {} balance {}: {}δ → {}δ, the paper says \
                             {original}δ → {optimized}δ",
                            key.adder,
                            key.balance,
                            out.original.cycle_delta,
                            out.optimized.cycle_delta
                        ));
                    }
                }
            }
            if seen != 1 {
                return Err(format!("reference lacks the {spec} λ3 cells"));
            }
        }
        Ok(Reference { pinned, pinned_cells: 0, computed_cells: 0 })
    }

    /// Expected result of every job, in job order. Unpinned jobs run
    /// through an uncached engine with `workers` threads.
    pub fn expect(&mut self, jobs: &[Job], workers: usize) -> Vec<CellResult> {
        let keys: Vec<CellKey> = jobs.iter().map(CellKey::of).collect();
        let unpinned: Vec<Job> = jobs
            .iter()
            .zip(&keys)
            .filter(|(_, key)| !self.pinned.contains_key(key))
            .map(|(job, _)| job.clone())
            .collect();
        self.computed_cells += unpinned.len() as u64;
        self.pinned_cells += (jobs.len() - unpinned.len()) as u64;
        let mut computed = if unpinned.is_empty() {
            Vec::new()
        } else {
            let engine = Engine::new(EngineOptions { workers: Some(workers), cache: false });
            engine.run(unpinned).outcomes.iter().map(outcome_result).collect()
        }
        .into_iter();
        keys.iter()
            .map(|key| match self.pinned.get(key) {
                Some(out) => Ok(*out),
                None => computed.next().expect("one computed result per unpinned job"),
            })
            .collect()
    }
}

/// Whether an answer is correct: outputs, equal to the expected ones.
fn matches(got: &CellResult, want: &CellResult) -> bool {
    matches!((got, want), (Ok(g), Ok(w)) if g == w)
}

fn describe(key: &CellKey, got: &CellResult, want: &CellResult) -> String {
    format!(
        "{} λ{} {} balance {}: got {got:?}, expected {want:?}",
        key.spec, key.latency, key.adder, key.balance
    )
}

/// Counts answered cells that are pipeline errors or differ from the
/// expected outputs, describing the first few in `problems`.
pub fn mismatches(
    keys: &[CellKey],
    got: &[CellResult],
    want: &[CellResult],
    problems: &mut Vec<String>,
) -> u64 {
    let mut bad = 0;
    for ((key, got), want) in keys.iter().zip(got).zip(want) {
        if !matches(got, want) {
            bad += 1;
            if problems.len() < 8 {
                problems.push(describe(key, got, want));
            }
        }
    }
    bad
}

/// Every distinct answer each cell of a grid got, with how often, so the
/// answers can be checked once timing is over without keeping them all.
pub struct Tally(Vec<Vec<(CellResult, u64)>>);

impl Tally {
    pub fn new(cells: usize) -> Tally {
        Tally(vec![Vec::new(); cells])
    }

    /// Records one answer for every cell, in grid order.
    pub fn add(&mut self, results: Vec<CellResult>) {
        for (seen, result) in self.0.iter_mut().zip(results) {
            match seen.iter_mut().find(|(answer, _)| *answer == result) {
                Some((_, count)) => *count += 1,
                None => seen.push((result, 1)),
            }
        }
    }

    /// The first answer of every cell.
    pub fn first(&self) -> Vec<CellResult> {
        self.0.iter().filter_map(|seen| seen.first().map(|(answer, _)| answer.clone())).collect()
    }

    /// Counts the recorded answers that are not correct, describing the
    /// first few in `problems`.
    pub fn mismatches(
        &self,
        keys: &[CellKey],
        want: &[CellResult],
        problems: &mut Vec<String>,
    ) -> u64 {
        let mut bad = 0;
        for ((key, seen), want) in keys.iter().zip(&self.0).zip(want) {
            for (got, count) in seen {
                if !matches(got, want) {
                    bad += count;
                    if problems.len() < 8 {
                        problems.push(describe(key, got, want));
                    }
                }
            }
        }
        bad
    }
}

const HEADER: &str = "# bittrans perfbench expected outputs, v1\n\
# spec latency adder balance | original: cycle_delta cycle_ns area stored_bits \
| optimized: cycle_delta cycle_ns area stored_bits\n";

/// Renders the reference file for the paper grid and the default seed's
/// random grid, computed by the monolithic pipeline.
pub fn write_expected(workers: usize) -> Result<String, String> {
    let jobs: Vec<Job> =
        paper_jobs(false).into_iter().chain(random_jobs(DEFAULT_SEED, RANDOM_SPECS)).collect();
    let engine = Engine::new(EngineOptions { workers: Some(workers), cache: false });
    let report = engine.run(jobs.clone());
    let mut out = HEADER.to_string();
    for (job, outcome) in jobs.iter().zip(&report.outcomes) {
        let key = CellKey::of(job);
        let o = match outcome_result(outcome) {
            Ok(o) => o,
            Err(e) => return Err(format!("{} λ{}: {e}", key.spec, key.latency)),
        };
        let _ = writeln!(
            out,
            "{} {} {} {} {} {:?} {:?} {} {} {:?} {:?} {}",
            key.spec,
            key.latency,
            key.adder,
            u8::from(key.balance),
            o.original.cycle_delta,
            o.original.cycle_ns,
            o.original.area,
            o.original.stored_bits,
            o.optimized.cycle_delta,
            o.optimized.cycle_ns,
            o.optimized.area,
            o.optimized.stored_bits
        );
    }
    Ok(out)
}

fn parse_expected(text: &str) -> Result<HashMap<CellKey, Outputs>, String> {
    let mut pinned = HashMap::new();
    for (number, line) in text.lines().enumerate() {
        let line = line.trim();
        if line.is_empty() || line.starts_with('#') {
            continue;
        }
        let bad = || format!("expected.txt line {}: malformed", number + 1);
        let f: Vec<&str> = line.split_whitespace().collect();
        if f.len() != 12 {
            return Err(bad());
        }
        let int = |s: &str| s.parse::<u32>().map_err(|_| bad());
        let real = |s: &str| s.parse::<f64>().map_err(|_| bad());
        let flow = |at: usize| -> Result<Flow, String> {
            Ok(Flow {
                cycle_delta: int(f[at])?,
                cycle_ns: real(f[at + 1])?,
                area: real(f[at + 2])?,
                stored_bits: int(f[at + 3])?,
            })
        };
        let key = CellKey {
            spec: f[0].to_string(),
            latency: int(f[1])?,
            adder: f[2].to_string(),
            balance: f[3] == "1",
        };
        let outputs = Outputs { original: flow(4)?, optimized: flow(8)? };
        if pinned.insert(key, outputs).is_some() {
            return Err(format!("expected.txt line {}: duplicate cell", number + 1));
        }
    }
    Ok(pinned)
}
