//! Study results: one labelled cell per grid coordinate, renderable as an
//! aligned text table or machine-readable JSON, plus the batch statistics
//! of the run that produced them.

use crate::job::JobResult;
use crate::key::JobKey;
use crate::stats::EngineStats;
use crate::study::cell_comparison;
use bittrans_core::{Comparison, SweepPoint};
use bittrans_rtl::AdderArch;
use serde::ser::SerializeStruct;
use serde::{Serialize, Serializer};
use std::fmt::Write as _;
use std::sync::Arc;

/// One cell of a [`crate::Study`] grid: the axis coordinates plus the
/// comparison computed (or the pipeline error hit) at that point.
#[derive(Clone, Debug)]
pub struct StudyCell {
    /// Specification name.
    pub spec: String,
    /// Latency λ in cycles.
    pub latency: u32,
    /// Adder micro-architecture of the cost model.
    pub adder_arch: AdderArch,
    /// Whether schedulers balanced operations across cycles.
    pub balance: bool,
    /// Random vectors spent on the built-in equivalence check.
    pub verify_vectors: usize,
    /// The cell's content-addressed job key.
    pub key: JobKey,
    /// Whether this cell did no fresh pipeline work (cache or in-grid
    /// duplicate).
    pub from_cache: bool,
    /// The comparison, shared with the engine's cache.
    pub result: Arc<JobResult>,
}

impl StudyCell {
    /// The comparison, when the cell's pipeline run succeeded.
    pub fn comparison(&self) -> Option<&Comparison> {
        cell_comparison(self)
    }

    /// The pipeline error, when the coordinate was infeasible.
    pub fn error(&self) -> Option<String> {
        self.result.as_ref().as_ref().err().map(|e| e.to_string())
    }
}

impl Serialize for StudyCell {
    fn serialize<S: Serializer>(&self, serializer: S) -> Result<S::Ok, S::Error> {
        let mut st = serializer.serialize_struct("StudyCell", 9)?;
        st.serialize_field("spec", &self.spec)?;
        st.serialize_field("latency", &self.latency)?;
        st.serialize_field("adder_arch", &self.adder_arch.to_string())?;
        st.serialize_field("balance", &self.balance)?;
        st.serialize_field("verify_vectors", &self.verify_vectors)?;
        st.serialize_field("key", &self.key.to_string())?;
        st.serialize_field("from_cache", &self.from_cache)?;
        match self.result.as_ref() {
            Ok(cmp) => {
                st.serialize_field("ok", &true)?;
                st.serialize_field("comparison", cmp)?;
            }
            Err(e) => {
                st.serialize_field("ok", &false)?;
                st.serialize_field("error", &e.to_string())?;
            }
        }
        st.end()
    }
}

/// Everything a [`crate::Study::run`] produces: per-cell comparisons with
/// their axis coordinates, and the [`EngineStats`] of the batch.
#[derive(Clone, Debug)]
pub struct StudyReport {
    /// One cell per grid coordinate, in grid order.
    pub cells: Vec<StudyCell>,
    /// Statistics of the batch that ran the distinct cells.
    pub stats: EngineStats,
}

impl StudyReport {
    /// Cells whose pipeline run succeeded.
    pub fn successes(&self) -> impl Iterator<Item = &StudyCell> {
        self.cells.iter().filter(|c| c.result.is_ok())
    }

    /// Cells whose coordinate was infeasible.
    pub fn failures(&self) -> impl Iterator<Item = &StudyCell> {
        self.cells.iter().filter(|c| c.result.is_err())
    }

    /// The feasible cells as Fig. 4 points (latency, both cycle lengths),
    /// in cell order — with a single latency axis this reproduces the
    /// serial `bittrans_core::latency_sweep` output exactly.
    pub fn sweep_points(&self) -> Vec<SweepPoint> {
        self.successes()
            .map(|cell| {
                let cmp = cell.comparison().expect("successes() yields Ok cells");
                SweepPoint {
                    latency: cell.latency,
                    original_ns: cmp.original.cycle_ns,
                    optimized_ns: cmp.optimized.cycle_ns,
                }
            })
            .collect()
    }

    /// Renders the study as an aligned text table: one row per cell with
    /// its coordinates, both cycle lengths, the paper's "Saved" and "Area"
    /// columns, and whether the cell was served from the cache.
    pub fn render_text(&self) -> String {
        let mut out = String::new();
        let _ = writeln!(
            out,
            "{:<20}{:>4}{:>16}{:>9}{:>8}{:>12}{:>12}{:>9}{:>9}{:>8}",
            "spec",
            "λ",
            "adder",
            "balance",
            "verify",
            "orig (ns)",
            "opt (ns)",
            "saved",
            "area Δ",
            "cached"
        );
        for cell in &self.cells {
            let prefix = format!(
                "{:<20}{:>4}{:>16}{:>9}{:>8}",
                cell.spec,
                cell.latency,
                cell.adder_arch.to_string(),
                if cell.balance { "on" } else { "off" },
                cell.verify_vectors,
            );
            match cell.result.as_ref() {
                Ok(cmp) => {
                    let _ = writeln!(
                        out,
                        "{prefix}{:>12.2}{:>12.2}{:>8.1}%{:>8.1}%{:>8}",
                        cmp.original.cycle_ns,
                        cmp.optimized.cycle_ns,
                        cmp.cycle_saved_pct(),
                        cmp.area_delta_pct(),
                        if cell.from_cache { "yes" } else { "no" },
                    );
                }
                Err(e) => {
                    let _ = writeln!(out, "{prefix}  error: {e}");
                }
            }
        }
        out
    }

    /// One human-readable line for request logs: cell totals plus the
    /// batch statistics of the run. Used by the `serve` front end (one
    /// line per answered request) where the full table would drown the
    /// log.
    pub fn summary(&self) -> String {
        format!(
            "{} cells ({} ok, {} failed); {}",
            self.cells.len(),
            self.successes().count(),
            self.failures().count(),
            self.stats,
        )
    }

    /// The report with its run shape erased: `elapsed`, `workers` and the
    /// stage counters zeroed, everything else untouched. Two runs of the
    /// same grid over the same cache state — single-process vs. sharded,
    /// direct vs. served — legitimately differ only in wall clock, pool
    /// width and stage sharing (a sharded run shares fewer stages per
    /// process, a warm run runs no stages at all), so serializing
    /// `normalized()` reports is the byte-identity comparison the
    /// shard/serve suites make. For already-serialized text use
    /// [`normalize_run_shape`].
    pub fn normalized(&self) -> StudyReport {
        let mut report = self.clone();
        report.stats.elapsed = std::time::Duration::ZERO;
        report.stats.workers = 0;
        report.stats.stage_hits = 0;
        report.stats.stage_misses = 0;
        report.stats.cache_entries = 0;
        report
    }

    /// The report as compact JSON.
    pub fn to_json(&self) -> String {
        serde_json::to_string(self).expect("study report serializes")
    }

    /// The report as pretty-printed JSON (the CLI `--json` format).
    pub fn to_json_pretty(&self) -> String {
        serde_json::to_string_pretty(self).expect("study report serializes")
    }
}

/// Blanks every `"elapsed_ms"` value in a serialized report or response
/// line (compact or pretty), leaving every other byte intact. Two runs
/// of the same grid over the same cache state differ *only* in wall
/// clock, so this is the normalization the serve and shard byte-identity
/// suites apply before comparing reports (the CI smoke jobs mirror it in
/// Python by popping the key). All occurrences are blanked because a
/// full serve response carries two — the lifetime service counters' and
/// the report's.
pub fn strip_elapsed_ms(json: &str) -> String {
    blank_number_values(json, "elapsed_ms")
}

/// Blanks every volatile run-shape value — `"elapsed_ms"`, `"workers"`,
/// `"stage_hits"`, `"stage_misses"` and `"cache_entries"` — in a
/// serialized report or response line (compact or pretty), leaving every
/// other byte intact. This is the textual counterpart of
/// [`StudyReport::normalized`], for call sites that only have serialized
/// output in hand (CLI stdout, CI smoke diffs, raw response lines).
///
/// `cache_entries` joined the list after differential fuzzing (replay
/// seed 32 of `fuzz --seed 31`) showed it counted the *whole store* —
/// when several studies shared one result directory, two otherwise
/// identical runs of the same grid reported different totals even
/// though every cell and every hit/miss count agreed. It now counts the
/// batch's distinct keys everywhere; it stays blanked because it
/// describes the run's shape, not its results.
pub fn normalize_run_shape(json: &str) -> String {
    ["elapsed_ms", "workers", "stage_hits", "stage_misses", "cache_entries"]
        .iter()
        .fold(json.to_string(), |acc, field| blank_number_values(&acc, field))
}

/// Blanks the numeric value after every `"<field>":` occurrence.
fn blank_number_values(json: &str, field: &str) -> String {
    let needle = format!("\"{field}\":");
    let mut out = String::with_capacity(json.len());
    let mut rest = json;
    while let Some(start) = rest.find(&needle) {
        let value_start = start + needle.len();
        out.push_str(&rest[..value_start]);
        let tail = &rest[value_start..];
        let end = tail
            .find(|c: char| !matches!(c, '0'..='9' | '.' | '-' | '+' | 'e' | 'E' | ' '))
            .unwrap_or(tail.len());
        rest = &tail[end..];
    }
    out.push_str(rest);
    out
}

impl Serialize for StudyReport {
    fn serialize<S: Serializer>(&self, serializer: S) -> Result<S::Ok, S::Error> {
        let mut st = serializer.serialize_struct("StudyReport", 2)?;
        st.serialize_field("cells", &self.cells)?;
        st.serialize_field("stats", &self.stats)?;
        st.end()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{Engine, Study};
    use bittrans_ir::Spec;

    fn report() -> StudyReport {
        let spec = Spec::parse(
            "spec ex { input A: u16; input B: u16; input D: u16; input F: u16;
              C: u16 = A + B; E: u16 = C + D; G: u16 = E + F; output G; }",
        )
        .unwrap();
        Study::single(spec).latencies([0, 3]).verify_vectors([0]).run(&Engine::default())
    }

    #[test]
    fn text_table_has_coordinates_and_errors() {
        let r = report();
        let text = r.render_text();
        assert!(text.contains("ripple-carry"), "{text}");
        assert!(text.contains("error:"), "{text}");
        assert!(text.contains("saved"), "{text}");
        assert_eq!(text.lines().count(), 3, "{text}");
    }

    #[test]
    fn json_is_parseable_and_labelled() {
        let r = report();
        let v = serde_json::from_str(&r.to_json_pretty()).expect("valid JSON");
        let cells = v.get("cells").and_then(|c| c.as_array()).expect("cells array");
        assert_eq!(cells.len(), 2);
        assert_eq!(cells[0].get("ok").and_then(|o| o.as_bool()), Some(false));
        assert!(cells[0].get("error").is_some());
        assert_eq!(cells[1].get("ok").and_then(|o| o.as_bool()), Some(true));
        let cmp = cells[1].get("comparison").expect("comparison present");
        assert!(cmp.get("optimized").and_then(|o| o.get("cycle_ns")).is_some());
        assert!(v.get("stats").and_then(|s| s.get("cache_misses")).is_some());
    }

    #[test]
    fn strip_elapsed_ms_blanks_only_the_wall_clock() {
        let r = report();
        let compact = r.to_json();
        let stripped = strip_elapsed_ms(&compact);
        assert_ne!(compact, stripped);
        assert!(stripped.contains("\"elapsed_ms\":}"), "{stripped}");
        // Idempotent, and inert on reports without the field.
        assert_eq!(strip_elapsed_ms(&stripped), stripped);
        assert_eq!(strip_elapsed_ms("{\"cells\":[]}"), "{\"cells\":[]}");
        // The pretty spelling (space after the colon) is blanked too.
        let pretty = strip_elapsed_ms("{\"elapsed_ms\": 12.5\n}");
        assert_eq!(pretty, "{\"elapsed_ms\":\n}");
        // Every occurrence goes — a serve response line carries two (the
        // service counters' and the report's).
        let twice = "{\"a\":{\"elapsed_ms\":1.5},\"b\":{\"elapsed_ms\":2.5}}";
        assert_eq!(strip_elapsed_ms(twice), "{\"a\":{\"elapsed_ms\":},\"b\":{\"elapsed_ms\":}}");
    }

    #[test]
    fn normalized_erases_only_the_run_shape() {
        let r = report();
        let mut wider = r.clone();
        wider.stats.workers += 3;
        wider.stats.elapsed += std::time::Duration::from_millis(7);
        wider.stats.stage_hits += 2;
        wider.stats.stage_misses += 5;
        assert_ne!(r.to_json(), wider.to_json());
        assert_eq!(r.normalized().to_json(), wider.normalized().to_json());
        // Different cell content survives normalization.
        let mut other = r.clone();
        other.cells.pop();
        assert_ne!(r.normalized().to_json(), other.normalized().to_json());
        // The textual form agrees with the structural one.
        assert_eq!(normalize_run_shape(&r.to_json()), normalize_run_shape(&wider.to_json()));
        assert!(normalize_run_shape(&r.to_json()).contains("\"workers\":,"));
        // Pretty spelling (space after the colon) is blanked too.
        assert_eq!(
            normalize_run_shape("{\"workers\": 4,\n\"elapsed_ms\": 1.5}"),
            "{\"workers\":,\n\"elapsed_ms\":}"
        );
    }

    #[test]
    fn sweep_points_skip_failures() {
        let r = report();
        let points = r.sweep_points();
        assert_eq!(points.len(), 1);
        assert_eq!(points[0].latency, 3);
    }
}
