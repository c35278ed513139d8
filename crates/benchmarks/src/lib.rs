//! # bittrans-benchmarks
//!
//! The paper's experimental workloads, rebuilt as `bittrans` specifications:
//!
//! * the **motivational example** (three chained 16-bit additions, Figs. 1–2)
//!   and the **Fig. 3 DFG** (eight additions of mixed widths);
//! * the **classical HLS benchmarks** of Table II — fifth-order elliptic
//!   wave filter (`elliptic`), differential-equation solver (`diffeq`),
//!   fourth-order IIR (`iir4`), second-order FIR (`fir2`);
//! * the **ADPCM G.721 decoder modules** of Table III — inverse adaptive
//!   quantizer (`iaq`), tone & transition detector (`ttd`), output PCM
//!   format conversion + synchronous coding adjustment (`opfc_sca`);
//! * a seeded **random DFG generator** for property tests and sweeps.
//!
//! ## Substitution note
//!
//! The original UCI benchmark VHDL and the authors' G.721 sources are not
//! available. The graphs here reproduce the published *structure*: the
//! elliptic filter is built from eight two-port wave-digital adaptors
//! (26 additive operations + 8 multiplications, dependence depth ≈ 14, as
//! the published benchmark), `diffeq` is the canonical HAL graph (6 mul /
//! 2 add / 2 sub / 1 comparison), and the ADPCM modules implement the
//! corresponding G.721 computations (log-domain add + antilog barrel shift
//! for IAQ, threshold tests for TTD, a segment-compare compression ladder
//! for OPFC/SCA) at the Recommendation's word widths. See `DESIGN.md` §3.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod adpcm;
pub mod classic;
pub mod extended;
pub mod random;

pub use adpcm::{iaq, opfc_sca, ttd};
pub use classic::{diffeq, elliptic, fig3_dfg, fir2, iir4, three_adds};
pub use extended::{ar_lattice, cordic3, dct4, extended_benchmarks};
pub use random::{mutate_carry, random_spec, RandomSpecOptions};

use bittrans_ir::Spec;

/// A named benchmark with the latencies the paper evaluates it at.
#[derive(Clone, Debug)]
pub struct Benchmark {
    /// Short name as used in the paper's tables.
    pub name: &'static str,
    /// The specification.
    pub spec: Spec,
    /// Latencies (λ) evaluated in the paper's table.
    pub latencies: Vec<u32>,
}

/// The Table II benchmark set with the paper's latencies.
pub fn table2_benchmarks() -> Vec<Benchmark> {
    vec![
        Benchmark { name: "elliptic", spec: elliptic(), latencies: vec![11, 6, 4] },
        Benchmark { name: "diffeq", spec: diffeq(), latencies: vec![6, 5, 4] },
        Benchmark { name: "iir4", spec: iir4(), latencies: vec![6, 5] },
        Benchmark { name: "fir2", spec: fir2(), latencies: vec![5, 3] },
    ]
}

/// The Table III ADPCM module set with the paper's latencies.
pub fn table3_benchmarks() -> Vec<Benchmark> {
    vec![
        Benchmark { name: "IAQ", spec: iaq(), latencies: vec![3] },
        Benchmark { name: "TTD", spec: ttd(), latencies: vec![5] },
        Benchmark { name: "OPFC+SCA", spec: opfc_sca(), latencies: vec![12] },
    ]
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn catalogs_are_complete() {
        assert_eq!(table2_benchmarks().len(), 4);
        assert_eq!(table3_benchmarks().len(), 3);
        for b in table2_benchmarks().iter().chain(&table3_benchmarks()) {
            assert!(!b.latencies.is_empty());
            b.spec.validate().unwrap();
        }
    }
}
