//! Behavioural equivalence checking between two specifications.
//!
//! The transformations in this workspace (kernel extraction, fragmentation)
//! must preserve the input/output behaviour of the specification. This
//! module decides equivalence by co-simulation on shared input vectors —
//! the same role RTL-vs-behaviour simulation played for the paper's
//! authors. Both sides run as compiled bit-sliced [`Tape`]s, 64 vectors
//! per pass; [`check_equivalence_interpreted`] is the same check driven
//! through [`evaluate`] one vector at a time, kept as the reference the
//! compiled path must match result for result.

use crate::tape::{Tape, LANES};
use crate::vectors::{draw_bits, random_inputs};
use crate::{evaluate, InputVector, SimError};
use bittrans_ir::prelude::*;
use rand::rngs::StdRng;
use rand::SeedableRng;
use std::fmt;
use std::ops::Range;

/// Why two specifications were judged non-equivalent.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum Inequivalence {
    /// The port lists differ: an input or output missing on one side, or
    /// an input of different widths.
    PortMismatch {
        /// Human-readable description of the difference.
        detail: String,
    },
    /// A caller-supplied vector could not be simulated (see
    /// [`check_equivalence_on`]).
    SimFailed(SimError),
    /// The outputs differ on a concrete vector.
    Counterexample {
        /// The distinguishing input vector.
        inputs: InputVector,
        /// The differing output port.
        output: String,
        /// Output of the left spec.
        left: Bits,
        /// Output of the right spec.
        right: Bits,
    },
}

impl fmt::Display for Inequivalence {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Inequivalence::PortMismatch { detail } => write!(f, "port mismatch: {detail}"),
            Inequivalence::SimFailed(e) => write!(f, "simulation failed: {e}"),
            Inequivalence::Counterexample { output, left, right, .. } => {
                write!(f, "output `{output}` differs: {left} vs {right}")
            }
        }
    }
}

impl std::error::Error for Inequivalence {}

impl From<SimError> for Inequivalence {
    fn from(e: SimError) -> Self {
        Inequivalence::SimFailed(e)
    }
}

/// Checks that `left` and `right` agree on every supplied vector.
///
/// Both specs must declare the same inputs (names and widths), and every
/// output of `left` must exist on `right`; extra outputs on `right` are
/// ignored. Outputs are matched by name and compared on *values*
/// (zero-extended to the wider of the two declared widths), so a
/// transformed spec may carry extra result bits (e.g. preserved
/// carry-outs) as long as the meaningful bits agree.
///
/// # Errors
///
/// [`Inequivalence::PortMismatch`] before any vector is simulated; then
/// the first disagreement in vector order (the first differing output in
/// name order), or [`Inequivalence::SimFailed`] for the first vector that
/// does not bind `left`'s inputs, whichever comes first.
pub fn check_equivalence_on(
    left: &Spec,
    right: &Spec,
    vectors: &[InputVector],
) -> Result<(), Inequivalence> {
    check_ports(left, right)?;
    let mut cosim = Cosim::new(left, right);
    for block in vectors.chunks(LANES) {
        cosim.clear();
        let mut loaded = block.len();
        let mut unbound = None;
        for (lane, iv) in block.iter().enumerate() {
            if let Err(e) = cosim.left.load(&mut cosim.lslots, lane, iv) {
                (loaded, unbound) = (lane, Some(e));
                break;
            }
        }
        if let Some((lane, output)) = cosim.run(loaded) {
            return Err(cosim.counterexample(lane, output, block[lane].clone()));
        }
        if let Some(e) = unbound {
            return Err(e.into());
        }
    }
    Ok(())
}

/// Checks equivalence on `count` seeded random vectors, preceded by the
/// all-zeros and all-ones vectors (always included). Port rules and the
/// comparison are those of [`check_equivalence_on`].
///
/// The vectors are drawn straight into the simulation lanes, 64 at a time,
/// so memory does not grow with `count`. They are the vectors
/// [`vectors::random_vectors`](crate::vectors::random_vectors) draws, and
/// the result equals [`check_equivalence_interpreted`]'s.
///
/// # Errors
///
/// [`Inequivalence::PortMismatch`] before any vector is drawn, otherwise
/// the [`Inequivalence::Counterexample`] of the first failing vector; it
/// embeds the failing inputs for reproduction.
pub fn check_equivalence(
    left: &Spec,
    right: &Spec,
    seed: u64,
    count: usize,
) -> Result<(), Inequivalence> {
    check_ports(left, right)?;
    let mut cosim = Cosim::new(left, right);
    let mut rng = StdRng::seed_from_u64(seed);
    let total = count.saturating_add(2);
    let mut start = 0;
    while start < total {
        let lanes = (total - start).min(LANES);
        cosim.clear();
        for lane in 0..lanes {
            match start + lane {
                0 => {}
                1 => {
                    cosim.lslots[cosim.left.input_slots()].iter_mut().for_each(|s| *s |= 1 << lane)
                }
                _ => {
                    for (_, slots) in cosim.left.input_ports() {
                        draw_bits(slots.len(), &mut rng, |i| {
                            cosim.lslots[slots.start + i] |= 1 << lane;
                        });
                    }
                }
            }
        }
        if let Some((lane, output)) = cosim.run(lanes) {
            let inputs = cosim.input_vector(lane);
            return Err(cosim.counterexample(lane, output, inputs));
        }
        start += lanes;
    }
    Ok(())
}

/// The interpreted reference for [`check_equivalence`]: the same port
/// checks and the same vectors, each run through [`evaluate`] on both
/// sides, one at a time. Slow; it exists so tests and `bittrans fuzz` can
/// hold the compiled checker to it.
///
/// # Errors
///
/// As [`check_equivalence`].
pub fn check_equivalence_interpreted(
    left: &Spec,
    right: &Spec,
    seed: u64,
    count: usize,
) -> Result<(), Inequivalence> {
    check_ports(left, right)?;
    let mut rng = StdRng::seed_from_u64(seed);
    for k in 0..count.saturating_add(2) {
        let iv = match k {
            0 => extreme_vector(left, false),
            1 => extreme_vector(left, true),
            _ => random_inputs(left, &mut rng),
        };
        let le = evaluate(left, &iv)?;
        let re = evaluate(right, &iv)?;
        for (name, lbits) in le.outputs() {
            let rbits = re.output(name).expect("outputs are checked before simulation");
            let w = lbits.width().max(rbits.width());
            if lbits.zext(w) != rbits.zext(w) {
                return Err(Inequivalence::Counterexample {
                    inputs: iv,
                    output: name.to_string(),
                    left: lbits.clone(),
                    right: rbits.clone(),
                });
            }
        }
    }
    Ok(())
}

fn extreme_vector(spec: &Spec, ones: bool) -> InputVector {
    let mut iv = InputVector::new();
    for &input in spec.inputs() {
        let w = spec.value(input).width() as usize;
        iv.set(spec.input_name(input), if ones { Bits::ones(w) } else { Bits::zero(w) });
    }
    iv
}

/// The structural half of the check: the same inputs on both sides (names
/// and widths), and every output of `left` present on `right`.
fn check_ports(left: &Spec, right: &Spec) -> Result<(), Inequivalence> {
    let mismatch = |detail: String| Err(Inequivalence::PortMismatch { detail });
    for &l in left.inputs() {
        let name = left.input_name(l);
        match right.input_by_name(name) {
            None => return mismatch(format!("input `{name}` missing from `{}`", right.name())),
            Some(r) => {
                let (lw, rw) = (left.value(l).width(), right.value(r).width());
                if lw != rw {
                    return mismatch(format!("input `{name}` is {lw} bits vs {rw} bits"));
                }
            }
        }
    }
    for &r in right.inputs() {
        let name = right.input_name(r);
        if left.input_by_name(name).is_none() {
            return mismatch(format!("input `{name}` missing from `{}`", left.name()));
        }
    }
    let mut outputs: Vec<&str> = left.outputs().iter().map(|p| p.name()).collect();
    outputs.sort_unstable();
    for name in outputs {
        if !right.outputs().iter().any(|p| p.name() == name) {
            return mismatch(format!("output `{name}` missing from `{}`", right.name()));
        }
    }
    Ok(())
}

/// Two compiled specs co-simulated on shared input lanes. The lanes are
/// loaded into `left`'s input slots and copied to `right`'s by port name.
struct Cosim {
    left: Tape,
    right: Tape,
    lslots: Vec<u64>,
    rslots: Vec<u64>,
    /// Each left input's slots and where the same port starts on the right.
    feed: Vec<(Range<usize>, usize)>,
    /// `(left, right)` output indices, in the left's name order.
    pairs: Vec<(usize, usize)>,
}

impl Cosim {
    /// Compiles both sides; the ports must have passed [`check_ports`].
    fn new(left: &Spec, right: &Spec) -> Cosim {
        let (left, right) = (Tape::compile(left), Tape::compile(right));
        let feed = left
            .input_ports()
            .map(|(name, slots)| {
                let (_, theirs) = right
                    .input_ports()
                    .find(|(n, _)| *n == name)
                    .expect("inputs are checked before simulation");
                (slots, theirs.start)
            })
            .collect();
        let pairs = (0..left.output_count())
            .map(|o| {
                let theirs = right
                    .output_index(left.output_name(o))
                    .expect("outputs are checked before simulation");
                (o, theirs)
            })
            .collect();
        let (lslots, rslots) = (left.new_slots(), right.new_slots());
        Cosim { left, right, lslots, rslots, feed, pairs }
    }

    fn clear(&mut self) {
        self.left.clear_inputs(&mut self.lslots);
    }

    /// Simulates both sides on the loaded lanes and returns the lowest of
    /// the first `lanes` lanes whose outputs differ, with the index into
    /// `pairs` of its first differing output.
    fn run(&mut self, lanes: usize) -> Option<(usize, usize)> {
        self.left.run(&mut self.lslots);
        for (slots, to) in &self.feed {
            self.rslots[*to..*to + slots.len()].copy_from_slice(&self.lslots[slots.clone()]);
        }
        self.right.run(&mut self.rslots);
        let mask = if lanes >= LANES { !0 } else { (1u64 << lanes) - 1 };
        let mut first: Option<(usize, usize)> = None;
        for (pair, &(l, r)) in self.pairs.iter().enumerate() {
            let mut ours = self.left.output_words(&self.lslots, l);
            let mut theirs = self.right.output_words(&self.rslots, r);
            let mut diff = 0;
            loop {
                match (ours.next(), theirs.next()) {
                    (None, None) => break,
                    (a, b) => diff |= a.unwrap_or(0) ^ b.unwrap_or(0),
                }
            }
            diff &= mask;
            if diff != 0 {
                let lane = diff.trailing_zeros() as usize;
                if first.is_none_or(|(best, _)| lane < best) {
                    first = Some((lane, pair));
                }
            }
        }
        first
    }

    /// The left's inputs in `lane`, as a vector.
    fn input_vector(&self, lane: usize) -> InputVector {
        self.left
            .input_ports()
            .map(|(name, slots)| {
                let bits: Vec<bool> =
                    self.lslots[slots].iter().map(|w| w >> lane & 1 == 1).collect();
                (name.to_string(), Bits::from_bools(&bits))
            })
            .collect()
    }

    fn counterexample(&self, lane: usize, pair: usize, inputs: InputVector) -> Inequivalence {
        let (l, r) = self.pairs[pair];
        Inequivalence::Counterexample {
            inputs,
            output: self.left.output_name(l).to_string(),
            left: self.left.output_bits(&self.lslots, l, lane),
            right: self.right.output_bits(&self.rslots, r, lane),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn identical_specs_are_equivalent() {
        let s = Spec::parse("spec s { input a: u8; input b: u8; output o = a + b; }").unwrap();
        check_equivalence(&s, &s, 1, 50).unwrap();
    }

    #[test]
    fn fig2_transformation_is_equivalent_to_fig1() {
        // The paper's motivational example: beh1 (three 16-bit adds) vs
        // beh2 (nine fragment adds with explicit carries) — Fig. 1 a) vs 2 a).
        let beh1 = Spec::parse(
            "spec beh1 { input A: u16; input B: u16; input D: u16; input F: u16;
              C: u16 = A + B;
              E: u16 = C + D;
              G: u16 = E + F;
              output G; }",
        )
        .unwrap();
        let beh2 = Spec::parse(
            "spec beh2 { input A: u16; input B: u16; input D: u16; input F: u16;
              C0: u7  = A[5:0] + B[5:0];
              E0: u6  = C0[4:0] + D[4:0];
              G0: u5  = E0[3:0] + F[3:0];
              C1: u7  = A[11:6] + B[11:6] + C0[6];
              E1: u7  = concat(C0[5], C1[4:0]) + D[10:5] + E0[5];
              G1: u7  = concat(E0[4], E1[4:0]) + F[9:4] + G0[4];
              C2: u4  = A[15:12] + B[15:12] + C1[6];
              E2: u5  = concat(C1[5], C2) + D[15:11] + E1[6];
              G2: u6  = concat(E1[5], E2) + F[15:10] + G1[6];
              output G = concat(G0[3:0], G1[5:0], G2);
             }",
        )
        .unwrap();
        check_equivalence(&beh1, &beh2, 2005, 300).unwrap();
    }

    #[test]
    fn detects_counterexample() {
        let good = Spec::parse("spec a { input x: u8; output o = x + 1; }").unwrap();
        let bad = Spec::parse("spec b { input x: u8; output o = x + 2; }").unwrap();
        let err = check_equivalence(&good, &bad, 3, 20).unwrap_err();
        assert!(matches!(err, Inequivalence::Counterexample { .. }));
        assert!(err.to_string().contains("output `o` differs"));
    }

    #[test]
    fn detects_port_mismatch() {
        let a = Spec::parse("spec a { input x: u8; output o = x; }").unwrap();
        let b = Spec::parse("spec b { input y: u8; output o = y; }").unwrap();
        let err = check_equivalence(&a, &b, 3, 5).unwrap_err();
        assert!(matches!(err, Inequivalence::PortMismatch { .. }));

        let c = Spec::parse("spec c { input x: u4; output o = x; }").unwrap();
        let err = check_equivalence(&a, &c, 3, 5).unwrap_err();
        assert!(err.to_string().contains("8 bits vs 4 bits"));
    }

    #[test]
    fn wider_right_output_is_tolerated() {
        // The transformed spec may keep the carry-out (9 bits vs 8): values
        // must still agree, which they do only when the carry is dead...
        let narrow = Spec::parse("spec a { input x: u4; output o = x; }").unwrap();
        // ... here the extra top bits are zero, so equivalence holds.
        let wide = Spec::parse("spec b { input x: u4; o: u6 = x; output o; }").unwrap();
        check_equivalence(&narrow, &wide, 9, 20).unwrap();
    }

    #[test]
    fn input_only_on_the_right_is_a_port_mismatch() {
        let a = Spec::parse("spec a { input x: u8; output o = x; }").unwrap();
        let b = Spec::parse("spec b { input x: u8; input y: u8; output o = x + y; }").unwrap();
        let err = check_equivalence(&a, &b, 3, 5).unwrap_err();
        assert_eq!(
            err,
            Inequivalence::PortMismatch { detail: "input `y` missing from `a`".into() }
        );
        assert_eq!(check_equivalence_on(&a, &b, &[]), Err(err));
    }

    #[test]
    fn missing_output_is_reported_before_any_differing_value() {
        // `a` differs on the very first vector; `z` missing must still win.
        let c = Spec::parse("spec c { input x: u8; output a = x; output z = x; }").unwrap();
        let d = Spec::parse("spec d { input x: u8; output a = x + 1; }").unwrap();
        let err = check_equivalence(&c, &d, 3, 5).unwrap_err();
        assert_eq!(
            err,
            Inequivalence::PortMismatch { detail: "output `z` missing from `d`".into() }
        );
        assert_eq!(check_equivalence_interpreted(&c, &d, 3, 5), Err(err));
    }

    #[test]
    fn missing_output_is_reported() {
        let a = Spec::parse("spec a { input x: u4; output o = x; output p = x; }").unwrap();
        let b = Spec::parse("spec b { input x: u4; output o = x; }").unwrap();
        let err = check_equivalence(&a, &b, 3, 5).unwrap_err();
        assert!(err.to_string().contains("`p` missing"));
    }
}
