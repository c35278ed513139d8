//! Deterministic random input-vector generation.
//!
//! Equivalence checking needs many input vectors; this module produces them
//! reproducibly from a seed, with a bias towards the corner values
//! (all-zeros, all-ones, sign-boundary) where carry-chain bugs live.

use crate::InputVector;
use bittrans_ir::prelude::*;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// Generates one random input vector for `spec`.
///
/// One in four values is drawn from the corner set `{0, 1, 2^w - 1,
/// 2^(w-1), 2^(w-1) - 1}` instead of uniformly, to stress carries and sign
/// boundaries.
pub fn random_inputs(spec: &Spec, rng: &mut StdRng) -> InputVector {
    let mut iv = InputVector::new();
    for &input in spec.inputs() {
        let width = spec.value(input).width() as usize;
        let bits = random_bits(width, rng);
        iv.set(spec.input_name(input), bits);
    }
    iv
}

/// Generates `count` random input vectors from `seed`.
///
/// The same `(spec, seed, count)` always produces the same vectors, so test
/// failures are reproducible.
pub fn random_vectors(spec: &Spec, seed: u64, count: usize) -> Vec<InputVector> {
    let mut rng = StdRng::seed_from_u64(seed);
    (0..count).map(|_| random_inputs(spec, &mut rng)).collect()
}

/// One random `width`-bit value, corner-biased.
pub fn random_bits(width: usize, rng: &mut StdRng) -> Bits {
    let mut b = Bits::zero(width);
    draw_bits(width, rng, |i| b.set(i, true));
    b
}

/// Draws the value [`random_bits`] would, consuming `rng` identically, and
/// reports each set bit's index to `set` instead of building a [`Bits`].
pub(crate) fn draw_bits(width: usize, rng: &mut StdRng, mut set: impl FnMut(usize)) {
    if width == 0 {
        return;
    }
    if rng.gen_ratio(1, 4) {
        match rng.gen_range(0..5u8) {
            0 => {}
            1 => set(0),
            2 => (0..width).for_each(set),
            // sign boundary 2^(w-1)
            3 => set(width - 1),
            // 2^(w-1) - 1
            _ => (0..width - 1).for_each(set),
        }
    } else {
        for i in 0..width {
            if rng.gen() {
                set(i);
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn vectors_are_deterministic() {
        let spec = Spec::parse("spec s { input a: u16; input b: u3; output o = a + b; }").unwrap();
        let v1 = random_vectors(&spec, 42, 10);
        let v2 = random_vectors(&spec, 42, 10);
        assert_eq!(v1, v2);
        let v3 = random_vectors(&spec, 43, 10);
        assert_ne!(v1, v3);
    }

    #[test]
    fn vectors_respect_widths() {
        let spec = Spec::parse("spec s { input a: u16; input b: u3; output o = a + b; }").unwrap();
        for iv in random_vectors(&spec, 7, 50) {
            assert_eq!(iv.get("a").unwrap().width(), 16);
            assert_eq!(iv.get("b").unwrap().width(), 3);
        }
    }

    #[test]
    fn corners_do_appear() {
        let mut rng = StdRng::seed_from_u64(1);
        let mut saw_zero = false;
        let mut saw_ones = false;
        for _ in 0..200 {
            let b = random_bits(8, &mut rng);
            saw_zero |= b.is_zero();
            saw_ones |= b == Bits::ones(8);
        }
        assert!(saw_zero && saw_ones, "corner bias not effective");
    }

    #[test]
    fn zero_width_is_fine() {
        let mut rng = StdRng::seed_from_u64(1);
        assert_eq!(random_bits(0, &mut rng).width(), 0);
    }
}
