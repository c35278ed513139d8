//! Seeded random DFG generation for property tests and scaling sweeps.

use bittrans_ir::prelude::*;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// Shape parameters for [`random_spec`].
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct RandomSpecOptions {
    /// Number of (non-glue) operations to generate.
    pub ops: usize,
    /// Number of input ports.
    pub inputs: usize,
    /// Minimum operand width.
    pub min_width: u32,
    /// Maximum operand width.
    pub max_width: u32,
    /// Probability (0..=1) of a multiplication; the rest are additive
    /// operations and occasional comparisons.
    pub mul_prob: f64,
}

impl Default for RandomSpecOptions {
    fn default() -> Self {
        RandomSpecOptions { ops: 20, inputs: 6, min_width: 4, max_width: 16, mul_prob: 0.15 }
    }
}

/// Generates a random, valid, connected specification. The same
/// `(seed, options)` pair always yields the same spec.
///
/// # Panics
///
/// Panics if `options.ops` or `options.inputs` is zero, or the width range
/// is empty.
pub fn random_spec(seed: u64, options: &RandomSpecOptions) -> Spec {
    assert!(options.ops > 0 && options.inputs > 0, "need at least one op and input");
    assert!(
        0 < options.min_width && options.min_width <= options.max_width,
        "width range is empty"
    );
    let mut rng = StdRng::seed_from_u64(seed);
    let mut b = SpecBuilder::new(format!("random_{seed}"));
    let mut pool: Vec<ValueId> = (0..options.inputs)
        .map(|i| {
            let w = rng.gen_range(options.min_width..=options.max_width);
            b.input(format!("in{i}"), w)
        })
        .collect();
    let mut sinks: Vec<ValueId> = Vec::new();
    for i in 0..options.ops {
        let a = pool[rng.gen_range(0..pool.len())];
        let c = pool[rng.gen_range(0..pool.len())];
        let wa = b.width_of(a);
        let wc = b.width_of(c);
        let name = format!("n{i}");
        let v = if rng.gen_bool(options.mul_prob) {
            // Bound each operand to `max_width` bits (slicing the low bits
            // of wider intermediates) and declare the result at the
            // operands' exact product width. The old clamp
            // `(wa + wc).min(max_width * 2)` kept the *result* in budget by
            // silently truncating the product once chained ops grew the
            // operands past `max_width` — a mul narrower than its true
            // product width, which no IR width rule is meant to permit.
            let cap = options.max_width.min(u32::MAX / 2);
            let (oa, wa) = capped(a, wa, cap);
            let (oc, wc) = capped(c, wc, cap);
            b.mul(&name, oa, oc, wa + wc, Signedness::Unsigned).expect("valid random mul")
        } else {
            match rng.gen_range(0..6u8) {
                0 => {
                    b.sub(&name, a, c, wa.max(wc), Signedness::Unsigned).expect("valid random sub")
                }
                1 => b.lt(&name, a, c, Signedness::Unsigned).expect("valid random lt"),
                2 => b
                    .op(
                        OpKind::Max,
                        vec![a.into(), c.into()],
                        wa.max(wc),
                        Signedness::Unsigned,
                        Some(&name),
                    )
                    .expect("valid random max"),
                _ => b.add(&name, a, c, wa.max(wc) + 1).expect("valid random add"),
            }
        };
        sinks.retain(|&s| s != a && s != c);
        sinks.push(v);
        pool.push(v);
        // Bias towards recent values so the graph has depth.
        if pool.len() > 8 {
            pool.remove(rng.gen_range(0..2));
        }
    }
    for (i, s) in sinks.iter().enumerate() {
        b.output(format!("out{i}"), *s);
    }
    b.finish().expect("random specs are valid by construction")
}

/// A copy of `spec` with the carry-in of one `Add` toggled: dropped when
/// the add has one, fed bit 0 of its first operand when it has none. The
/// add is number `pick` (modulo the add count) in operation order; `None`
/// when `spec` has no `Add`.
///
/// This is the typical fragmentation bug — a carry lost between two
/// fragments — so the copy serves as a negative case for equivalence
/// checkers. It usually disagrees with `spec`, but only on vectors that
/// exercise that carry.
pub fn mutate_carry(spec: &Spec, pick: usize) -> Option<Spec> {
    let adds: Vec<OpId> =
        spec.ops().iter().filter(|op| op.kind() == OpKind::Add).map(|op| op.id()).collect();
    let target = *adds.get(pick % adds.len().max(1))?;
    let mut b = SpecBuilder::new(format!("{}_mutant", spec.name()));
    // Rebuilt in value order, so every value keeps its id.
    for value in spec.values() {
        match value.def() {
            ValueDef::Input { name } => {
                b.input(name.clone(), value.width());
            }
            ValueDef::Op(id) => {
                let op = spec.op(*id);
                let mut operands = op.operands().to_vec();
                if op.id() == target {
                    if operands.len() == 3 {
                        operands.pop();
                    } else if spec.operand_width(&operands[0]) > 0 {
                        operands.push(operands[0].subrange(BitRange::new(0, 1)));
                    } else {
                        operands.push(Operand::const_bit(true));
                    }
                }
                b.op_with_origin(
                    op.kind(),
                    operands,
                    op.width(),
                    op.signedness(),
                    op.name(),
                    op.origin(),
                )
                .expect("a carry-in toggle keeps the add valid");
            }
        }
    }
    for port in spec.outputs() {
        b.output(port.name(), port.operand().clone());
    }
    Some(b.finish().expect("ports are unchanged"))
}

/// `v` as a mul operand at most `cap` bits wide: the value itself when it
/// fits, its low `cap` bits otherwise. Returns the operand and its width.
fn capped(v: ValueId, w: u32, cap: u32) -> (Operand, u32) {
    if w > cap {
        (Operand::slice(v, BitRange::new(0, cap)), cap)
    } else {
        (Operand::value(v), w)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn deterministic() {
        let a = random_spec(7, &RandomSpecOptions::default());
        let b = random_spec(7, &RandomSpecOptions::default());
        assert_eq!(a, b);
        let c = random_spec(8, &RandomSpecOptions::default());
        assert_ne!(a, c);
    }

    #[test]
    fn valid_and_sized() {
        for seed in 0..20 {
            let s = random_spec(seed, &RandomSpecOptions::default());
            s.validate().unwrap();
            assert_eq!(s.stats().non_glue(), 20);
            assert!(!s.outputs().is_empty());
        }
    }

    #[test]
    fn simulates() {
        use bittrans_sim::{evaluate, vectors::random_vectors};
        let s = random_spec(3, &RandomSpecOptions::default());
        for iv in random_vectors(&s, 9, 10) {
            evaluate(&s, &iv).unwrap();
        }
    }

    #[test]
    fn respects_op_count_options() {
        let s = random_spec(1, &RandomSpecOptions { ops: 5, ..Default::default() });
        assert_eq!(s.stats().non_glue(), 5);
    }

    #[test]
    #[should_panic(expected = "at least one")]
    fn rejects_zero_ops() {
        random_spec(0, &RandomSpecOptions { ops: 0, ..Default::default() });
    }

    /// Every generated mul carries its operands' exact product width.
    fn assert_muls_full_width(s: &Spec) {
        for op in s.ops() {
            if op.kind() == OpKind::Mul {
                let sum: u32 = op.operands().iter().map(|o| s.operand_width(o)).sum();
                assert_eq!(
                    op.width(),
                    sum,
                    "mul `{:?}` is {} bits for a {}-bit product",
                    op.name(),
                    op.width(),
                    sum
                );
            }
        }
    }

    /// Regression for the old product clamp `(wa + wc).min(max_width * 2)`:
    /// once chained ops grow intermediates past `max_width`, the clamp
    /// truncated the product below the operands' true width. Now operands
    /// are sliced into budget first and every product is full-width. The
    /// sliced-operand count proves the seeds below actually reach the path
    /// the old clamp mishandled.
    #[test]
    fn muls_are_never_truncated() {
        let mut sliced = 0usize;
        let mul_heavy =
            RandomSpecOptions { ops: 24, inputs: 3, min_width: 8, max_width: 12, mul_prob: 0.8 };
        for (shape, seeds) in [(RandomSpecOptions::default(), 64), (mul_heavy, 32)] {
            for seed in 0..seeds {
                let s = random_spec(seed, &shape);
                s.validate().unwrap();
                assert_muls_full_width(&s);
                sliced += s
                    .ops()
                    .iter()
                    .filter(|op| op.kind() == OpKind::Mul)
                    .flat_map(|op| op.operands())
                    .filter(|o| o.range().is_some())
                    .count();
            }
        }
        assert!(sliced > 0, "no seed exercised the over-budget operand path");
    }

    #[test]
    fn degenerate_shapes_generate_valid_specs() {
        let shapes = [
            RandomSpecOptions { ops: 1, inputs: 1, min_width: 4, max_width: 4, mul_prob: 0.5 },
            RandomSpecOptions { ops: 1, inputs: 1, min_width: 1, max_width: 1, mul_prob: 1.0 },
            RandomSpecOptions { ops: 3, inputs: 1, min_width: 7, max_width: 7, mul_prob: 0.0 },
            RandomSpecOptions { ops: 2, inputs: 2, min_width: 1, max_width: 2, mul_prob: 1.0 },
        ];
        for (i, shape) in shapes.iter().enumerate() {
            for seed in 0..16 {
                let s = random_spec(seed, shape);
                s.validate().unwrap_or_else(|e| panic!("shape {i} seed {seed}: {e}"));
                assert_eq!(s.stats().non_glue(), shape.ops);
                assert!(!s.outputs().is_empty());
                assert_muls_full_width(&s);
            }
        }
    }

    #[test]
    fn mul_prob_extremes_are_safe() {
        let all = random_spec(5, &RandomSpecOptions { mul_prob: 1.0, ..Default::default() });
        assert!(all.ops().iter().any(|o| o.kind() == OpKind::Mul));
        let none = random_spec(5, &RandomSpecOptions { mul_prob: 0.0, ..Default::default() });
        assert!(none.ops().iter().all(|o| o.kind() != OpKind::Mul));
    }
}
