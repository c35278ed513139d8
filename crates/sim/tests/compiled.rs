//! The compiled bit-sliced tape against the interpreter, lane by lane:
//! every `OpKind` signed and unsigned at awkward widths, slices across
//! 64-bit word boundaries, partial and multi-block vector counts, random
//! and transformed specs, and the equivalence checker's failure path.

use bittrans_benchmarks::{mutate_carry, random_spec, RandomSpecOptions};
use bittrans_frag::{fragment, FragmentOptions};
use bittrans_ir::prelude::*;
use bittrans_sim::equivalence::{
    check_equivalence, check_equivalence_interpreted, check_equivalence_on, Inequivalence,
};
use bittrans_sim::tape::Tape;
use bittrans_sim::vectors::random_vectors;
use bittrans_sim::{evaluate, InputVector};

const WIDTHS: [u32; 6] = [1, 7, 63, 64, 65, 130];
const COUNTS: [usize; 6] = [0, 1, 63, 64, 65, 602];

/// Every vector's compiled outputs equal the interpreter's.
fn assert_lanes_match(spec: &Spec, vectors: &[InputVector]) {
    let tape = Tape::compile(spec);
    let compiled = tape.evaluate(vectors).unwrap();
    assert_eq!(compiled.len(), vectors.len());
    for (k, (iv, got)) in vectors.iter().zip(&compiled).enumerate() {
        let want = evaluate(spec, iv).unwrap();
        let want: Vec<(&str, &Bits)> = want.outputs().collect();
        let got: Vec<(&str, &Bits)> = got.iter().map(|(n, b)| (n.as_str(), b)).collect();
        assert_eq!(got, want, "`{}` vector {k}: {iv:?}", spec.name());
    }
}

/// The interpreted reference over explicit vectors: the first
/// disagreement in vector order, outputs in name order.
fn interpreted_on(left: &Spec, right: &Spec, vectors: &[InputVector]) -> Option<Inequivalence> {
    for iv in vectors {
        let (le, re) = match (evaluate(left, iv), evaluate(right, iv)) {
            (Ok(le), Ok(re)) => (le, re),
            (Err(e), _) | (_, Err(e)) => return Some(Inequivalence::SimFailed(e)),
        };
        for (name, l) in le.outputs() {
            let r = re.output(name).unwrap();
            let w = l.width().max(r.width());
            if l.zext(w) != r.zext(w) {
                return Some(Inequivalence::Counterexample {
                    inputs: iv.clone(),
                    output: name.to_string(),
                    left: l.clone(),
                    right: r.clone(),
                });
            }
        }
    }
    None
}

/// A spec exercising `kind` with operands of two widths around `w` and
/// results both narrower and wider than the operands.
fn op_spec(kind: OpKind, w: u32, signedness: Signedness) -> Spec {
    let mut b = SpecBuilder::new(format!("{kind}_{w}_{signedness}"));
    let a = b.input("a", w);
    let nb = (w / 2).max(1) + 1;
    let bv = b.input("b", nb);
    let c = b.input("c", 1);
    let mut n = 0;
    let mut emit = |b: &mut SpecBuilder, ops: Vec<Operand>, width: u32| {
        let v = b.op(kind, ops, width, signedness, None).unwrap();
        b.output(format!("o{n}"), v);
        n += 1;
    };
    match kind {
        OpKind::Mux => {
            emit(&mut b, vec![c.into(), a.into(), bv.into()], w);
            emit(&mut b, vec![c.into(), bv.into(), a.into()], w + 3);
            emit(&mut b, vec![Operand::slice(a, BitRange::new(w - 1, 1)), a.into(), bv.into()], nb);
        }
        OpKind::Concat => {
            emit(&mut b, vec![a.into(), bv.into()], w + nb);
            emit(&mut b, vec![c.into(), a.into(), c.into()], w + 2);
        }
        OpKind::Add => {
            emit(&mut b, vec![a.into(), bv.into()], w);
            emit(&mut b, vec![a.into(), bv.into(), c.into()], w + 1);
            emit(&mut b, vec![bv.into(), a.into(), Operand::const_bit(true)], nb);
            emit(&mut b, vec![a.into(), Operand::const_u64(0x5a, 7)], w + 3);
        }
        k if k.arity().1 == 1 => {
            emit(&mut b, vec![a.into()], w);
            emit(&mut b, vec![bv.into()], w + 3);
            emit(&mut b, vec![a.into()], nb);
        }
        _ => {
            emit(&mut b, vec![a.into(), bv.into()], w);
            emit(&mut b, vec![bv.into(), a.into()], w + 3);
            emit(&mut b, vec![a.into(), a.into()], nb);
            emit(&mut b, vec![a.into(), Operand::const_u64(3, 2)], w);
        }
    }
    b.finish().unwrap()
}

fn all_kinds(w: u32) -> Vec<OpKind> {
    vec![
        OpKind::Add,
        OpKind::Sub,
        OpKind::Neg,
        OpKind::Mul,
        OpKind::Abs,
        OpKind::Lt,
        OpKind::Le,
        OpKind::Gt,
        OpKind::Ge,
        OpKind::Eq,
        OpKind::Ne,
        OpKind::Max,
        OpKind::Min,
        OpKind::Shl(0),
        OpKind::Shl(1),
        OpKind::Shl(w / 2),
        OpKind::Shl(w + 5),
        OpKind::Shr(0),
        OpKind::Shr(1),
        OpKind::Shr(w / 2),
        OpKind::Shr(w + 5),
        OpKind::Not,
        OpKind::And,
        OpKind::Or,
        OpKind::Xor,
        OpKind::Mux,
        OpKind::RedOr,
        OpKind::RedAnd,
        OpKind::Concat,
    ]
}

#[test]
fn every_op_kind_signed_and_unsigned_at_every_width() {
    for w in WIDTHS {
        for kind in all_kinds(w) {
            for signedness in [Signedness::Unsigned, Signedness::Signed] {
                let spec = op_spec(kind, w, signedness);
                assert_lanes_match(&spec, &random_vectors(&spec, u64::from(w) * 31, 130));
            }
        }
    }
}

#[test]
fn slices_across_word_boundaries() {
    let spec = Spec::parse(
        "spec s { input a: u130; input b: u130;
          lo: u8 = a[67:60];
          mid: u71 = a[129:59] + b[70:0];
          one: u2 = a[64:64] + b[63:63];
          cat: u20 = concat(a[63:54], b[129:120]);
          hi: u5 = mid[70:66];
          output lo; output mid; output one; output cat; output hi;
          output edge = b[64:63]; }",
    )
    .unwrap();
    assert_lanes_match(&spec, &random_vectors(&spec, 64, 200));
}

#[test]
fn every_vector_count_partial_and_whole_blocks() {
    let spec = op_spec(OpKind::Mul, 65, Signedness::Signed);
    for count in COUNTS {
        let vectors = random_vectors(&spec, 3, count);
        assert_lanes_match(&spec, &vectors);
    }
}

#[test]
fn random_specs_lane_by_lane() {
    let shapes = [
        RandomSpecOptions::default(),
        RandomSpecOptions { ops: 40, inputs: 3, min_width: 1, max_width: 70, mul_prob: 0.3 },
        RandomSpecOptions { ops: 6, inputs: 2, min_width: 60, max_width: 130, mul_prob: 0.5 },
    ];
    for (at, options) in shapes.iter().enumerate() {
        for seed in 0..12 {
            let spec = random_spec(seed * 3 + at as u64, options);
            assert_lanes_match(&spec, &random_vectors(&spec, seed, 130));
        }
    }
}

/// Both checkers agree on the transformed specs the pipeline verifies
/// (kernel and fragments at several λ) and on carry-mutated copies.
#[test]
fn checkers_agree_on_transformed_and_mutated_specs() {
    let mut failures = 0;
    for seed in 0..16 {
        let spec = random_spec(seed, &RandomSpecOptions { ops: 8, ..Default::default() });
        let kernel = bittrans_kernel::extract(&spec).unwrap();
        let mut candidates = vec![kernel.clone()];
        for latency in [2, 3, 5] {
            if let Ok(f) = fragment(&kernel, &FragmentOptions::with_latency(latency)) {
                candidates.extend(mutate_carry(&f.spec, seed as usize));
                candidates.push(f.spec);
            }
        }
        for right in &candidates {
            for count in [0, 62, 63, 200] {
                let compiled = check_equivalence(&spec, right, seed, count);
                assert_eq!(
                    compiled,
                    check_equivalence_interpreted(&spec, right, seed, count),
                    "seed {seed}, `{}`, {count} vectors",
                    right.name()
                );
                failures += compiled.is_err() as usize;
            }
        }
    }
    assert!(failures > 0, "the mutants must exercise the failure path");
}

#[test]
fn broken_adder_counterexample_matches_the_interpreter() {
    let good = Spec::parse("spec a { input x: u8; output o = x + 1; }").unwrap();
    let bad = Spec::parse("spec b { input x: u8; output o = x + 2; }").unwrap();
    let compiled = check_equivalence(&good, &bad, 3, 20).unwrap_err();
    assert_eq!(compiled, check_equivalence_interpreted(&good, &bad, 3, 20).unwrap_err());
    match compiled {
        Inequivalence::Counterexample { inputs, output, left, right } => {
            // The all-zeros vector comes first.
            assert_eq!(inputs.get("x"), Some(&Bits::zero(8)));
            assert_eq!(output, "o");
            assert_eq!((left.to_u64(), right.to_u64()), (1, 2));
        }
        other => panic!("expected a counterexample, got {other:?}"),
    }
}

#[test]
fn wrong_fragment_carry_in_fig2_matches_the_interpreter() {
    let beh1 = Spec::parse(
        "spec beh1 { input A: u16; input B: u16; input D: u16; input F: u16;
          C: u16 = A + B; E: u16 = C + D; G: u16 = E + F; output G; }",
    )
    .unwrap();
    // Fig. 2 a) with the carry C0[6] into the second row of A + B lost.
    let beh2 = Spec::parse(
        "spec beh2 { input A: u16; input B: u16; input D: u16; input F: u16;
          C0: u7  = A[5:0] + B[5:0];
          E0: u6  = C0[4:0] + D[4:0];
          G0: u5  = E0[3:0] + F[3:0];
          C1: u7  = A[11:6] + B[11:6];
          E1: u7  = concat(C0[5], C1[4:0]) + D[10:5] + E0[5];
          G1: u7  = concat(E0[4], E1[4:0]) + F[9:4] + G0[4];
          C2: u4  = A[15:12] + B[15:12] + C1[6];
          E2: u5  = concat(C1[5], C2) + D[15:11] + E1[6];
          G2: u6  = concat(E1[5], E2) + F[15:10] + G1[6];
          output G = concat(G0[3:0], G1[5:0], G2);
         }",
    )
    .unwrap();
    let compiled = check_equivalence(&beh1, &beh2, 2005, 300).unwrap_err();
    assert!(matches!(compiled, Inequivalence::Counterexample { .. }), "{compiled:?}");
    assert_eq!(compiled, check_equivalence_interpreted(&beh1, &beh2, 2005, 300).unwrap_err());
}

/// Explicit vectors: the lowest failing vector wins even when it sits in
/// a later block, the first failing output in name order wins within it,
/// and an unbindable vector reports `SimFailed` only if nothing before it
/// failed.
#[test]
fn explicit_vectors_pick_the_first_failure() {
    let left = Spec::parse("spec l { input x: u8; output a = x; output z = x; }").unwrap();
    let right = Spec::parse(
        "spec r { input x: u8;
          a: u8 = x & 254; z: u8 = x & 252;
          output a; output z; }",
    )
    .unwrap();
    let at = |v: u64| {
        let mut iv = InputVector::new();
        iv.set("x", Bits::from_u64(v, 8));
        iv
    };
    let mut vectors: Vec<InputVector> = (0..70).map(|_| at(0)).collect();
    vectors.push(at(2)); // only `z` differs
    vectors.push(at(3)); // both differ
    let compiled = check_equivalence_on(&left, &right, &vectors).unwrap_err();
    assert_eq!(Some(compiled.clone()), interpreted_on(&left, &right, &vectors));
    assert!(compiled.to_string().starts_with("output `z` differs"), "{compiled}");
    vectors.insert(70, at(1)); // now `a` fails first, in name order
    let compiled = check_equivalence_on(&left, &right, &vectors).unwrap_err();
    assert_eq!(Some(compiled.clone()), interpreted_on(&left, &right, &vectors));
    assert!(compiled.to_string().starts_with("output `a` differs"), "{compiled}");

    // An unbound vector after the first failure does not mask it...
    let mut tail = vectors.clone();
    tail.push(InputVector::new());
    assert_eq!(check_equivalence_on(&left, &right, &tail), Err(compiled));
    // ...but one before it is reported as a simulation failure.
    let mut head = vectors;
    head.insert(3, InputVector::new());
    let err = check_equivalence_on(&left, &right, &head).unwrap_err();
    assert_eq!(Some(err.clone()), interpreted_on(&left, &right, &head));
    assert!(matches!(err, Inequivalence::SimFailed(_)), "{err:?}");
}

#[test]
fn vector_counts_across_block_boundaries_match_the_interpreter() {
    let spec = random_spec(5, &RandomSpecOptions::default());
    let kernel = bittrans_kernel::extract(&spec).unwrap();
    let mutant = mutate_carry(&kernel, 1).unwrap();
    for count in [0, 1, 61, 62, 63, 64, 65, 126, 127, 602] {
        for right in [&kernel, &mutant] {
            assert_eq!(
                check_equivalence(&spec, right, 77, count),
                check_equivalence_interpreted(&spec, right, 77, count),
                "{count} vectors"
            );
        }
    }
}
