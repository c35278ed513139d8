//! Compiled, bit-sliced simulation.
//!
//! [`Tape::compile`] lowers a [`Spec`] once into a flat list of gates over
//! *bit slots*. At run time every slot is one `u64` holding that bit for
//! [`LANES`] input vectors at once, so one pass over the tape evaluates 64
//! vectors with word-wide logic operations — the paper's bit-range
//! fragments map one bit per lane with nothing to unpack.
//!
//! Wiring costs nothing at run time: slices, concatenation, zero/sign
//! extension, constant shifts and constants are slot renames (plus the two
//! constant slots, all-zeros and all-ones). Arithmetic lowers to gates:
//! `Add`/`Sub`/`Neg` are ripple full-adder chains, `Mul` is a shift-add
//! array, ordered comparisons read the borrow of a subtraction, `Eq`/`Ne`
//! are XOR-OR folds, `Mux` is a per-bit select and the reductions are
//! folds. Constant operands fold away while the tape is built, and gates
//! that reach no output are dropped afterwards.
//!
//! [`evaluate`](crate::evaluate) stays the single-vector reference; the
//! compiled tape must agree with it bit for bit, on every vector.
//!
//! ```
//! use bittrans_ir::prelude::*;
//! use bittrans_sim::{evaluate, tape::Tape, InputVector};
//!
//! let spec = Spec::parse("spec ex { input A: u8; input B: u8; output C = A + B; }").unwrap();
//! let tape = Tape::compile(&spec);
//! let vectors: Vec<InputVector> = (0..100u64)
//!     .map(|i| {
//!         let mut iv = InputVector::new();
//!         iv.set("A", Bits::from_u64(i * 3, 8));
//!         iv.set("B", Bits::from_u64(i * 7, 8));
//!         iv
//!     })
//!     .collect();
//! let outputs = tape.evaluate(&vectors).unwrap();
//! for (iv, out) in vectors.iter().zip(&outputs) {
//!     assert_eq!(&out["C"], evaluate(&spec, iv).unwrap().output("C").unwrap());
//! }
//! ```

use crate::{bound_input, InputVector, SimError};
use bittrans_ir::prelude::*;
use std::collections::BTreeMap;
use std::ops::Range;

/// Input vectors evaluated by one pass over a tape: one per bit of a slot.
pub const LANES: usize = 64;

/// Index of one bit slot.
type Slot = u32;

/// The slot that is zero in every lane.
const ZERO: Slot = 0;
/// The slot that is one in every lane.
const ONES: Slot = 1;

/// One gate; gate `i` of a tape writes slot `first_gate + i`.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
enum Gate {
    And(Slot, Slot),
    Or(Slot, Slot),
    Xor(Slot, Slot),
    /// `sel ? a : b`.
    Mux(Slot, Slot, Slot),
    /// Full-adder sum: the XOR of three bits.
    Sum(Slot, Slot, Slot),
    /// Full-adder carry: the majority of three bits.
    Carry(Slot, Slot, Slot),
}

impl Gate {
    fn operands(self) -> [Slot; 3] {
        match self {
            Gate::And(a, b) | Gate::Or(a, b) | Gate::Xor(a, b) => [a, b, ZERO],
            Gate::Mux(a, b, c) | Gate::Sum(a, b, c) | Gate::Carry(a, b, c) => [a, b, c],
        }
    }

    fn map(self, f: impl Fn(Slot) -> Slot) -> Gate {
        match self {
            Gate::And(a, b) => Gate::And(f(a), f(b)),
            Gate::Or(a, b) => Gate::Or(f(a), f(b)),
            Gate::Xor(a, b) => Gate::Xor(f(a), f(b)),
            Gate::Mux(s, a, b) => Gate::Mux(f(s), f(a), f(b)),
            Gate::Sum(a, b, c) => Gate::Sum(f(a), f(b), f(c)),
            Gate::Carry(a, b, c) => Gate::Carry(f(a), f(b), f(c)),
        }
    }
}

/// A named port and where its bits live: a slot range for inputs, a range
/// of [`Tape::output_slots`] for outputs.
#[derive(Clone, Debug)]
struct Port {
    name: String,
    bits: Range<usize>,
}

/// A [`Spec`] compiled to a flat, bit-sliced gate tape.
#[derive(Clone, Debug)]
pub struct Tape {
    /// Input ports in declaration order; their slots are contiguous and
    /// start right after the two constant slots.
    inputs: Vec<Port>,
    /// Output ports in name order.
    outputs: Vec<Port>,
    output_slots: Vec<Slot>,
    gates: Vec<Gate>,
    first_gate: usize,
}

impl Tape {
    /// Compiles `spec` into a tape. Every [`OpKind`] is supported at any
    /// width.
    pub fn compile(spec: &Spec) -> Tape {
        // Slot of every bit of every value, one flat table; `at[v]` is
        // where value `v`'s bits start in it.
        let mut bits: Vec<Slot> = Vec::new();
        let mut at = vec![0usize; spec.values().len()];
        let mut inputs = Vec::with_capacity(spec.inputs().len());
        let mut next = 2usize;
        for &input in spec.inputs() {
            let width = spec.value(input).width() as usize;
            at[input.index()] = bits.len();
            bits.extend((next..next + width).map(|s| s as Slot));
            inputs
                .push(Port { name: spec.input_name(input).to_string(), bits: next..next + width });
            next += width;
        }
        let mut b = Builder { gates: Vec::new(), first_gate: next };
        for op in spec.ops() {
            let args: Vec<Vec<Slot>> =
                op.operands().iter().map(|o| operand_slots(spec, o, &bits, &at)).collect();
            let out = b.lower(op, &args);
            debug_assert_eq!(out.len(), op.width() as usize);
            at[op.result().index()] = bits.len();
            bits.extend(out);
        }
        let mut ports: Vec<&OutputPort> = spec.outputs().iter().collect();
        ports.sort_by(|x, y| x.name().cmp(y.name()));
        let mut outputs = Vec::with_capacity(ports.len());
        let mut output_slots = Vec::new();
        for port in ports {
            let slots = operand_slots(spec, port.operand(), &bits, &at);
            let start = output_slots.len();
            output_slots.extend(slots);
            outputs.push(Port { name: port.name().to_string(), bits: start..output_slots.len() });
        }
        let mut tape = Tape { inputs, outputs, output_slots, gates: b.gates, first_gate: next };
        tape.drop_dead_gates();
        tape
    }

    /// Evaluates every vector, [`LANES`] at a time, and returns each
    /// vector's outputs — the same values [`evaluate`](crate::evaluate)
    /// computes, by name.
    ///
    /// # Errors
    ///
    /// The first vector's [`SimError`] that [`evaluate`](crate::evaluate)
    /// would reject (an unbound input or one bound at the wrong width).
    pub fn evaluate(
        &self,
        vectors: &[InputVector],
    ) -> Result<Vec<BTreeMap<String, Bits>>, SimError> {
        let mut slots = self.new_slots();
        let mut results = Vec::with_capacity(vectors.len());
        for block in vectors.chunks(LANES) {
            self.clear_inputs(&mut slots);
            for (lane, iv) in block.iter().enumerate() {
                self.load(&mut slots, lane, iv)?;
            }
            self.run(&mut slots);
            for lane in 0..block.len() {
                results.push(
                    (0..self.outputs.len())
                        .map(|o| (self.outputs[o].name.clone(), self.output_bits(&slots, o, lane)))
                        .collect(),
                );
            }
        }
        Ok(results)
    }

    /// A zeroed working set for [`run`](Self::run): every slot, with the
    /// constant slots initialised.
    pub(crate) fn new_slots(&self) -> Vec<u64> {
        let mut slots = vec![0u64; self.first_gate + self.gates.len()];
        slots[ONES as usize] = !0;
        slots
    }

    /// The input slots, in port declaration order.
    pub(crate) fn input_slots(&self) -> Range<usize> {
        2..self.first_gate
    }

    /// Clears every input lane.
    pub(crate) fn clear_inputs(&self, slots: &mut [u64]) {
        slots[self.input_slots()].fill(0);
    }

    /// Input ports as `(name, slots)`, in declaration order.
    pub(crate) fn input_ports(&self) -> impl Iterator<Item = (&str, Range<usize>)> {
        self.inputs.iter().map(|p| (p.name.as_str(), p.bits.clone()))
    }

    /// Writes `iv` into `lane`, validating it the way
    /// [`evaluate`](crate::evaluate) does.
    pub(crate) fn load(
        &self,
        slots: &mut [u64],
        lane: usize,
        iv: &InputVector,
    ) -> Result<(), SimError> {
        for port in &self.inputs {
            let value = bound_input(iv, &port.name, port.bits.len() as u32)?;
            for (slot, bit) in port.bits.clone().zip(value.iter()) {
                slots[slot] |= u64::from(bit) << lane;
            }
        }
        Ok(())
    }

    /// Evaluates every gate over the loaded input lanes.
    pub(crate) fn run(&self, slots: &mut [u64]) {
        for (dst, gate) in (self.first_gate..).zip(&self.gates) {
            let s = |x: Slot| slots[x as usize];
            slots[dst] = match *gate {
                Gate::And(a, b) => s(a) & s(b),
                Gate::Or(a, b) => s(a) | s(b),
                Gate::Xor(a, b) => s(a) ^ s(b),
                Gate::Mux(sel, a, b) => {
                    let m = s(sel);
                    (m & s(a)) | (!m & s(b))
                }
                Gate::Sum(a, b, c) => s(a) ^ s(b) ^ s(c),
                Gate::Carry(a, b, c) => {
                    let (a, b, c) = (s(a), s(b), s(c));
                    (a & b) | (c & (a ^ b))
                }
            };
        }
    }

    /// Number of output ports.
    pub(crate) fn output_count(&self) -> usize {
        self.outputs.len()
    }

    /// The port index of output `name`.
    pub(crate) fn output_index(&self, name: &str) -> Option<usize> {
        self.outputs.binary_search_by(|p| p.name.as_str().cmp(name)).ok()
    }

    /// Output `index`'s name.
    pub(crate) fn output_name(&self, index: usize) -> &str {
        &self.outputs[index].name
    }

    /// The lane words of output `index`, least-significant bit first.
    pub(crate) fn output_words<'a>(
        &'a self,
        slots: &'a [u64],
        index: usize,
    ) -> impl Iterator<Item = u64> + 'a {
        self.output_slots[self.outputs[index].bits.clone()].iter().map(move |&s| slots[s as usize])
    }

    /// Output `index` of one lane, as the value [`evaluate`](crate::evaluate)
    /// reports.
    pub(crate) fn output_bits(&self, slots: &[u64], index: usize, lane: usize) -> Bits {
        let words: Vec<bool> =
            self.output_words(slots, index).map(|w| w >> lane & 1 == 1).collect();
        Bits::from_bools(&words)
    }

    /// Removes gates no output depends on and renumbers the survivors
    /// densely, in order, so live slots sit next to each other.
    fn drop_dead_gates(&mut self) {
        let first = self.first_gate;
        let mut live = vec![false; self.gates.len()];
        for &s in &self.output_slots {
            if s as usize >= first {
                live[s as usize - first] = true;
            }
        }
        for i in (0..self.gates.len()).rev() {
            if live[i] {
                for s in self.gates[i].operands() {
                    if s as usize >= first {
                        live[s as usize - first] = true;
                    }
                }
            }
        }
        let mut renumber = vec![0 as Slot; self.gates.len()];
        let mut kept = Vec::with_capacity(live.iter().filter(|&&l| l).count());
        let remap = |renumber: &[Slot], s: Slot| {
            if (s as usize) < first {
                s
            } else {
                renumber[s as usize - first]
            }
        };
        for (i, gate) in self.gates.iter().enumerate() {
            if live[i] {
                renumber[i] = (first + kept.len()) as Slot;
                kept.push(gate.map(|s| remap(&renumber, s)));
            }
        }
        for s in &mut self.output_slots {
            *s = remap(&renumber, *s);
        }
        self.gates = kept;
    }
}

/// The slots of an operand's bits, least-significant first.
fn operand_slots(spec: &Spec, operand: &Operand, bits: &[Slot], at: &[usize]) -> Vec<Slot> {
    match operand {
        Operand::Value { value, range } => {
            let start = at[value.index()];
            let (lo, width) = match range {
                Some(r) => (r.lo() as usize, r.width() as usize),
                None => (0, spec.value(*value).width() as usize),
            };
            bits[start + lo..start + lo + width].to_vec()
        }
        Operand::Const(c) => c.iter().map(|bit| if bit { ONES } else { ZERO }).collect(),
    }
}

/// Emits gates, folding constants and trivial identities on the way.
struct Builder {
    gates: Vec<Gate>,
    first_gate: usize,
}

impl Builder {
    fn push(&mut self, gate: Gate) -> Slot {
        self.gates.push(gate);
        (self.first_gate + self.gates.len() - 1) as Slot
    }

    fn gate(&self, s: Slot) -> Option<Gate> {
        (s as usize).checked_sub(self.first_gate).map(|i| self.gates[i])
    }

    fn and(&mut self, a: Slot, b: Slot) -> Slot {
        match (a, b) {
            (ZERO, _) | (_, ZERO) => ZERO,
            (ONES, x) | (x, ONES) => x,
            _ if a == b => a,
            _ => self.push(Gate::And(a, b)),
        }
    }

    fn or(&mut self, a: Slot, b: Slot) -> Slot {
        match (a, b) {
            (ONES, _) | (_, ONES) => ONES,
            (ZERO, x) | (x, ZERO) => x,
            _ if a == b => a,
            _ => self.push(Gate::Or(a, b)),
        }
    }

    fn xor(&mut self, a: Slot, b: Slot) -> Slot {
        match (a, b) {
            (ZERO, x) | (x, ZERO) => x,
            _ if a == b => ZERO,
            (ONES, x) | (x, ONES) => match self.gate(x) {
                // Double negation.
                Some(Gate::Xor(y, ONES)) => y,
                _ => self.push(Gate::Xor(x, ONES)),
            },
            _ => self.push(Gate::Xor(a, b)),
        }
    }

    fn not(&mut self, a: Slot) -> Slot {
        self.xor(a, ONES)
    }

    fn mux(&mut self, sel: Slot, a: Slot, b: Slot) -> Slot {
        match sel {
            ONES => a,
            ZERO => b,
            _ if a == b => a,
            _ => self.push(Gate::Mux(sel, a, b)),
        }
    }

    fn sum(&mut self, a: Slot, b: Slot, c: Slot) -> Slot {
        if a == ZERO {
            self.xor(b, c)
        } else if b == ZERO {
            self.xor(a, c)
        } else if c == ZERO {
            self.xor(a, b)
        } else if a == b {
            c
        } else if a == c {
            b
        } else if b == c {
            a
        } else {
            self.push(Gate::Sum(a, b, c))
        }
    }

    fn carry(&mut self, a: Slot, b: Slot, c: Slot) -> Slot {
        if a == b || a == c {
            return a;
        }
        if b == c {
            return b;
        }
        for (x, y, z) in [(a, b, c), (b, a, c), (c, a, b)] {
            match x {
                ZERO => return self.and(y, z),
                ONES => return self.or(y, z),
                _ => {}
            }
        }
        self.push(Gate::Carry(a, b, c))
    }

    /// `a + b + cin` over `a.len()` bits (`b` has the same length); the
    /// sum bits and the carry out.
    fn add(&mut self, a: &[Slot], b: &[Slot], cin: Slot) -> (Vec<Slot>, Slot) {
        let mut carry = cin;
        let mut out = Vec::with_capacity(a.len());
        for (&x, &y) in a.iter().zip(b) {
            out.push(self.sum(x, y, carry));
            carry = self.carry(x, y, carry);
        }
        (out, carry)
    }

    fn not_all(&mut self, a: &[Slot]) -> Vec<Slot> {
        a.iter().map(|&x| self.not(x)).collect()
    }

    /// `a >= b` as unsigned numbers of equal length: the carry out of
    /// `a + !b + 1`, i.e. "no borrow".
    fn ge_unsigned(&mut self, a: &[Slot], b: &[Slot]) -> Slot {
        let mut carry = ONES;
        for (&x, &y) in a.iter().zip(b) {
            let ny = self.not(y);
            carry = self.carry(x, ny, carry);
        }
        carry
    }

    /// `a >= b` per `signed`, operands extended to a common width.
    fn ge(&mut self, a: &[Slot], b: &[Slot], signed: bool) -> Slot {
        let w = a.len().max(b.len());
        let mut a = ext(a, w, signed);
        let mut b = ext(b, w, signed);
        if signed && w > 0 {
            // Offset binary: flipping both sign bits turns a signed
            // comparison into an unsigned one.
            a[w - 1] = self.not(a[w - 1]);
            b[w - 1] = self.not(b[w - 1]);
        }
        self.ge_unsigned(&a, &b)
    }

    /// OR of `a[i] ^ b[i]` over the operands extended to a common width.
    fn differs(&mut self, a: &[Slot], b: &[Slot], signed: bool) -> Slot {
        let w = a.len().max(b.len());
        let (a, b) = (ext(a, w, signed), ext(b, w, signed));
        let mut acc = ZERO;
        for (&x, &y) in a.iter().zip(&b) {
            let d = self.xor(x, y);
            acc = self.or(acc, d);
        }
        acc
    }

    /// Lowers one operation to the slots of its `op.width()` result bits.
    fn lower(&mut self, op: &Operation, args: &[Vec<Slot>]) -> Vec<Slot> {
        let w = op.width() as usize;
        let signed = op.signedness().is_signed();
        let arg = |i: usize| ext(&args[i], w, signed);
        let flag = |bit: Slot| {
            let mut out = vec![ZERO; w];
            out[0] = bit;
            out
        };
        match op.kind() {
            OpKind::Add => {
                let cin = args.get(2).map_or(ZERO, |c| c[0]);
                self.add(&arg(0), &arg(1), cin).0
            }
            OpKind::Sub => {
                let nb = self.not_all(&arg(1));
                self.add(&arg(0), &nb, ONES).0
            }
            OpKind::Neg => {
                let na = self.not_all(&arg(0));
                self.add(&vec![ZERO; w], &na, ONES).0
            }
            OpKind::Mul => {
                let (a, b) = (arg(0), arg(1));
                let mut acc = vec![ZERO; w];
                for (i, &bi) in b.iter().enumerate() {
                    if bi == ZERO {
                        continue;
                    }
                    let row: Vec<Slot> = a[..w - i].iter().map(|&aj| self.and(aj, bi)).collect();
                    let (sum, _) = self.add(&acc[i..], &row, ZERO);
                    acc[i..].copy_from_slice(&sum);
                }
                acc
            }
            OpKind::Abs => {
                // |a| = (a ^ s) + s with s the sign bit, at the operand's
                // width, then zero-extended.
                let a = &args[0];
                let sign = a.last().copied().unwrap_or(ZERO);
                let mut carry = sign;
                let mut out = vec![ZERO; w];
                for (o, &x) in out.iter_mut().zip(a) {
                    let flipped = self.xor(x, sign);
                    *o = self.xor(flipped, carry);
                    carry = self.and(flipped, carry);
                }
                out
            }
            OpKind::Lt => {
                let ge = self.ge(&args[0], &args[1], signed);
                flag(self.not(ge))
            }
            OpKind::Le => flag(self.ge(&args[1], &args[0], signed)),
            OpKind::Gt => {
                let le = self.ge(&args[1], &args[0], signed);
                flag(self.not(le))
            }
            OpKind::Ge => flag(self.ge(&args[0], &args[1], signed)),
            OpKind::Eq => {
                let d = self.differs(&args[0], &args[1], signed);
                flag(self.not(d))
            }
            OpKind::Ne => flag(self.differs(&args[0], &args[1], signed)),
            OpKind::Max | OpKind::Min => {
                let pick_a = if op.kind() == OpKind::Max {
                    self.ge(&args[0], &args[1], signed)
                } else {
                    self.ge(&args[1], &args[0], signed)
                };
                let (a, b) = (arg(0), arg(1));
                a.iter().zip(&b).map(|(&x, &y)| self.mux(pick_a, x, y)).collect()
            }
            OpKind::Shl(k) => {
                let a = arg(0);
                let k = (k as usize).min(w);
                let mut out = vec![ZERO; k];
                out.extend_from_slice(&a[..w - k]);
                out
            }
            OpKind::Shr(k) => {
                let a = arg(0);
                let k = (k as usize).min(w);
                let fill = if signed { a[w - 1] } else { ZERO };
                let mut out = a[k..].to_vec();
                out.resize(w, fill);
                out
            }
            OpKind::Not => self.not_all(&arg(0)),
            OpKind::And | OpKind::Or | OpKind::Xor => {
                let (a, b) = (arg(0), arg(1));
                a.iter()
                    .zip(&b)
                    .map(|(&x, &y)| match op.kind() {
                        OpKind::And => self.and(x, y),
                        OpKind::Or => self.or(x, y),
                        _ => self.xor(x, y),
                    })
                    .collect()
            }
            OpKind::Mux => {
                let sel = args[0][0];
                let (a, b) = (arg(1), arg(2));
                a.iter().zip(&b).map(|(&x, &y)| self.mux(sel, x, y)).collect()
            }
            OpKind::RedOr => {
                let bit = args[0].iter().fold(ZERO, |acc, &x| self.or(acc, x));
                flag(bit)
            }
            OpKind::RedAnd => {
                let bit = args[0].iter().fold(ONES, |acc, &x| self.and(acc, x));
                flag(bit)
            }
            OpKind::Concat => ext(&args.concat(), w, false),
        }
    }
}

/// Zero- or sign-extends (or truncates) `bits` to `width`: a rename.
fn ext(bits: &[Slot], width: usize, signed: bool) -> Vec<Slot> {
    let fill = match bits.last() {
        Some(&top) if signed => top,
        _ => ZERO,
    };
    let mut out: Vec<Slot> = bits.iter().copied().take(width).collect();
    out.resize(width, fill);
    out
}
