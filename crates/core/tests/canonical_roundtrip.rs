//! Cross-crate property test of the canonical artifact codec: over
//! randomly generated specifications, `from_canonical ∘ to_canonical`
//! is the identity for every staged-pipeline artifact, and a pipeline
//! stage fed a *decoded* artifact produces byte-identical results to one
//! fed the freshly computed original. That byte-identity is the
//! invariant the engine's disk-backed stage cache rests on: a stage
//! resumed from disk must be indistinguishable from one recomputed.

use bittrans_benchmarks::{random_spec, RandomSpecOptions};
use bittrans_core::{
    compare, stage_allocate, stage_extract, stage_fragment, stage_schedule_conventional,
    stage_schedule_fragments, stage_time, Chaining, CompareOptions, Comparison, Datapath,
    Fragmented, Implementation, Schedule,
};
use bittrans_ir::Spec;
use proptest::prelude::*;

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    #[test]
    fn staged_artifacts_round_trip(
        seed in 0u64..1_000_000,
        ops in 3usize..14,
        inputs in 2usize..6,
        latency in 2u32..5,
    ) {
        let spec = random_spec(
            seed,
            &RandomSpecOptions { ops, inputs, ..RandomSpecOptions::default() },
        );

        // Spec: decoded value equal, encoded text a fixpoint.
        let text = spec.to_canonical();
        let decoded = Spec::from_canonical(&text).expect("canonical spec parses");
        prop_assert_eq!(&decoded, &spec);
        prop_assert_eq!(decoded.to_canonical(), text);

        // The extraction stage's output is a spec too.
        let kernel = stage_extract(&spec).expect("extraction succeeds");
        let ktext = kernel.to_canonical();
        let kdec = Spec::from_canonical(&ktext).expect("canonical kernel parses");
        prop_assert_eq!(&kdec, &kernel);

        // Conventional-path artifacts, when λ is feasible.
        let conventional = stage_schedule_conventional(&spec, latency, Chaining::ComponentSum, true);
        if let Ok(sched) = conventional {
            let stext = sched.to_canonical();
            let sdec = Schedule::from_canonical(&stext).expect("canonical schedule parses");
            prop_assert_eq!(&sdec, &sched);

            // Datapath: re-encode fixpoint, then the timing stage fed the
            // decoded schedule+datapath must yield a byte-identical
            // implementation to one fed the originals.
            let options = CompareOptions::default();
            let dp = stage_allocate(&spec, &sched, options.adder_arch);
            let dtext = dp.to_canonical();
            let ddec = Datapath::from_canonical(&dtext).expect("canonical datapath parses");
            prop_assert_eq!(ddec.to_canonical(), dtext);
            let fresh = stage_time("prop", &spec, &sched, &dp, &options.timing);
            let reheated = stage_time("prop", &spec, &sdec, &ddec, &options.timing);
            prop_assert_eq!(reheated.to_canonical(), fresh.to_canonical());

            let itext = fresh.to_canonical();
            let idec =
                Implementation::from_canonical(&itext).expect("canonical implementation parses");
            prop_assert_eq!(idec.to_canonical(), itext);
        }

        // Fragment-path artifacts, when λ is feasible for the kernel.
        if let Ok(frag) = stage_fragment(&kernel, latency) {
            let ftext = frag.to_canonical();
            let fdec = Fragmented::from_canonical(&ftext).expect("canonical fragmented parses");
            prop_assert_eq!(fdec.to_canonical(), ftext.clone());
            // The fragment scheduler fed the decoded artifact agrees with
            // one fed the original, down to the encoded bytes.
            match (stage_schedule_fragments(&frag, true), stage_schedule_fragments(&fdec, true)) {
                (Ok(a), Ok(b)) => {
                    prop_assert_eq!(a.to_canonical(), b.to_canonical());
                    prop_assert_eq!(&a, &b);
                }
                (Err(_), Err(_)) => {}
                (a, b) => prop_assert!(
                    false,
                    "feasibility disagrees between fresh and decoded: {:?} vs {:?}",
                    a.is_ok(),
                    b.is_ok()
                ),
            }
        }
    }

    #[test]
    fn comparisons_round_trip(
        seed in 0u64..1_000_000,
        ops in 3usize..14,
        inputs in 2usize..6,
        latency in 2u32..6,
        balance in any::<bool>(),
    ) {
        let spec = random_spec(
            seed,
            &RandomSpecOptions { ops, inputs, ..RandomSpecOptions::default() },
        );
        let options = CompareOptions { balance, verify_vectors: 0, ..CompareOptions::default() };
        // The engine persists a finished job as this document: decoding
        // it must give back a comparison that serializes byte-identically.
        if let Ok(cmp) = compare(&spec, latency, &options) {
            let text = cmp.to_canonical();
            let back = Comparison::from_canonical(&text).expect("canonical comparison parses");
            prop_assert_eq!(back.to_canonical(), text);
            prop_assert_eq!(
                serde_json::to_string(&back).unwrap(),
                serde_json::to_string(&cmp).unwrap()
            );
        }
    }
}

#[test]
fn chaining_round_trips_through_its_codec() {
    for mode in [Chaining::Disabled, Chaining::ComponentSum, Chaining::BitLevel] {
        let text = mode.to_canonical();
        assert_eq!(Chaining::from_canonical(&text).expect("chaining parses"), mode);
    }
}
