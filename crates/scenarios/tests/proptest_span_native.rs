//! Batched fault-layer value-identity property tests.
//!
//! The batched scenario engine walks each client once, user by user:
//! it writes the client's whole report sequence as packed words,
//! classifies its whole fault horizon into an on-time span mask, folds
//! the honest on-time reports arithmetically, and replays only the
//! faulted residue through the floor-checked ingestion ladder. The sequential engine routes every
//! report individually. These properties pin the two against each other
//! over random protocol shapes × fault storms × worker counts × both
//! seed schemas — on every observable field **and** on the residual
//! fault-RNG digest, which proves the pre-walk consumed each client's
//! private fault stream draw-for-draw (outcome equality alone cannot
//! distinguish "same draws" from "different draws that happened to
//! cancel").

use proptest::prelude::*;
use rtf_core::params::ProtocolParams;
use rtf_primitives::fastseed::SeedSchema;
use rtf_primitives::seeding::SeedSequence;
use rtf_runtime::ExecMode;
use rtf_scenarios::config::{DelayLaw, FaultTimeline, Scenario};
use rtf_scenarios::run_scenario_timeline_digest;
use rtf_streams::generator::UniformChanges;
use rtf_streams::population::Population;

/// Runs `timeline` sequentially and batched on workers {1, 2, 8} under
/// both seed schemas, and asserts the batched runs equal the sequential
/// reference on estimates, delivery log, wire stats, fault counts, group
/// sizes, per-period Byzantine acceptance and the residual fault-stream
/// digest.
fn assert_batched_matches_sequential(
    params: &ProtocolParams,
    pop: &Population,
    seed: u64,
    timeline: &FaultTimeline,
) {
    for schema in [SeedSchema::V1Std, SeedSchema::V2Fast] {
        let (seq, digest_seq) =
            run_scenario_timeline_digest(params, pop, seed, timeline, ExecMode::Sequential, schema);
        for w in [1usize, 2, 8] {
            let (par, digest) = run_scenario_timeline_digest(
                params,
                pop,
                seed,
                timeline,
                ExecMode::Parallel(w),
                schema,
            );
            prop_assert_eq!(
                (
                    (&par.estimates, &par.delivery, &par.wire, &par.faults),
                    (&par.group_sizes, &par.byzantine_accepted_by_period, digest),
                ),
                (
                    (&seq.estimates, &seq.delivery, &seq.wire, &seq.faults),
                    (
                        &seq.group_sizes,
                        &seq.byzantine_accepted_by_period,
                        digest_seq
                    ),
                ),
                "{:?} parallel({}): estimates, delivery, wire, faults; groups, \
                 Byzantine acceptance, residual fault-stream digest",
                schema,
                w
            );
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(8))]

    /// Random `(n, d, k, ε)` × random fault storm (dropout, churn,
    /// stragglers, duplicates, Byzantine spam, in-flight corruption) ×
    /// workers {1, 2, 8} × both seed schemas: the batched path equals
    /// the sequential reference on estimates, delivery log, wire stats,
    /// fault counts, per-period Byzantine acceptance — and leaves every
    /// client's fault stream at the identical residual position.
    #[test]
    fn span_native_path_is_value_identical_to_sequential(
        n in 60usize..160,
        log_d in 3u32..=5,
        k in 1usize..=3,
        epsilon in 0.3f64..=1.0,
        drop in 0.0f64..=0.2,
        churn in 0.0f64..=0.05,
        straggle in 0.0f64..=0.4,
        dup in 0.0f64..=0.3,
        byz in 0.0f64..=0.25,
        malformed in 0.0f64..=0.2,
        seed in 0u64..10_000,
    ) {
        let d = 1u64 << log_d;
        let params = ProtocolParams::new(n, d, k, epsilon, 0.05).unwrap();
        let mut rng = SeedSequence::new(seed).rng();
        let pop = Population::generate(&UniformChanges::new(d, k, 0.8), n, &mut rng);
        let scenario = Scenario::honest()
            .with_dropout(drop)
            .with_churn(churn)
            .with_stragglers(straggle, 3)
            .with_duplicates(dup)
            .with_byzantine(byz)
            .with_malformed(malformed);
        assert_batched_matches_sequential(
            &params,
            &pop,
            seed ^ 0x5BA7,
            &FaultTimeline::constant(scenario),
        );
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// Multi-word horizons: at `d ∈ {64, 128, 256}` an order-0 client's
    /// reports and on-time mask fill one to four words, stragglers up to
    /// `max_delay` periods late (one more with a retransmit) fill every
    /// lag bucket of the residue merge, and impersonations of churned or
    /// Byzantine users scan their planned floors across word boundaries.
    /// Both delay laws; the same sequential identity as above. Byzantine
    /// and retransmission rates stay high enough that accepted
    /// impersonations regularly share a period's mailbox with
    /// retransmitted copies of the same user's report, so the mailbox's
    /// cross-lag order decides verdicts.
    #[test]
    fn multi_word_horizons_are_value_identical_to_sequential(
        n in 100usize..300,
        log_d in 6u32..=8,
        k in 1usize..=3,
        drop in 0.0f64..=0.2,
        churn in 0.0f64..=0.02,
        straggle in 0.05f64..=0.4,
        max_delay in 1u64..=6,
        zipf in prop::bool::ANY,
        dup in 0.1f64..=0.5,
        byz in 0.1f64..=0.4,
        malformed in 0.0f64..=0.1,
        seed in 0u64..10_000,
    ) {
        let d = 1u64 << log_d;
        let params = ProtocolParams::new(n, d, k, 1.0, 0.05).unwrap();
        let mut rng = SeedSequence::new(seed).rng();
        let pop = Population::generate(&UniformChanges::new(d, k, 0.8), n, &mut rng);
        let scenario = Scenario::honest()
            .with_dropout(drop)
            .with_churn(churn)
            .with_stragglers(straggle, max_delay)
            .with_duplicates(dup)
            .with_byzantine(byz)
            .with_malformed(malformed);
        let law = if zipf {
            DelayLaw::Zipf { alpha: 1.1 }
        } else {
            DelayLaw::Uniform
        };
        let timeline = FaultTimeline::constant(scenario).with_delay_law(law);
        assert_batched_matches_sequential(&params, &pop, seed ^ 0x3C0D, &timeline);
    }
}
