//! Differential + statistical proof of the fast-seeds (v2) schema.
//!
//! The counter-based v2 generator replaces the per-report `StdRng` draw
//! on zero partial sums with a pure function of `(client key, report
//! index)`. Two things must hold for it to be a sound drop-in:
//!
//! 1. **Determinism across execution paths** — sequential ≡
//!    parallel{1,2,8} ≡ live (with kills and mid-period restarts),
//!    honest and under a fault storm:
//!    [`assert_schema_agreement`] runs the whole matrix under an
//!    explicit [`SeedSchema::V2Fast`], pinning the packed word-at-a-time
//!    path against the scalar per-report path.
//! 2. **The statistics survive** — the estimator stays unbiased and its
//!    empirical variance matches `rtf_analysis`'s closed form to the
//!    same tolerances the v1 schema is held to. Per-bit uniformity of
//!    the raw generator is pinned in `rtf_primitives::fastseed`; here we
//!    check the end-to-end estimator.

use proptest::prelude::*;
use rtf_analysis::variance::predicted_variance;
use rtf_core::params::ProtocolParams;
use rtf_core::protocol::run_in_memory_schema;
use rtf_primitives::fastseed::SeedSchema;
use rtf_primitives::seeding::SeedSequence;
use rtf_scenarios::oracle::{assert_schema_agreement, tolerance_band};
use rtf_scenarios::Scenario;
use rtf_streams::generator::UniformChanges;
use rtf_streams::population::Population;

fn setup(n: usize, d: u64, k: usize, seed: u64) -> (ProtocolParams, Population) {
    let params = ProtocolParams::new(n, d, k, 1.0, 0.05).unwrap();
    let mut rng = SeedSequence::new(seed).rng();
    let pop = Population::generate(&UniformChanges::new(d, k, 0.8), n, &mut rng);
    (params, pop)
}

fn storm() -> Scenario {
    Scenario::honest()
        .with_dropout(0.05)
        .with_stragglers(0.1, 3)
        .with_duplicates(0.05)
        .with_byzantine(0.1)
}

#[test]
fn fast_schema_agrees_across_all_paths_honest() {
    let (params, pop) = setup(110, 16, 2, 200);
    assert_schema_agreement(&params, &pop, 61, &Scenario::honest(), SeedSchema::V2Fast);
}

#[test]
fn fast_schema_agrees_across_all_paths_under_a_fault_storm() {
    let (params, pop) = setup(110, 16, 2, 201);
    assert_schema_agreement(&params, &pop, 62, &storm(), SeedSchema::V2Fast);
}

#[test]
fn v1_schema_still_agrees_through_the_same_oracle() {
    // The oracle itself must not be v2-only: the explicit-schema matrix
    // holds for the default schema too.
    let (params, pop) = setup(110, 16, 2, 202);
    assert_schema_agreement(&params, &pop, 63, &storm(), SeedSchema::V1Std);
}

#[test]
fn fast_schema_estimator_is_unbiased_within_variance() {
    // Repeated independent deployments (fresh seed ⇒ fresh client keys ⇒
    // fresh counter streams): the per-period mean error must sit inside a
    // z-band of the standard error, and the empirical variance must match
    // the closed form — the same tolerances the aggregate-vs-exact
    // distributional oracle holds the v1 schema to.
    let (params, pop) = setup(250, 16, 3, 203);
    let trials = 250u64;
    let d = params.d() as usize;
    let truth = pop.true_counts();
    let (mut sum, mut sq) = (vec![0.0f64; d], vec![0.0f64; d]);
    for s in 0..trials {
        let out = run_in_memory_schema(&params, &pop, 5_000 + s, SeedSchema::V2Fast);
        for (t, &e) in out.estimates().iter().enumerate() {
            sum[t] += e;
            sq[t] += e * e;
        }
    }
    let predicted = predicted_variance(&params, &pop);
    let n = trials as f64;
    for t in 0..d {
        let mean = sum[t] / n;
        let var = (sq[t] / n - mean * mean).max(0.0);
        let se = (var / n).sqrt().max(1e-12);
        let z = (mean - truth[t]).abs() / se;
        assert!(z <= 6.0, "period {}: mean error z-score {z}", t + 1);
        let rel = (var - predicted[t]).abs() / predicted[t];
        assert!(
            rel <= 0.35,
            "period {}: empirical variance {var} off the closed form {} by {rel}",
            t + 1,
            predicted[t]
        );
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(8))]

    /// Random protocol shapes: a single honest fast-schema deployment
    /// stays inside the closed-form tolerance band around the truth —
    /// the same envelope the v1 schema is pinned to.
    #[test]
    fn fast_schema_runs_sit_inside_the_variance_band(
        n in 300usize..600,
        log_d in 3u32..=5,
        k in 1usize..=3,
        seed in 0u64..10_000,
    ) {
        let d = 1u64 << log_d;
        let params = ProtocolParams::new(n, d, k, 1.0, 0.05).unwrap();
        let mut rng = SeedSequence::new(seed).rng();
        let pop = Population::generate(&UniformChanges::new(d, k, 0.8), n, &mut rng);
        let out = run_in_memory_schema(&params, &pop, seed ^ 0xFA57, SeedSchema::V2Fast);
        let band = tolerance_band(&params, &pop, 5.5);
        let truth = pop.true_counts();
        for (t, ((e, a), b)) in out.estimates().iter().zip(truth).zip(&band).enumerate() {
            prop_assert!(
                (e - a).abs() <= *b,
                "period {}: |{} - {}| > {}", t + 1, e, a, b
            );
        }
    }
}
