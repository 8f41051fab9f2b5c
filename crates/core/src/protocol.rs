//! An in-memory end-to-end driver for the full protocol.
//!
//! Wires `n` [`Client`]s (Algorithm 1) to one [`Server`] (Algorithm 2) over
//! direct function calls, preserving the online schedule: at each period
//! `t` every client whose order divides `t` reports, then the server
//! closes the period and emits `â[t]`. The message-level (serialised,
//! byte-counted) version of the same loop lives in `rtf-sim`; this one is
//! the fast path used by tests and error-measurement experiments.
//!
//! Determinism: all randomness derives from a single `seed` via
//! `SeedSequence` — `trial → user` for client randomness — so outcomes are
//! reproducible across runs and thread counts.

use crate::client::Client;
use crate::composed::ComposedRandomizer;
use crate::params::ProtocolParams;
use crate::randomizer::FutureRand;
use crate::server::Server;
use rtf_primitives::fastseed::{self, SeedSchema};
use rtf_primitives::seeding::SeedSequence;
use rtf_streams::population::Population;

/// The result of one end-to-end protocol execution.
#[derive(Debug, Clone)]
pub struct ProtocolOutcome {
    estimates: Vec<f64>,
    group_sizes: Vec<usize>,
    reports_sent: u64,
}

impl ProtocolOutcome {
    /// Assembles an outcome from its parts — used by the baseline
    /// protocols in `rtf-baselines`, which share this result type.
    pub fn from_parts(estimates: Vec<f64>, group_sizes: Vec<usize>, reports_sent: u64) -> Self {
        ProtocolOutcome {
            estimates,
            group_sizes,
            reports_sent,
        }
    }

    /// The online estimates `â[t]` (`estimates()[t−1] = â[t]`).
    pub fn estimates(&self) -> &[f64] {
        &self.estimates
    }

    /// `|U_h|` per order — how the population split across the hierarchy.
    pub fn group_sizes(&self) -> &[usize] {
        &self.group_sizes
    }

    /// Total report bits sent by all clients over the whole horizon.
    pub fn reports_sent(&self) -> u64 {
        self.reports_sent
    }
}

/// Runs the full FutureRand protocol in memory over a concrete population.
///
/// # Panics
/// Panics if the population does not match `params` (`n`, `d`) or violates
/// the `k`-sparsity bound.
pub fn run_in_memory(
    params: &ProtocolParams,
    population: &Population,
    seed: u64,
) -> ProtocolOutcome {
    run_in_memory_impl(params, population, seed, false, SeedSchema::from_env()).0
}

/// [`run_in_memory`] under an explicit client randomness schema
/// (instead of `RTF_SEED_SCHEMA`).
pub fn run_in_memory_schema(
    params: &ProtocolParams,
    population: &Population,
    seed: u64,
    schema: SeedSchema,
) -> ProtocolOutcome {
    run_in_memory_impl(params, population, seed, false, schema).0
}

/// Like [`run_in_memory`], but additionally retains the full tree of
/// interval estimates so the caller can answer window-change queries
/// (pure post-processing — no extra privacy cost).
pub fn run_in_memory_with_store(
    params: &ProtocolParams,
    population: &Population,
    seed: u64,
) -> (ProtocolOutcome, crate::queries::EstimateStore) {
    let (outcome, store) =
        run_in_memory_impl(params, population, seed, true, SeedSchema::from_env());
    (outcome, store.expect("store was requested"))
}

fn run_in_memory_impl(
    params: &ProtocolParams,
    population: &Population,
    seed: u64,
    with_store: bool,
    schema: SeedSchema,
) -> (ProtocolOutcome, Option<crate::queries::EstimateStore>) {
    assert_eq!(
        population.n(),
        params.n(),
        "population has {} users, params say {}",
        population.n(),
        params.n()
    );
    assert_eq!(
        population.d(),
        params.d(),
        "population horizon {} ≠ params d = {}",
        population.d(),
        params.d()
    );
    population.assert_k_sparse(params.k());

    // Shared composed-randomizer tables, one per order (k_eff varies).
    let composed: Vec<ComposedRandomizer> = (0..params.num_orders())
        .map(|h| ComposedRandomizer::for_protocol(params.k_for_order(h), params.epsilon()))
        .collect();

    let mut server =
        Server::for_future_rand_schema(*params, crate::accumulator::AccumulatorKind::Dense, schema);
    if with_store {
        server.enable_store();
    }
    let root = SeedSequence::new(seed);

    // Per-user state: client machine + RNG, grouped by order for the round
    // loop.
    let mut groups: Vec<Vec<(usize, Client<FutureRand>, rand::rngs::StdRng)>> =
        (0..params.num_orders()).map(|_| Vec::new()).collect();
    for u in 0..params.n() {
        let node = root.child(u as u64);
        let mut rng = node.rng();
        let h = Client::<FutureRand>::sample_order(params, &mut rng);
        server.register_user(h);
        let m = FutureRand::init_with_schema(
            params.sequence_len(h),
            &composed[h as usize],
            &mut rng,
            schema,
            fastseed::client_key(&node),
        );
        let client = Client::new(params, h, m);
        groups[h as usize].push((u, client, rng));
    }

    // Online round loop. Each client only *needs* its derivative at its
    // own reporting boundaries; feeding every period keeps the client
    // state machine honest (it checks in-order delivery and derivative
    // validity). To keep the loop O(Σ_u d/2^{h_u}) rather than O(n·d), we
    // feed each client only the periods of its own stride but compute the
    // interval partial sum directly from the stream (Observation 3.7) —
    // the two are equivalent, and the equivalence is covered by the
    // client's own unit tests plus `rtf-sim`'s event-driven engine, which
    // does feed every period.
    let mut reports_sent = 0u64;
    for t in 1..=params.d() {
        let max_h = t.trailing_zeros().min(params.log_d());
        for h in 0..=max_h {
            let stride = 1u64 << h;
            for (u, client, rng) in groups[h as usize].iter_mut() {
                let x = population.stream(*u).derivative();
                // Drive the client through the periods of this interval.
                let start = t - stride + 1;
                let mut report = None;
                for tt in start..=t {
                    report = client.observe(tt, x.at(tt), rng);
                }
                let r = report.expect("interval boundary must produce a report");
                server.ingest(h, r.bit);
                reports_sent += 1;
            }
        }
        let _ = server.end_of_period(t);
    }

    let outcome = ProtocolOutcome {
        estimates: server.estimates().to_vec(),
        group_sizes: server.group_sizes().to_vec(),
        reports_sent,
    };
    let store = server.store().cloned();
    (outcome, store)
}

#[cfg(test)]
mod tests {
    use super::*;
    use rtf_streams::generator::{StaticPopulation, UniformChanges};

    fn linf(a: &[f64], b: &[f64]) -> f64 {
        a.iter()
            .zip(b)
            .map(|(x, y)| (x - y).abs())
            .fold(0.0, f64::max)
    }

    /// The rigorous high-probability envelope from the proof of Lemma 4.6
    /// (Equation 13 + union bound over d periods), with the *exact*
    /// per-order c_gap the implementation uses:
    /// `(1 + log d) · max_h c_gap(h)^{-1} · √(2 n ln(2d/β))`.
    fn exact_envelope(params: &ProtocolParams) -> f64 {
        let worst_scale = (0..params.num_orders())
            .map(|h| {
                let gap = crate::gap::WeightClassLaw::for_protocol(
                    params.k_for_order(h),
                    params.epsilon(),
                )
                .c_gap();
                (1.0 + f64::from(params.log_d())) / gap
            })
            .fold(0.0, f64::max);
        worst_scale
            * (2.0 * params.n() as f64 * (2.0 * params.d() as f64 / params.beta()).ln()).sqrt()
    }

    #[test]
    fn outcome_shape_and_determinism() {
        let params = ProtocolParams::new(500, 32, 4, 1.0, 0.05).unwrap();
        let mut rng = SeedSequence::new(9).rng();
        let pop = Population::generate(&UniformChanges::new(32, 4, 0.7), 500, &mut rng);
        let o1 = run_in_memory(&params, &pop, 1234);
        let o2 = run_in_memory(&params, &pop, 1234);
        assert_eq!(o1.estimates(), o2.estimates(), "same seed ⇒ same run");
        assert_eq!(o1.estimates().len(), 32);
        assert_eq!(o1.group_sizes().iter().sum::<usize>(), 500);
        assert!(o1.reports_sent() > 0);
        let o3 = run_in_memory(&params, &pop, 9999);
        assert_ne!(
            o1.estimates(),
            o3.estimates(),
            "different seed ⇒ different noise"
        );
    }

    #[test]
    fn error_within_theoretical_envelope() {
        // A mid-size instance: the measured ℓ∞ error must sit inside the
        // rigorous Hoeffding envelope (holds w.p. ≥ 1−β; the seed is
        // fixed, and Hoeffding is loose, so this is stable).
        let params = ProtocolParams::new(4_000, 64, 4, 1.0, 0.05).unwrap();
        let mut rng = SeedSequence::new(10).rng();
        let pop = Population::generate(&UniformChanges::new(64, 4, 0.8), 4_000, &mut rng);
        let outcome = run_in_memory(&params, &pop, 77);
        let err = linf(outcome.estimates(), pop.true_counts());
        let envelope = exact_envelope(&params);
        assert!(err < envelope, "ℓ∞ error {err} vs envelope {envelope}");
        // And the error is genuinely driven by the noise scale, not by a
        // systematic bias: it should be well above 0 but below the
        // envelope by some margin on typical seeds.
        assert!(err > 0.0);
    }

    #[test]
    fn estimates_track_a_static_population() {
        // Static population: truth is constant ≈ 0.3·n at all times; the
        // protocol's estimates stay inside the rigorous envelope.
        let n = 8_000usize;
        let params = ProtocolParams::new(n, 64, 1, 1.0, 0.05).unwrap();
        let mut rng = SeedSequence::new(11).rng();
        let pop = Population::generate(&StaticPopulation::new(64, 0.3), n, &mut rng);
        let outcome = run_in_memory(&params, &pop, 3);
        let truth = pop.true_counts();
        let err = linf(outcome.estimates(), truth);
        let envelope = exact_envelope(&params);
        assert!(err < envelope, "err {err} vs envelope {envelope}");
    }

    #[test]
    fn reports_sent_matches_group_structure() {
        // Each user at order h sends d/2^h reports.
        let params = ProtocolParams::new(300, 16, 2, 0.5, 0.1).unwrap();
        let mut rng = SeedSequence::new(12).rng();
        let pop = Population::generate(&UniformChanges::new(16, 2, 0.5), 300, &mut rng);
        let outcome = run_in_memory(&params, &pop, 5);
        let expect: u64 = outcome
            .group_sizes()
            .iter()
            .enumerate()
            .map(|(h, &sz)| (sz as u64) * (16 >> h))
            .sum();
        assert_eq!(outcome.reports_sent(), expect);
    }

    #[test]
    #[should_panic(expected = "population has")]
    fn population_size_mismatch_rejected() {
        let params = ProtocolParams::new(10, 16, 2, 1.0, 0.05).unwrap();
        let mut rng = SeedSequence::new(13).rng();
        let pop = Population::generate(&UniformChanges::new(16, 2, 0.5), 5, &mut rng);
        let _ = run_in_memory(&params, &pop, 1);
    }

    #[test]
    fn store_variant_supports_window_queries() {
        let params = ProtocolParams::new(2_000, 64, 4, 1.0, 0.05).unwrap();
        let mut rng = SeedSequence::new(14).rng();
        let pop = Population::generate(&UniformChanges::new(64, 4, 0.8), 2_000, &mut rng);
        let (outcome, store) = run_in_memory_with_store(&params, &pop, 21);
        // Prefix queries through the store agree with the streaming
        // estimates exactly.
        for t in 1..=64u64 {
            let a = store.prefix(t);
            let b = outcome.estimates()[(t - 1) as usize];
            assert!((a - b).abs() < 1e-9, "t={t}: {a} vs {b}");
        }
        // Window change estimates are the prefix difference (same linear
        // combination of interval estimates when windows start at 1).
        let w = store.window_change(1, 32);
        assert!((w - store.prefix(32)).abs() < 1e-9);
        // Short-window queries use few intervals.
        assert!(crate::queries::EstimateStore::window_cost(17, 20) <= 4);
    }

    #[test]
    #[should_panic(expected = "exceeding k")]
    fn sparsity_violation_rejected() {
        let params = ProtocolParams::new(5, 16, 1, 1.0, 0.05).unwrap();
        let streams = (0..5)
            .map(|_| rtf_streams::stream::BoolStream::from_change_times(16, vec![1, 2]))
            .collect();
        let pop = Population::from_streams(streams);
        let _ = run_in_memory(&params, &pop, 1);
    }
}
