//! The fast aggregate simulation path.
//!
//! The event-driven engine draws one uniform ±1 per *zero* partial sum —
//! by far the dominant cost at realistic scales (`n·d` RNG draws). But the
//! server only consumes each interval's *sum* of bits, and the zero-slot
//! bits are i.i.d. uniform, so their total is `2·Binomial(m₀, ½) − m₀` —
//! sampled exactly in `O(m₀/64)` by popcount. Non-zero partial sums still
//! walk each user's pre-computed `b̃` in interval order, so the cross-time
//! correlation structure of FutureRand (the thing the whole paper is
//! about) is preserved *exactly*.
//!
//! The resulting estimate stream is identical **in distribution** to the
//! event-driven engine (same per-user `(h_u, b̃)` draws, same conditional
//! law of every interval sum), but not bit-identical (server-side batch
//! noise uses its own RNG stream). The equivalence is validated
//! statistically in this module's tests and in `tests/` integration tests.
//!
//! Cost: `O(n·k + n + Σ_h (d/2^h)·(m_h/64))` per trial — about two orders
//! of magnitude cheaper than event-driven at `d = 1024` — which is what
//! makes the million-user experiments in EXPERIMENTS.md tractable.

use rtf_core::client::Client;
use rtf_core::composed::ComposedRandomizer;
use rtf_core::params::ProtocolParams;
use rtf_core::protocol::ProtocolOutcome;
use rtf_core::randomizer::FutureRand;
use rtf_core::server::Server;
use rtf_primitives::binomial::sample_binomial_half;
use rtf_primitives::seeding::SeedSequence;
use rtf_primitives::sign::Sign;
use rtf_streams::population::Population;
use rtf_streams::stream::BoolStream;

/// The non-zero partial sums of one stream at order `h`: `(j, sign)`
/// pairs in ascending `j`, where `sign` is the value of `S_u(I_{h,j})`.
///
/// Runs in `O(k)` (iterates change times only).
fn nonzero_blocks(stream: &BoolStream, h: u32) -> Vec<(u64, Sign)> {
    let stride = 1u64 << h;
    let changes = stream.change_times();
    let mut out = Vec::new();
    let mut i = 0usize;
    while i < changes.len() {
        let j = changes[i].div_ceil(stride);
        // All changes inside interval j: advance to the first beyond.
        let block_end = j * stride;
        let mut i_end = i;
        while i_end < changes.len() && changes[i_end] <= block_end {
            i_end += 1;
        }
        // Parity before the block = i (changes strictly before block
        // start), parity after = i_end. S = st(end) − st(start−1).
        let before_one = i % 2 == 1;
        let after_one = i_end % 2 == 1;
        match (before_one, after_one) {
            (false, true) => out.push((j, Sign::Plus)),
            (true, false) => out.push((j, Sign::Minus)),
            _ => {}
        }
        i = i_end;
    }
    out
}

/// Runs the FutureRand protocol through the aggregate sampler, with the
/// paper's parameterisation `ε̃ = ε/(5√k_eff)`.
///
/// Per-user randomness (`h_u`, `b̃`) consumes the same
/// `SeedSequence(seed).child(user)` streams as the other paths; the
/// batched zero-slot noise uses the dedicated server stream
/// `child(0x5E71)`.
pub fn run_future_rand_aggregate(
    params: &ProtocolParams,
    population: &Population,
    seed: u64,
) -> ProtocolOutcome {
    let composed: Vec<ComposedRandomizer> = (0..params.num_orders())
        .map(|h| ComposedRandomizer::for_protocol(params.k_for_order(h), params.epsilon()))
        .collect();
    let gaps: Vec<f64> = composed.iter().map(ComposedRandomizer::c_gap).collect();
    aggregate_impl(params, population, seed, &composed, &gaps)
}

/// Runs the **audit-calibrated** FutureRand protocol through the
/// aggregate sampler (`rtf_core::calibrate`): same protocol, exact-audit
/// certified larger `ε̃`, ≈ 2× better `c_gap`.
pub fn run_calibrated_aggregate(
    params: &ProtocolParams,
    population: &Population,
    seed: u64,
) -> ProtocolOutcome {
    let mut composed = Vec::with_capacity(params.num_orders() as usize);
    let mut gaps = Vec::with_capacity(params.num_orders() as usize);
    for h in 0..params.num_orders() {
        let cal = rtf_core::calibrate::calibrate(params.k_for_order(h), params.epsilon());
        gaps.push(cal.law.c_gap());
        composed.push(ComposedRandomizer::new(
            params.k_for_order(h),
            cal.eps_tilde,
        ));
    }
    aggregate_impl(params, population, seed, &composed, &gaps)
}

fn aggregate_impl(
    params: &ProtocolParams,
    population: &Population,
    seed: u64,
    composed: &[ComposedRandomizer],
    gaps: &[f64],
) -> ProtocolOutcome {
    assert_eq!(population.n(), params.n(), "population/params n mismatch");
    assert_eq!(population.d(), params.d(), "population/params d mismatch");
    population.assert_k_sparse(params.k());

    let mut server = Server::new(*params, gaps);
    let root = SeedSequence::new(seed);

    // Per-order accumulators over interval indices (1-based j).
    let orders = params.num_orders() as usize;
    let mut nonzero_sum: Vec<Vec<f64>> = (0..orders)
        .map(|h| vec![0.0; params.sequence_len(h as u32) + 1])
        .collect();
    let mut nonzero_cnt: Vec<Vec<u32>> = (0..orders)
        .map(|h| vec![0u32; params.sequence_len(h as u32) + 1])
        .collect();

    for u in 0..params.n() {
        let mut rng = root.child(u as u64).rng();
        let h = Client::<FutureRand>::sample_order(params, &mut rng);
        server.register_user(h);
        let m = FutureRand::init(params.sequence_len(h), &composed[h as usize], &mut rng);
        let b_tilde = m.b_tilde();
        for (idx, (j, sign)) in nonzero_blocks(population.stream(u), h)
            .into_iter()
            .enumerate()
        {
            nonzero_sum[h as usize][j as usize] += sign.mul(b_tilde[idx]).as_f64();
            nonzero_cnt[h as usize][j as usize] += 1;
        }
    }

    let group_sizes: Vec<usize> = server.group_sizes().to_vec();
    let mut server_rng = root.child(0x5E71).rng();
    let mut reports_sent = 0u64;
    for t in 1..=params.d() {
        let max_h = t.trailing_zeros().min(params.log_d());
        for h in 0..=max_h {
            let j = (t >> h) as usize;
            let group = group_sizes[h as usize] as u64;
            let nz = u64::from(nonzero_cnt[h as usize][j]);
            let zeros = group - nz;
            // Exact total of `zeros` i.i.d. uniform ±1 bits.
            let noise = 2.0 * sample_binomial_half(zeros, &mut server_rng) as f64 - zeros as f64;
            let sum = nonzero_sum[h as usize][j] + noise;
            server.ingest_aggregate(h, sum, group);
            reports_sent += group;
        }
        let _ = server.end_of_period(t);
    }

    ProtocolOutcome::from_parts(server.estimates().to_vec(), group_sizes, reports_sent)
}

#[cfg(test)]
mod tests {
    use super::*;
    use rtf_dyadic::interval::{DyadicInterval, Horizon};
    use rtf_streams::generator::{StreamGenerator, UniformChanges};

    #[test]
    fn nonzero_blocks_match_direct_partial_sums() {
        let mut rng = SeedSequence::new(50).rng();
        let g = UniformChanges::new(64, 6, 0.9);
        let hz = Horizon::new(64);
        for _ in 0..200 {
            let s = g.generate(&mut rng);
            let x = s.derivative();
            for h in hz.orders() {
                let blocks = nonzero_blocks(&s, h);
                // Ascending and within range.
                assert!(blocks.windows(2).all(|w| w[0].0 < w[1].0));
                // Exactly the non-zero partial sums, with matching signs.
                let mut expect = Vec::new();
                for i in hz.iset_at_order(h) {
                    let ps = x.partial_sum(i);
                    if let Some(sign) = ps.sign() {
                        expect.push((i.index(), sign));
                    }
                }
                assert_eq!(blocks, expect, "order {h} for {:?}", s.change_times());
            }
        }
    }

    #[test]
    fn aggregate_matches_event_driven_statistically() {
        // Same population, many seeds: mean and variance of â[t] must
        // agree between paths within Monte-Carlo tolerance.
        let n = 400usize;
        let d = 16u64;
        let params = ProtocolParams::new(n, d, 3, 1.0, 0.05).unwrap();
        let mut rng = SeedSequence::new(51).rng();
        let pop = Population::generate(&UniformChanges::new(d, 3, 0.8), n, &mut rng);
        let trials = 300u64;
        let dd = d as usize;
        let (mut mean_a, mut mean_b) = (vec![0.0; dd], vec![0.0; dd]);
        let (mut m2_a, mut m2_b) = (vec![0.0; dd], vec![0.0; dd]);
        for s in 0..trials {
            let a = run_future_rand_aggregate(&params, &pop, 10_000 + s);
            let b = rtf_core::protocol::run_in_memory(&params, &pop, 10_000 + s);
            for t in 0..dd {
                mean_a[t] += a.estimates()[t];
                mean_b[t] += b.estimates()[t];
                m2_a[t] += a.estimates()[t].powi(2);
                m2_b[t] += b.estimates()[t].powi(2);
            }
        }
        for t in 0..dd {
            let (ma, mb) = (mean_a[t] / trials as f64, mean_b[t] / trials as f64);
            let va = m2_a[t] / trials as f64 - ma * ma;
            let vb = m2_b[t] / trials as f64 - mb * mb;
            let sd = (va.max(vb) / trials as f64).sqrt();
            assert!(
                (ma - mb).abs() < 6.0 * sd + 1e-9,
                "t={}: means {ma} vs {mb} (sd {sd})",
                t + 1
            );
            // Variances within 40% of each other (loose but catches scale
            // bugs; both ≈ Σ scale² per order).
            assert!(
                (va - vb).abs() <= 0.4 * va.max(vb),
                "t={}: vars {va} vs {vb}",
                t + 1
            );
        }
    }

    #[test]
    fn aggregate_is_deterministic_and_shaped() {
        let n = 1000usize;
        let d = 64u64;
        let params = ProtocolParams::new(n, d, 4, 0.5, 0.05).unwrap();
        let mut rng = SeedSequence::new(52).rng();
        let pop = Population::generate(&UniformChanges::new(d, 4, 0.7), n, &mut rng);
        let a = run_future_rand_aggregate(&params, &pop, 1);
        let b = run_future_rand_aggregate(&params, &pop, 1);
        assert_eq!(a.estimates(), b.estimates());
        assert_eq!(a.estimates().len(), 64);
        assert_eq!(a.group_sizes().iter().sum::<usize>(), n);
        // Report accounting identical to the exact path's formula.
        let expect: u64 = a
            .group_sizes()
            .iter()
            .enumerate()
            .map(|(h, &sz)| sz as u64 * (d >> h))
            .sum();
        assert_eq!(a.reports_sent(), expect);
    }

    #[test]
    fn calibrated_aggregate_runs_and_beats_paper_config() {
        // Same instance: the calibrated configuration's error should be
        // clearly smaller on average (its c_gap is ≈ 2× larger).
        let n = 4_000usize;
        let d = 64u64;
        let k = 8usize;
        let params = ProtocolParams::new(n, d, k, 1.0, 0.05).unwrap();
        let mut rng = SeedSequence::new(54).rng();
        let pop = Population::generate(&UniformChanges::new(d, k, 1.0), n, &mut rng);
        let trials = 10u64;
        let linf = |est: &[f64]| {
            est.iter()
                .zip(pop.true_counts())
                .map(|(e, t)| (e - t).abs())
                .fold(0.0f64, f64::max)
        };
        let (mut cal, mut paper) = (0.0, 0.0);
        for s in 0..trials {
            cal +=
                linf(run_calibrated_aggregate(&params, &pop, 70 + s).estimates()) / trials as f64;
            paper +=
                linf(run_future_rand_aggregate(&params, &pop, 70 + s).estimates()) / trials as f64;
        }
        assert!(cal < 0.75 * paper, "calibrated {cal} vs paper {paper}");
    }

    #[test]
    fn aggregate_handles_all_zero_population() {
        // No changes at all: truth is 0 everywhere; estimates are pure
        // noise around 0.
        let n = 2000usize;
        let d = 32u64;
        let params = ProtocolParams::new(n, d, 2, 1.0, 0.05).unwrap();
        let streams = (0..n).map(|_| BoolStream::all_zero(d)).collect();
        let pop = Population::from_streams(streams);
        let o = run_future_rand_aggregate(&params, &pop, 3);
        let mean: f64 = o.estimates().iter().sum::<f64>() / d as f64;
        // Noise is zero-mean; the time-averaged estimate should be small
        // relative to the per-time noise scale.
        let scale = (1.0 + 5.0) / 0.03 * (n as f64).sqrt();
        assert!(mean.abs() < scale, "mean {mean}");
    }

    #[test]
    fn blocks_respect_k_eff_budget() {
        // No stream may produce more non-zero blocks at order h than
        // min(k, L): FutureRand's b̃ must never be exhausted.
        let mut rng = SeedSequence::new(53).rng();
        let g = UniformChanges::new(128, 9, 1.0);
        let hz = Horizon::new(128);
        for _ in 0..100 {
            let s = g.generate(&mut rng);
            for h in hz.orders() {
                let l = (128u64 >> h) as usize;
                let blocks = nonzero_blocks(&s, h);
                assert!(blocks.len() <= 9.min(l), "h={h}");
                // And every reported j is within [1..L].
                assert!(blocks.iter().all(|&(j, _)| (1..=l as u64).contains(&j)));
                let _ = DyadicInterval::new(h, 1);
            }
        }
    }
}
