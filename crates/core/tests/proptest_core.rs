//! Property-based tests for the core randomizer mathematics.

use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::SeedableRng;
use rtf_core::annulus::Annulus;
use rtf_core::composed::ComposedRandomizer;
use rtf_core::gap::WeightClassLaw;
use rtf_core::params::ProtocolParams;
use rtf_core::randomizer::{FutureRand, IndependentRand, LocalRandomizer};
use rtf_core::server::{Delivery, PeriodDelivery, Server};
use rtf_core::snapshot::{SnapReader, SnapWriter};
use rtf_primitives::sign::{Sign, Ternary};
use std::collections::HashMap;

proptest! {
    /// The annulus always satisfies 0 ≤ LB ≤ UB < k, and inside/outside
    /// partition [0..k].
    #[test]
    fn annulus_invariants(k in 1usize..5_000, eps in 0.01f64..1.0) {
        let et = eps / (5.0 * (k as f64).sqrt());
        let ann = Annulus::for_parameters(k, et);
        prop_assert!(ann.lb() <= ann.ub());
        prop_assert!(ann.ub() < k);
        let total = ann.inside().count() + ann.outside().count();
        prop_assert_eq!(total, k + 1);
        prop_assert_eq!(ann.outside_len(), ann.outside().count());
    }

    /// Lemma 5.2 as a property: realized ε ≤ ε over arbitrary (k, ε).
    #[test]
    fn lemma_5_2_privacy(k in 1usize..3_000, eps in 0.01f64..=1.0) {
        let law = WeightClassLaw::for_protocol(k, eps);
        prop_assert!(law.realized_epsilon() <= eps + 1e-9,
            "k={} eps={}: realized {}", k, eps, law.realized_epsilon());
    }

    /// The law is a probability distribution and its gap is in (0, 1).
    #[test]
    fn law_is_distribution(k in 1usize..2_000, eps in 0.01f64..=1.0) {
        let law = WeightClassLaw::for_protocol(k, eps);
        prop_assert!((law.total_probability() - 1.0).abs() < 1e-8);
        prop_assert!(law.c_gap() > 0.0 && law.c_gap() < 1.0);
    }

    /// Lemma 5.3's scaling as a property: c_gap·√k/ε stays in a fixed
    /// band across all (k, ε).
    #[test]
    fn lemma_5_3_gap_band(k in 1usize..3_000, eps in 0.05f64..=1.0) {
        let law = WeightClassLaw::for_protocol(k, eps);
        let normalized = law.c_gap() * (k as f64).sqrt() / eps;
        prop_assert!((0.05..=0.12).contains(&normalized),
            "k={} eps={}: normalized gap {}", k, eps, normalized);
    }

    /// P*_out ≤ 2^{-k} ≤ g(UB) (Inequalities 20/22), with integer bounds.
    #[test]
    fn p_star_out_inequalities(k in 1usize..2_000, eps in 0.05f64..=1.0) {
        let law = WeightClassLaw::for_protocol(k, eps);
        let neg_k_ln2 = -(k as f64) * 2f64.ln();
        prop_assert!(law.ln_p_star_out() <= neg_k_ln2 + 1e-9);
        prop_assert!(law.ln_g(law.annulus().ub()) >= neg_k_ln2 - 1e-9);
    }

    /// The composed randomizer emits ±1 vectors of the right length whose
    /// Hamming distance matches a legal weight class.
    #[test]
    fn composed_output_wellformed(k in 1usize..64, seed in 0u64..200, input_bits in 0u64..u64::MAX) {
        let r = ComposedRandomizer::for_protocol(k, 1.0);
        let b: Vec<Sign> = (0..k)
            .map(|i| if (input_bits >> (i % 64)) & 1 == 1 { Sign::Plus } else { Sign::Minus })
            .collect();
        let mut rng = StdRng::seed_from_u64(seed);
        let out = r.randomize(&b, &mut rng);
        prop_assert_eq!(out.len(), k);
        let w = b.iter().zip(&out).filter(|(x, y)| x != y).count();
        prop_assert!(w <= k);
    }

    /// FutureRand accounting: positions advance, nnz counts non-zeros,
    /// and outputs on zero inputs never consume b̃.
    #[test]
    fn futurerand_accounting(
        k in 1usize..8,
        inputs in prop::collection::vec(-1i8..=1, 1..24),
        seed in 0u64..200,
    ) {
        let l = inputs.len();
        let composed = ComposedRandomizer::for_protocol(k, 1.0);
        let mut rng = StdRng::seed_from_u64(seed);
        let mut m = FutureRand::init(l, &composed, &mut rng);
        let mut fed_nonzero = 0usize;
        let mut accepted = 0usize;
        for &v in &inputs {
            let t = Ternary::from_i8(v);
            match m.try_next(t, &mut rng) {
                Ok(_) => {
                    accepted += 1;
                    if t.is_nonzero() { fed_nonzero += 1; }
                    prop_assert_eq!(m.position(), accepted);
                    prop_assert_eq!(m.nnz(), fed_nonzero);
                }
                Err(e) => {
                    // Only the sparsity violation can occur mid-sequence
                    // (l matches the input length, so exhaustion cannot).
                    prop_assert!(t.is_nonzero());
                    prop_assert_eq!(
                        e,
                        rtf_core::randomizer::RandomizerError::TooManyNonZeros { k }
                    );
                    prop_assert_eq!(m.nnz(), k);
                }
            }
        }
    }

    /// IndependentRand's gap formula.
    #[test]
    fn independent_gap(k in 1usize..500, eps in 0.01f64..=1.0) {
        let m = IndependentRand::new(10, k, eps);
        let expect = (eps / k as f64 / 2.0).tanh();
        prop_assert!((m.c_gap() - expect).abs() < 1e-12);
    }

    /// Parameter validation never accepts garbage, and always accepts
    /// well-formed inputs.
    #[test]
    fn params_validation(
        n in 1usize..1_000_000,
        log_d in 0u32..20,
        k_frac in 0.0f64..=1.0,
        eps in 0.001f64..=1.0,
        beta in 0.0001f64..0.9999,
    ) {
        let d = 1u64 << log_d;
        let k = ((d as f64 * k_frac) as usize).max(1);
        let p = ProtocolParams::new(n, d, k, eps, beta);
        prop_assert!(p.is_ok(), "rejected valid params n={n} d={d} k={k}");
        let p = p.unwrap();
        // Derived quantities are internally consistent.
        prop_assert_eq!(p.num_orders(), log_d + 1);
        for h in 0..=log_d {
            prop_assert!(p.k_for_order(h) >= 1);
            prop_assert!(p.k_for_order(h) <= k.max(1));
            prop_assert_eq!(p.sequence_len(h) as u64, d >> h);
        }
        // Invalid mutations are rejected.
        prop_assert!(ProtocolParams::new(n, d + 1, k, eps, beta).is_err() || (d + 1).is_power_of_two());
        prop_assert!(ProtocolParams::new(n, d, k, eps + 1.0, beta).is_err());
    }

    /// Estimator unbiasedness within the paper's variance bound, across
    /// randomly drawn valid parameter sets: over repeated protocol runs
    /// the mean of `â[t]` stays within a `z·√(Var_bound/T)` confidence
    /// band of the truth at every period, where
    /// `Var[â[t]] ≤ n·Σ_{h ∈ C(t)} scale(h)²/(1 + log d)` with
    /// `scale(h) = (1 + log d)/c_gap(h)` — the exact second-moment bound
    /// behind Lemma 4.6.
    #[test]
    fn estimator_unbiased_within_variance_bound(
        n in 60usize..220,
        log_d in 3u32..=4,
        k in 1usize..=4,
        eps in 0.4f64..=1.0,
        pop_seed in 0u64..1_000,
        run_seed in 0u64..1_000,
    ) {
        use rtf_core::protocol::run_in_memory;
        use rtf_primitives::seeding::SeedSequence;
        use rtf_streams::generator::UniformChanges;
        use rtf_streams::population::Population;

        let d = 1u64 << log_d;
        let params = ProtocolParams::new(n, d, k, eps, 0.05).unwrap();
        let mut rng = SeedSequence::new(pop_seed).rng();
        let pop = Population::generate(&UniformChanges::new(d, k, 0.8), n, &mut rng);

        // Per-period variance bound from the per-order scales.
        let orders_f = 1.0 + f64::from(params.log_d());
        let scales: Vec<f64> = (0..params.num_orders())
            .map(|h| orders_f / WeightClassLaw::for_protocol(params.k_for_order(h), eps).c_gap())
            .collect();
        let var_bound: Vec<f64> = (1..=d)
            .map(|t| {
                let sum: f64 = scales
                    .iter()
                    .enumerate()
                    .filter(|(h, _)| t & (1u64 << h) != 0)
                    .map(|(_, s)| s * s)
                    .sum();
                n as f64 * sum / orders_f
            })
            .collect();

        let trials = 40u64;
        let mut mean = vec![0.0f64; d as usize];
        for s in 0..trials {
            let o = run_in_memory(&params, &pop, 100_000 + run_seed * trials + s);
            for (slot, e) in mean.iter_mut().zip(o.estimates()) {
                *slot += e / trials as f64;
            }
        }
        for (t, ((m, truth), vb)) in mean
            .iter()
            .zip(pop.true_counts())
            .zip(&var_bound)
            .enumerate()
        {
            let band = 5.0 * (vb / trials as f64).sqrt();
            prop_assert!(
                (m - truth).abs() <= band,
                "t={}: mean {} vs truth {} escapes ±{} ({})",
                t + 1, m, truth, band, params
            );
        }
    }

    /// The batched span randomizer is bit-for-bit the per-report
    /// randomizer: over random lane counts, sequence lengths, sparsity
    /// budgets, privacy levels and k-sparse ternary inputs, every
    /// emitted sign matches `FutureRand::next` draw for draw — and the
    /// per-lane RNGs land in the identical state afterwards.
    #[test]
    fn span_randomizers_match_future_rand_bit_for_bit(
        lanes in 1usize..8,
        l in 1usize..24,
        k in 1usize..6,
        eps in 0.05f64..=1.0,
        seed in 0u64..1_000_000,
        data in proptest::collection::vec(0u8..3, 0..256),
    ) {
        use rand::Rng;
        use rtf_core::randomizer::SpanRandomizers;

        let composed = ComposedRandomizer::for_protocol(k, eps);
        let mut spans = SpanRandomizers::new(l, &composed);
        let mut ms = Vec::with_capacity(lanes);
        let mut rngs = Vec::with_capacity(lanes);
        let mut ref_rngs = Vec::with_capacity(lanes);
        for i in 0..lanes {
            let mut rng =
                StdRng::seed_from_u64(seed ^ (i as u64).wrapping_mul(0x9E37_79B9_7F4A_7C15));
            let m = FutureRand::init(l, &composed, &mut rng);
            spans.push_lane(&m);
            ms.push(m);
            ref_rngs.push(rng.clone());
            rngs.push(rng);
        }

        // k-sparse ternary inputs per lane, shaped by the raw data vec.
        let mut nnz = vec![0usize; lanes];
        let mut inputs: Vec<Vec<Ternary>> = vec![Vec::with_capacity(l); lanes];
        for t in 0..l {
            for (i, lane_nnz) in nnz.iter_mut().enumerate() {
                let raw = data.get(i * l + t).copied().unwrap_or(0);
                let x = if raw == 0 || *lane_nnz >= k {
                    Ternary::Zero
                } else {
                    *lane_nnz += 1;
                    if raw == 1 { Ternary::Plus } else { Ternary::Minus }
                };
                inputs[i].push(x);
            }
        }

        // t-major / lane-minor: the exact emission order of the span
        // drivers, so index loops are the honest spelling here.
        let mut expect = Vec::with_capacity(lanes * l);
        #[allow(clippy::needless_range_loop)]
        for t in 0..l {
            for i in 0..lanes {
                expect.push(ms[i].next(inputs[i][t], &mut ref_rngs[i]));
            }
        }
        let mut got = Vec::with_capacity(lanes * l);
        #[allow(clippy::needless_range_loop)]
        for t in 0..l {
            let sums: Vec<Ternary> = (0..lanes).map(|i| inputs[i][t]).collect();
            spans.fill_span(&sums, &mut rngs, |s| got.push(s));
        }
        prop_assert_eq!(got, expect);
        for (i, (rng, ref_rng)) in rngs.iter_mut().zip(ref_rngs.iter_mut()).enumerate() {
            prop_assert_eq!(
                rng.random::<u64>(), ref_rng.random::<u64>(),
                "lane {} RNG diverged", i
            );
        }
    }

    /// `push_fresh_lane` is `FutureRand::init_with_schema` + `push_lane`
    /// without the temporary: the same `b̃` arena, the same keys, and the
    /// same post-draw RNG state, under both seed schemas and on both
    /// sides of the subset sampler's stack/`HashSet` boundary.
    #[test]
    fn push_fresh_lane_matches_init_then_push_lane(
        lanes in 1usize..6,
        k_index in 0usize..4,
        eps in 0.05f64..=1.0,
        seed in 0u64..1_000_000,
    ) {
        use rand::RngCore;
        use rtf_core::randomizer::SpanRandomizers;
        use rtf_primitives::fastseed::SeedSchema;

        let k = [1usize, 4, 33, 300][k_index];
        let l = 7;
        let composed = ComposedRandomizer::for_protocol(k, eps);
        for schema in [SeedSchema::V1Std, SeedSchema::V2Fast] {
            let mut adopted = SpanRandomizers::new_with_schema(l, &composed, schema);
            let mut fresh = SpanRandomizers::new_with_schema(l, &composed, schema);
            fresh.reserve(lanes);
            for i in 0..lanes {
                let lane_seed = seed ^ (i as u64).wrapping_mul(0x9E37_79B9_7F4A_7C15);
                let fast_key = lane_seed.rotate_left(17) ^ 0xA5A5;
                let mut rng_a = StdRng::seed_from_u64(lane_seed);
                let m = FutureRand::init_with_schema(l, &composed, &mut rng_a, schema, fast_key);
                adopted.push_lane(&m);
                let mut rng_b = StdRng::seed_from_u64(lane_seed);
                fresh.push_fresh_lane(&composed, &mut rng_b, fast_key);
                prop_assert_eq!(
                    rng_a.next_u64(), rng_b.next_u64(),
                    "lane {} RNG diverged under {:?}", i, schema
                );
            }
            prop_assert_eq!(&fresh, &adopted);
        }
    }
}

/// Reference for the server's checked ingestion: the same ladder over a
/// `HashMap` roster keyed by wire id, with ids outside `0..n` refused at
/// registration. Accepted bits go to a trusted-path server, which
/// supplies the estimator math.
struct RosterModel {
    n: usize,
    d: u64,
    log_d: u32,
    /// Wire id → (announced order, last accepted boundary).
    roster: HashMap<u32, (u32, u64)>,
    group_sizes: Vec<usize>,
    current_t: u64,
    row: PeriodDelivery,
    log: Vec<PeriodDelivery>,
    trusted: Server,
}

impl RosterModel {
    fn new(params: ProtocolParams) -> Self {
        RosterModel {
            n: params.n(),
            d: params.d(),
            log_d: params.log_d(),
            roster: HashMap::new(),
            group_sizes: vec![0; params.num_orders() as usize],
            current_t: 0,
            row: PeriodDelivery::default(),
            log: Vec::new(),
            trusted: Server::for_future_rand(params),
        }
    }

    fn register(&mut self, user: u32, h: u32) -> bool {
        if self.current_t != 0
            || h > self.log_d
            || user as usize >= self.n
            || self.roster.contains_key(&user)
        {
            return false;
        }
        self.roster.insert(user, (h, 0));
        self.group_sizes[h as usize] += 1;
        true
    }

    fn ingest(&mut self, user: u32, t: u64, bit: Sign, floor: u64) -> Delivery {
        let Some((h, last)) = self.roster.get_mut(&user) else {
            self.row.unknown_user += 1;
            return Delivery::UnknownUser;
        };
        let h = *h;
        if t == 0 || t > self.d || t % (1u64 << h) != 0 {
            self.row.invalid_period += 1;
            return Delivery::InvalidPeriod;
        }
        if t == (*last).max(floor) {
            self.row.duplicate += 1;
            return Delivery::Duplicate;
        }
        if t <= self.current_t {
            self.row.late += 1;
            return Delivery::Late;
        }
        if t != self.current_t + 1 {
            self.row.premature += 1;
            return Delivery::Premature;
        }
        *last = t;
        self.trusted.ingest(h, bit);
        self.row.accepted += 1;
        Delivery::Accepted
    }

    fn span_run(&mut self, h: u32, plus: u64, count: u64) {
        self.trusted.ingest_span_run(h, plus, count);
        self.row.accepted += count;
    }

    fn end_of_period(&mut self) -> f64 {
        let t = self.current_t + 1;
        if !self.roster.is_empty() {
            let mut row = std::mem::take(&mut self.row);
            row.t = t;
            row.due = (0..=t.trailing_zeros().min(self.log_d))
                .map(|h| self.group_sizes[h as usize] as u64)
                .sum();
            self.log.push(row);
        }
        self.current_t = t;
        self.trusted.end_of_period(t)
    }
}

/// A wire id from raw bits: mostly inside `0..n`, sometimes just past
/// it, sometimes `u32::MAX`.
fn wire_id(bits: u64, n: usize) -> u32 {
    match bits % 8 {
        0 => u32::MAX,
        1 => (n as u64 + (bits >> 3) % 3) as u32,
        _ => ((bits >> 3) % n as u64) as u32,
    }
}

/// A claimed boundary from raw bits: on time, late, premature, zero,
/// past the horizon, or anywhere on it (often off the sender's stride).
fn claimed_period(bits: u64, current_t: u64, d: u64) -> u64 {
    match bits % 7 {
        0 | 1 => current_t + 1,
        2 => current_t,
        3 => current_t + 2,
        4 => 0,
        5 => u64::MAX,
        _ => (bits >> 3) % (d + 3),
    }
}

fn snapshot_bytes(server: &Server) -> Vec<u8> {
    let mut w = SnapWriter::for_schema(server.seed_schema());
    server.write_snapshot(&mut w);
    w.finish()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    /// The id-indexed roster behind checked ingestion is the wire-id map
    /// it replaced: over random interleavings of registrations (ids past
    /// `n` and `u32::MAX`, duplicates, bad orders, late ones), floor-
    /// checked reports (wrong strides, stale, premature and off-horizon
    /// boundaries, arbitrary floors), folded span runs and period closes
    /// — with one snapshot → restore → resume at a random point — every
    /// verdict, group size, delivery row and estimate bit matches a
    /// `HashMap` model of the same ladder.
    #[test]
    fn roster_matches_a_hash_map_model(
        n in 1usize..32,
        log_d in 1u32..6,
        announcements in proptest::collection::vec(0u64..u64::MAX, 0..96),
        ops in proptest::collection::vec(0u64..u64::MAX, 0..160),
        restore_at in 0usize..160,
    ) {
        let params = ProtocolParams::new(n, 1 << log_d, 1, 1.0, 0.05).unwrap();
        let d = params.d();
        let mut server = Server::for_future_rand(params);
        let mut model = RosterModel::new(params);
        let register = |server: &mut Server, model: &mut RosterModel, bits: u64| {
            let user = wire_id(bits >> 8, n);
            let h = ((bits >> 4) % u64::from(log_d + 2)) as u32;
            (server.register_client(user, h), model.register(user, h))
        };
        for &bits in &announcements {
            let (got, want) = register(&mut server, &mut model, bits);
            prop_assert_eq!(got, want);
        }
        for (i, &bits) in ops.iter().enumerate() {
            if i == restore_at {
                let bytes = snapshot_bytes(&server);
                let mut r = SnapReader::new(&bytes).unwrap();
                server = Server::read_snapshot(&mut r).unwrap();
                r.finish().unwrap();
                prop_assert_eq!(snapshot_bytes(&server), bytes);
            }
            match bits % 8 {
                0 => {
                    let (got, want) = register(&mut server, &mut model, bits);
                    prop_assert_eq!(got, want, "op {}", i);
                }
                1..=5 => {
                    let user = wire_id(bits >> 8, n);
                    let t = claimed_period(bits >> 16, model.current_t, d);
                    let floor = match (bits >> 3) % 4 {
                        0 => 0,
                        1 => t,
                        2 => model.current_t,
                        _ => (bits >> 40) % (d + 1),
                    };
                    let bit = if bits & (1 << 5) == 0 { Sign::Plus } else { Sign::Minus };
                    prop_assert_eq!(
                        server.ingest_checked_with_floor(user, t, bit, floor),
                        model.ingest(user, t, bit, floor),
                        "op {}: user {} t {} floor {}", i, user, t, floor
                    );
                }
                6 => {
                    let h = ((bits >> 8) % u64::from(log_d + 1)) as u32;
                    let count = (bits >> 16) % 5;
                    let plus = (bits >> 24) % (count + 1);
                    server.ingest_span_run(h, plus, count);
                    model.span_run(h, plus, count);
                }
                _ => {
                    if model.current_t < d {
                        let t = model.current_t + 1;
                        prop_assert_eq!(
                            server.end_of_period(t).to_bits(),
                            model.end_of_period().to_bits(),
                            "period {}", t
                        );
                        prop_assert_eq!(server.delivery_log(), &model.log[..]);
                    }
                }
            }
        }
        prop_assert_eq!(server.group_sizes(), &model.group_sizes[..]);
        prop_assert_eq!(server.delivery_log(), &model.log[..]);
        prop_assert_eq!(server.reports_ingested(), model.trusted.reports_ingested());
        let got: Vec<u64> = server.estimates().iter().map(|e| e.to_bits()).collect();
        let want: Vec<u64> = model.trusted.estimates().iter().map(|e| e.to_bits()).collect();
        prop_assert_eq!(got, want);
    }
}

/// Packs `l` calls of `FutureRand::next` into words (bit `j` = the
/// report at span `j`), feeding the non-zeros of `schedule` (ascending
/// `(span, ±1)`) and zeros elsewhere; panics where `next` panics.
fn reference_words(
    m: &mut FutureRand,
    l: usize,
    schedule: &[(usize, Ternary)],
    rng: &mut StdRng,
) -> Vec<u64> {
    let mut words = vec![0u64; l.div_ceil(64)];
    let mut pending = schedule.iter().peekable();
    let last = schedule.last().map_or(0, |&(j, _)| j + 1);
    for j in 0..l.max(last) {
        let v = match pending.peek() {
            Some(&&(span, v)) if span == j => {
                pending.next();
                v
            }
            _ => Ternary::Zero,
        };
        if m.next(v, rng) == Sign::Plus {
            words[j / 64] |= 1 << (j % 64);
        }
    }
    words
}

/// The panic message of `f`.
fn panic_text(f: impl FnOnce()) -> String {
    let err = std::panic::catch_unwind(std::panic::AssertUnwindSafe(f)).unwrap_err();
    err.downcast_ref::<String>()
        .cloned()
        .expect("formatted panic message")
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    /// The user-major writer is the per-report randomizer, packed: over
    /// sequence lengths 1..=1024 (one to sixteen words), sparsity bounds
    /// 1..=min(l, 40) and random ascending non-zero schedules of at most
    /// `k` signed entries, `fill_sequence_words` writes exactly the words
    /// `FutureRand::init_with_schema` followed by `l` calls to `next`
    /// produces, under both seed schemas, and leaves the RNG where the
    /// reference leaves it. A (k+1)-th non-zero — or, when `k = l`, a
    /// non-zero past the end — panics with the reference's message.
    #[test]
    fn sequence_words_match_future_rand_next(
        log_l in 0u32..=10,
        k_raw in 0usize..40,
        eps in 0.05f64..=1.0,
        seed in 0u64..u64::MAX,
        schedule_seed in 0u64..u64::MAX,
    ) {
        use rand::{Rng, RngCore};
        use rtf_core::randomizer::fill_sequence_words;
        use rtf_primitives::fastseed::SeedSchema;

        let l = 1usize << log_l;
        let k = 1 + k_raw % l.min(40);
        let composed = ComposedRandomizer::for_protocol(k, eps);
        // Random ascending spans with random signs: at most `k` for the
        // valid schedule, one too many for `over`.
        let mut schedule_rng = StdRng::seed_from_u64(schedule_seed);
        let mut signed = |count: usize| -> Vec<(usize, Ternary)> {
            let spans = rtf_primitives::subset::sample_subset(l, count, &mut schedule_rng);
            spans
                .into_iter()
                .map(|j| (j, if schedule_rng.random::<bool>() { Ternary::Plus } else { Ternary::Minus }))
                .collect()
        };
        let count = (schedule_seed % (k as u64 + 1)) as usize;
        let schedule = signed(count);
        let over = if l > k {
            signed(k + 1)
        } else {
            let mut all = signed(l);
            all.push((l, Ternary::Plus));
            all
        };
        let fast_key = seed.rotate_left(29) ^ 0x5EED;

        for schema in [SeedSchema::V1Std, SeedSchema::V2Fast] {
            let mut ref_rng = StdRng::seed_from_u64(seed);
            let mut m = FutureRand::init_with_schema(l, &composed, &mut ref_rng, schema, fast_key);
            let expect = reference_words(&mut m, l, &schedule, &mut ref_rng);

            let mut rng = StdRng::seed_from_u64(seed);
            let b_tilde = composed.sample_for_all_ones(&mut rng);
            prop_assert_eq!(&b_tilde[..], m.b_tilde());
            // Start from set bits: every position must be written.
            let mut words = vec![u64::MAX; l.div_ceil(64)];
            fill_sequence_words(l, &b_tilde, schedule.iter().copied(), schema, fast_key, &mut rng, &mut words);
            prop_assert_eq!(&words, &expect, "{:?}", schema);
            prop_assert_eq!(rng.next_u64(), ref_rng.next_u64(), "{:?}: RNG diverged", schema);

            let mut ref_rng = StdRng::seed_from_u64(seed);
            let mut m = FutureRand::init_with_schema(l, &composed, &mut ref_rng, schema, fast_key);
            let expect_panic = panic_text(|| {
                reference_words(&mut m, l, &over, &mut ref_rng);
            });
            let mut rng = StdRng::seed_from_u64(seed);
            let b_tilde = composed.sample_for_all_ones(&mut rng);
            let got_panic = panic_text(|| {
                fill_sequence_words(l, &b_tilde, over.iter().copied(), schema, fast_key, &mut rng, &mut words);
            });
            prop_assert_eq!(&got_panic, &expect_panic, "{:?}", schema);
            let violation = if l > k { "more than k" } else { "longer than declared L" };
            prop_assert!(got_panic.contains(violation), "{}", got_panic);
        }
    }
}
