//! The event-driven round loop — the honest deployment schedule.
//!
//! At every period `t`:
//!
//! 1. each client observes its own new derivative value `X_u[t]` (clients
//!    see *only* their own data, one period at a time — the online
//!    constraint);
//! 2. clients whose order divides `t` emit their report; the server
//!    ingests it and closes the period, publishing `â[t]`.
//!
//! Two execution modes run this schedule ([`ExecMode`]):
//!
//! * **Sequential** — the reference implementation: every report is
//!   *serialised into bytes* ([`ReportMsg`]), queued in the server's
//!   mailbox, decoded and ingested, so the accounting reflects real
//!   framing. `O(n·d)` with a per-report allocation; this is the oracle.
//! * **Parallel(w)** — the batched pipeline: users are partitioned into
//!   `w` contiguous shards, each worker runs its shard's client state
//!   machines locally, appending reports to columnar
//!   [`ReportBatch`](rtf_runtime::ReportBatch)es (no per-report
//!   allocation) folded into a
//!   mergeable shard accumulator per period; the server absorbs shard
//!   accumulators in shard-index order. Because per-user randomness
//!   derives from `SeedSequence(seed).child(user)` and report sums are
//!   integer-valued, the result is **value-for-value identical** to
//!   Sequential for every worker count (asserted by the differential
//!   oracle in `rtf-scenarios`).
//!
//! [`run_event_driven`] picks the mode from `RTF_WORKERS` (see
//! [`ExecMode::from_env`]), so the entire test pyramid can be replayed
//! through the parallel pipeline by exporting one variable.

use crate::message::{OrderAnnouncement, ReportMsg, WireStats};
use rtf_core::accumulator::{Accumulator, AccumulatorKind, DenseAccumulator};
use rtf_core::client::Client;
use rtf_core::composed::ComposedRandomizer;
use rtf_core::params::ProtocolParams;
use rtf_core::randomizer::{FutureRand, SpanRandomizers};
use rtf_core::server::Server;
use rtf_primitives::fastseed::{self, SeedSchema};
use rtf_primitives::seeding::SeedSequence;
use rtf_primitives::sign::{Sign, Ternary};
use rtf_runtime::{ExecMode, SignLane, WorkerPool};
use rtf_streams::population::Population;

/// Result of an event-driven execution: estimates plus exact
/// communication accounting.
#[derive(Debug, Clone)]
pub struct EventDrivenOutcome {
    /// The online estimates `â[t]`.
    pub estimates: Vec<f64>,
    /// Per-order group sizes `|U_h|`.
    pub group_sizes: Vec<usize>,
    /// Wire accounting (announcements + reports, bytes and bits).
    pub wire: WireStats,
    /// Heap bytes held by the run's accumulation state — in batched mode
    /// the sum over every per-period shard accumulator; in sequential
    /// mode just the server's single live accumulator.
    pub acc_bytes: u64,
}

/// Runs the FutureRand protocol through the message-level engine, in the
/// mode selected by `RTF_WORKERS` ([`ExecMode::from_env`]; default
/// sequential).
///
/// Produces estimates *identical in distribution* to
/// [`rtf_core::protocol::run_in_memory`] (and identical value-for-value
/// given the same seed, since both derive client randomness from
/// `SeedSequence(seed).child(user)` and consume it in the same order) —
/// in **every** execution mode.
pub fn run_event_driven(
    params: &ProtocolParams,
    population: &Population,
    seed: u64,
) -> EventDrivenOutcome {
    run_event_driven_with(params, population, seed, ExecMode::from_env())
}

/// Runs the FutureRand protocol through the message-level engine in an
/// explicit [`ExecMode`]. Every mode is value-for-value identical
/// (asserted by `rtf_scenarios::oracle`).
pub fn run_event_driven_with(
    params: &ProtocolParams,
    population: &Population,
    seed: u64,
    mode: ExecMode,
) -> EventDrivenOutcome {
    run_event_driven_schema(
        params,
        population,
        seed,
        mode,
        AccumulatorKind::Dense,
        SeedSchema::from_env(),
    )
}

/// [`run_event_driven_with`] under an explicit client randomness schema
/// (instead of `RTF_SEED_SCHEMA`). Under [`SeedSchema::V2Fast`] the
/// batched pipeline emits whole span words straight from the
/// counter-based generator into the packed report lanes — no per-report
/// `Sign` materialisation — and stays value-for-value identical to the
/// sequential schedule run under the same schema. The layout argument
/// names the only layout, [`AccumulatorKind::Dense`].
pub fn run_event_driven_schema(
    params: &ProtocolParams,
    population: &Population,
    seed: u64,
    mode: ExecMode,
    _layout: AccumulatorKind,
    schema: SeedSchema,
) -> EventDrivenOutcome {
    assert_eq!(population.n(), params.n(), "population/params n mismatch");
    assert_eq!(population.d(), params.d(), "population/params d mismatch");
    population.assert_k_sparse(params.k());
    match mode {
        ExecMode::Sequential => run_sequential(params, population, seed, schema),
        ExecMode::Parallel(w) => run_batched(params, population, seed, w.max(1), schema),
    }
}

/// One composed randomizer table per order — shared by the engine's
/// modes and the live streaming driver ([`crate::live`]).
pub(crate) fn composed_tables(params: &ProtocolParams) -> Vec<ComposedRandomizer> {
    (0..params.num_orders())
        .map(|h| ComposedRandomizer::for_protocol(params.k_for_order(h), params.epsilon()))
        .collect()
}

/// One order group's client state in the batched/streaming pipelines,
/// struct-of-arrays: parallel lanes of user ids, RNG streams, a
/// precomputed span-event schedule, and one shared [`SpanRandomizers`]
/// arena.
///
/// The former layout held a `GroupedSlot {client, rng, cursor}` struct
/// per user — ~150 scattered bytes plus a per-user heap `b̃` vector, a
/// pointer chase per report. A span emission now walks each column once
/// ([`emit_span`](Self::emit_span)): partial sums rebuilt from the
/// precomputed span-event schedule, then one monomorphized randomizer
/// pass filling the packed [`SignLane`] — bit-identical to per-slot
/// `observe_span` calls.
///
/// Public because the span-native scenario engine
/// (`rtf_scenarios::engine`) drives the same groups through its fault
/// layer — client construction and span emission must live in exactly
/// one place for the engines' bit-identity proofs to mean anything.
pub struct SpanGroup {
    /// User ids in lane order.
    pub users: Vec<u32>,
    /// This group's report signs for the current span, bit-packed —
    /// valid after [`emit_span`](Self::emit_span), consumed via
    /// `ReportBatch::extend_packed` or masked span folds.
    pub signs: SignLane,
    rngs: Vec<rand::rngs::StdRng>,
    /// The group's non-zero span sums, precomputed at build: entry
    /// `span_events[t / stride − 1]` lists `(lane, ±1)` for exactly the
    /// lanes whose partial sum over the span ending at `t` is non-zero.
    /// The population is static, so walking each user's change times
    /// **once** here replaces a per-span `DerivativeCursor::sum_to` per
    /// lane — the former hottest load in the repo: a million scattered
    /// change arrays chased per period, for sums that are ~90% zero.
    span_events: Vec<Vec<(u32, Ternary)>>,
    spans: SpanRandomizers,
    /// Scratch: per-lane partial sums for the span being emitted —
    /// refilled per span as memset-to-zero plus the sparse
    /// [`span_events`](Self::span_events) patches.
    sums: Vec<Ternary>,
    /// The group's reporting stride `2^h`.
    stride: u64,
}

impl SpanGroup {
    /// Number of clients in the group.
    pub fn len(&self) -> usize {
        self.users.len()
    }

    /// Whether the group holds no clients.
    pub fn is_empty(&self) -> bool {
        self.users.is_empty()
    }

    /// Emits the whole group's reports for the span ending at period `t`
    /// into [`signs`](Self::signs): pass 1 rebuilds the per-lane partial
    /// sums (a zero-fill plus the precomputed non-zero patches for this
    /// span), pass 2 draws every lane's report bit through the shared
    /// randomizer arena. Lane `i`'s draw consumes `rngs[i]` exactly as
    /// `Client::observe_span` would — the bit streams are identical
    /// (pinned by `span_group_matches_per_slot_clients`).
    ///
    /// # Panics
    /// Debug-asserts that `t` is the group's next span boundary — a
    /// non-empty group must emit at **every** boundary, in order, or the
    /// shared randomizer arena falls out of lockstep with the clients.
    pub fn emit_span(&mut self, t: u64) {
        debug_assert_eq!(
            t,
            (self.spans.position() as u64 + 1) * self.stride,
            "span boundary out of lockstep"
        );
        self.sums.clear();
        self.sums.resize(self.users.len(), Ternary::Zero);
        for &(lane, v) in &self.span_events[(t / self.stride - 1) as usize] {
            self.sums[lane as usize] = v;
        }
        self.signs.clear();
        let SpanGroup {
            signs,
            rngs,
            spans,
            sums,
            ..
        } = self;
        if spans.schema().is_fast() {
            // Fast schema: zero slots are a pure function of
            // (client key, report index) — fill whole 64-lane words
            // straight into the packed lane, no `Sign` per report and no
            // RNG draws.
            spans.fill_span_words(sums, |bits, count| signs.push_bits(bits, count));
        } else {
            spans.fill_span(sums, rngs, |s| signs.push(s));
        }
    }
}

/// Builds one user range's clients grouped by announced order — at
/// period `t` only orders dividing `t` report, so the round loop walks
/// exactly the reporting clients: `O(reports + changes)` per shard
/// instead of `O(users · periods)`.
///
/// This is the **one** client-construction path of the batched engine,
/// the live streaming driver ([`crate::live`]), and the span-native
/// scenario engine (`rtf_scenarios::engine`) — they must consume
/// per-user RNG identically for the batched ≡ streaming ≡ sequential
/// proofs to hold, so the construction lives in exactly one place.
pub fn build_order_groups(
    params: &ProtocolParams,
    population: &Population,
    composed: &[ComposedRandomizer],
    root: &SeedSequence,
    users: std::ops::Range<usize>,
    schema: SeedSchema,
) -> Vec<SpanGroup> {
    let orders = params.num_orders() as usize;
    let d = params.d();
    let mut groups: Vec<SpanGroup> = (0..orders)
        .map(|h| SpanGroup {
            users: Vec::new(),
            signs: SignLane::new(),
            rngs: Vec::new(),
            span_events: vec![Vec::new(); params.sequence_len(h as u32)],
            spans: SpanRandomizers::new_with_schema(
                params.sequence_len(h as u32),
                &composed[h],
                schema,
            ),
            sums: Vec::new(),
            stride: 1u64 << h,
        })
        .collect();
    for u in users {
        let node = root.child(u as u64);
        let mut rng = node.rng();
        let h = Client::<FutureRand>::sample_order(params, &mut rng);
        let m = FutureRand::init_with_schema(
            params.sequence_len(h),
            &composed[h as usize],
            &mut rng,
            schema,
            fastseed::client_key(&node),
        );
        let group = &mut groups[h as usize];
        let lane = group.users.len() as u32;
        group.users.push(u as u32);
        group.spans.push_lane(&m);
        group.rngs.push(rng);
        // One pass over the user's (sorted) change times builds the
        // lane's non-zero span sums: a span's sum is the parity flip of
        // the change count across it (`st(end) − st(start − 1)`, each
        // the parity of its prefix) — exactly `DerivativeCursor::sum_to`
        // called at every span boundary, computed once instead of once
        // per period.
        let stride = group.stride;
        let stream = population.stream(u);
        let changes = stream.change_times();
        let mut i = 0usize;
        let mut parity_before = false;
        while i < changes.len() && changes[i] <= d {
            let span_end = changes[i].div_ceil(stride) * stride;
            let mut count = 0u64;
            while i < changes.len() && changes[i] <= span_end {
                i += 1;
                count += 1;
            }
            let parity_after = parity_before ^ (count % 2 == 1);
            let v = match (parity_before, parity_after) {
                (false, true) => Some(Ternary::Plus),
                (true, false) => Some(Ternary::Minus),
                _ => None,
            };
            if let Some(v) = v {
                group.span_events[(span_end / stride - 1) as usize].push((lane, v));
            }
            parity_before = parity_after;
        }
    }
    groups
}

/// The single-threaded reference schedule with real (serialised) framing.
fn run_sequential(
    params: &ProtocolParams,
    population: &Population,
    seed: u64,
    schema: SeedSchema,
) -> EventDrivenOutcome {
    let composed = composed_tables(params);
    let mut server = Server::for_future_rand_schema(*params, AccumulatorKind::Dense, schema);
    let mut wire = WireStats::default();
    let root = SeedSequence::new(seed);

    // Build clients; send order announcements through the wire.
    let mut clients: Vec<(Client<FutureRand>, rand::rngs::StdRng)> = Vec::with_capacity(params.n());
    for u in 0..params.n() {
        let node = root.child(u as u64);
        let mut rng = node.rng();
        let h = Client::<FutureRand>::sample_order(params, &mut rng);
        let ann = OrderAnnouncement {
            user: u as u32,
            order: h as u8,
        };
        let decoded = OrderAnnouncement::decode(ann.encode());
        server.register_user(u32::from(decoded.order));
        wire.record_announcement();
        let m = FutureRand::init_with_schema(
            params.sequence_len(h),
            &composed[h as usize],
            &mut rng,
            schema,
            fastseed::client_key(&node),
        );
        clients.push((Client::new(params, h, m), rng));
    }

    // Round loop with a real (serialised) mailbox per period.
    let mut estimates = Vec::with_capacity(params.d() as usize);
    let mut mailbox: Vec<bytes::Bytes> = Vec::new();
    for t in 1..=params.d() {
        mailbox.clear();
        for (u, (client, rng)) in clients.iter_mut().enumerate() {
            let x = population.stream(u).derivative().at(t);
            if let Some(report) = client.observe(t, x, rng) {
                let msg = ReportMsg {
                    user: u as u32,
                    t: t as u32,
                    bit: report.bit == Sign::Plus,
                };
                mailbox.push(msg.encode());
            }
        }
        // Server drains the mailbox: decode, attribute to the sender's
        // order, ingest.
        for raw in &mailbox {
            let msg = ReportMsg::decode(raw.clone());
            let h = clients[msg.user as usize].0.order();
            let bit = if msg.bit { Sign::Plus } else { Sign::Minus };
            server.ingest(h, bit);
            wire.record_report();
        }
        estimates.push(server.end_of_period(t));
    }

    let acc_bytes = server.accumulator().heap_bytes() as u64;
    EventDrivenOutcome {
        estimates,
        group_sizes: server.group_sizes().to_vec(),
        wire,
        acc_bytes,
    }
}

/// One worker's whole-horizon contribution: a mergeable accumulator per
/// period, plus the shard's share of the registration/wire accounting.
struct ShardRun {
    /// `per_period[t-1]` holds the shard's report sums for period `t`.
    per_period: Vec<DenseAccumulator>,
    group_sizes: Vec<usize>,
    wire: WireStats,
    /// Heap bytes of this shard's per-period accumulators after the
    /// horizon completed.
    acc_bytes: u64,
}

/// The batched multi-worker pipeline: contiguous user shards, columnar
/// report batches, shard accumulators merged in shard-index order.
fn run_batched(
    params: &ProtocolParams,
    population: &Population,
    seed: u64,
    workers: usize,
    schema: SeedSchema,
) -> EventDrivenOutcome {
    let composed = composed_tables(params);
    let root = SeedSequence::new(seed);
    let d = params.d();
    let orders = params.num_orders() as usize;
    let pool = WorkerPool::new(workers);

    let shards: Vec<ShardRun> = pool.map_shards(params.n(), |shard| {
        let mut wire = WireStats::default();
        for _ in shard.range() {
            wire.record_announcement();
        }
        let mut groups =
            build_order_groups(params, population, &composed, &root, shard.range(), schema);
        let group_sizes: Vec<usize> = groups.iter().map(SpanGroup::len).collect();

        let mut per_period: Vec<DenseAccumulator> =
            (0..d).map(|_| DenseAccumulator::new(orders)).collect();
        for t in 1..=d {
            let acc = &mut per_period[(t - 1) as usize];
            let max_h = t.trailing_zeros().min(params.log_d());
            let mut rows = 0u64;
            for h in 0..=max_h {
                let group = &mut groups[h as usize];
                if group.is_empty() {
                    continue;
                }
                // The whole order-h interval ending at t, one columnar
                // pass: partial sums off the span-event schedule, one
                // randomizer sweep, then a masked-popcount fold of the
                // packed span
                // straight into the accumulator. A group span is one
                // constant-order run by construction, so there is no
                // batch to materialise and re-scan: the per-order totals
                // are exactly what `ReportBatch::fold_into` would hand
                // over (one `record_counts` per order, ascending), and
                // the sums are exact, so they are identical.
                group.emit_span(t);
                let len = group.len() as u64;
                let plus = group.signs.count_plus(0..group.len());
                acc.record_counts(h, plus, len - plus);
                rows += len;
            }
            wire.record_report_batch(rows);
        }

        let acc_bytes: u64 = per_period.iter().map(|a| a.heap_bytes() as u64).sum();
        ShardRun {
            per_period,
            group_sizes,
            wire,
            acc_bytes,
        }
    });

    // Deterministic merge: shard-index order, exactly the order
    // `map_shards` returned.
    let mut server = Server::for_future_rand_schema(*params, AccumulatorKind::Dense, schema);
    let mut wire = WireStats::default();
    let mut acc_bytes = 0u64;
    for shard in &shards {
        for (h, &count) in shard.group_sizes.iter().enumerate() {
            for _ in 0..count {
                server.register_user(h as u32);
            }
        }
        wire.merge(&shard.wire);
        acc_bytes += shard.acc_bytes;
    }
    let mut estimates = Vec::with_capacity(d as usize);
    for t in 1..=d {
        for shard in &shards {
            server
                .absorb_shard(&shard.per_period[(t - 1) as usize])
                .expect("shard accumulators share the server's shape");
        }
        estimates.push(server.end_of_period(t));
    }

    EventDrivenOutcome {
        estimates,
        group_sizes: server.group_sizes().to_vec(),
        wire,
        acc_bytes,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rtf_streams::generator::UniformChanges;

    fn setup(n: usize, d: u64, k: usize, seed: u64) -> (ProtocolParams, Population) {
        let params = ProtocolParams::new(n, d, k, 1.0, 0.05).unwrap();
        let mut rng = SeedSequence::new(seed).rng();
        let pop = Population::generate(&UniformChanges::new(d, k, 0.8), n, &mut rng);
        (params, pop)
    }

    #[test]
    fn matches_in_memory_fast_path_exactly() {
        // Same seed ⇒ identical estimates: both paths consume each user's
        // RNG stream in the same order (order draw, b̃ draw, then one draw
        // per zero partial sum). This pins down that the in-memory path in
        // rtf-core really is the same protocol.
        let (params, pop) = setup(150, 32, 3, 40);
        let ev = run_event_driven(&params, &pop, 99);
        let mem = rtf_core::protocol::run_in_memory(&params, &pop, 99);
        assert_eq!(ev.estimates, mem.estimates());
        assert_eq!(ev.group_sizes, mem.group_sizes());
    }

    #[test]
    fn batched_pipeline_is_worker_count_invariant() {
        // The tentpole determinism claim at unit scale: sequential and
        // parallel(w) agree value-for-value for every w, including more
        // workers than convenient shard sizes.
        let (params, pop) = setup(157, 32, 3, 44);
        let seq = run_event_driven_with(&params, &pop, 21, ExecMode::Sequential);
        for w in [1usize, 2, 3, 8] {
            let par = run_event_driven_with(&params, &pop, 21, ExecMode::Parallel(w));
            assert_eq!(par.estimates, seq.estimates, "{w} workers");
            assert_eq!(par.group_sizes, seq.group_sizes, "{w} workers");
            assert_eq!(par.wire, seq.wire, "{w} workers");
        }
    }

    #[test]
    fn fast_schema_is_mode_invariant_and_changes_only_zero_draws() {
        // Under the v2 schema the batched pipeline takes the packed
        // word-at-a-time path, the sequential schedule the per-report
        // path — they must still agree value-for-value, and both must
        // match the in-memory reference run under the same schema.
        let (params, pop) = setup(157, 32, 3, 47);
        let seq = run_event_driven_schema(
            &params,
            &pop,
            23,
            ExecMode::Sequential,
            AccumulatorKind::Dense,
            SeedSchema::V2Fast,
        );
        let mem = rtf_core::protocol::run_in_memory_schema(&params, &pop, 23, SeedSchema::V2Fast);
        assert_eq!(seq.estimates, mem.estimates());
        for w in [1usize, 2, 3, 8] {
            let par = run_event_driven_schema(
                &params,
                &pop,
                23,
                ExecMode::Parallel(w),
                AccumulatorKind::Dense,
                SeedSchema::V2Fast,
            );
            assert_eq!(par.estimates, seq.estimates, "{w} workers");
            assert_eq!(par.wire, seq.wire, "{w} workers");
        }
        // Order sampling and b̃ draws are schema-invariant, so the group
        // structure (and hence report counts) match v1 exactly — only the
        // zero-slot randomness source differs.
        let v1 = run_event_driven_schema(
            &params,
            &pop,
            23,
            ExecMode::Sequential,
            AccumulatorKind::Dense,
            SeedSchema::V1Std,
        );
        assert_eq!(v1.group_sizes, seq.group_sizes);
        assert_eq!(v1.wire, seq.wire);
        assert_ne!(v1.estimates, seq.estimates, "schemas are distinct streams");
    }

    #[test]
    fn wire_accounting_matches_group_structure() {
        let (params, pop) = setup(100, 16, 2, 41);
        let ev = run_event_driven(&params, &pop, 7);
        let expected_reports: u64 = ev
            .group_sizes
            .iter()
            .enumerate()
            .map(|(h, &sz)| sz as u64 * (16u64 >> h))
            .sum();
        assert_eq!(ev.wire.payload_bits, expected_reports);
        assert_eq!(ev.wire.messages, 100 + expected_reports);
        assert_eq!(
            ev.wire.wire_bytes,
            100 * OrderAnnouncement::WIRE_BYTES as u64
                + expected_reports * ReportMsg::WIRE_BYTES as u64
        );
    }

    #[test]
    fn bits_per_user_period_is_below_one() {
        // Users at order h > 0 report less than once per period, so the
        // average payload is < 1 bit/user/period (≈ 2/log d).
        let (params, pop) = setup(400, 64, 3, 42);
        let ev = run_event_driven(&params, &pop, 8);
        let rate = ev.wire.bits_per_user_period(400, 64);
        assert!(rate < 1.0, "rate {rate}");
        assert!(rate > 0.1, "rate {rate} suspiciously low");
    }

    #[test]
    fn deterministic_under_seed() {
        let (params, pop) = setup(80, 16, 2, 43);
        let a = run_event_driven(&params, &pop, 5);
        let b = run_event_driven(&params, &pop, 5);
        assert_eq!(a.estimates, b.estimates);
        assert_eq!(a.wire, b.wire);
    }
}
