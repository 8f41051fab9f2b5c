//! The fault-injected round loop.
//!
//! Wraps the honest message-level schedule of `rtf_sim::engine` with a
//! perturbation layer: every emitted [`ReportMsg`] passes through a
//! seeded fault model (dropout, permanent churn, straggler delay,
//! retransmission) before reaching the server, and Byzantine clients
//! replace their honest traffic with arbitrary well-formed payloads.
//!
//! Three determinism invariants hold by construction:
//!
//! 1. **Client randomness is untouched.** Clients draw from the same
//!    `SeedSequence(seed).child(user)` streams as every other execution
//!    path, and fault decisions come from the disjoint stream
//!    `child(FAULT_STREAM).child(user)` — so for a fixed seed, an honest
//!    client's reported bits are identical across all scenarios.
//! 2. **The honest scenario is the honest engine.** With all rates zero
//!    every message is delivered on time exactly once, and the outcome is
//!    value-for-value equal to `run_event_driven` (asserted by the
//!    differential oracle in [`crate::oracle`]).
//! 3. **Worker count is invisible.** Under [`ExecMode::Parallel`] the
//!    emission side runs on contiguous user shards through the
//!    **span-native fault layer**: a shard's clients are the event
//!    engine's order groups ([`rtf_sim::engine::build_order_groups`] —
//!    the one client-construction path), each client's private fault
//!    stream is pre-walked once to classify every reporting boundary
//!    (consuming the identical draws in the identical order, proven by
//!    the residual-digest oracle), honest on-time spans are folded
//!    arithmetically as whole packed sign words, and only the faulted
//!    residue is materialised as provenance-tagged frames. Per delivery
//!    period, shard residue batches are merged back into exactly the
//!    sequential mailbox order — ascending `(emission period, emitting
//!    user)` — and replayed through the floor-checked ingestion ladder
//!    ([`Server::ingest_checked_with_floor`]), whose verdicts are
//!    bit-for-bit the sequential classification: an accepted Byzantine
//!    impersonation still displaces the honest report it races (the
//!    displaced lane is subtracted from its span's fold and recorded as
//!    the duplicate it would have been). Every outcome field is
//!    identical for any worker count.

use crate::config::{FaultTimeline, Scenario};
use rand::rngs::StdRng;
use rand::Rng;
use rtf_core::accumulator::AccumulatorKind;
use rtf_core::client::Client;
use rtf_core::composed::ComposedRandomizer;
use rtf_core::params::ProtocolParams;
use rtf_core::randomizer::FutureRand;
use rtf_core::server::{Delivery, PeriodDelivery, Server};
use rtf_primitives::fastseed::{self, SeedSchema};
use rtf_primitives::seeding::SeedSequence;
use rtf_primitives::sign::Sign;
use rtf_runtime::{shard_of, ExecMode, Frame, FrameBatch, SignLane, WorkerPool};
use rtf_sim::engine::build_order_groups;
use rtf_sim::message::{OrderAnnouncement, ReportMsg, WireStats};
use rtf_streams::population::Population;

/// Label of the dedicated fault RNG stream. Far outside the `u32` space
/// of per-user labels and distinct from the aggregate sampler's server
/// stream (`0x5E71`), so no protocol randomness is ever reused.
pub(crate) const FAULT_STREAM: u64 = 0xFA17_B055_ED00_0001;

/// Tallies of every fault the injection layer applied.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct FaultCounts {
    /// Reports lost by per-report dropout.
    pub dropped: u64,
    /// Clients that departed permanently before the horizon ended.
    pub churned_clients: u64,
    /// Reports suppressed because their sender had churned.
    pub lost_to_churn: u64,
    /// Reports delivered late.
    pub delayed: u64,
    /// Extra retransmitted copies injected.
    pub duplicates_injected: u64,
    /// Fabricated messages emitted by Byzantine clients.
    pub byzantine_messages: u64,
    /// Fabricated messages the server accepted as on-time reports.
    pub byzantine_accepted: u64,
    /// Messages delayed past the horizon (never delivered).
    pub expired: u64,
    /// Delivered frames whose encoding was corrupted in flight — they
    /// fail `ReportMsg::try_decode` and are dropped before ingestion.
    pub malformed: u64,
}

impl FaultCounts {
    /// Adds another shard's tallies into `self` (exact integer merge).
    pub fn merge(&mut self, other: &FaultCounts) {
        self.dropped += other.dropped;
        self.churned_clients += other.churned_clients;
        self.lost_to_churn += other.lost_to_churn;
        self.delayed += other.delayed;
        self.duplicates_injected += other.duplicates_injected;
        self.byzantine_messages += other.byzantine_messages;
        self.byzantine_accepted += other.byzantine_accepted;
        self.expired += other.expired;
        self.malformed += other.malformed;
    }
}

/// Result of one fault-injected execution.
#[derive(Debug, Clone)]
pub struct ScenarioOutcome {
    /// The online estimates `â[t]` the server still managed to publish.
    pub estimates: Vec<f64>,
    /// Per-order group sizes `|U_h|`.
    pub group_sizes: Vec<usize>,
    /// Accounting of *delivered* traffic (announcements + reports that
    /// reached the server, on time or not).
    pub wire: WireStats,
    /// The server's per-period delivery rows (due/accepted/late/…).
    pub delivery: Vec<PeriodDelivery>,
    /// What the fault layer did.
    pub faults: FaultCounts,
    /// Per-period count of Byzantine fabrications the server accepted
    /// (`[t-1] = count at period t`) — input to the oracle's bias bound.
    pub byzantine_accepted_by_period: Vec<u64>,
}

impl ScenarioOutcome {
    /// Cumulative missing reports by period: `[t-1] = Σ_{s ≤ t} missing(s)`.
    pub fn cumulative_missing(&self) -> Vec<u64> {
        let mut acc = 0u64;
        self.delivery
            .iter()
            .map(|row| {
                acc += row.missing();
                acc
            })
            .collect()
    }

    /// Fraction of due reports that arrived on time, over the whole run.
    pub fn accepted_fraction(&self) -> f64 {
        let due: u64 = self.delivery.iter().map(|r| r.due).sum();
        let acc: u64 = self.delivery.iter().map(|r| r.accepted).sum();
        if due == 0 {
            return 1.0;
        }
        acc as f64 / due as f64
    }
}

pub(crate) struct ClientSlot {
    pub(crate) client: Client<FutureRand>,
    pub(crate) rng: StdRng,
    /// This client's private fault stream.
    pub(crate) frng: StdRng,
    pub(crate) byzantine: bool,
    /// First period at which the client has departed (`u64::MAX` = never).
    pub(crate) churn_at: u64,
}

/// One message on the unreliable network, with provenance for accounting.
struct InFlight {
    frame: bytes::Bytes,
    byzantine: bool,
}

/// Runs the FutureRand protocol through the fault-injected message
/// engine, in the mode selected by `RTF_WORKERS`
/// ([`ExecMode::from_env`]; default sequential).
///
/// Same `(params, population, seed)` contract as the other execution
/// paths; `scenario` controls the perturbation. The server never panics on
/// perturbed traffic: lost reports simply go missing from the period's
/// delivery row, stragglers and duplicates are classified and dropped,
/// Byzantine payloads are screened by the checked ingestion path.
pub fn run_scenario(
    params: &ProtocolParams,
    population: &Population,
    seed: u64,
    scenario: &Scenario,
) -> ScenarioOutcome {
    run_scenario_with(params, population, seed, scenario, ExecMode::from_env())
}

/// Runs the fault-injected engine in an explicit [`ExecMode`]. Every
/// outcome field — estimates, delivery log, wire stats, fault counts —
/// is value-for-value identical across modes and worker counts.
pub fn run_scenario_with(
    params: &ProtocolParams,
    population: &Population,
    seed: u64,
    scenario: &Scenario,
    mode: ExecMode,
) -> ScenarioOutcome {
    run_scenario_schema(
        params,
        population,
        seed,
        scenario,
        mode,
        SeedSchema::from_env(),
    )
}

/// [`run_scenario_with`] under an explicit client randomness
/// schema (instead of `RTF_SEED_SCHEMA`). Fault decisions come from the
/// disjoint `FAULT_STREAM` either way — the schema changes only where
/// honest clients' zero-slot report bits come from.
pub fn run_scenario_schema(
    params: &ProtocolParams,
    population: &Population,
    seed: u64,
    scenario: &Scenario,
    mode: ExecMode,
    schema: SeedSchema,
) -> ScenarioOutcome {
    run_scenario_timeline(
        params,
        population,
        seed,
        &FaultTimeline::constant(*scenario),
        mode,
        schema,
    )
}

/// Runs a [`FaultTimeline`] — a possibly per-period fault schedule —
/// through the fault-injected engine. The timeline generalisation of
/// [`run_scenario_schema`]: `FaultTimeline::constant(s)` reproduces the
/// scenario path bit for bit, while shaped timelines apply a different
/// effective [`Scenario`] each period (load waves, flash crowds, churn
/// storms — the DSL's workload layer compiles to exactly this call).
///
/// Every outcome field is value-for-value identical across execution
/// modes, worker counts, and the live runner
/// ([`crate::live::run_scenario_live_timeline`]).
pub fn run_scenario_timeline(
    params: &ProtocolParams,
    population: &Population,
    seed: u64,
    timeline: &FaultTimeline,
    mode: ExecMode,
    schema: SeedSchema,
) -> ScenarioOutcome {
    run_scenario_timeline_digest(params, population, seed, timeline, mode, schema).0
}

/// [`run_scenario_schema`] additionally returning the **residual
/// fault-stream digest**: after the horizon completes, every client's
/// private fault stream is probed for one more word and the words are
/// folded in ascending user order. Per-user fault streams are disjoint,
/// so equal digests across execution modes prove the engines consumed
/// every fault draw stream-for-stream — a strictly stronger check than
/// outcome equality (a path that skipped one draw and compensated with
/// another could still agree on every observable field). The layout
/// argument names the only layout, [`AccumulatorKind::Dense`].
pub fn run_scenario_schema_digest(
    params: &ProtocolParams,
    population: &Population,
    seed: u64,
    scenario: &Scenario,
    mode: ExecMode,
    _layout: AccumulatorKind,
    schema: SeedSchema,
) -> (ScenarioOutcome, u64) {
    run_scenario_timeline_digest(
        params,
        population,
        seed,
        &FaultTimeline::constant(*scenario),
        mode,
        schema,
    )
}

/// [`run_scenario_timeline`] additionally returning the residual
/// fault-stream digest (see [`run_scenario_schema_digest`] — the digest
/// contract is identical for shaped timelines, because the per-period
/// schedule changes *which* coins are flipped, never who flips them).
pub fn run_scenario_timeline_digest(
    params: &ProtocolParams,
    population: &Population,
    seed: u64,
    timeline: &FaultTimeline,
    mode: ExecMode,
    schema: SeedSchema,
) -> (ScenarioOutcome, u64) {
    timeline.validate(params.d());
    assert_eq!(population.n(), params.n(), "population/params n mismatch");
    assert_eq!(population.d(), params.d(), "population/params d mismatch");
    population.assert_k_sparse(params.k());
    match mode {
        ExecMode::Sequential => {
            let (out, _, digest) =
                run_scenario_sequential_impl(params, population, seed, timeline, schema);
            (out, digest)
        }
        ExecMode::Parallel(w) => {
            let (out, _, digest) =
                run_scenario_batched_impl(params, population, seed, timeline, w.max(1), schema);
            (out, digest)
        }
    }
}

pub(crate) fn composed_tables(params: &ProtocolParams) -> Vec<ComposedRandomizer> {
    (0..params.num_orders())
        .map(|h| ComposedRandomizer::for_protocol(params.k_for_order(h), params.epsilon()))
        .collect()
}

fn run_scenario_sequential_impl(
    params: &ProtocolParams,
    population: &Population,
    seed: u64,
    timeline: &FaultTimeline,
    schema: SeedSchema,
) -> (ScenarioOutcome, ScenarioStageTimings, u64) {
    let composed = composed_tables(params);

    let mut server = Server::for_future_rand_schema(*params, AccumulatorKind::Dense, schema);
    let mut wire = WireStats::default();
    let mut faults = FaultCounts::default();
    let root = SeedSequence::new(seed);
    let fault_root = root.child(FAULT_STREAM);
    let d = params.d();
    let mut timings = ScenarioStageTimings::default();
    let build_start = std::time::Instant::now();

    // Announce + build clients exactly like the honest engine; fault state
    // comes from each client's private fault stream.
    let mut slots: Vec<ClientSlot> = Vec::with_capacity(params.n());
    for u in 0..params.n() {
        let node = root.child(u as u64);
        let mut rng = node.rng();
        let h = Client::<FutureRand>::sample_order(params, &mut rng);
        let ann = OrderAnnouncement {
            user: u as u32,
            order: h as u8,
        };
        let decoded = OrderAnnouncement::decode(ann.encode());
        let registered = server.register_client(decoded.user, u32::from(decoded.order));
        assert!(registered, "simulation user ids are unique");
        wire.record_announcement();
        let m = FutureRand::init_with_schema(
            params.sequence_len(h),
            &composed[h as usize],
            &mut rng,
            schema,
            fastseed::client_key(&node),
        );

        let mut frng = fault_root.child(u as u64).rng();
        let byzantine = frng.random_bool(timeline.byzantine_frac());
        let churn_at = timeline.sample_churn(&mut frng);
        if churn_at <= d {
            faults.churned_clients += 1;
        }
        slots.push(ClientSlot {
            client: Client::new(params, h, m),
            rng,
            frng,
            byzantine,
            churn_at,
        });
    }

    timings.emission_s += build_start.elapsed().as_secs_f64();

    // pending[t] = messages the network will deliver during period t.
    let mut pending: Vec<Vec<InFlight>> = (0..=d as usize).map(|_| Vec::new()).collect();
    let mut estimates = Vec::with_capacity(d as usize);
    let mut byz_accepted_by_period = vec![0u64; d as usize];

    for t in 1..=d {
        let emit_start = std::time::Instant::now();
        for (u, slot) in slots.iter_mut().enumerate() {
            // Every client observes its own datum every period — the
            // online constraint is about observation, not delivery — so
            // protocol randomness is consumed identically in every
            // scenario.
            let x = population.stream(u).derivative().at(t);
            let report = slot.client.observe(t, x, &mut slot.rng);
            if t >= slot.churn_at {
                // Churn silences everyone for good — Byzantine clients
                // included; only due honest reports count as lost.
                if !slot.byzantine && report.is_some() {
                    faults.lost_to_churn += 1;
                }
                continue;
            }
            if slot.byzantine {
                // Byzantine clients suppress honest traffic and spam one
                // fabricated, well-formed report per period.
                faults.byzantine_messages += 1;
                let msg = fabricate_report(&mut slot.frng, params, u as u32);
                dispatch(
                    msg,
                    t,
                    true,
                    &mut slot.frng,
                    timeline,
                    &mut faults,
                    &mut pending,
                    d,
                );
                continue;
            }
            let Some(r) = report else { continue };
            let msg = ReportMsg {
                user: u as u32,
                t: t as u32,
                bit: r.bit == Sign::Plus,
            };
            dispatch(
                msg,
                t,
                false,
                &mut slot.frng,
                timeline,
                &mut faults,
                &mut pending,
                d,
            );
        }

        timings.emission_s += emit_start.elapsed().as_secs_f64();

        // The server drains whatever the network delivered this period —
        // original, late, duplicated, or fabricated — and classifies every
        // frame through the checked ingestion path.
        let ingest_start = std::time::Instant::now();
        for inflight in pending[t as usize].drain(..) {
            // Untrusted bytes: a corrupted frame is classified and
            // counted here, never a panic, and never reaches the server.
            let msg = match ReportMsg::try_decode(inflight.frame) {
                Ok(msg) => msg,
                Err(_) => {
                    faults.malformed += 1;
                    continue;
                }
            };
            wire.record_report();
            let bit = if msg.bit { Sign::Plus } else { Sign::Minus };
            let status = server.ingest_checked(msg.user, u64::from(msg.t), bit);
            if inflight.byzantine && status == Delivery::Accepted {
                faults.byzantine_accepted += 1;
                byz_accepted_by_period[(t - 1) as usize] += 1;
            }
        }
        estimates.push(server.end_of_period(t));
        timings.ingest_s += ingest_start.elapsed().as_secs_f64();
    }

    // Residual fault-stream digest: one more word from every client's
    // private stream, folded in user order — the batched pipeline must
    // land every stream at the exact same position.
    let mut digest = 0u64;
    for slot in &mut slots {
        digest = digest.rotate_left(1) ^ slot.frng.random::<u64>();
    }

    (
        ScenarioOutcome {
            estimates,
            group_sizes: server.group_sizes().to_vec(),
            wire,
            delivery: server.delivery_log().to_vec(),
            faults,
            byzantine_accepted_by_period: byz_accepted_by_period,
        },
        timings,
        digest,
    )
}

/// Wall-clock decomposition of one scenario run: where the time goes
/// between emission (client state machines + fault layer — the whole
/// shard fan-out in batched mode, client build + per-period emission in
/// sequential mode), the per-period mailbox reconstruction
/// (`FrameBatch::merge_ordered`; identically zero in sequential mode),
/// and checked ingestion + period close.
///
/// Exists to make cross-mode and cross-worker-count comparisons
/// diagnosable — a slower parallel(2) than parallel(1) at large `n` is a
/// very different bug depending on which stage grew. `scripts/perf_gate.py`
/// checks the stages are present on every scenario bench row and sum to
/// the row's elapsed time.
#[derive(Debug, Clone, Copy, Default)]
pub struct ScenarioStageTimings {
    /// Seconds in emission (client state machines + fault layer).
    pub emission_s: f64,
    /// Seconds merging shard batches back into sequential mailbox order.
    pub merge_s: f64,
    /// Seconds in checked ingestion + period close (server side).
    pub ingest_s: f64,
}

/// [`run_scenario_schema`]'s batched pipeline with per-stage wall-clock
/// timings. Values are identical to the untimed run (the timers only
/// bracket existing stages). The layout argument names the only layout,
/// [`AccumulatorKind::Dense`].
pub fn run_scenario_batched_timed(
    params: &ProtocolParams,
    population: &Population,
    seed: u64,
    scenario: &Scenario,
    workers: usize,
    _layout: AccumulatorKind,
    schema: SeedSchema,
) -> (ScenarioOutcome, ScenarioStageTimings) {
    let timeline = FaultTimeline::constant(*scenario);
    timeline.validate(params.d());
    assert_eq!(population.n(), params.n(), "population/params n mismatch");
    assert_eq!(population.d(), params.d(), "population/params d mismatch");
    population.assert_k_sparse(params.k());
    let (out, timings, _) =
        run_scenario_batched_impl(params, population, seed, &timeline, workers.max(1), schema);
    (out, timings)
}

/// [`run_scenario_schema`]'s sequential reference with the same
/// per-stage wall-clock decomposition the batched pipeline reports
/// (`merge_s` stays zero — a single mailbox needs no reconstruction).
/// Values are identical to the untimed run.
pub fn run_scenario_sequential_timed(
    params: &ProtocolParams,
    population: &Population,
    seed: u64,
    scenario: &Scenario,
    schema: SeedSchema,
) -> (ScenarioOutcome, ScenarioStageTimings) {
    let timeline = FaultTimeline::constant(*scenario);
    timeline.validate(params.d());
    assert_eq!(population.n(), params.n(), "population/params n mismatch");
    assert_eq!(population.d(), params.d(), "population/params d mismatch");
    population.assert_k_sparse(params.k());
    let (out, timings, _) =
        run_scenario_sequential_impl(params, population, seed, &timeline, schema);
    (out, timings)
}

/// One worker's span-native emission result for a contiguous user shard.
///
/// The expensive product is *arithmetic*, not frames: per `(order, span)`
/// the popcount fold of every honest on-time lane, plus packed plan/sign
/// lanes the ingestion side consults to reproduce the sequential
/// classification of the faulted residue. Only faulted deliveries (late
/// originals, retransmitted copies, Byzantine fabrications) are
/// materialised as frames.
struct ShardEmission {
    /// First global user id of the shard.
    start: usize,
    /// Announced order per shard user, ascending user id.
    orders: Vec<u8>,
    /// Lane index within the user's order group, ascending user id.
    lanes: Vec<u32>,
    /// Per order `h`: number of shard users announcing order `h`.
    group_len: Vec<usize>,
    /// Per order `h`, per span `s`: `(plus, count)` of the honest
    /// on-time lanes folded arithmetically for that span.
    folds: Vec<Vec<(u64, u64)>>,
    /// Per order `h`: every lane's report bit for every span, span-major
    /// (`s * group_len[h] + lane`) — consulted when an accepted Byzantine
    /// impersonation displaces a folded honest report.
    horizon_signs: Vec<SignLane>,
    /// Per order `h`: whether each `(span, lane)` report was folded on
    /// time (`Plus` = folded), span-major. [`planned_floor`] derives each
    /// residue frame's dedupe floor from these bits.
    plan: Vec<SignLane>,
    /// `pending[t]` = residue frames the network delivers during period
    /// `t`. Append order mixes the pre-walk (Byzantine fabrications) and
    /// the span walk (honest late/duplicate copies), so batches are not
    /// presorted — `FrameBatch::merge_ordered` restores exact mailbox
    /// order from the `(emission period, emitter)` keys, which are unique
    /// per delivery period.
    pending: Vec<FrameBatch>,
    /// Emission-side fault tallies (`byzantine_accepted` stays 0 — that
    /// is decided at ingestion).
    faults: FaultCounts,
    /// Shard partial of the residual fault-stream digest.
    digest: u64,
}

/// Clears one lane's bit in a packed membership mask.
#[inline]
fn clear_bit(words: &mut [u64], lane: u32) {
    words[(lane / 64) as usize] &= !(1u64 << (lane % 64));
}

/// The dedupe floor the sequential drain would have seen for a residue
/// frame delivered at period `t`: the highest span boundary of the
/// frame's claimed user whose report was folded arithmetically (i.e.
/// accepted) *before this frame's position* in the sequential mailbox
/// order. Folded accepts never touch the roster, so
/// [`Server::ingest_checked_with_floor`] takes the max of both sources.
///
/// Accepted boundaries are strictly increasing per user (acceptance
/// requires `t == current_t + 1`), so the max over "folded before this
/// frame" is the first set plan bit scanning down from `t` — including
/// `t` itself only when the claimed user's own on-time report sits
/// earlier in this period's mailbox, i.e. the frame was emitted this
/// period by a higher user id.
fn planned_floor(shards: &[ShardEmission], n: usize, workers: usize, t: u64, frame: &Frame) -> u64 {
    let v = frame.user as usize;
    if v >= n {
        return 0;
    }
    let sh = &shards[shard_of(n, workers, v)];
    let local = v - sh.start;
    let h = sh.orders[local] as usize;
    let lane = sh.lanes[local] as usize;
    let glen = sh.group_len[h];
    let stride = 1u64 << h;
    let mut b = (t / stride) * stride;
    if b == t {
        let own_precedes = u64::from(frame.emitted) == t && frame.emitter > frame.user;
        if !own_precedes {
            b = b.saturating_sub(stride);
        }
    }
    while b >= stride {
        let idx = (b / stride - 1) as usize * glen + lane;
        if sh.plan[h].get(idx) == Sign::Plus {
            return b;
        }
        b -= stride;
    }
    0
}

fn run_scenario_batched_impl(
    params: &ProtocolParams,
    population: &Population,
    seed: u64,
    timeline: &FaultTimeline,
    workers: usize,
    schema: SeedSchema,
) -> (ScenarioOutcome, ScenarioStageTimings, u64) {
    let composed = composed_tables(params);
    let root = SeedSequence::new(seed);
    let fault_root = root.child(FAULT_STREAM);
    let d = params.d();
    let n = params.n();
    let workers = workers.max(1);
    let pool = WorkerPool::new(workers);
    let num_orders = params.num_orders();
    let mut timings = ScenarioStageTimings::default();

    let emission_start = std::time::Instant::now();
    let shards: Vec<ShardEmission> = pool.map_shards(n, |shard| {
        let mut groups =
            build_order_groups(params, population, &composed, &root, shard.range(), schema);
        let mut orders = vec![0u8; shard.len()];
        let mut lanes = vec![0u32; shard.len()];
        for (h, group) in groups.iter().enumerate() {
            for (lane, &u) in group.users.iter().enumerate() {
                orders[u as usize - shard.start] = h as u8;
                lanes[u as usize - shard.start] = lane as u32;
            }
        }
        let group_len: Vec<usize> = groups.iter().map(|g| g.len()).collect();

        // Per order: the honest on-time membership mask, narrowed as the
        // pre-walk classifies lanes — Byzantine lanes leave for good,
        // churned lanes leave from their first silenced span on, and
        // faulted boundaries leave for exactly one span.
        let mut active: Vec<Vec<u64>> = group_len
            .iter()
            .map(|&len| {
                let mut words = vec![u64::MAX; len.div_ceil(64)];
                let tail = len % 64;
                if tail != 0 {
                    if let Some(last) = words.last_mut() {
                        *last = (1u64 << tail) - 1;
                    }
                }
                words
            })
            .collect();
        // clears[h][s] = lanes churn silences from span s onward;
        // dirty[h][s] = lanes excluded from span s only (drop, straggle,
        // corruption); events[h][s] = residue deliveries (lane, period)
        // whose frames are materialised once the span's bits exist.
        let mut clears: Vec<Vec<Vec<u32>>> = (0..num_orders)
            .map(|h| vec![Vec::new(); params.sequence_len(h)])
            .collect();
        let mut dirty = clears.clone();
        let mut events: Vec<Vec<Vec<(u32, u64)>>> = (0..num_orders)
            .map(|h| vec![Vec::new(); params.sequence_len(h)])
            .collect();

        let mut pending: Vec<FrameBatch> = (0..=d as usize).map(|_| FrameBatch::new()).collect();
        let mut faults = FaultCounts::default();
        let mut digest = 0u64;

        // Phase 1 — fault pre-walk: classify every reporting boundary of
        // every client by walking its private fault stream once, whole
        // horizon per user. Per-user fault streams are disjoint, so the
        // draws land exactly where the sequential period-major loop put
        // them (the residual digest proves it); only the *order across
        // users* changes, which no draw depends on.
        for u in shard.range() {
            let local = u - shard.start;
            let h = orders[local] as usize;
            let lane = lanes[local];
            let stride = 1u64 << h;
            let mut frng = fault_root.child(u as u64).rng();
            let byzantine = frng.random_bool(timeline.byzantine_frac());
            let churn_at = timeline.sample_churn(&mut frng);
            if churn_at <= d {
                faults.churned_clients += 1;
            }
            if byzantine {
                // Byzantine lanes never contribute honest folds; their
                // fabrications are residue frames like any other fault.
                clear_bit(&mut active[h], lane);
                let mut t = 1u64;
                while t <= d && t < churn_at {
                    faults.byzantine_messages += 1;
                    let msg = fabricate_report(&mut frng, params, u as u32);
                    dispatch_frame(
                        msg,
                        t,
                        u as u32,
                        true,
                        &mut frng,
                        timeline,
                        &mut faults,
                        &mut pending,
                        d,
                    );
                    t += 1;
                }
            } else {
                let mut b = stride;
                while b <= d && b < churn_at {
                    let s = (b / stride - 1) as usize;
                    let routing = route(b, &mut frng, timeline, &mut faults, d);
                    if routing.malformed {
                        // Same accounting as `dispatch_frame`: each
                        // delivered copy is counted where its decode
                        // would have failed, and no frame materialises.
                        faults.malformed += u64::from(routing.deliver.is_some())
                            + u64::from(routing.duplicate.is_some());
                        dirty[h][s].push(lane);
                    } else {
                        if routing.deliver != Some(b) {
                            dirty[h][s].push(lane);
                        }
                        if let Some(at) = routing.deliver {
                            if at != b {
                                events[h][s].push((lane, at));
                            }
                        }
                        if let Some(at) = routing.duplicate {
                            events[h][s].push((lane, at));
                        }
                    }
                    b += stride;
                }
                if churn_at <= d {
                    let first_lost = churn_at.div_ceil(stride) * stride;
                    if first_lost <= d {
                        faults.lost_to_churn += d / stride - first_lost / stride + 1;
                        clears[h][(first_lost / stride - 1) as usize].push(lane);
                    }
                }
            }
            digest = digest.rotate_left(1) ^ frng.random::<u64>();
        }

        // Phase 2 — span walk: emit every group's packed sign words in
        // horizon order. Faulted and Byzantine lanes still draw (client
        // randomness is untouched by faults — invariant 1), the honest
        // on-time majority is folded by masked popcount, and the faulted
        // minority's frames are materialised from the bits just emitted.
        let mut folds: Vec<Vec<(u64, u64)>> = (0..num_orders)
            .map(|h| Vec::with_capacity(params.sequence_len(h)))
            .collect();
        let mut horizon_signs: Vec<SignLane> = (0..num_orders).map(|_| SignLane::new()).collect();
        let mut plan: Vec<SignLane> = (0..num_orders).map(|_| SignLane::new()).collect();
        let mut scratch: Vec<u64> = Vec::new();
        for t in 1..=d {
            let max_h = t.trailing_zeros().min(params.log_d());
            for h in 0..=max_h as usize {
                let group = &mut groups[h];
                if group.is_empty() {
                    continue;
                }
                let s = ((t >> h) - 1) as usize;
                group.emit_span(t);
                for &lane in &clears[h][s] {
                    clear_bit(&mut active[h], lane);
                }
                scratch.clear();
                scratch.extend_from_slice(&active[h]);
                for &lane in &dirty[h][s] {
                    clear_bit(&mut scratch, lane);
                }
                let plus = group.signs.count_plus_masked(&scratch);
                let count: u64 = scratch.iter().map(|w| u64::from(w.count_ones())).sum();
                folds[h].push((plus, count));
                let len = group.len();
                horizon_signs[h].extend_from_range(&group.signs, 0..len);
                let mut rem = len;
                for &w in &scratch {
                    let take = rem.min(64);
                    plan[h].push_bits(w, take);
                    rem -= take;
                }
                for &(lane, at) in &events[h][s] {
                    let user = group.users[lane as usize];
                    pending[at as usize].push(Frame {
                        emitted: t as u32,
                        emitter: user,
                        user,
                        t: t as u32,
                        bit: group.signs.get(lane as usize) == Sign::Plus,
                        byzantine: false,
                    });
                }
            }
        }

        ShardEmission {
            start: shard.start,
            orders,
            lanes,
            group_len,
            folds,
            horizon_signs,
            plan,
            pending,
            faults,
            digest,
        }
    });
    timings.emission_s = emission_start.elapsed().as_secs_f64();

    // Ingestion side: register every user in ascending id order (shards
    // are contiguous and returned in shard-index order), then per period
    // replay the merged residue mailbox through the floor-checked path
    // and fold the honest span runs arithmetically.
    let register_start = std::time::Instant::now();
    let mut server = Server::for_future_rand_schema(*params, AccumulatorKind::Dense, schema);
    let mut wire = WireStats::default();
    let mut faults = FaultCounts::default();
    let mut digest = 0u64;
    let mut user = 0u32;
    for sh in &shards {
        faults.merge(&sh.faults);
        // Concatenation rule for the rotate-and-xor fold: shifting a
        // shard's partial left by the following users' count re-aligns
        // every per-user rotation with the sequential single-pass fold.
        digest = digest.rotate_left((sh.orders.len() % 64) as u32) ^ sh.digest;
        for &order in &sh.orders {
            let ann = OrderAnnouncement { user, order };
            let decoded = OrderAnnouncement::decode(ann.encode());
            let registered = server.register_client(decoded.user, u32::from(decoded.order));
            assert!(registered, "simulation user ids are unique");
            wire.record_announcement();
            user += 1;
        }
    }
    timings.ingest_s += register_start.elapsed().as_secs_f64();

    let mut estimates = Vec::with_capacity(d as usize);
    let mut byz_accepted_by_period = vec![0u64; d as usize];
    let mut displaced: Vec<(usize, usize, u32)> = Vec::new();
    for t in 1..=d {
        let merge_start = std::time::Instant::now();
        let mailbox = FrameBatch::merge_ordered(shards.iter().map(|s| &s.pending[t as usize]));
        timings.merge_s += merge_start.elapsed().as_secs_f64();

        let ingest_start = std::time::Instant::now();
        let max_h = t.trailing_zeros().min(params.log_d());
        let mut folded = 0u64;
        for sh in &shards {
            for h in 0..=max_h as usize {
                if sh.group_len[h] == 0 {
                    continue;
                }
                folded += sh.folds[h][((t >> h) - 1) as usize].1;
            }
        }
        // Every folded report was delivered and decoded; displaced ones
        // (below) were too — they just classify as duplicates.
        wire.record_report_batch(mailbox.len() as u64 + folded);

        displaced.clear();
        for f in mailbox.iter() {
            let bit = if f.bit { Sign::Plus } else { Sign::Minus };
            let floor = planned_floor(&shards, n, workers, t, &f);
            let status = server.ingest_checked_with_floor(f.user, u64::from(f.t), bit, floor);
            if f.byzantine && status == Delivery::Accepted {
                faults.byzantine_accepted += 1;
                byz_accepted_by_period[(t - 1) as usize] += 1;
            }
            if status == Delivery::Accepted && (f.user as usize) < n && u64::from(f.t) == t {
                // An accepted impersonation racing a folded honest report
                // displaces it: in the sequential drain the honest copy,
                // arriving later in the mailbox, would have been the
                // period's duplicate. At most one displacement per
                // (user, period) — a second impersonation hits the
                // roster's fresh `last_accepted` and dedupes.
                let si = shard_of(n, workers, f.user as usize);
                let sh = &shards[si];
                let local = f.user as usize - sh.start;
                let h = sh.orders[local] as usize;
                let stride = 1u64 << h;
                if t % stride == 0 {
                    let lane = sh.lanes[local];
                    let s = (t / stride - 1) as usize;
                    let idx = s * sh.group_len[h] + lane as usize;
                    if sh.plan[h].get(idx) == Sign::Plus {
                        displaced.push((si, h, lane));
                    }
                }
            }
        }

        for (si, sh) in shards.iter().enumerate() {
            for h in 0..=max_h as usize {
                if sh.group_len[h] == 0 {
                    continue;
                }
                let s = ((t >> h) - 1) as usize;
                let (mut plus, mut count) = sh.folds[h][s];
                for &(dsi, dh, lane) in &displaced {
                    if dsi == si && dh == h {
                        let idx = s * sh.group_len[h] + lane as usize;
                        if sh.horizon_signs[h].get(idx) == Sign::Plus {
                            plus -= 1;
                        }
                        count -= 1;
                        server.note_delivery(Delivery::Duplicate);
                    }
                }
                if count > 0 {
                    server.ingest_span_run(h as u32, plus, count);
                }
            }
        }
        estimates.push(server.end_of_period(t));
        timings.ingest_s += ingest_start.elapsed().as_secs_f64();
    }

    (
        ScenarioOutcome {
            estimates,
            group_sizes: server.group_sizes().to_vec(),
            wire,
            delivery: server.delivery_log().to_vec(),
            faults,
            byzantine_accepted_by_period: byz_accepted_by_period,
        },
        timings,
        digest,
    )
}

/// First period at which the client is gone, under a per-period hazard
/// `p` (geometric via inversion); `u64::MAX` when `p == 0`.
pub(crate) fn sample_churn_period(rng: &mut StdRng, p: f64) -> u64 {
    if p <= 0.0 {
        return u64::MAX;
    }
    if p >= 1.0 {
        return 1;
    }
    let u: f64 = rng.random();
    // P(T > t) = (1-p)^t  ⇒  T = 1 + floor(ln(1-u)/ln(1-p)).
    let t = 1.0 + ((1.0 - u).ln() / (1.0 - p).ln()).floor();
    if t >= u64::MAX as f64 {
        u64::MAX
    } else {
        t as u64
    }
}

/// An arbitrary-but-well-formed report: sometimes the sender's own id
/// (an insider lying about content/timing), sometimes a random id (an
/// outsider or impersonator); period and bit are unconstrained.
pub(crate) fn fabricate_report(
    rng: &mut StdRng,
    params: &ProtocolParams,
    own_id: u32,
) -> ReportMsg {
    let user = if rng.random_bool(0.5) {
        own_id
    } else {
        // Half in-range impersonations, half junk ids.
        rng.random_range(0..(2 * params.n() as u32).max(2))
    };
    ReportMsg {
        user,
        t: rng.random_range(1..=params.d() as u32),
        bit: rng.random::<bool>(),
    }
}

/// The fault model's routing decision for one emitted message.
struct Routing {
    /// Delivery period of the original copy, if it survives the horizon.
    deliver: Option<u64>,
    /// Delivery period of a retransmitted copy, if any survives.
    duplicate: Option<u64>,
    /// Whether the frame's encoding was corrupted in flight: every
    /// delivered copy fails `try_decode` at the server.
    malformed: bool,
}

/// Draws one message's fate from the fault stream: dropout, delay,
/// retransmission. Delivery periods beyond the horizon expire. Both
/// execution modes route through this function, so they consume the
/// per-user fault RNG in the identical order (a dropped message draws
/// nothing further; every non-dropped message draws the duplicate coin,
/// including originals that expired past the horizon — exactly the
/// sequential engine's historical behaviour).
fn route(
    t: u64,
    frng: &mut StdRng,
    timeline: &FaultTimeline,
    faults: &mut FaultCounts,
    d: u64,
) -> Routing {
    // The effective rates are the emission period's row — this is the
    // single point where a shaped timeline perturbs the fault layer, and
    // both engines call it at the same (user, period) points.
    let scenario = timeline.at(t);
    // The corruption coin exists only when the scenario asks for it —
    // `malformed_prob == 0.0` must leave every other scenario's fault
    // stream untouched, draw for draw.
    let malformed = scenario.malformed_prob > 0.0 && frng.random_bool(scenario.malformed_prob);
    if frng.random_bool(scenario.drop_prob) {
        faults.dropped += 1;
        return Routing {
            deliver: None,
            duplicate: None,
            malformed,
        };
    }
    let mut deliver = t;
    if frng.random_bool(scenario.straggle_prob) {
        let delta = timeline.delay_law().sample(frng, scenario.max_delay);
        faults.delayed += 1;
        deliver = t + delta;
    }
    let delivered = if deliver <= d {
        Some(deliver)
    } else {
        faults.expired += 1;
        None
    };
    let mut duplicate = None;
    if frng.random_bool(scenario.duplicate_prob) {
        faults.duplicates_injected += 1;
        // A retransmission typically lands one period after the original.
        let dup_at = deliver + 1;
        if dup_at <= d {
            duplicate = Some(dup_at);
        } else {
            faults.expired += 1;
        }
    }
    Routing {
        deliver: delivered,
        duplicate,
        malformed,
    }
}

/// Sequential-mode dispatch: routes one message and queues serialised
/// `Bytes` frames on the pending network.
#[allow(clippy::too_many_arguments)]
fn dispatch(
    msg: ReportMsg,
    t: u64,
    byzantine: bool,
    frng: &mut StdRng,
    timeline: &FaultTimeline,
    faults: &mut FaultCounts,
    pending: &mut [Vec<InFlight>],
    d: u64,
) {
    let routing = route(t, frng, timeline, faults, d);
    let frame = if routing.deliver.is_some() || routing.duplicate.is_some() {
        let full = msg.encode();
        if routing.malformed {
            // In-flight corruption: the frame arrives truncated below
            // the fixed-width layout, so the drain's `try_decode` must
            // classify it instead of panicking.
            Some(bytes::Bytes::copy_from_slice(&full.as_slice()[..4]))
        } else {
            Some(full)
        }
    } else {
        None
    };
    if let Some(at) = routing.deliver {
        pending[at as usize].push(InFlight {
            frame: frame.clone().expect("frame encoded"),
            byzantine,
        });
    }
    if let Some(at) = routing.duplicate {
        pending[at as usize].push(InFlight {
            frame: frame.expect("frame encoded"),
            byzantine,
        });
    }
}

/// Batched-mode dispatch: routes one message and appends columnar frame
/// rows tagged with their emission provenance `(t, emitter)` — the key
/// [`FrameBatch::merge_ordered`] later sorts by.
#[allow(clippy::too_many_arguments)]
pub(crate) fn dispatch_frame(
    msg: ReportMsg,
    t: u64,
    emitter: u32,
    byzantine: bool,
    frng: &mut StdRng,
    timeline: &FaultTimeline,
    faults: &mut FaultCounts,
    pending: &mut [FrameBatch],
    d: u64,
) {
    let routing = route(t, frng, timeline, faults, d);
    if routing.malformed {
        // The sequential engine queues the corrupted bytes and counts
        // each delivered copy at the drain's failed `try_decode`; the
        // columnar path never materializes an undecodable row, so it
        // counts the same delivered copies here and skips them.
        faults.malformed +=
            u64::from(routing.deliver.is_some()) + u64::from(routing.duplicate.is_some());
        return;
    }
    let frame = Frame {
        emitted: t as u32,
        emitter,
        user: msg.user,
        t: msg.t,
        bit: msg.bit,
        byzantine,
    };
    if let Some(at) = routing.deliver {
        pending[at as usize].push(frame);
    }
    if let Some(at) = routing.duplicate {
        pending[at as usize].push(frame);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::DelayLaw;
    use rtf_streams::generator::UniformChanges;

    fn setup(n: usize, d: u64, k: usize, seed: u64) -> (ProtocolParams, Population) {
        let params = ProtocolParams::new(n, d, k, 1.0, 0.05).unwrap();
        let mut rng = SeedSequence::new(seed).rng();
        let pop = Population::generate(&UniformChanges::new(d, k, 0.8), n, &mut rng);
        (params, pop)
    }

    #[test]
    fn honest_scenario_matches_event_driven_exactly() {
        let (params, pop) = setup(180, 32, 3, 60);
        let sc = run_scenario(&params, &pop, 11, &Scenario::honest());
        let ev = rtf_sim::engine::run_event_driven(&params, &pop, 11);
        assert_eq!(sc.estimates, ev.estimates);
        assert_eq!(sc.group_sizes, ev.group_sizes);
        assert_eq!(sc.wire, ev.wire);
        assert_eq!(sc.faults, FaultCounts::default());
        assert!(sc.delivery.iter().all(|r| r.missing() == 0));
        assert!((sc.accepted_fraction() - 1.0).abs() < 1e-12);
    }

    #[test]
    fn batched_pipeline_is_worker_count_invariant_under_faults() {
        // The hard case for parallel determinism: Byzantine impersonation
        // races honest reports, so acceptance depends on mailbox order —
        // which the shard merge must reconstruct exactly.
        let (params, pop) = setup(130, 32, 3, 68);
        let scenario = Scenario::honest()
            .with_dropout(0.05)
            .with_churn(0.01)
            .with_stragglers(0.15, 3)
            .with_duplicates(0.1)
            .with_byzantine(0.15);
        let seq = run_scenario_with(&params, &pop, 19, &scenario, ExecMode::Sequential);
        assert!(
            seq.faults.byzantine_accepted > 0,
            "test must exercise the order-sensitive acceptance race"
        );
        for w in [1usize, 2, 3, 8] {
            let par = run_scenario_with(&params, &pop, 19, &scenario, ExecMode::Parallel(w));
            assert_eq!(par.estimates, seq.estimates, "{w} workers");
            assert_eq!(par.delivery, seq.delivery, "{w} workers");
            assert_eq!(par.wire, seq.wire, "{w} workers");
            assert_eq!(par.faults, seq.faults, "{w} workers");
            assert_eq!(
                par.byzantine_accepted_by_period, seq.byzantine_accepted_by_period,
                "{w} workers"
            );
        }
    }

    #[test]
    fn scenario_is_deterministic_under_seed() {
        let (params, pop) = setup(120, 16, 2, 61);
        let scenario = Scenario::honest()
            .with_dropout(0.1)
            .with_stragglers(0.2, 3)
            .with_duplicates(0.1)
            .with_byzantine(0.05);
        let a = run_scenario(&params, &pop, 7, &scenario);
        let b = run_scenario(&params, &pop, 7, &scenario);
        assert_eq!(a.estimates, b.estimates);
        assert_eq!(a.delivery, b.delivery);
        assert_eq!(a.faults, b.faults);
    }

    #[test]
    fn honest_clients_bits_unchanged_by_faults() {
        // Faults perturb delivery, never the protocol randomness: under
        // pure dropout, every *accepted* report carries the same bit it
        // would have carried in the honest run, so the faulty estimates
        // differ from honest only by the missing contributions.
        let (params, pop) = setup(100, 16, 2, 62);
        let honest = run_scenario(&params, &pop, 5, &Scenario::honest());
        let faulty = run_scenario(&params, &pop, 5, &Scenario::honest().with_dropout(1.0));
        // Everything dropped: estimates are exactly zero...
        assert!(faulty.estimates.iter().all(|&e| e == 0.0));
        assert_eq!(faulty.faults.dropped, honest.wire.payload_bits);
        // ...and the honest run was not all zero.
        assert!(honest.estimates.iter().any(|&e| e != 0.0));
    }

    #[test]
    fn dropout_shows_up_in_delivery_stats() {
        let (params, pop) = setup(300, 32, 3, 63);
        let out = run_scenario(&params, &pop, 9, &Scenario::honest().with_dropout(0.2));
        assert!(out.faults.dropped > 0);
        let missing: u64 = out.delivery.iter().map(|r| r.missing()).sum();
        assert_eq!(missing, out.faults.dropped);
        assert!(out.accepted_fraction() > 0.6 && out.accepted_fraction() < 0.95);
        // cumulative_missing is a prefix sum.
        let cum = out.cumulative_missing();
        assert_eq!(*cum.last().unwrap(), missing);
        assert!(cum.windows(2).all(|w| w[0] <= w[1]));
    }

    #[test]
    fn stragglers_are_classified_late_or_expire() {
        let (params, pop) = setup(200, 16, 2, 64);
        let out = run_scenario(
            &params,
            &pop,
            13,
            &Scenario::honest().with_stragglers(0.5, 4),
        );
        let late: u64 = out.delivery.iter().map(|r| r.late).sum();
        assert_eq!(late + out.faults.expired, out.faults.delayed);
        assert!(out.faults.delayed > 0);
    }

    #[test]
    fn duplicates_are_deduped_exactly() {
        // Duplicates alone must not change a single estimate: the checked
        // path drops every retransmitted copy.
        let (params, pop) = setup(150, 32, 3, 65);
        let honest = run_scenario(&params, &pop, 21, &Scenario::honest());
        let dup = run_scenario(&params, &pop, 21, &Scenario::honest().with_duplicates(0.5));
        assert_eq!(dup.estimates, honest.estimates);
        assert!(dup.faults.duplicates_injected > 0);
        let deduped: u64 = dup.delivery.iter().map(|r| r.duplicate).sum();
        assert_eq!(
            deduped + dup.faults.expired,
            dup.faults.duplicates_injected,
            "every injected duplicate is either deduped or expired"
        );
    }

    #[test]
    fn churn_silences_clients_permanently() {
        let (params, pop) = setup(250, 32, 3, 66);
        let out = run_scenario(&params, &pop, 31, &Scenario::honest().with_churn(0.05));
        assert!(out.faults.churned_clients > 0);
        assert!(out.faults.lost_to_churn > 0);
        // Later periods lose at least as much cumulative traffic.
        let cum = out.cumulative_missing();
        assert!(cum[(params.d() - 1) as usize] >= cum[0]);
    }

    #[test]
    fn byzantine_traffic_never_panics_the_server() {
        let (params, pop) = setup(200, 32, 3, 67);
        let out = run_scenario(&params, &pop, 41, &Scenario::honest().with_byzantine(0.2));
        assert!(out.faults.byzantine_messages > 0);
        // Fabrications hit every rejection class at this scale.
        let rejected: u64 = out.delivery.iter().map(|r| r.rejected()).sum();
        assert!(rejected > 0, "random periods must produce rejections");
        // Random fabrications hit the finer-grained rejection classes too:
        // off-stride periods dominate, and impersonations of unregistered
        // ids surface as unknown senders.
        let invalid: u64 = out.delivery.iter().map(|r| r.invalid_period).sum();
        let unknown: u64 = out.delivery.iter().map(|r| r.unknown_user).sum();
        let premature: u64 = out.delivery.iter().map(|r| r.premature).sum();
        assert_eq!(invalid + unknown + premature, rejected);
        assert!(invalid > 0 && unknown > 0 && premature > 0);
        assert_eq!(
            out.byzantine_accepted_by_period.iter().sum::<u64>(),
            out.faults.byzantine_accepted
        );
        // Estimates still exist for every period.
        assert_eq!(out.estimates.len(), 32);
        assert!(out.estimates.iter().all(|e| e.is_finite()));
    }

    #[test]
    fn malformed_frames_are_counted_and_skipped_in_every_mode() {
        let (params, pop) = setup(150, 32, 3, 70);
        let scenario = Scenario::honest()
            .with_malformed(0.2)
            .with_duplicates(0.1)
            .with_byzantine(0.1);
        let seq = run_scenario_with(&params, &pop, 17, &scenario, ExecMode::Sequential);
        assert!(seq.faults.malformed > 0, "corruption must fire at 20%");
        assert!(seq.estimates.iter().all(|e| e.is_finite()));
        for w in [1usize, 2, 8] {
            let par = run_scenario_with(&params, &pop, 17, &scenario, ExecMode::Parallel(w));
            assert_eq!(par.estimates, seq.estimates, "{w} workers");
            assert_eq!(par.delivery, seq.delivery, "{w} workers");
            assert_eq!(par.wire, seq.wire, "{w} workers");
            assert_eq!(par.faults, seq.faults, "{w} workers");
        }
        // Total corruption: every frame fails `try_decode`, so nothing
        // reaches the server and no report is ever accounted delivered.
        let dead = run_scenario(&params, &pop, 17, &Scenario::honest().with_malformed(1.0));
        assert!(dead.estimates.iter().all(|&e| e == 0.0));
        assert_eq!(dead.wire.payload_bits, 0, "no report survives decode");
        assert!(dead.delivery.iter().all(|r| r.accepted == 0));
    }

    #[test]
    fn churn_sampler_is_geometric_shaped() {
        let mut rng = SeedSequence::new(99).rng();
        assert_eq!(sample_churn_period(&mut rng, 0.0), u64::MAX);
        assert_eq!(sample_churn_period(&mut rng, 1.0), 1);
        let n = 20_000;
        let p = 0.25f64;
        let mean = (0..n)
            .map(|_| sample_churn_period(&mut rng, p) as f64)
            .sum::<f64>()
            / n as f64;
        // E[T] = 1/p = 4; Monte-Carlo tolerance.
        assert!((mean - 4.0).abs() < 0.2, "mean churn period {mean}");
    }

    #[test]
    fn constant_timeline_is_the_scenario_path_bit_for_bit() {
        let (params, pop) = setup(130, 32, 3, 68);
        let scenario = Scenario::honest()
            .with_dropout(0.05)
            .with_stragglers(0.15, 3)
            .with_duplicates(0.1)
            .with_byzantine(0.15);
        let timeline = FaultTimeline::constant(scenario);
        for mode in [ExecMode::Sequential, ExecMode::Parallel(3)] {
            let (a, da) = run_scenario_schema_digest(
                &params,
                &pop,
                19,
                &scenario,
                mode,
                AccumulatorKind::Dense,
                SeedSchema::V1Std,
            );
            let (b, db) =
                run_scenario_timeline_digest(&params, &pop, 19, &timeline, mode, SeedSchema::V1Std);
            assert_eq!(a.estimates, b.estimates);
            assert_eq!(a.delivery, b.delivery);
            assert_eq!(a.faults, b.faults);
            assert_eq!(da, db, "same draws, same residual digest");
        }
    }

    #[test]
    fn shaped_timeline_is_worker_count_invariant() {
        // A pulse of dropout + duplicates mid-horizon over a Byzantine
        // base, with per-period churn hazards concentrated in a storm
        // window and a zipf delay tail: every axis the timeline adds,
        // exercised at once, must stay worker-count invariant including
        // the residual digest.
        let (params, pop) = setup(140, 32, 3, 72);
        let base = Scenario::honest().with_byzantine(0.1);
        let rows: Vec<Scenario> = (1..=32u64)
            .map(|t| {
                let mut row = base;
                if (12..=20).contains(&t) {
                    row = row.with_dropout(0.3).with_duplicates(0.25);
                }
                if (8..=10).contains(&t) {
                    row = row.with_churn(0.05);
                }
                row.with_stragglers(0.2, 6)
            })
            .collect();
        let timeline =
            FaultTimeline::shaped(base, rows).with_delay_law(DelayLaw::Zipf { alpha: 1.5 });
        timeline.validate(params.d());
        let (seq, dseq) = run_scenario_timeline_digest(
            &params,
            &pop,
            23,
            &timeline,
            ExecMode::Sequential,
            SeedSchema::V1Std,
        );
        assert!(seq.faults.dropped > 0, "the pulse must fire");
        assert!(seq.faults.churned_clients > 0, "the churn storm must fire");
        assert!(seq.faults.delayed > 0, "the zipf stragglers must fire");
        for w in [1usize, 2, 3, 8] {
            let (par, dpar) = run_scenario_timeline_digest(
                &params,
                &pop,
                23,
                &timeline,
                ExecMode::Parallel(w),
                SeedSchema::V1Std,
            );
            assert_eq!(par.estimates, seq.estimates, "{w} workers");
            assert_eq!(par.delivery, seq.delivery, "{w} workers");
            assert_eq!(par.wire, seq.wire, "{w} workers");
            assert_eq!(par.faults, seq.faults, "{w} workers");
            assert_eq!(
                par.byzantine_accepted_by_period, seq.byzantine_accepted_by_period,
                "{w} workers"
            );
            assert_eq!(dpar, dseq, "{w} workers: residual digest");
        }
    }

    #[test]
    fn shaped_quiet_periods_inject_nothing() {
        // A pulse confined to periods 5..=8 must leave every other
        // period's traffic untouched: all drops happen inside the window.
        let (params, pop) = setup(200, 16, 2, 73);
        let base = Scenario::honest();
        let rows: Vec<Scenario> = (1..=16u64)
            .map(|t| {
                if (5..=8).contains(&t) {
                    base.with_dropout(1.0)
                } else {
                    base
                }
            })
            .collect();
        let timeline = FaultTimeline::shaped(base, rows);
        let out = run_scenario_timeline(
            &params,
            &pop,
            31,
            &timeline,
            ExecMode::Sequential,
            SeedSchema::V1Std,
        );
        assert!(out.faults.dropped > 0);
        for (i, row) in out.delivery.iter().enumerate() {
            let t = (i + 1) as u64;
            if (5..=8).contains(&t) {
                assert_eq!(row.accepted, 0, "period {t} is inside the blackout");
            } else {
                assert_eq!(row.missing(), 0, "period {t} is outside the pulse");
            }
        }
    }

    #[test]
    fn zipf_delay_law_draws_once_and_clamps() {
        let mut rng = SeedSequence::new(101).rng();
        let law = DelayLaw::Zipf { alpha: 1.0 };
        for _ in 0..10_000 {
            let delta = law.sample(&mut rng, 5);
            assert!((1..=5).contains(&delta), "delta {delta} out of range");
        }
        // Heavy tail: with alpha=1 over a large cap, the mean should be
        // well above the uniform law's midpoint near the origin.
        let mut ones = 0usize;
        for _ in 0..10_000 {
            if law.sample(&mut rng, 1_000) == 1 {
                ones += 1;
            }
        }
        // P(delta = 1) = 1 - 2^{-alpha} = 0.5 for alpha=1.
        assert!(
            (4_000..=6_000).contains(&ones),
            "P(delta=1) ~ 0.5, got {ones}"
        );
    }
}
