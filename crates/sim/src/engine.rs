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
//!   `w` contiguous shards, and each worker folds its shard's whole
//!   horizon user by user ([`fold_shard_horizon`]) into per-order,
//!   per-span `+1` totals, then into a mergeable shard accumulator per
//!   period; the server absorbs shard accumulators in shard-index order.
//!   Because per-user randomness derives from
//!   `SeedSequence(seed).child(user)` and report sums are
//!   integer-valued, the result is **value-for-value identical** to
//!   Sequential for every worker count (asserted by the differential
//!   oracle in `rtf-scenarios`).
//!
//! [`run_event_driven`] picks the mode from `RTF_WORKERS` (see
//! [`ExecMode::from_env`]), so the entire test pyramid can be replayed
//! through the parallel pipeline by exporting one variable.

use crate::message::{OrderAnnouncement, ReportMsg, WireStats};
use rand::rngs::StdRng;
use rtf_core::accumulator::{Accumulator, AccumulatorKind, DenseAccumulator};
use rtf_core::client::Client;
use rtf_core::composed::ComposedRandomizer;
use rtf_core::params::ProtocolParams;
use rtf_core::randomizer::{fill_sequence_words, FutureRand, SpanRandomizers};
use rtf_core::server::Server;
use rtf_primitives::fastseed::{self, SeedSchema};
use rtf_primitives::seeding::SeedSequence;
use rtf_primitives::sign::{Sign, Ternary};
use rtf_runtime::{ExecMode, PositionalCounter, SignLane, WorkerPool};
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
/// batched pipeline writes each client's zero reports as whole words
/// straight from the counter-based generator — no per-report `Sign`
/// and no RNG draw — and stays value-for-value identical to the
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
/// modes, the live streaming driver ([`crate::live`]) and the scenario
/// engines (`rtf_scenarios`).
pub fn composed_tables(params: &ProtocolParams) -> Vec<ComposedRandomizer> {
    (0..params.num_orders())
        .map(|h| ComposedRandomizer::for_protocol(params.k_for_order(h), params.epsilon()))
        .collect()
}

/// One order group's client state in the span-major live streaming
/// driver ([`crate::live`]), struct-of-arrays: parallel lanes of user
/// ids, RNG streams (v1 schema only), a precomputed span-event
/// schedule, and one shared [`SpanRandomizers`] arena.
///
/// A span emission walks each column once ([`emit_span`](Self::emit_span)):
/// partial sums rebuilt from the precomputed span-event schedule, then
/// one monomorphized randomizer pass filling the packed [`SignLane`] —
/// bit-identical to per-slot `observe_span` calls.
///
/// The live driver is the last engine that emits span by span: it
/// streams each period's reports into the ingestion service as they
/// fall due. The offline batched engine and the batched scenario engine
/// write each client's whole sequence at once instead
/// ([`SequenceWriter`]).
pub struct SpanGroup {
    /// User ids in lane order.
    pub users: Vec<u32>,
    /// This group's report signs for the current span, bit-packed —
    /// valid after [`emit_span`](Self::emit_span), consumed via
    /// `ReportBatch::extend_packed`.
    pub signs: SignLane,
    /// Each lane's RNG stream, positioned just past its `b̃` draws — the
    /// source of the v1 schema's zero-report signs. Empty under
    /// [`SeedSchema::V2Fast`], whose zero reports come from the counter
    /// generator and never read an RNG.
    rngs: Vec<StdRng>,
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
    /// randomizer arena. Under v1, lane `i`'s draw consumes `rngs[i]`
    /// exactly as `Client::observe_span` would — the bit streams are
    /// identical (pinned by `span_group_matches_per_slot_clients`);
    /// under v2 no RNG is read.
    ///
    /// # Panics
    /// Debug-asserts that `t` is the group's next span boundary — a
    /// non-empty group must emit at **every** boundary, in order, or the
    /// shared randomizer arena falls out of lockstep with the clients —
    /// and, under v1, that the RNG column holds one stream per lane.
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
            debug_assert_eq!(rngs.len(), sums.len(), "one v1 RNG stream per lane");
            spans.fill_span(sums, rngs, |s| signs.push(s));
        }
    }
}

/// Client `u`'s seed stream, opened exactly as the sequential reference
/// opens it: the node's RNG positioned just past the order draw (the
/// stream's first draw), plus the client's fast key. The `b̃ = R̃(1^k)`
/// draws come next, from the order's composed randomizer; under v1 the
/// zero-report signs follow them on the same stream.
///
/// The sequential reference, [`build_order_groups`] and
/// [`SequenceWriter`] all open their clients here, so they consume
/// per-user randomness identically and the batched ≡ streaming ≡
/// sequential proofs hold.
struct ClientStream {
    order: u32,
    rng: StdRng,
    fast_key: u64,
}

impl ClientStream {
    fn open(params: &ProtocolParams, root: &SeedSequence, u: usize) -> Self {
        let node = root.child(u as u64);
        let mut rng = node.rng();
        let order = Client::<FutureRand>::sample_order(params, &mut rng);
        ClientStream {
            order,
            rng,
            fast_key: fastseed::client_key(&node),
        }
    }
}

/// One client's non-zero span sums at reporting stride `stride`, in
/// ascending span order: `(j, ±1)` for each span `j` — the periods
/// `j·stride + 1 ..= (j + 1)·stride` — whose partial sum is non-zero.
///
/// A span's sum is the parity flip of the change count across it
/// (`st(end) − st(start − 1)`, each the parity of its prefix), so one
/// pass over the sorted change times gives exactly what
/// `DerivativeCursor::sum_to` returns at every span boundary, without
/// visiting the ~90% of spans whose sum is zero.
fn nonzero_spans(
    changes: &[u64],
    d: u64,
    stride: u64,
) -> impl Iterator<Item = (usize, Ternary)> + '_ {
    let mut rest = changes;
    let mut parity = false;
    std::iter::from_fn(move || {
        while let Some(&first) = rest.first().filter(|&&c| c <= d) {
            let span_end = first.div_ceil(stride) * stride;
            let count = rest.iter().take_while(|&&c| c <= span_end).count();
            rest = &rest[count..];
            let before = parity;
            parity ^= count % 2 == 1;
            let span = (span_end / stride - 1) as usize;
            match (before, parity) {
                (false, true) => return Some((span, Ternary::Plus)),
                (true, false) => return Some((span, Ternary::Minus)),
                _ => {}
            }
        }
        None
    })
}

/// Builds one user range's clients grouped by announced order, as
/// span-major [`SpanGroup`]s — at period `t` only orders dividing `t`
/// report, so a round loop walks exactly the reporting clients.
///
/// Its last engine caller is the live streaming driver
/// ([`crate::live`]), which streams each span's per-lane report bits as
/// a report batch. The offline batched engine and the batched scenario
/// engine write each client's whole sequence at once instead
/// ([`SequenceWriter`]). Both paths open their clients through the same
/// helper and draw `b̃` from the same composed randomizer, so they
/// consume per-user randomness identically.
///
/// Construction is allocation-free per user: a first pass over the
/// users' order draws sizes every group's columns exactly, then each
/// client's `b̃` is drawn in place into its group's arena
/// ([`SpanRandomizers::push_fresh_lane`]) — the same draws, in the same
/// order, as `FutureRand::init_with_schema`, so every output matches the
/// sequential reference bit for bit. Under [`SeedSchema::V2Fast`] the
/// per-lane RNG is dropped once `b̃` is drawn; only the span-event
/// schedule still grows per change.
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
    // Pass 1: the order draw alone (the first draw of each user's
    // stream) sizes every group, so each column is allocated once.
    let mut sizes = vec![0usize; orders];
    for u in users.clone() {
        sizes[ClientStream::open(params, root, u).order as usize] += 1;
    }
    let mut groups: Vec<SpanGroup> = sizes
        .iter()
        .enumerate()
        .map(|(h, &size)| {
            let mut spans = SpanRandomizers::new_with_schema(
                params.sequence_len(h as u32),
                &composed[h],
                schema,
            );
            spans.reserve(size);
            SpanGroup {
                users: Vec::with_capacity(size),
                signs: SignLane::new(),
                // The fast schema's zero reports never touch an RNG.
                rngs: Vec::with_capacity(if schema.is_fast() { 0 } else { size }),
                span_events: vec![Vec::new(); params.sequence_len(h as u32)],
                spans,
                sums: Vec::new(),
                stride: 1u64 << h,
            }
        })
        .collect();
    // Pass 2: replay each stream from the top — the order draw again,
    // then `b̃` drawn in place into the group's arena.
    for u in users {
        let mut client = ClientStream::open(params, root, u);
        let h = client.order as usize;
        let group = &mut groups[h];
        let lane = group.users.len() as u32;
        group.users.push(u as u32);
        group
            .spans
            .push_fresh_lane(&composed[h], &mut client.rng, client.fast_key);
        if !schema.is_fast() {
            group.rngs.push(client.rng);
        }
        for (j, v) in nonzero_spans(population.stream(u).change_times(), d, group.stride) {
            group.span_events[j].push((lane, v));
        }
    }
    groups
}

/// Writes clients' whole report sequences one user at a time — the
/// client kernel of both batched engines: [`fold_shard_horizon`] here,
/// and the batched scenario engine (`rtf_scenarios::engine`), which
/// masks each sequence with the client's on-time spans.
///
/// FutureRand draws `b̃` at initialisation, and a zero partial sum's
/// report depends only on the client's stream (v1) or key and report
/// index (v2), so a client's whole report sequence is fixed once its
/// `b̃` and change times are known. [`write`](Self::write) makes the
/// sequential reference's construction draws in its order (the order
/// draw, then `b̃` into a reused scratch slice) and writes the `d / 2^h`
/// reports as packed words ([`fill_sequence_words`]), allocating
/// nothing per user.
pub struct SequenceWriter<'a> {
    params: &'a ProtocolParams,
    population: &'a Population,
    composed: &'a [ComposedRandomizer],
    root: &'a SeedSequence,
    schema: SeedSchema,
    /// Scratch for the client's `b̃`, as long as the largest `k`.
    b_tilde: Vec<Sign>,
    /// Scratch for the client's packed reports, as long as order 0's.
    words: Vec<u64>,
}

impl<'a> SequenceWriter<'a> {
    /// A writer over the clients of `population` under `root`, with one
    /// composed randomizer table per order.
    pub fn new(
        params: &'a ProtocolParams,
        population: &'a Population,
        composed: &'a [ComposedRandomizer],
        root: &'a SeedSequence,
        schema: SeedSchema,
    ) -> Self {
        let max_k = composed
            .iter()
            .map(ComposedRandomizer::k)
            .max()
            .unwrap_or(0);
        SequenceWriter {
            params,
            population,
            composed,
            root,
            schema,
            b_tilde: vec![Sign::Plus; max_k],
            words: vec![0u64; params.sequence_len(0).div_ceil(64)],
        }
    }

    /// Client `u`'s announced order `h` and its whole report sequence:
    /// bit `j` of word `j / 64` is the report for span `j`, the order-`h`
    /// interval ending at period `(j + 1)·2^h` (`1` ⇒ `+1`); the row is
    /// `⌈d / 2^h / 64⌉` words and bits past `d / 2^h` are zero.
    pub fn write(&mut self, u: usize) -> (u32, &[u64]) {
        let mut client = ClientStream::open(self.params, self.root, u);
        let h = client.order;
        let l = self.params.sequence_len(h);
        let m = &self.composed[h as usize];
        let b_tilde = &mut self.b_tilde[..m.k()];
        m.sample_for_all_ones_into(b_tilde, &mut client.rng);
        let row = &mut self.words[..l.div_ceil(64)];
        fill_sequence_words(
            l,
            b_tilde,
            nonzero_spans(
                self.population.stream(u).change_times(),
                self.params.d(),
                1u64 << h,
            ),
            self.schema,
            client.fast_key,
            &mut client.rng,
            row,
        );
        (h, row)
    }
}

/// One shard's whole horizon, folded to per-span report totals by
/// [`fold_shard_horizon`].
#[derive(Debug, Clone)]
pub struct HorizonFold {
    /// Per-order group sizes: how many of the shard's users announced
    /// each order `h`.
    pub group_sizes: Vec<usize>,
    /// `plus[h][j]`: how many of order `h`'s users reported `+1` for
    /// span `j`, the order-`h` interval ending at period
    /// `t = (j + 1)·2^h`. The other `group_sizes[h] − plus[h][j]`
    /// reported `−1`.
    pub plus: Vec<Vec<u64>>,
}

/// The offline batched engine's per-shard kernel: folds the whole
/// horizon of `users` into per-order, per-span `+1` counts, user by
/// user.
///
/// For each user, in id order, a [`SequenceWriter`] writes the user's
/// whole report sequence and the kernel adds it into its order's
/// [`PositionalCounter`]. No per-span state is kept, so the cost per
/// user is its draws plus `⌈d / 2^h / 64⌉` words, and the totals equal
/// a span-by-span popcount of the same reports exactly.
pub fn fold_shard_horizon(
    params: &ProtocolParams,
    population: &Population,
    composed: &[ComposedRandomizer],
    root: &SeedSequence,
    users: std::ops::Range<usize>,
    schema: SeedSchema,
) -> HorizonFold {
    let mut counters: Vec<PositionalCounter> = (0..params.num_orders())
        .map(|h| PositionalCounter::new(params.sequence_len(h)))
        .collect();
    let mut writer = SequenceWriter::new(params, population, composed, root, schema);
    for u in users {
        let (h, row) = writer.write(u);
        counters[h as usize].add(row);
    }
    HorizonFold {
        group_sizes: counters.iter().map(PositionalCounter::rows).collect(),
        plus: counters
            .into_iter()
            .map(PositionalCounter::into_totals)
            .collect(),
    }
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
    let mut clients: Vec<(Client<FutureRand>, StdRng)> = Vec::with_capacity(params.n());
    for u in 0..params.n() {
        let ClientStream {
            order: h,
            mut rng,
            fast_key,
        } = ClientStream::open(params, &root, u);
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
            fast_key,
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

/// The batched multi-worker pipeline: contiguous user shards, each
/// folded user-major ([`fold_shard_horizon`]) into per-period shard
/// accumulators, merged in shard-index order.
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
        let fold = fold_shard_horizon(params, population, &composed, &root, shard.range(), schema);

        // One `record_counts` per reporting order and period, ascending
        // — exactly what folding each period's report batch would hand
        // the accumulator, and the sums are exact, so they are identical.
        let mut per_period: Vec<DenseAccumulator> =
            (0..d).map(|_| DenseAccumulator::new(orders)).collect();
        for t in 1..=d {
            let acc = &mut per_period[(t - 1) as usize];
            let max_h = t.trailing_zeros().min(params.log_d());
            let mut rows = 0u64;
            for h in 0..=max_h {
                let len = fold.group_sizes[h as usize] as u64;
                if len == 0 {
                    continue;
                }
                let plus = fold.plus[h as usize][((t >> h) - 1) as usize];
                acc.record_counts(h, plus, len - plus);
                rows += len;
            }
            wire.record_report_batch(rows);
        }

        let acc_bytes: u64 = per_period.iter().map(|a| a.heap_bytes() as u64).sum();
        ShardRun {
            per_period,
            group_sizes: fold.group_sizes,
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

    /// FNV-1a digest of a run's estimates (as raw `f64` bits) followed
    /// by its per-order group sizes.
    fn outcome_digest(ev: &EventDrivenOutcome) -> u64 {
        let mut bytes = Vec::new();
        for e in &ev.estimates {
            bytes.extend_from_slice(&e.to_bits().to_le_bytes());
        }
        for &g in &ev.group_sizes {
            bytes.extend_from_slice(&(g as u64).to_le_bytes());
        }
        rtf_core::snapshot::fnv1a64(&bytes)
    }

    #[test]
    fn client_randomness_is_pinned_by_golden_digests() {
        // Pins every draw the client side makes — population change
        // times, order samples, the `b̃` pre-computation (Floyd subset
        // draws included) and the zero-report signs — under both seed
        // schemas. A change that alters how any of these consume their
        // RNG fails here instead of silently reshuffling every
        // experiment; such a change needs a new `SeedSchema`, not new
        // constants.
        const POPULATION: u64 = 0x2759_393d_92f2_bdbe;
        const V1_STD: u64 = 0x5a12_8c34_2aa1_4359;
        const V2_FAST: u64 = 0x47f1_e728_eeb3_5799;
        let (params, pop) = setup(20_000, 64, 4, 7);
        let mut times = Vec::new();
        for stream in pop.streams() {
            times.extend_from_slice(&(stream.change_times().len() as u64).to_le_bytes());
            for &t in stream.change_times() {
                times.extend_from_slice(&t.to_le_bytes());
            }
        }
        let run = |schema| {
            outcome_digest(&run_event_driven_schema(
                &params,
                &pop,
                11,
                ExecMode::Parallel(2),
                AccumulatorKind::Dense,
                schema,
            ))
        };
        let got = (
            rtf_core::snapshot::fnv1a64(&times),
            run(SeedSchema::V1Std),
            run(SeedSchema::V2Fast),
        );
        assert_eq!(got, (POPULATION, V1_STD, V2_FAST), "{got:#018x?}");
    }

    #[test]
    fn multi_word_horizons_are_pinned_by_golden_digests() {
        // At d = 1024 the order-0 report sequence spans 16 counter words
        // and the shard groups of 3 001 users are multiples of neither 64
        // nor 255, so every word and flush boundary of the batched fold
        // is crossed. The digest covers estimate bits, group sizes and
        // wire accounting, identical at every worker count.
        const V1_STD: u64 = 0x16cb_195f_74f8_df42;
        const V2_FAST: u64 = 0xf42c_4023_bb36_f701;
        let (params, pop) = setup(3_001, 1024, 4, 9);
        for (schema, expect) in [(SeedSchema::V1Std, V1_STD), (SeedSchema::V2Fast, V2_FAST)] {
            for w in [1usize, 2, 3] {
                let ev = run_event_driven_schema(
                    &params,
                    &pop,
                    13,
                    ExecMode::Parallel(w),
                    AccumulatorKind::Dense,
                    schema,
                );
                let mut bytes = outcome_digest(&ev).to_le_bytes().to_vec();
                for x in [ev.wire.messages, ev.wire.wire_bytes, ev.wire.payload_bits] {
                    bytes.extend_from_slice(&x.to_le_bytes());
                }
                let got = rtf_core::snapshot::fnv1a64(&bytes);
                assert_eq!(got, expect, "{schema:?} parallel({w}): {got:#018x}");
            }
        }
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
