//! The live (streaming) runner for the fault-injected schedule.
//!
//! [`run_scenario`](crate::engine::run_scenario) simulates the
//! unreliable deployment offline. This module drives the identical
//! emission schedule — same clients, same fault streams, same routing —
//! but delivers each period's surviving frames through the **streaming
//! ingestion service** (`rtf_runtime::ingest`): frames are routed to the
//! mailbox of the worker owning their *emitting* client (bounded,
//! blocking — backpressure, never loss), buffered per worker, and at
//! period close merged back into the exact sequential mailbox order
//! (`FrameBatch::merge_ordered`) before the server's checked ingestion
//! classifies every frame.
//!
//! Frame order is load-bearing under Byzantine impersonation (an
//! accepted forgery displaces the honest report it races), so the merge
//! is what makes the streaming outcome **value-for-value identical** to
//! the sequential and batched engines — estimates, delivery log, wire
//! stats, fault counts — for every worker count, mailbox capacity,
//! chunk size, and across injected worker kills and whole-service
//! snapshot/restarts (journal replay restores the lost buffers
//! exactly). Proven by [`crate::oracle::assert_live_agreement`] and the
//! [`crate::chaos`] proptest suite.
//!
//! Unlike the batched engine's span-native layer, the live runner keeps
//! the per-frame route — every report crosses the ingestion service
//! individually because the service's contract (mailbox backpressure,
//! journaled recovery) is per-message by design. The span-native fold is
//! an offline-throughput optimisation; the live path is the fidelity
//! reference for deployment semantics, and both are pinned to the same
//! sequential oracle.

use crate::config::{FaultTimeline, Scenario};
use crate::engine::{
    composed_tables, dispatch_frame, fabricate_report, ClientSlot, FaultCounts, ScenarioOutcome,
    FAULT_STREAM,
};
use rand::Rng;
use rtf_core::accumulator::AccumulatorKind;
use rtf_core::client::Client;
use rtf_core::params::ProtocolParams;
use rtf_core::randomizer::FutureRand;
use rtf_core::server::{Delivery, Server};
use rtf_primitives::fastseed::{self, SeedSchema};
use rtf_primitives::seeding::SeedSequence;
use rtf_primitives::sign::Sign;
use rtf_runtime::ingest::{IngestService, IngestStats, LiveConfig};
use rtf_runtime::{shard_of, FrameBatch};
use rtf_sim::message::{OrderAnnouncement, ReportMsg, WireStats};
use rtf_streams::population::Population;

/// Runs the fault-injected schedule through the streaming ingestion
/// service with `workers` ingestion workers and the
/// `RTF_MAILBOX_CAP`-selected mailbox capacity. Every outcome field is
/// value-for-value identical to [`run_scenario`](crate::engine::run_scenario).
pub fn run_scenario_live(
    params: &ProtocolParams,
    population: &Population,
    seed: u64,
    scenario: &Scenario,
    workers: usize,
) -> ScenarioOutcome {
    run_scenario_live_with(
        params,
        population,
        seed,
        scenario,
        &LiveConfig::new(workers),
    )
    .0
}

/// [`run_scenario_live`] under an explicit [`LiveConfig`], also
/// returning the service's [`IngestStats`].
///
/// # Panics
/// Panics up front if any configured fault names a period outside
/// `1..=d` (see [`LiveConfig::validate_for_horizon`]).
pub fn run_scenario_live_with(
    params: &ProtocolParams,
    population: &Population,
    seed: u64,
    scenario: &Scenario,
    config: &LiveConfig,
) -> (ScenarioOutcome, IngestStats) {
    run_scenario_live_schema(
        params,
        population,
        seed,
        scenario,
        config,
        SeedSchema::from_env(),
    )
}

/// [`run_scenario_live_with`] under an explicit client randomness schema
/// (instead of `RTF_SEED_SCHEMA`).
pub fn run_scenario_live_schema(
    params: &ProtocolParams,
    population: &Population,
    seed: u64,
    scenario: &Scenario,
    config: &LiveConfig,
    schema: SeedSchema,
) -> (ScenarioOutcome, IngestStats) {
    run_scenario_live_timeline(
        params,
        population,
        seed,
        &FaultTimeline::constant(*scenario),
        config,
        schema,
    )
}

/// Runs a [`FaultTimeline`] — a possibly per-period fault schedule —
/// through the streaming ingestion service. The timeline generalisation
/// of [`run_scenario_live_schema`]: `FaultTimeline::constant(s)`
/// reproduces the scenario path bit for bit, while shaped timelines
/// apply a different effective scenario each period. Every outcome
/// field is value-for-value identical to
/// [`run_scenario_timeline`](crate::engine::run_scenario_timeline) on
/// the same timeline, for every worker count, mailbox capacity, chunk
/// size, and chaos plan.
pub fn run_scenario_live_timeline(
    params: &ProtocolParams,
    population: &Population,
    seed: u64,
    timeline: &FaultTimeline,
    config: &LiveConfig,
    schema: SeedSchema,
) -> (ScenarioOutcome, IngestStats) {
    timeline.validate(params.d());
    assert_eq!(population.n(), params.n(), "population/params n mismatch");
    assert_eq!(population.d(), params.d(), "population/params d mismatch");
    population.assert_k_sparse(params.k());

    let composed = composed_tables(params);
    let root = SeedSequence::new(seed);
    let fault_root = root.child(FAULT_STREAM);
    let d = params.d();
    config.validate_for_horizon(d);
    let n = params.n();
    let workers = config.workers.max(1);
    let chunk = config.chunk_rows.max(1);

    // Announce + build clients exactly like the sequential engine (same
    // RNG order), so honest bits and fault decisions are identical.
    let mut server = Server::for_future_rand_schema(*params, AccumulatorKind::Dense, schema);
    let mut wire = WireStats::default();
    let mut faults = FaultCounts::default();
    let mut slots: Vec<ClientSlot> = Vec::with_capacity(n);
    let mut cursors: Vec<rtf_streams::stream::DerivativeCursor<'_>> = Vec::with_capacity(n);
    for u in 0..n {
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
        cursors.push(population.stream(u).derivative().cursor());
    }

    // Registration is complete; the service runs the horizon online. The
    // driver plays the network: `pending[t]` holds the frames the
    // network will deliver during period `t`, appended in emission order
    // (ascending `(emitted, emitter)` by construction of the loop).
    let mut service = IngestService::new(server, workers, config.mailbox_cap);
    let mut pending: Vec<FrameBatch> = (0..=d as usize).map(|_| FrameBatch::new()).collect();
    let mut estimates = Vec::with_capacity(d as usize);
    let mut byz_accepted_by_period = vec![0u64; d as usize];

    for t in 1..=d {
        // Emission: identical to the sequential engine, frame for frame.
        for (u, slot) in slots.iter_mut().enumerate() {
            let x = cursors[u].next_at(t);
            let report = slot.client.observe(t, x, &mut slot.rng);
            if t >= slot.churn_at {
                if !slot.byzantine && report.is_some() {
                    faults.lost_to_churn += 1;
                }
                continue;
            }
            if slot.byzantine {
                faults.byzantine_messages += 1;
                let msg = fabricate_report(&mut slot.frng, params, u as u32);
                dispatch_frame(
                    msg,
                    t,
                    u as u32,
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
            dispatch_frame(
                msg,
                t,
                u as u32,
                false,
                &mut slot.frng,
                timeline,
                &mut faults,
                &mut pending,
                d,
            );
        }

        // Intake: stream this period's deliveries to the mailbox of the
        // worker owning each frame's *emitter*, in chunks, in one pass.
        // Any split works — the period-close merge restores the total
        // order — but emitter affinity is the deployment shape: a worker
        // fronts its own clients.
        let delivered = std::mem::take(&mut pending[t as usize]);
        let mut pieces: Vec<FrameBatch> = (0..workers).map(|_| FrameBatch::new()).collect();
        for frame in delivered.iter() {
            let w = shard_of(n, workers, frame.emitter as usize);
            pieces[w].push(frame);
            if pieces[w].len() >= chunk {
                service.submit_frames(w, std::mem::take(&mut pieces[w]));
            }
        }
        for (w, piece) in pieces.into_iter().enumerate() {
            if !piece.is_empty() {
                service.submit_frames(w, piece);
            }
        }

        // Faults strike after this period's frames are in flight and
        // before the close — recovery must come from journals alone.
        service = config.apply_pre_close(service, t);
        let close = service
            .close_period(t)
            .expect("service shards share the server's shape");
        wire.record_report_batch(close.frames.len() as u64);
        for (frame, outcome) in close.frames.iter().zip(&close.outcomes) {
            if frame.byzantine && *outcome == Delivery::Accepted {
                faults.byzantine_accepted += 1;
                byz_accepted_by_period[(t - 1) as usize] += 1;
            }
        }
        estimates.push(close.estimate);
        service = config.apply_post_close(service, t);
    }

    let (server, stats) = service.finish();
    (
        ScenarioOutcome {
            estimates,
            group_sizes: server.group_sizes().to_vec(),
            wire,
            delivery: server.delivery_log().to_vec(),
            faults,
            byzantine_accepted_by_period: byz_accepted_by_period,
        },
        stats,
    )
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::engine::run_scenario_with;
    use rtf_runtime::ExecMode;
    use rtf_streams::generator::UniformChanges;

    fn setup(n: usize, d: u64, k: usize, seed: u64) -> (ProtocolParams, Population) {
        let params = ProtocolParams::new(n, d, k, 1.0, 0.05).unwrap();
        let mut rng = SeedSequence::new(seed).rng();
        let pop = Population::generate(&UniformChanges::new(d, k, 0.8), n, &mut rng);
        (params, pop)
    }

    fn storm() -> Scenario {
        Scenario::honest()
            .with_dropout(0.05)
            .with_churn(0.01)
            .with_stragglers(0.15, 3)
            .with_duplicates(0.1)
            .with_byzantine(0.15)
    }

    fn assert_outcomes_equal(a: &ScenarioOutcome, b: &ScenarioOutcome, label: &str) {
        assert_eq!(a.estimates, b.estimates, "{label}: estimates");
        assert_eq!(a.group_sizes, b.group_sizes, "{label}: group sizes");
        assert_eq!(a.wire, b.wire, "{label}: wire stats");
        assert_eq!(a.delivery, b.delivery, "{label}: delivery log");
        assert_eq!(a.faults, b.faults, "{label}: fault counts");
        assert_eq!(
            a.byzantine_accepted_by_period, b.byzantine_accepted_by_period,
            "{label}: per-period Byzantine acceptance"
        );
    }

    #[test]
    fn live_matches_sequential_under_a_fault_storm() {
        let (params, pop) = setup(130, 32, 3, 68);
        let seq = run_scenario_with(&params, &pop, 19, &storm(), ExecMode::Sequential);
        assert!(
            seq.faults.byzantine_accepted > 0,
            "the storm must exercise the order-sensitive acceptance race"
        );
        for workers in [1usize, 2, 3, 8] {
            let live = run_scenario_live(&params, &pop, 19, &storm(), workers);
            assert_outcomes_equal(&live, &seq, &format!("{workers} workers"));
        }
    }

    #[test]
    fn live_honest_scenario_matches_the_honest_engine() {
        let (params, pop) = setup(100, 16, 2, 69);
        let seq = run_scenario_with(&params, &pop, 7, &Scenario::honest(), ExecMode::Sequential);
        let live = run_scenario_live(&params, &pop, 7, &Scenario::honest(), 4);
        assert_outcomes_equal(&live, &seq, "honest");
        assert_eq!(live.faults, FaultCounts::default());
    }

    #[test]
    fn worker_kill_mid_storm_recovers_exactly() {
        let (params, pop) = setup(120, 32, 3, 70);
        let seq = run_scenario_with(&params, &pop, 11, &storm(), ExecMode::Sequential);
        for workers in [1usize, 2, 8] {
            let cfg = LiveConfig::new(workers)
                .with_mailbox_cap(1)
                .with_chunk_rows(4)
                .with_kill(0, 16);
            let (live, stats) = run_scenario_live_with(&params, &pop, 11, &storm(), &cfg);
            assert_outcomes_equal(&live, &seq, &format!("kill at w={workers}"));
            assert_eq!(stats.recoveries, 1);
        }
    }

    #[test]
    fn service_restart_mid_storm_recovers_exactly() {
        // The hardest composition: restart the whole service mid-period
        // while the storm is raging (journals hold frames whose order is
        // load-bearing), then kill a worker in the same period later,
        // then restart again cleanly between periods.
        let (params, pop) = setup(120, 32, 3, 71);
        let seq = run_scenario_with(&params, &pop, 17, &storm(), ExecMode::Sequential);
        assert!(
            seq.faults.byzantine_accepted > 0,
            "the storm must exercise the order-sensitive acceptance race"
        );
        for workers in [1usize, 2, 8] {
            let cfg = LiveConfig::new(workers)
                .with_mailbox_cap(2)
                .with_chunk_rows(4)
                .with_restart(12)
                .with_kill(workers.saturating_sub(1), 12)
                .with_restart_after(20);
            let (live, stats) = run_scenario_live_with(&params, &pop, 17, &storm(), &cfg);
            assert_outcomes_equal(&live, &seq, &format!("restart at w={workers}"));
            assert_eq!(stats.restarts, 2, "w={workers}: both restarts fired");
            assert_eq!(stats.recoveries, 1, "w={workers}: the kill fired");
        }
    }

    #[test]
    fn live_matches_sequential_on_a_shaped_timeline() {
        use crate::config::DelayLaw;
        use crate::engine::run_scenario_timeline;

        let (params, pop) = setup(120, 32, 3, 74);
        let base = Scenario::honest().with_byzantine(0.1);
        let rows: Vec<Scenario> = (1..=32u64)
            .map(|t| {
                let mut row = base;
                if (10..=18).contains(&t) {
                    row = row.with_dropout(0.25).with_duplicates(0.2);
                }
                row.with_stragglers(0.15, 5)
            })
            .collect();
        let timeline =
            FaultTimeline::shaped(base, rows).with_delay_law(DelayLaw::Zipf { alpha: 2.0 });
        let seq = run_scenario_timeline(
            &params,
            &pop,
            29,
            &timeline,
            rtf_runtime::ExecMode::Sequential,
            SeedSchema::V1Std,
        );
        assert!(seq.faults.dropped > 0 && seq.faults.delayed > 0);
        for workers in [1usize, 2, 8] {
            let cfg = LiveConfig::new(workers)
                .with_mailbox_cap(2)
                .with_chunk_rows(7);
            let (live, _) =
                run_scenario_live_timeline(&params, &pop, 29, &timeline, &cfg, SeedSchema::V1Std);
            assert_outcomes_equal(&live, &seq, &format!("shaped, {workers} workers"));
        }
    }
}
