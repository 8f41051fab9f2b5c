//! The live (streaming) runner for the honest schedule.
//!
//! [`run_event_driven`](crate::engine::run_event_driven) simulates the
//! deployment offline: each worker owns its user shard for the whole
//! horizon. This module drives the same client state machines through
//! the **streaming ingestion service** (`rtf_runtime::ingest`) instead:
//! every period, each shard's due reports are chunked into columnar
//! batches and streamed into the owning worker's bounded mailbox
//! (blocking when full — backpressure, never loss), and the period is
//! closed by flushing every worker's shard accumulator into the server
//! via `Server::close_period_with_shards`.
//!
//! Because per-user randomness derives from
//! `SeedSequence(seed).child(user)` and shard sums merge exactly, the
//! streaming outcome is **value-for-value identical** to the sequential
//! and batched engines for every worker count, mailbox capacity, chunk
//! size — and across injected worker kills and whole-service
//! snapshot/restarts mid-horizon (journal replay restores the lost
//! state exactly). The differential oracle
//! (`rtf_scenarios::oracle::assert_live_agreement`) proves it.

use crate::engine::{build_order_groups, composed_tables, EventDrivenOutcome};
use crate::message::WireStats;
use rtf_core::accumulator::AccumulatorKind;
use rtf_core::params::ProtocolParams;
use rtf_core::server::Server;
use rtf_primitives::fastseed::SeedSchema;
use rtf_primitives::seeding::SeedSequence;
use rtf_runtime::ingest::{IngestService, IngestStats, LiveConfig};
use rtf_runtime::partition;
use rtf_runtime::ReportBatch;
use rtf_streams::population::Population;

/// Runs the honest schedule through the streaming ingestion service with
/// `workers` ingestion workers and the `RTF_MAILBOX_CAP`-selected
/// mailbox capacity. Value-for-value identical to
/// [`run_event_driven`](crate::engine::run_event_driven) in every mode.
pub fn run_event_driven_live(
    params: &ProtocolParams,
    population: &Population,
    seed: u64,
    workers: usize,
) -> EventDrivenOutcome {
    run_event_driven_live_with(params, population, seed, &LiveConfig::new(workers)).0
}

/// [`run_event_driven_live`] under an explicit [`LiveConfig`] (mailbox
/// capacity, chunk size, injected worker kills and whole-service
/// restarts). Also returns the service's
/// [`IngestStats`] — periods, batches, recoveries, restarts, replays,
/// flushed accumulator bytes.
///
/// # Panics
/// Panics up front if any configured fault names a period outside
/// `1..=d` — such a fault would silently never fire, turning a chaos
/// test vacuous.
pub fn run_event_driven_live_with(
    params: &ProtocolParams,
    population: &Population,
    seed: u64,
    config: &LiveConfig,
) -> (EventDrivenOutcome, IngestStats) {
    run_event_driven_live_schema(params, population, seed, config, SeedSchema::from_env())
}

/// [`run_event_driven_live_with`] under an explicit client randomness
/// schema (instead of `RTF_SEED_SCHEMA`). Under [`SeedSchema::V2Fast`]
/// span emission takes the packed word-at-a-time path, and the service's
/// snapshots (including fault-injected restarts) carry the schema in
/// their headers.
pub fn run_event_driven_live_schema(
    params: &ProtocolParams,
    population: &Population,
    seed: u64,
    config: &LiveConfig,
    schema: SeedSchema,
) -> (EventDrivenOutcome, IngestStats) {
    assert_eq!(population.n(), params.n(), "population/params n mismatch");
    assert_eq!(population.d(), params.d(), "population/params d mismatch");
    population.assert_k_sparse(params.k());

    let composed = composed_tables(params);
    let root = SeedSequence::new(seed);
    let d = params.d();
    config.validate_for_horizon(d);
    let workers = config.workers.max(1);
    let chunk = config.chunk_rows.max(1);
    let shards = partition(params.n(), workers);

    let mut server = Server::for_future_rand_schema(*params, AccumulatorKind::Dense, schema);
    let mut wire = WireStats::default();

    // Per worker shard, clients grouped by order (the one shared
    // construction path of the batched engine — RNG consumption must be
    // identical for the streaming ≡ batched ≡ sequential proof).
    let mut shard_groups: Vec<_> = shards
        .iter()
        .map(|shard| {
            build_order_groups(params, population, &composed, &root, shard.range(), schema)
        })
        .collect();
    for groups in &shard_groups {
        for (h, group) in groups.iter().enumerate() {
            for _ in 0..group.len() {
                server.register_user(h as u32);
                wire.record_announcement();
            }
        }
    }

    // Registration is complete; the service takes the server and runs
    // the horizon online.
    let mut service = IngestService::new(server, workers, config.mailbox_cap);
    let mut estimates = Vec::with_capacity(d as usize);
    for t in 1..=d {
        let max_h = t.trailing_zeros().min(params.log_d());
        for (w, groups) in shard_groups.iter_mut().enumerate() {
            let mut batch = ReportBatch::with_capacity(chunk);
            for h in 0..=max_h {
                let group = &mut groups[h as usize];
                if group.is_empty() {
                    continue;
                }
                group.emit_span(t);
                // Chunk-split bulk appends: fill the in-flight batch to
                // exactly `chunk` rows before each flush — the same
                // batch-size pattern the per-row loop produced.
                let len = group.len();
                let mut a = 0usize;
                while a < len {
                    let take = (chunk - batch.len()).min(len - a);
                    batch.extend_packed(
                        &group.users[a..a + take],
                        h as u8,
                        &group.signs,
                        a..a + take,
                    );
                    a += take;
                    if batch.len() >= chunk {
                        wire.record_report_batch(batch.len() as u64);
                        let full = std::mem::replace(&mut batch, ReportBatch::with_capacity(chunk));
                        service.submit_reports(w, full);
                    }
                }
            }
            if !batch.is_empty() {
                wire.record_report_batch(batch.len() as u64);
                service.submit_reports(w, batch);
            }
        }
        // Faults strike after this period's traffic is in flight and
        // before the close — the worst moment (mid-period restarts and
        // kills must recover from journals alone).
        service = config.apply_pre_close(service, t);
        let close = service
            .close_period(t)
            .expect("service shards share the server's shape");
        estimates.push(close.estimate);
        service = config.apply_post_close(service, t);
    }

    let (server, stats) = service.finish();
    (
        EventDrivenOutcome {
            estimates,
            group_sizes: server.group_sizes().to_vec(),
            wire,
            acc_bytes: stats.flushed_acc_bytes,
        },
        stats,
    )
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::engine::run_event_driven_with;
    use rtf_runtime::ExecMode;
    use rtf_streams::generator::UniformChanges;

    fn setup(n: usize, d: u64, k: usize, seed: u64) -> (ProtocolParams, Population) {
        let params = ProtocolParams::new(n, d, k, 1.0, 0.05).unwrap();
        let mut rng = SeedSequence::new(seed).rng();
        let pop = Population::generate(&UniformChanges::new(d, k, 0.8), n, &mut rng);
        (params, pop)
    }

    #[test]
    fn live_matches_sequential_for_every_worker_count() {
        let (params, pop) = setup(150, 32, 3, 90);
        let seq = run_event_driven_with(&params, &pop, 13, ExecMode::Sequential);
        for workers in [1usize, 2, 3, 8] {
            let live = run_event_driven_live(&params, &pop, 13, workers);
            assert_eq!(live.estimates, seq.estimates, "{workers} workers");
            assert_eq!(live.group_sizes, seq.group_sizes, "{workers} workers");
            assert_eq!(live.wire, seq.wire, "{workers} workers");
        }
    }

    #[test]
    fn backpressure_and_chunking_never_change_values() {
        let (params, pop) = setup(120, 16, 2, 91);
        let seq = run_event_driven_with(&params, &pop, 5, ExecMode::Sequential);
        for (cap, chunk) in [(1usize, 1usize), (1, 7), (2, 3), (64, 1000)] {
            let cfg = LiveConfig::new(3)
                .with_mailbox_cap(cap)
                .with_chunk_rows(chunk);
            let (live, stats) = run_event_driven_live_with(&params, &pop, 5, &cfg);
            assert_eq!(live.estimates, seq.estimates, "cap {cap}, chunk {chunk}");
            assert_eq!(live.wire, seq.wire, "cap {cap}, chunk {chunk}");
            assert_eq!(stats.periods, 16);
            assert_eq!(stats.rows, seq.wire.payload_bits, "every report streamed");
        }
    }

    #[test]
    fn worker_kill_mid_horizon_recovers_exactly() {
        let (params, pop) = setup(140, 32, 3, 92);
        let seq = run_event_driven_with(&params, &pop, 23, ExecMode::Sequential);
        for workers in [1usize, 2, 8] {
            let cfg = LiveConfig::new(workers)
                .with_mailbox_cap(2)
                .with_chunk_rows(5)
                .with_kill(workers.saturating_sub(1), 16);
            let (live, stats) = run_event_driven_live_with(&params, &pop, 23, &cfg);
            assert_eq!(live.estimates, seq.estimates, "{workers} workers");
            assert_eq!(live.wire, seq.wire, "{workers} workers");
            assert_eq!(stats.recoveries, 1, "{workers} workers");
            assert!(stats.replayed_batches > 0, "journal replay must happen");
        }
    }

    #[test]
    fn service_restart_mid_horizon_recovers_exactly() {
        let (params, pop) = setup(140, 32, 3, 94);
        let seq = run_event_driven_with(&params, &pop, 29, ExecMode::Sequential);
        for workers in [1usize, 2, 8] {
            // A mid-period restart at t=16 (journals full), a clean
            // restart after t=24 closes, and a worker kill at t=20 —
            // every composition must still be value-for-value exact.
            let cfg = LiveConfig::new(workers)
                .with_mailbox_cap(2)
                .with_chunk_rows(5)
                .with_restart(16)
                .with_kill(workers + 1, 20)
                .with_restart_after(24);
            let (live, stats) = run_event_driven_live_with(&params, &pop, 29, &cfg);
            assert_eq!(live.estimates, seq.estimates, "{workers} workers");
            assert_eq!(live.wire, seq.wire, "{workers} workers");
            assert_eq!(stats.restarts, 2, "{workers} workers: both restarts fired");
            assert_eq!(stats.recoveries, 1, "{workers} workers: the kill fired");
            assert!(
                stats.replayed_batches > 0,
                "{workers} workers: the mid-period restart replays journals"
            );
        }
    }

    #[test]
    fn fast_schema_live_matches_fast_schema_sequential_through_faults() {
        use crate::engine::run_event_driven_schema;
        let (params, pop) = setup(140, 32, 3, 96);
        let seq = run_event_driven_schema(
            &params,
            &pop,
            37,
            ExecMode::Sequential,
            AccumulatorKind::Dense,
            rtf_runtime::SeedSchema::V2Fast,
        );
        for workers in [1usize, 2, 8] {
            // Mid-period restart + kill: the snapshot/restore cycle now
            // also round-trips the schema header.
            let cfg = LiveConfig::new(workers)
                .with_mailbox_cap(2)
                .with_chunk_rows(5)
                .with_restart(16)
                .with_kill(0, 20);
            let (live, stats) = run_event_driven_live_schema(
                &params,
                &pop,
                37,
                &cfg,
                rtf_runtime::SeedSchema::V2Fast,
            );
            assert_eq!(live.estimates, seq.estimates, "{workers} workers");
            assert_eq!(live.wire, seq.wire, "{workers} workers");
            assert_eq!(stats.restarts, 1, "{workers} workers");
            assert_eq!(stats.recoveries, 1, "{workers} workers");
        }
    }

    #[test]
    fn off_horizon_fault_config_is_rejected() {
        let (params, pop) = setup(60, 8, 2, 95);
        let cfg = LiveConfig::new(2).with_restart(9);
        let caught =
            std::panic::catch_unwind(|| run_event_driven_live_with(&params, &pop, 1, &cfg));
        assert!(caught.is_err(), "a fault that can never fire must panic");
    }

    #[test]
    fn every_backend_agrees_live() {
        let (params, pop) = setup(90, 16, 2, 93);
        let seq = run_event_driven_with(&params, &pop, 31, ExecMode::Sequential);
        let cfg = LiveConfig::new(2).with_chunk_rows(9);
        let (live, _) = run_event_driven_live_with(&params, &pop, 31, &cfg);
        assert_eq!(live.estimates, seq.estimates);
        assert_eq!(live.wire, seq.wire);
    }
}
