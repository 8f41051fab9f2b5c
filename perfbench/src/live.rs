//! `live-service`: the streaming ingestion service under a chaos plan.
//!
//! One producer (this thread) feeds one `IngestService` worker — two
//! threads on a two-thread machine. The report stream is generated during
//! set-up (`build_order_groups`, `SpanGroup::emit_span`,
//! `ReportBatch::extend_packed`), so the timed loop measures only the
//! service: `submit_reports`, which blocks on a full mailbox by contract
//! (a closed loop), `close_period`, and the chaos calls. The worker folds
//! row batches (`ReportBatch::fold_into`) rather than span arithmetic.
//!
//! Chaos plan, per horizon: a mid-period whole-service restart
//! (`snapshot`, teardown, `restore` with journal replay) and a worker
//! kill (journal replay) once every `CHAOS_EVERY` periods each. Each operation is one period close, checked against
//! the offline batched engine run once on a single worker after the
//! timed loop.

use crate::report::{Horizon, Report};
use crate::trace::{LocalTrace, Open, Tracer};
use crate::{
    check_envelope, params, peak_rss_kb, protocol_seed, setup, stamp_params, Args, Pass, Schedule,
    ENVELOPE_Z,
};
use rtf_core::accumulator::AccumulatorKind;
use rtf_core::composed::ComposedRandomizer;
use rtf_core::params::ProtocolParams;
use rtf_core::server::Server;
use rtf_primitives::fastseed::SeedSchema;
use rtf_primitives::seeding::SeedSequence;
use rtf_runtime::ingest::{IngestService, DEFAULT_MAILBOX_CAP};
use rtf_runtime::{ExecMode, ReportBatch};
use rtf_scenarios::oracle::tolerance_band;
use rtf_sim::engine::{build_order_groups, run_event_driven_schema};
use rtf_streams::population::Population;
use std::time::Instant;

const N: usize = 200_000;
const D: u64 = 1024;
const WORKERS: usize = 1;
const SCHEMA: SeedSchema = SeedSchema::V2Fast;
/// Rows per submitted batch, as `rtf_sim::live` submits them.
const CHUNK_ROWS: usize = 4096;
/// A restart strikes at 64 past every multiple of this period and a kill
/// at 32 past it: every restart lands where exactly seven orders report
/// (every kill, six), so all restarts replay journals of one size.
const CHAOS_EVERY: u64 = 128;
const MIN_HORIZONS: usize = 2;

#[derive(Clone, Copy, PartialEq)]
enum Chaos {
    None,
    Restart,
    Kill,
}

fn chaos_at(t: u64) -> Chaos {
    match t % CHAOS_EVERY {
        64 => Chaos::Restart,
        32 => Chaos::Kill,
        _ => Chaos::None,
    }
}

/// The pre-generated inputs: a registered server and, per period, the
/// report batches the producer submits.
struct Stream {
    server: Server,
    periods: Vec<Vec<ReportBatch>>,
    reports: u64,
}

pub fn run(args: &Args, tracer: Option<&Tracer>) -> Report {
    let params = params(N, D);
    let seed = protocol_seed(args.seed);
    let mut report = Report::default();
    stamp_params(&mut report, &params);
    report.param("engine", "\"IngestService\"");
    report.param("workers", WORKERS);
    report.param("producers", 1);
    report.param("mailbox_cap", DEFAULT_MAILBOX_CAP);
    report.param("chunk_rows", CHUNK_ROWS);
    report.param("chaos_every", CHAOS_EVERY);
    report.param("seed_schema", "\"v2\"");

    let (population, stream) = setup(
        args,
        &params,
        tracer,
        &mut report,
        |population, lt, root| generate(&params, population, seed, lt, root),
    );
    report.count("sim.emit_span.reports", stream.reports as f64);

    // Timed horizons; the estimates they publish are checked afterwards.
    let mut passes: Vec<Published> = Vec::new();
    for pass in Schedule::new(args, MIN_HORIZONS) {
        let lt = LocalTrace::new(if pass == Pass::Traced { tracer } else { None }, 0);
        passes.push(horizon(&stream, lt, pass, &mut report));
    }
    report.peak_rss_kb = peak_rss_kb();

    // The second execution path: the offline batched engine on one worker.
    let start = Instant::now();
    let reference = run_event_driven_schema(
        &params,
        &population,
        seed,
        ExecMode::Parallel(1),
        AccumulatorKind::Dense,
        SCHEMA,
    );
    report.reference = (
        "event batched(1)",
        start.elapsed().as_secs_f64(),
        reference.wire.payload_bits,
    );
    let band = tolerance_band(&params, &population, ENVELOPE_Z);
    check_envelope(&mut report, &reference.estimates, &population, &band);
    report.check(
        "pre-generated stream matches the engine",
        stream.reports == reference.wire.payload_bits
            && stream.server.group_sizes() == reference.group_sizes.as_slice(),
        format!(
            "{} rows pre-generated, engine delivered {}",
            stream.reports, reference.wire.payload_bits
        ),
    );
    // Each period close is one operation. A failed call publishes
    // nothing, and the periods after it are never attempted.
    let mut accounting_ok = true;
    for pass in &passes {
        let matching = pass
            .estimates
            .iter()
            .zip(&reference.estimates)
            .filter(|(a, b)| a == b)
            .count() as u64;
        let attempted = pass.estimates.len() as u64 + u64::from(pass.call_failed);
        report.ops += attempted;
        report.ops_failed += attempted - matching;
        accounting_ok &= pass.accounting_ok;
    }
    report.check(
        "closes equal the offline engine",
        report.ops_failed == 0 && accounting_ok,
        format!(
            "{} of {} period closes differ or failed",
            report.ops_failed, report.ops
        ),
    );
    report
}

/// Builds the clients, registers them with a server, and pre-generates
/// every period's report batches.
fn generate(
    params: &ProtocolParams,
    population: &Population,
    seed: u64,
    lt: &mut LocalTrace<'_>,
    root: &Open,
) -> Stream {
    let composed: Vec<ComposedRandomizer> = (0..params.num_orders())
        .map(|h| ComposedRandomizer::for_protocol(params.k_for_order(h), params.epsilon()))
        .collect();
    let s = lt.child("sim.build_order_groups", root);
    let mut groups = build_order_groups(
        params,
        population,
        &composed,
        &SeedSequence::new(seed),
        0..params.n(),
        SCHEMA,
    );
    lt.close(s);
    let mut server = Server::for_future_rand_schema(*params, AccumulatorKind::Dense, SCHEMA);
    for (h, group) in groups.iter().enumerate() {
        for _ in 0..group.len() {
            server.register_user(h as u32);
        }
    }
    let mut periods = Vec::with_capacity(D as usize);
    let mut reports = 0u64;
    for t in 1..=D {
        let mut batches = Vec::new();
        let mut batch = ReportBatch::with_capacity(CHUNK_ROWS);
        for h in 0..=t.trailing_zeros().min(params.log_d()) {
            let group = &mut groups[h as usize];
            if group.is_empty() {
                continue;
            }
            let s = lt.child("sim.emit_span", root);
            group.emit_span(t);
            lt.close(s);
            let len = group.len();
            reports += len as u64;
            // Fill each batch to exactly CHUNK_ROWS rows before starting
            // the next, as `rtf_sim::live` does.
            let mut a = 0;
            while a < len {
                let take = (CHUNK_ROWS - batch.len()).min(len - a);
                batch.extend_packed(
                    &group.users[a..a + take],
                    h as u8,
                    &group.signs,
                    a..a + take,
                );
                a += take;
                if batch.len() == CHUNK_ROWS {
                    batches.push(std::mem::replace(
                        &mut batch,
                        ReportBatch::with_capacity(CHUNK_ROWS),
                    ));
                }
            }
        }
        if !batch.is_empty() {
            batches.push(batch);
        }
        periods.push(batches);
    }
    Stream {
        server,
        periods,
        reports,
    }
}

/// What one pass over the horizon published.
struct Published {
    /// Estimates, up to the first failed call.
    estimates: Vec<f64>,
    /// A call returned `Err` and the pass stopped there.
    call_failed: bool,
    /// The service counted exactly the rows and periods of the stream.
    accounting_ok: bool,
}

/// One pass over the horizon.
fn horizon(stream: &Stream, mut lt: LocalTrace<'_>, pass: Pass, report: &mut Report) -> Published {
    let mut service = IngestService::new(stream.server.clone(), WORKERS, DEFAULT_MAILBOX_CAP);
    let mut estimates = Vec::with_capacity(D as usize);
    let log_d = D.trailing_zeros();
    let (mut wall_s, mut submitted, mut snapshot_bytes, mut restarts, mut replayed) =
        (0.0, 0u64, 0u64, 0u64, 0u64);
    for t in 1..=D {
        // Copying the period's batches is the benchmark's own work: it
        // happens outside the timed calls.
        let batches = stream.periods[(t - 1) as usize].clone();
        let in_period = batches.len() as u64;
        submitted += in_period;
        let chaos = chaos_at(t);
        let op = report.horizons.len() as u64 * D + t;
        let t0 = Instant::now();
        let root = lt.root("bench.op", op);
        for batch in batches {
            let s = lt.child("runtime.ingest.submit_reports", &root);
            service.submit_reports(0, batch);
            lt.close(s);
        }
        let recovery_start = Instant::now();
        match chaos {
            Chaos::Restart => {
                let s = lt.child("runtime.ingest.snapshot", &root);
                let bytes = service.snapshot();
                lt.close(s);
                snapshot_bytes += bytes.len() as u64;
                restarts += 1;
                replayed += in_period;
                let s = lt.child("runtime.ingest.restore", &root);
                drop(service); // joins the worker: nothing of it survives
                let restored = IngestService::restore(&bytes);
                lt.close(s);
                service = match restored {
                    Ok(svc) => svc,
                    Err(_) => return failed(estimates),
                };
            }
            Chaos::Kill => {
                let s = lt.child("runtime.ingest.kill_worker", &root);
                service.kill_worker(0);
                lt.close(s);
            }
            Chaos::None => {}
        }
        let close_start = Instant::now();
        let s = lt.child("runtime.ingest.close_period", &root);
        let close = service.close_period(t);
        lt.close(s);
        let end = Instant::now();
        lt.close(root);
        wall_s += (end - t0).as_secs_f64();
        let Ok(close) = close else {
            return failed(estimates);
        };
        estimates.push(close.estimate);
        if pass == Pass::Untraced {
            match chaos {
                Chaos::None => {
                    report
                        .close_ms
                        .push((end - close_start).as_secs_f64() * 1e3);
                    report.close_orders.push(t.trailing_zeros().min(log_d) + 1);
                }
                Chaos::Restart => report
                    .recovery_ms
                    .push((end - recovery_start).as_secs_f64() * 1e3),
                Chaos::Kill => {}
            }
        }
    }
    let (_, stats) = service.finish();
    lt.flush();
    report.horizons.push(Horizon {
        wall_s,
        reports: stats.rows,
        pass,
    });
    report.count("runtime.ingest.submit_reports.batches", submitted as f64);
    report.count(
        "runtime.ingest.flushed_acc_bytes",
        stats.flushed_acc_bytes as f64,
    );
    report.count(
        "runtime.ingest.snapshot.bytes",
        snapshot_bytes as f64 / restarts.max(1) as f64,
    );
    report.count(
        "runtime.ingest.replayed_batches",
        (stats.replayed_batches + replayed) as f64,
    );
    Published {
        estimates,
        call_failed: false,
        accounting_ok: stats.rows == stream.reports && stats.periods == D,
    }
}

fn failed(estimates: Vec<f64>) -> Published {
    Published {
        estimates,
        call_failed: true,
        accounting_ok: false,
    }
}
