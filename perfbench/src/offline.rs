//! `offline-horizon`: the researcher's full-horizon simulation.
//!
//! Each operation is one horizon of the honest event engine in batched
//! mode (`run_event_driven_schema`, two workers, v2 seeds): the client
//! randomizer and the span popcount fold do the work, and no mailbox,
//! frame or snapshot is touched. Every horizon is checked against the
//! sequential engine, run once after the timed loop.
//!
//! The traced pass rebuilds the same batched pipeline from the public
//! pieces the engine is made of — `build_order_groups`,
//! `SpanGroup::emit_span`, `SignLane::count_plus`,
//! `Accumulator::record_counts`, `Server::absorb_shard`,
//! `Server::end_of_period` — with a span around each call, and its
//! estimates must equal the engine's.

use crate::report::{Horizon, Report};
use crate::trace::{LocalTrace, Tracer};
use crate::{
    check_envelope, params, peak_rss_kb, protocol_seed, setup, stamp_params, Args, Pass, Schedule,
    ENVELOPE_Z,
};
use rtf_core::accumulator::{Accumulator, AccumulatorKind, AnyAccumulator};
use rtf_core::composed::ComposedRandomizer;
use rtf_core::params::ProtocolParams;
use rtf_core::server::Server;
use rtf_primitives::fastseed::SeedSchema;
use rtf_primitives::seeding::SeedSequence;
use rtf_runtime::{ExecMode, WorkerPool};
use rtf_scenarios::oracle::tolerance_band;
use rtf_sim::engine::{build_order_groups, run_event_driven_schema, EventDrivenOutcome};
use rtf_streams::population::Population;
use std::time::Instant;

const N: usize = 1_000_000;
const D: u64 = 64;
const WORKERS: usize = 2;
const SCHEMA: SeedSchema = SeedSchema::V2Fast;
/// Fewest timed horizons of each kind (untraced, traced) a run measures.
const MIN_OPS: usize = 3;

pub fn run(args: &Args, tracer: Option<&Tracer>) -> Report {
    let params = params(N, D);
    let seed = protocol_seed(args.seed);
    let mut report = Report::default();
    stamp_params(&mut report, &params);
    report.param("engine", "\"run_event_driven_schema\"");
    report.param("workers", WORKERS);
    report.param("seed_schema", "\"v2\"");
    let (population, ()) = setup(args, &params, tracer, &mut report, |_, _, _| ());

    // Timed horizons; their outputs are kept and checked afterwards.
    let mut outputs: Vec<Output> = Vec::new();
    for pass in Schedule::new(args, MIN_OPS) {
        let t0 = Instant::now();
        let (output, reports) = if pass == Pass::Traced {
            let op = outputs.len() as u64 + 1;
            let (estimates, emitted) = traced_horizon(&params, &population, seed, tracer, op);
            report.count("sim.emit_span.reports", emitted as f64);
            (Output::Rebuilt(estimates), emitted)
        } else {
            let out = run_event_driven_schema(
                &params,
                &population,
                seed,
                ExecMode::Parallel(WORKERS),
                AccumulatorKind::Dense,
                SCHEMA,
            );
            let reports = out.wire.payload_bits;
            (Output::Engine(out), reports)
        };
        let wall_s = t0.elapsed().as_secs_f64();
        report.horizons.push(Horizon {
            wall_s,
            reports,
            pass,
        });
        outputs.push(output);
    }
    report.peak_rss_kb = peak_rss_kb();

    // The second execution path: the sequential engine, once, untimed.
    let start = Instant::now();
    let reference = run_event_driven_schema(
        &params,
        &population,
        seed,
        ExecMode::Sequential,
        AccumulatorKind::Dense,
        SCHEMA,
    );
    report.reference = (
        "event sequential",
        start.elapsed().as_secs_f64(),
        reference.wire.payload_bits,
    );
    let band = tolerance_band(&params, &population, ENVELOPE_Z);
    check_envelope(&mut report, &reference.estimates, &population, &band);
    for output in &outputs {
        let ok = match output {
            Output::Engine(out) => {
                report
                    .counters
                    .insert("core.accumulator.heap_bytes", out.acc_bytes as f64);
                same_outcome(out, &reference)
            }
            Output::Rebuilt(estimates) => *estimates == reference.estimates,
        };
        report.ops += 1;
        report.ops_failed += u64::from(!ok);
    }
    report.check(
        "horizons equal the sequential engine",
        report.ops_failed == 0,
        format!("{} of {} horizons differ", report.ops_failed, report.ops),
    );
    report
}

/// What one timed horizon produced.
enum Output {
    Engine(EventDrivenOutcome),
    /// Estimates of the traced rebuild: they must equal the engine's,
    /// which equal the sequential engine's.
    Rebuilt(Vec<f64>),
}

fn same_outcome(a: &EventDrivenOutcome, b: &EventDrivenOutcome) -> bool {
    a.estimates == b.estimates && a.group_sizes == b.group_sizes && a.wire == b.wire
}

/// One horizon of the batched pipeline rebuilt from its public pieces,
/// with spans. Returns the estimates and the number of reports emitted.
fn traced_horizon(
    params: &ProtocolParams,
    population: &Population,
    seed: u64,
    tracer: Option<&Tracer>,
    op: u64,
) -> (Vec<f64>, u64) {
    let mut lt = LocalTrace::new(tracer, 0);
    let root = lt.root("bench.op", op);
    let composed: Vec<ComposedRandomizer> = (0..params.num_orders())
        .map(|h| ComposedRandomizer::for_protocol(params.k_for_order(h), params.epsilon()))
        .collect();
    let seeds = SeedSequence::new(seed);
    let d = params.d();
    let orders = params.num_orders() as usize;

    let map = lt.child("runtime.pool.map_shards", &root);
    let shards: Vec<(Vec<AnyAccumulator>, Vec<usize>, u64)> =
        WorkerPool::new(WORKERS).map_shards(params.n(), |shard| {
            let mut lt = LocalTrace::new(tracer, shard.index as u32 + 1);
            let span = lt.child("runtime.pool.shard", &map);
            let s = lt.child("sim.build_order_groups", &span);
            let mut groups =
                build_order_groups(params, population, &composed, &seeds, shard.range(), SCHEMA);
            lt.close(s);
            let sizes: Vec<usize> = groups.iter().map(|g| g.len()).collect();
            let mut per_period: Vec<AnyAccumulator> = (0..d)
                .map(|_| AccumulatorKind::Dense.new_accumulator(orders))
                .collect();
            let mut emitted = 0u64;
            for t in 1..=d {
                let acc = &mut per_period[(t - 1) as usize];
                for h in 0..=t.trailing_zeros().min(params.log_d()) {
                    let group = &mut groups[h as usize];
                    if group.is_empty() {
                        continue;
                    }
                    let len = group.len();
                    let s = lt.child("sim.emit_span", &span);
                    group.emit_span(t);
                    lt.close(s);
                    let s = lt.child("runtime.sign_lane.count_plus", &span);
                    let plus = group.signs.count_plus(0..len);
                    lt.close(s);
                    let s = lt.child("core.accumulator.record_counts", &span);
                    acc.record_counts(h, plus, len as u64 - plus);
                    lt.close(s);
                    emitted += len as u64;
                }
            }
            lt.close(span);
            lt.flush();
            (per_period, sizes, emitted)
        });
    lt.close(map);

    let mut server = Server::for_future_rand_schema(*params, AccumulatorKind::Dense, SCHEMA);
    for (_, sizes, _) in &shards {
        for (h, &count) in sizes.iter().enumerate() {
            for _ in 0..count {
                server.register_user(h as u32);
            }
        }
    }
    let mut estimates = Vec::with_capacity(d as usize);
    for t in 1..=d {
        for (per_period, _, _) in &shards {
            let s = lt.child("core.server.absorb_shard", &root);
            server
                .absorb_shard(&per_period[(t - 1) as usize])
                .expect("shard accumulators share the server's backend and shape");
            lt.close(s);
        }
        let s = lt.child("core.server.end_of_period", &root);
        estimates.push(server.end_of_period(t));
        lt.close(s);
    }
    lt.close(root);
    lt.flush();
    (estimates, shards.iter().map(|s| s.2).sum())
}
