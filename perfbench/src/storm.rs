//! `fault-storm`: the span-native scenario engine under a fault mix.
//!
//! Each operation is one horizon of `run_scenario_batched_timed` (two
//! workers, v1 seeds, so the default `fill_span` randomizer runs). The
//! mix of dropout, stragglers, duplicates, Byzantine clients, malformed
//! frames and light churn leaves a large faulted residue, so frame merge
//! (`FrameBatch::merge_ordered`) and the floor-checked ingestion ladder do
//! real work here and nowhere else. Every horizon is checked against the
//! sequential scenario engine, run once after the timed loop, and the
//! residual fault-stream digests of the sequential and batched engines
//! must agree.
//!
//! The engine reports its stage durations, not intervals, so the traced
//! pass lays the three stages end to end inside the operation's span.

use crate::report::{Horizon, Report};
use crate::trace::{LocalTrace, Tracer};
use crate::{
    check_envelope, params, peak_rss_kb, protocol_seed, setup, stamp_params, Args, Pass, Schedule,
    ENVELOPE_Z,
};
use rtf_core::accumulator::AccumulatorKind;
use rtf_primitives::fastseed::SeedSchema;
use rtf_runtime::ExecMode;
use rtf_scenarios::config::Scenario;
use rtf_scenarios::engine::{
    run_scenario_batched_timed, run_scenario_schema_digest, ScenarioOutcome,
};
use rtf_scenarios::oracle::faulty_envelope;
use std::time::Instant;

const N: usize = 500_000;
const D: u64 = 64;
const WORKERS: usize = 2;
const SCHEMA: SeedSchema = SeedSchema::V1Std;
const MIN_OPS: usize = 3;

/// The fault mix. Churn stays light: at 0.02 per period it removed
/// almost half of the due reports.
fn storm() -> Scenario {
    Scenario::honest()
        .with_dropout(0.05)
        .with_stragglers(0.10, 3)
        .with_duplicates(0.10)
        .with_byzantine(0.01)
        .with_malformed(0.01)
        .with_churn(0.001)
}

pub fn run(args: &Args, tracer: Option<&Tracer>) -> Report {
    let params = params(N, D);
    let seed = protocol_seed(args.seed);
    let scenario = storm();
    let mut report = Report::default();
    stamp_params(&mut report, &params);
    report.param("engine", "\"run_scenario_batched_timed\"");
    report.param("workers", WORKERS);
    report.param("seed_schema", "\"v1\"");
    report.param(
        "faults",
        format!(
            "{{\"dropout\":{},\"stragglers\":{},\"max_delay\":{},\"duplicates\":{},\
             \"byzantine\":{},\"malformed\":{},\"churn\":{}}}",
            scenario.drop_prob,
            scenario.straggle_prob,
            scenario.max_delay,
            scenario.duplicate_prob,
            scenario.byzantine_frac,
            scenario.malformed_prob,
            scenario.churn_prob
        ),
    );
    let (population, ()) = setup(args, &params, tracer, &mut report, |_, _, _| ());

    // Timed horizons; their outcomes are kept and checked afterwards.
    let mut outcomes: Vec<ScenarioOutcome> = Vec::new();
    for pass in Schedule::new(args, MIN_OPS) {
        let traced = if pass == Pass::Traced { tracer } else { None };
        let mut lt = LocalTrace::new(traced, 0);
        let t0 = Instant::now();
        let root = lt.root("bench.op", outcomes.len() as u64 + 1);
        let (out, stages) = run_scenario_batched_timed(
            &params,
            &population,
            seed,
            &scenario,
            WORKERS,
            AccumulatorKind::Dense,
            SCHEMA,
        );
        lt.close(root);
        let wall_s = t0.elapsed().as_secs_f64();
        let at = lt.record(
            "scenarios.engine.emission",
            &root,
            root.start_ns(),
            stages.emission_s,
        );
        let at = lt.record("scenarios.engine.merge", &root, at, stages.merge_s);
        lt.record("scenarios.engine.ingest", &root, at, stages.ingest_s);
        lt.flush();
        report.horizons.push(Horizon {
            wall_s,
            reports: out.wire.payload_bits,
            pass,
        });
        outcomes.push(out);
    }
    report.peak_rss_kb = peak_rss_kb();

    // The second execution path: the sequential scenario engine, once,
    // untimed; and the batched engine's residual fault-stream digest.
    let start = Instant::now();
    let (reference, seq_digest) = run_scenario_schema_digest(
        &params,
        &population,
        seed,
        &scenario,
        ExecMode::Sequential,
        AccumulatorKind::Dense,
        SCHEMA,
    );
    report.reference = (
        "scenario sequential",
        start.elapsed().as_secs_f64(),
        reference.wire.payload_bits,
    );
    let (_, batched_digest) = run_scenario_schema_digest(
        &params,
        &population,
        seed,
        &scenario,
        ExecMode::Parallel(WORKERS),
        AccumulatorKind::Dense,
        SCHEMA,
    );
    report.check(
        "residual fault-stream digest",
        seq_digest == batched_digest,
        format!("sequential {seq_digest:#018x}, batched {batched_digest:#018x}"),
    );
    let band = faulty_envelope(&params, &population, &reference, ENVELOPE_Z);
    check_envelope(&mut report, &reference.estimates, &population, &band);
    count_outcome(&mut report, &reference);
    for out in &outcomes {
        report.ops += 1;
        report.ops_failed += u64::from(!same_outcome(out, &reference));
    }
    report.check(
        "horizons equal the sequential engine",
        report.ops_failed == 0,
        format!("{} of {} horizons differ", report.ops_failed, report.ops),
    );
    report
}

fn same_outcome(a: &ScenarioOutcome, b: &ScenarioOutcome) -> bool {
    a.estimates == b.estimates
        && a.group_sizes == b.group_sizes
        && a.wire == b.wire
        && a.delivery == b.delivery
        && a.faults == b.faults
        && a.byzantine_accepted_by_period == b.byzantine_accepted_by_period
}

/// Delivery and fault counts of one horizon (every horizon is identical).
fn count_outcome(report: &mut Report, out: &ScenarioOutcome) {
    let sum = |f: fn(&rtf_core::server::PeriodDelivery) -> u64| -> u64 {
        out.delivery.iter().map(f).sum()
    };
    let accepted = sum(|r| r.accepted);
    let late = sum(|r| r.late);
    let duplicate = sum(|r| r.duplicate);
    let rejected = sum(|r| r.rejected());
    report.count("core.server.delivery.due", sum(|r| r.due) as f64);
    report.count("core.server.delivery.accepted", accepted as f64);
    report.count("core.server.delivery.late", late as f64);
    report.count("core.server.delivery.duplicate", duplicate as f64);
    report.count("core.server.delivery.rejected", rejected as f64);
    report.count("core.server.delivery.missing", sum(|r| r.missing()) as f64);
    let attempts = accepted + late + duplicate + rejected;
    report.count(
        "core.server.delivery.accepted_frac",
        accepted as f64 / attempts.max(1) as f64,
    );
    let f = &out.faults;
    report.count("scenarios.faults.dropped", f.dropped as f64);
    report.count("scenarios.faults.delayed", f.delayed as f64);
    report.count(
        "scenarios.faults.duplicates_injected",
        f.duplicates_injected as f64,
    );
    report.count(
        "scenarios.faults.byzantine_messages",
        f.byzantine_messages as f64,
    );
    report.count(
        "scenarios.faults.byzantine_accepted",
        f.byzantine_accepted as f64,
    );
    report.count("scenarios.faults.malformed", f.malformed as f64);
}
