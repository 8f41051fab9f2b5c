//! T20 — end-to-end throughput of the execution pipeline.
//!
//! ROADMAP's north star is serving millions of users as fast as the
//! hardware allows; the LDP benchmarking literature (Cormode–Maddock–
//! Maple 2021) stresses that protocol comparisons at realistic `n` live
//! or die on simulation throughput. This experiment measures reports/sec
//! and wall time at `n ∈ {10⁵, 10⁶}` through every execution mode — the
//! sequential reference engine (per-report `Bytes` framing) and the
//! batched pipeline at 1/2/4/8 workers — on **both** mode-carrying
//! engines: the honest event-driven schedule and the fault-injected
//! scenario engine (whose batched path additionally pays the
//! frame-provenance merge).
//!
//! Every timed run is asserted **value-for-value identical** to its
//! engine's sequential baseline before its timing is accepted — a
//! throughput number for a wrong answer is worthless.
//!
//! Both engines are measured under **both seed schemas** (`v1` the
//! frozen per-report `StdRng` baseline, `v2` the counter-based fast
//! seeds — see README's seed schema versioning policy); each schema
//! differences against its own sequential baseline, and every JSON row
//! carries a `seed_schema` field so the perf gate keys them apart. The
//! scenario engine rides the same span-native fast path as the event
//! engine now, so the v2 schema matters there too.
//!
//! Every scenario row — sequential included — decomposes into per-stage
//! wall clock (`stage_emit_s` / `stage_merge_s` / `stage_ingest_s`, via
//! `run_scenario_sequential_timed` / `run_scenario_batched_timed`;
//! validated by `scripts/perf_gate.py`). That decomposition is what
//! attributed the historical `parallel(2)`-slower-than-`parallel(1)`
//! anomaly at `n = 10⁶` to the emission stage: the old per-report fault
//! layer walked every client's ~150-byte state machine every period, so
//! on the single-hardware-thread bench box two half-population shards
//! interleaved with the largest possible per-thread working set and
//! every scheduler quantum evicted the other worker's clients. The
//! span-native emission layer replaced that loop with one linear fault
//! pre-walk plus packed sign-word span folds per contiguous client
//! block — per-shard state is a few packed lanes, not the client array —
//! which removes the thrash (and with it the anomaly) instead of merely
//! diagnosing it.
//!
//! The streaming ingestion service is measured alongside the offline
//! modes (`"mode": "live"` rows): the same schedule served through
//! bounded per-worker mailboxes with period-close flushes — the
//! intake-pipeline overhead the service pays over the offline batched
//! fold.
//!
//! Machine-readable output: `BENCH_throughput.json` at the repository
//! root, seeding the perf trajectory (validated by the CI smoke step
//! and enforced as a baseline by the CI perf-regression gate,
//! `scripts/perf_gate.py`).
//!
//! Run with `cargo bench --bench exp_throughput` (full) or
//! `cargo bench --bench exp_throughput -- --smoke` (CI-sized: the
//! `n = 10⁵` slice of the full grid, so every smoke row is directly
//! comparable against the committed full-mode baseline).

use rtf_bench::{banner, Table};
use rtf_core::accumulator::AccumulatorKind;
use rtf_core::params::ProtocolParams;
use rtf_primitives::fastseed::SeedSchema;
use rtf_primitives::seeding::SeedSequence;
use rtf_runtime::ingest::LiveConfig;
use rtf_runtime::ExecMode;
use rtf_scenarios::config::Scenario;
use rtf_scenarios::engine::{
    run_scenario_batched_timed, run_scenario_sequential_timed, ScenarioStageTimings,
};
use rtf_sim::engine::run_event_driven_schema;
use rtf_sim::live::run_event_driven_live_schema;
use rtf_streams::generator::UniformChanges;
use rtf_streams::population::Population;
use std::time::Instant;

/// Worker counts the parallel pipeline is measured at.
const WORKER_COUNTS: [usize; 4] = [1, 2, 4, 8];

/// The seed schemas the event engine is measured under: the v1 per-report
/// `StdRng` baseline and the v2 counter-based fast path.
const SCHEMAS: [SeedSchema; 2] = [SeedSchema::V1Std, SeedSchema::V2Fast];

struct Measurement {
    engine: &'static str,
    n: usize,
    d: u64,
    /// JSON mode label: `sequential`, `parallel`, or `live`.
    mode: &'static str,
    /// Worker count (0 for the sequential reference).
    workers: usize,
    /// Seed schema label: `v1` or `v2`.
    seed_schema: SeedSchema,
    elapsed_s: f64,
    reports: u64,
    reports_per_s: f64,
    /// Per-stage wall clock (scenario engine's batched mode only).
    stages: Option<ScenarioStageTimings>,
}

/// Everything a timed run must reproduce identically for its timing to
/// count: the estimates plus the full wire accounting (and, for the
/// scenario engine, the delivery-affecting fault bookkeeping folded into
/// `wire` by way of delivered frames).
#[derive(PartialEq, Debug)]
struct RunValues {
    estimates: Vec<f64>,
    wire: rtf_sim::message::WireStats,
}

/// Times one engine × mode × schema run, returning the measurement plus
/// the values the caller differences against the same-schema sequential
/// baseline. Both scenario modes run through their timed variants, so
/// every scenario row carries the per-stage decomposition.
fn measure(
    engine: &'static str,
    params: &ProtocolParams,
    population: &Population,
    seed: u64,
    mode: ExecMode,
    scenario: &Scenario,
    schema: SeedSchema,
) -> (Measurement, RunValues) {
    let start = Instant::now();
    let mut stages = None;
    let values = match engine {
        "event" => {
            let out = run_event_driven_schema(
                params,
                population,
                seed,
                mode,
                AccumulatorKind::Dense,
                schema,
            );
            RunValues {
                estimates: out.estimates,
                wire: out.wire,
            }
        }
        "scenario" => match mode {
            ExecMode::Sequential => {
                let (out, t) =
                    run_scenario_sequential_timed(params, population, seed, scenario, schema);
                stages = Some(t);
                RunValues {
                    estimates: out.estimates,
                    wire: out.wire,
                }
            }
            ExecMode::Parallel(w) => {
                let (out, t) = run_scenario_batched_timed(
                    params,
                    population,
                    seed,
                    scenario,
                    w,
                    AccumulatorKind::Dense,
                    schema,
                );
                stages = Some(t);
                RunValues {
                    estimates: out.estimates,
                    wire: out.wire,
                }
            }
        },
        other => unreachable!("unknown engine {other}"),
    };
    let elapsed_s = start.elapsed().as_secs_f64().max(1e-9);
    let reports = values.wire.payload_bits;
    let (mode, workers) = mode_json(mode);
    (
        Measurement {
            engine,
            n: params.n(),
            d: params.d(),
            mode,
            workers,
            seed_schema: schema,
            elapsed_s,
            reports,
            reports_per_s: reports as f64 / elapsed_s,
            stages,
        },
        values,
    )
}

/// Times the streaming ingestion service on the honest schedule with
/// `workers` ingestion workers (default mailbox/chunk shape), returning
/// the measurement plus the values for the baseline difference.
fn measure_live(
    params: &ProtocolParams,
    population: &Population,
    seed: u64,
    workers: usize,
    schema: SeedSchema,
) -> (Measurement, RunValues) {
    let config = LiveConfig::new(workers);
    let start = Instant::now();
    let (out, _stats) = run_event_driven_live_schema(params, population, seed, &config, schema);
    let elapsed_s = start.elapsed().as_secs_f64().max(1e-9);
    let reports = out.wire.payload_bits;
    (
        Measurement {
            engine: "event",
            n: params.n(),
            d: params.d(),
            mode: "live",
            workers,
            seed_schema: schema,
            elapsed_s,
            reports,
            reports_per_s: reports as f64 / elapsed_s,
            stages: None,
        },
        RunValues {
            estimates: out.estimates,
            wire: out.wire,
        },
    )
}

fn mode_json(mode: ExecMode) -> (&'static str, usize) {
    match mode {
        ExecMode::Sequential => ("sequential", 0),
        ExecMode::Parallel(w) => ("parallel", w),
    }
}

fn main() {
    let smoke = std::env::args().any(|a| a == "--smoke")
        || std::env::var("RTF_THROUGHPUT_SMOKE").is_ok_and(|v| v == "1");
    // Smoke runs the n = 1e5 slice of the full grid — same schema, and
    // every smoke row has a directly comparable committed-baseline row
    // for the CI perf-regression gate to difference against.
    let sizes: &[usize] = if smoke {
        &[100_000]
    } else {
        &[100_000, 1_000_000]
    };
    let d = 64u64;
    let k = 4usize;

    banner(
        "T20",
        &format!(
            "pipeline throughput (d={d}, k={k}, workers {WORKER_COUNTS:?}{})",
            if smoke { ", SMOKE" } else { "" }
        ),
        "the batched parallel pipeline multiplies reports/sec over the framed sequential engine, \
         on the honest and the fault-injected schedule alike",
    );

    // A light fault mix for the scenario engine: enough to exercise the
    // fault layer and the provenance merge, not enough to change the
    // report volume materially.
    let storm = Scenario::honest()
        .with_dropout(0.02)
        .with_stragglers(0.05, 2)
        .with_duplicates(0.02);

    let table = Table::new(&[
        ("engine", 9),
        ("n", 9),
        ("schema", 7),
        ("mode", 12),
        ("wall s", 9),
        ("reports", 10),
        ("Mrep/s", 9),
        ("speedup", 8),
    ]);

    let mut rows: Vec<(Measurement, f64)> = Vec::new();
    let print_row = |m: &Measurement, speedup: f64| {
        table.row(&[
            m.engine.into(),
            format!("{}", m.n),
            format!("{}", m.seed_schema),
            if m.workers == 0 {
                m.mode.to_string()
            } else {
                format!("{}({})", m.mode, m.workers)
            },
            format!("{:.2}", m.elapsed_s),
            format!("{}", m.reports),
            format!("{:.2}", m.reports_per_s / 1e6),
            format!("{speedup:.2}x"),
        ]);
    };
    for &n in sizes {
        let params = ProtocolParams::new(n, d, k, 1.0, 0.05).expect("valid parameters");
        let mut rng = SeedSequence::new(7_000 + n as u64).rng();
        let population = Population::generate(&UniformChanges::new(d, k, 0.8), n, &mut rng);

        // The honest event-driven engine under both seed schemas: the v2
        // rows are the tentpole claim (counter-based word-at-a-time
        // randomness lifting the batched/live paths toward the fold
        // ceiling). Each schema differences against its own sequential
        // baseline — the schemas are distinct randomness streams.
        for schema in SCHEMAS {
            let (seq, baseline) = measure(
                "event",
                &params,
                &population,
                42,
                ExecMode::Sequential,
                &storm,
                schema,
            );
            let seq_rate = seq.reports_per_s;
            print_row(&seq, 1.0);
            rows.push((seq, 1.0));

            for w in WORKER_COUNTS {
                let (m, values) = measure(
                    "event",
                    &params,
                    &population,
                    42,
                    ExecMode::Parallel(w),
                    &storm,
                    schema,
                );
                assert_eq!(
                    values, baseline,
                    "event parallel({w})/{schema} must match sequential (estimates + wire \
                     stats) before its timing counts"
                );
                let speedup = m.reports_per_s / seq_rate;
                print_row(&m, speedup);
                rows.push((m, speedup));
            }

            // The streaming ingestion service on the same schedule: what
            // per-period mailbox intake + period-close flushes cost over
            // the offline batched fold.
            for w in WORKER_COUNTS {
                let (m, values) = measure_live(&params, &population, 42, w, schema);
                assert_eq!(
                    values, baseline,
                    "live({w})/{schema} must match sequential (estimates + wire stats) \
                     before its timing counts"
                );
                let speedup = m.reports_per_s / seq_rate;
                print_row(&m, speedup);
                rows.push((m, speedup));
            }
        }

        // The fault-injected engine under both seed schemas: its batched
        // path now rides the same span-native packed-word emission as the
        // event engine, so the v2 counter-based randomness shows up here
        // too. Every row (sequential included) carries the per-stage
        // decomposition.
        for schema in SCHEMAS {
            let (seq, baseline) = measure(
                "scenario",
                &params,
                &population,
                42,
                ExecMode::Sequential,
                &storm,
                schema,
            );
            let seq_rate = seq.reports_per_s;
            print_row(&seq, 1.0);
            if let Some(s) = &seq.stages {
                println!(
                    "    stages: emission {:.2}s, merge {:.2}s, ingest {:.2}s",
                    s.emission_s, s.merge_s, s.ingest_s
                );
            }
            rows.push((seq, 1.0));

            for w in WORKER_COUNTS {
                let (m, values) = measure(
                    "scenario",
                    &params,
                    &population,
                    42,
                    ExecMode::Parallel(w),
                    &storm,
                    schema,
                );
                assert_eq!(
                    values, baseline,
                    "scenario parallel({w})/{schema} must match sequential (estimates + wire \
                     stats) before its timing counts"
                );
                let speedup = m.reports_per_s / seq_rate;
                print_row(&m, speedup);
                if let Some(s) = &m.stages {
                    println!(
                        "    stages: emission {:.2}s, merge {:.2}s, ingest {:.2}s",
                        s.emission_s, s.merge_s, s.ingest_s
                    );
                }
                rows.push((m, speedup));
            }
        }
    }

    // Machine-readable perf trajectory at the repository root.
    let hardware_threads = std::thread::available_parallelism()
        .map(|p| p.get())
        .unwrap_or(1);
    let mut json = String::new();
    json.push_str("{\n");
    json.push_str("  \"bench\": \"exp_throughput\",\n");
    json.push_str(&format!(
        "  \"mode\": \"{}\",\n",
        if smoke { "smoke" } else { "full" }
    ));
    json.push_str(&format!("  \"hardware_threads\": {hardware_threads},\n"));
    json.push_str("  \"results\": [\n");
    for (i, (m, speedup)) in rows.iter().enumerate() {
        let stage_fields = match &m.stages {
            Some(s) => format!(
                ", \"stage_emit_s\": {:.6}, \"stage_merge_s\": {:.6}, \"stage_ingest_s\": {:.6}",
                s.emission_s, s.merge_s, s.ingest_s
            ),
            None => String::new(),
        };
        json.push_str(&format!(
            "    {{\"engine\": \"{}\", \"n\": {}, \"d\": {}, \"mode\": \"{}\", \"workers\": {}, \
             \"seed_schema\": \"{}\", \"elapsed_s\": {:.6}, \"reports\": {}, \
             \"reports_per_s\": {:.1}, \"speedup_vs_sequential\": {:.4}{}}}{}\n",
            m.engine,
            m.n,
            m.d,
            m.mode,
            m.workers,
            m.seed_schema,
            m.elapsed_s,
            m.reports,
            m.reports_per_s,
            speedup,
            stage_fields,
            if i + 1 < rows.len() { "," } else { "" }
        ));
    }
    json.push_str("  ]\n");
    json.push_str("}\n");
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../../BENCH_throughput.json");
    std::fs::write(path, &json).expect("write BENCH_throughput.json");

    let best = rows
        .iter()
        .map(|(_, s)| *s)
        .fold(f64::NEG_INFINITY, f64::max);
    println!(
        "\nresult: every parallel run reproduced the sequential estimates exactly; best \
         throughput {best:.2}x sequential. wrote BENCH_throughput.json. PASS"
    );
}
