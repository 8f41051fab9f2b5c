//! The repository benchmark's measuring program.
//!
//! `perfbench --workload <name> --seed <n> --seconds <s> --trace <0|1>`
//! generates the workload's inputs from the seed, runs it for about `s`
//! seconds after two warm-up passes, checks every operation against a
//! second execution path, and prints the raw measurements as one JSON
//! document. With `--trace 1` it alternates untraced and traced passes
//! and also writes the spans.
//! `perfbench/run.py` builds this program and turns its output into the
//! named metrics; see `perfbench/README.md`.

mod live;
mod offline;
mod report;
mod storm;
mod trace;

use report::Report;
use rtf_analysis::metrics::linf_error;
use rtf_core::params::ProtocolParams;
use rtf_primitives::seeding::{splitmix64, SeedSequence};
use rtf_scenarios::oracle::band_violations;
use rtf_streams::generator::UniformChanges;
use rtf_streams::population::Population;
use std::time::Instant;
use trace::{LocalTrace, Open, Tracer};

/// Set-ups per run; `setup_s` is their median.
const SETUP_REPS: usize = 7;
/// Untimed passes over the horizon before the timed ones.
const WARMUP_PASSES: usize = 2;
/// Traced passes per run at most, which bounds the spans a run keeps.
const MAX_TRACED_PASSES: usize = 16;
/// Operation id of set-up spans (timed operations count from 1).
const SETUP_OP: u64 = 0;
/// Width of the accuracy envelope, in predicted standard deviations.
pub const ENVELOPE_Z: f64 = 5.0;

/// Protocol defaults shared by the workloads.
const K: usize = 4;
const EPSILON: f64 = 1.0;
const BETA: f64 = 0.05;
const CHANGE_DENSITY: f64 = 0.8;

pub struct Args {
    pub workload: String,
    pub seed: u64,
    pub seconds: f64,
    pub trace: bool,
}

fn parse_args() -> Result<Args, String> {
    let mut workload = None;
    let mut seed = None;
    let mut seconds = None;
    let mut trace = None;
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        match flag.as_str() {
            "--workload" => workload = Some(value),
            "--seed" => seed = Some(value.parse::<u64>().map_err(|e| format!("--seed: {e}"))?),
            "--seconds" => {
                let s = value
                    .parse::<f64>()
                    .map_err(|e| format!("--seconds: {e}"))?;
                if !(s > 0.0 && s.is_finite()) {
                    return Err("--seconds must be positive".into());
                }
                seconds = Some(s);
            }
            "--trace" => {
                trace = Some(match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err("--trace takes 0 or 1".into()),
                })
            }
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    Ok(Args {
        workload: workload.ok_or("--workload is required")?,
        seed: seed.ok_or("--seed is required")?,
        seconds: seconds.ok_or("--seconds is required")?,
        trace: trace.unwrap_or(false),
    })
}

fn main() {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("perfbench: {e}");
            std::process::exit(2);
        }
    };
    let tracer = args.trace.then(Tracer::new);
    let before = calibration_ms();
    let mut report = match args.workload.as_str() {
        "offline-horizon" => offline::run(&args, tracer.as_ref()),
        "live-service" => live::run(&args, tracer.as_ref()),
        "fault-storm" => storm::run(&args, tracer.as_ref()),
        other => {
            eprintln!("perfbench: unknown workload {other:?}");
            std::process::exit(2);
        }
    };
    if let Some(t) = tracer {
        report.spans = t.into_spans();
    }
    let after = calibration_ms();
    report.calibration_ms = [before, after];
    println!("{}", report.to_json(&args.workload, args.seed, args.trace));
}

/// The protocol parameters of a workload with `n` users over `d` periods.
pub fn params(n: usize, d: u64) -> ProtocolParams {
    ProtocolParams::new(n, d, K, EPSILON, BETA).expect("workload parameters are valid")
}

/// The seed the protocol runs under; the population draws from another
/// child of the same root.
pub fn protocol_seed(seed: u64) -> u64 {
    SeedSequence::new(seed).child(2).seed()
}

/// Records the protocol parameters shared by every workload.
pub fn stamp_params(report: &mut Report, params: &ProtocolParams) {
    report.param("n", params.n());
    report.param("d", params.d());
    report.param("k", params.k());
    report.param("epsilon", params.epsilon());
    report.param("beta", params.beta());
    report.param("generator", "\"UniformChanges\"");
    report.param("change_density", CHANGE_DENSITY);
    report.param("backend", "\"dense\"");
}

/// Generates the population `SETUP_REPS` times, timing each, and keeps
/// the last. `extra` runs after each generation inside the set-up clock
/// (the live workload pre-generates its report stream there), under the
/// set-up span; its result is kept from the last repetition too.
pub fn setup<T>(
    args: &Args,
    params: &ProtocolParams,
    tracer: Option<&Tracer>,
    report: &mut Report,
    mut extra: impl FnMut(&Population, &mut LocalTrace<'_>, &Open) -> T,
) -> (Population, T) {
    let mut kept = None;
    for _ in 0..SETUP_REPS {
        // Free the previous repetition first, so peak memory holds one copy.
        drop(kept.take());
        let mut lt = LocalTrace::new(tracer, 0);
        let start = Instant::now();
        let root = lt.root("bench.setup", SETUP_OP);
        let span = lt.child("streams.population.generate", &root);
        let mut rng = SeedSequence::new(args.seed).child(1).rng();
        let population = Population::generate(
            &UniformChanges::new(params.d(), params.k(), CHANGE_DENSITY),
            params.n(),
            &mut rng,
        );
        lt.close(span);
        let made = extra(&population, &mut lt, &root);
        lt.close(root);
        report.setup_s.push(start.elapsed().as_secs_f64());
        lt.flush();
        kept = Some((population, made));
    }
    kept.expect("at least one set-up repetition")
}

/// Checks `estimates` against the truth inside `bounds` (per period) and
/// records the outcome with the ℓ∞ error.
pub fn check_envelope(
    report: &mut Report,
    estimates: &[f64],
    population: &Population,
    bounds: &[f64],
) {
    let truth = population.true_counts();
    let violations = band_violations(estimates, truth, bounds);
    let err = linf_error(estimates, truth);
    let widest = bounds.iter().copied().fold(0.0f64, f64::max);
    report.check(
        "envelope",
        violations.is_empty(),
        format!(
            "linf error {err:.1}, {} of {} periods outside the {ENVELOPE_Z}-sigma envelope \
             (widest bound {widest:.1})",
            violations.len(),
            estimates.len()
        ),
    );
}

/// What one pass over the horizon is for.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum Pass {
    /// Run and checked, not timed: lets caches fill and allocations settle.
    Warmup,
    Untraced,
    Traced,
}

impl Pass {
    pub fn name(self) -> &'static str {
        match self {
            Pass::Warmup => "warmup",
            Pass::Untraced => "untraced",
            Pass::Traced => "traced",
        }
    }
}

/// The passes of a run: `WARMUP_PASSES` warm-up passes, then untraced
/// passes — alternating with up to `MAX_TRACED_PASSES` traced ones when
/// tracing — until the clock runs out and each kind has reached `min`.
pub struct Schedule {
    seconds: f64,
    trace: bool,
    min: usize,
    warmups: usize,
    start: Option<Instant>,
    untraced: usize,
    traced: usize,
}

impl Schedule {
    pub fn new(args: &Args, min: usize) -> Self {
        Schedule {
            seconds: args.seconds,
            trace: args.trace,
            min,
            warmups: WARMUP_PASSES,
            start: None,
            untraced: 0,
            traced: 0,
        }
    }
}

impl Iterator for Schedule {
    type Item = Pass;

    fn next(&mut self) -> Option<Pass> {
        if self.warmups > 0 {
            self.warmups -= 1;
            return Some(Pass::Warmup);
        }
        let start = *self.start.get_or_insert_with(Instant::now);
        let enough = self.untraced >= self.min && (!self.trace || self.traced >= self.min);
        if enough && start.elapsed().as_secs_f64() >= self.seconds {
            return None;
        }
        if self.trace && self.untraced > self.traced && self.traced < MAX_TRACED_PASSES {
            self.traced += 1;
            Some(Pass::Traced)
        } else {
            self.untraced += 1;
            Some(Pass::Untraced)
        }
    }
}

/// The machine's speed around a run, so that a shift in every metric can
/// be told apart from a change in the program: milliseconds of a fixed
/// integer loop and of 2^22 scattered reads over 64 MiB, each best of
/// three.
fn calibration_ms() -> [f64; 2] {
    let best_of_three = |work: &dyn Fn() -> u64| {
        (0..3)
            .map(|_| {
                let start = Instant::now();
                std::hint::black_box(work());
                start.elapsed().as_secs_f64() * 1e3
            })
            .fold(f64::INFINITY, f64::min)
    };
    let cpu = best_of_three(&|| (0..1u64 << 22).fold(0, |x, i| splitmix64(x ^ i)));
    let words: Vec<u64> = (0..1u64 << 23).collect();
    let mask = words.len() - 1;
    let mem = best_of_three(&|| {
        let mut i = 0usize;
        (0..1 << 22).fold(0u64, |sum, _| {
            i = (i + 0x9E37_79B9) & mask;
            sum.wrapping_add(words[i])
        })
    });
    [cpu, mem]
}

/// `VmHWM` of this process, in KiB (0 where `/proc` is unavailable).
/// Workloads read it after the timed loop and before the reference run,
/// whose memory is not the workload's.
pub fn peak_rss_kb() -> u64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|s| {
            s.lines()
                .find(|l| l.starts_with("VmHWM:"))
                .and_then(|l| l.split_whitespace().nth(1))
                .and_then(|v| v.parse().ok())
        })
        .unwrap_or(0)
}
