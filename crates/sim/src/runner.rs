//! Parallel, deterministically seeded trial runner.
//!
//! Experiments repeat a protocol execution over many trials (fresh
//! population and fresh protocol randomness per trial) and summarise a
//! per-trial metric. Trials are independent, so they fan out over a
//! [`WorkerPool`]: its queue load-balances while results return in trial
//! order, and determinism is preserved because trial `i` always uses
//! seeds derived from `master_seed → child(i)`, regardless of which
//! worker runs it.

use rtf_core::params::ProtocolParams;
use rtf_core::protocol::ProtocolOutcome;
use rtf_primitives::seeding::SeedSequence;
use rtf_runtime::WorkerPool;
use rtf_streams::generator::StreamGenerator;
use rtf_streams::population::Population;

/// The default execution path for applications: the aggregate sampler
/// (distribution-identical to the event-driven engine, two orders of
/// magnitude faster; see `rtf_sim::aggregate`).
pub fn run_future_rand(
    params: &ProtocolParams,
    population: &Population,
    seed: u64,
) -> ProtocolOutcome {
    crate::aggregate::run_future_rand_aggregate(params, population, seed)
}

/// A repeated-trials experiment plan.
#[derive(Debug, Clone, Copy)]
pub struct TrialPlan {
    /// Protocol parameters shared by all trials.
    pub params: ProtocolParams,
    /// Number of independent trials.
    pub trials: usize,
    /// Master seed; trial `i` derives everything from `child(i)`.
    pub master_seed: u64,
    /// Number of worker threads (0 ⇒ available parallelism).
    pub threads: usize,
}

impl TrialPlan {
    /// A plan with sensible defaults (`threads = 0` ⇒ auto).
    pub fn new(params: ProtocolParams, trials: usize, master_seed: u64) -> Self {
        TrialPlan {
            params,
            trials,
            master_seed,
            threads: 0,
        }
    }

    fn effective_threads(&self) -> usize {
        if self.threads > 0 {
            return self.threads.min(self.trials.max(1));
        }
        std::thread::available_parallelism()
            .map(|n| n.get())
            .unwrap_or(1)
            .min(self.trials.max(1))
    }
}

/// Per-trial metric values plus summary statistics.
#[derive(Debug, Clone)]
pub struct TrialResults {
    values: Vec<f64>,
}

impl TrialResults {
    /// The per-trial values, in trial order.
    pub fn values(&self) -> &[f64] {
        &self.values
    }

    /// Number of trials.
    pub fn len(&self) -> usize {
        self.values.len()
    }

    /// Whether there are no trials.
    pub fn is_empty(&self) -> bool {
        self.values.is_empty()
    }

    /// Sample mean.
    pub fn mean(&self) -> f64 {
        self.values.iter().sum::<f64>() / self.values.len() as f64
    }

    /// Sample standard deviation (unbiased).
    pub fn std(&self) -> f64 {
        let n = self.values.len();
        if n < 2 {
            return 0.0;
        }
        let m = self.mean();
        (self.values.iter().map(|v| (v - m).powi(2)).sum::<f64>() / (n - 1) as f64).sqrt()
    }

    /// The `q`-quantile (linear interpolation), `q ∈ [0, 1]`.
    pub fn quantile(&self, q: f64) -> f64 {
        assert!((0.0..=1.0).contains(&q), "quantile must be in [0,1]");
        let mut sorted = self.values.clone();
        sorted.sort_by(|a, b| a.partial_cmp(b).expect("metric values must not be NaN"));
        let pos = q * (sorted.len() - 1) as f64;
        let lo = pos.floor() as usize;
        let hi = pos.ceil() as usize;
        let frac = pos - lo as f64;
        sorted[lo] * (1.0 - frac) + sorted[hi] * frac
    }

    /// Maximum value.
    pub fn max(&self) -> f64 {
        self.values
            .iter()
            .copied()
            .fold(f64::NEG_INFINITY, f64::max)
    }
}

/// Runs `plan.trials` independent trials in parallel over a
/// [`WorkerPool`] of the plan's thread count.
///
/// Per trial `i`:
/// 1. a fresh population is generated from `generator` with the seed
///    `master → child(i) → child(0)`;
/// 2. `execute(params, &population, protocol_seed)` runs the protocol with
///    `protocol_seed = master → child(i) → child(1)`;
/// 3. `metric(&outcome, &population)` reduces the run to one number.
///
/// Results are returned in trial order, independent of scheduling.
pub fn run_trials<G, E, M>(plan: &TrialPlan, generator: &G, execute: E, metric: M) -> TrialResults
where
    G: StreamGenerator + Sync,
    E: Fn(&ProtocolParams, &Population, u64) -> ProtocolOutcome + Sync,
    M: Fn(&ProtocolOutcome, &Population) -> f64 + Sync,
{
    assert!(plan.trials >= 1, "need at least one trial");
    let root = SeedSequence::new(plan.master_seed);
    let pool = WorkerPool::new(plan.effective_threads());

    let values = pool.map_indexed(plan.trials, |i| {
        let trial_seed = root.child(i as u64);
        let mut pop_rng = trial_seed.child(0).rng();
        let population = Population::generate(generator, plan.params.n(), &mut pop_rng);
        let outcome = execute(&plan.params, &population, trial_seed.child(1).seed());
        metric(&outcome, &population)
    });
    TrialResults { values }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rtf_streams::generator::UniformChanges;

    fn linf(outcome: &ProtocolOutcome, pop: &Population) -> f64 {
        outcome
            .estimates()
            .iter()
            .zip(pop.true_counts())
            .map(|(e, t)| (e - t).abs())
            .fold(0.0, f64::max)
    }

    #[test]
    fn parallel_results_are_deterministic_and_order_stable() {
        let params = ProtocolParams::new(300, 16, 2, 1.0, 0.05).unwrap();
        let gen = UniformChanges::new(16, 2, 0.7);
        let mut plan = TrialPlan::new(params, 12, 777);
        plan.threads = 4;
        let a = run_trials(&plan, &gen, run_future_rand, linf);
        plan.threads = 1;
        let b = run_trials(&plan, &gen, run_future_rand, linf);
        assert_eq!(a.values(), b.values(), "thread count must not matter");
    }

    #[test]
    fn summary_statistics() {
        let r = TrialResults {
            values: vec![1.0, 2.0, 3.0, 4.0],
        };
        assert!((r.mean() - 2.5).abs() < 1e-12);
        assert!((r.std() - (5.0f64 / 3.0).sqrt()).abs() < 1e-12);
        assert_eq!(r.quantile(0.0), 1.0);
        assert_eq!(r.quantile(1.0), 4.0);
        assert!((r.quantile(0.5) - 2.5).abs() < 1e-12);
        assert_eq!(r.max(), 4.0);
        assert_eq!(r.len(), 4);
    }

    #[test]
    fn fresh_population_per_trial() {
        // Different trials see different noise *and* different data: the
        // per-trial errors should not be all identical.
        let params = ProtocolParams::new(200, 16, 2, 1.0, 0.05).unwrap();
        let gen = UniformChanges::new(16, 2, 0.7);
        let plan = TrialPlan::new(params, 8, 1);
        let r = run_trials(&plan, &gen, run_future_rand, linf);
        let first = r.values()[0];
        assert!(
            r.values().iter().any(|&v| (v - first).abs() > 1e-9),
            "all trials identical: {:?}",
            r.values()
        );
    }

    #[test]
    #[should_panic(expected = "at least one trial")]
    fn zero_trials_rejected() {
        let params = ProtocolParams::new(10, 8, 1, 1.0, 0.05).unwrap();
        let gen = UniformChanges::new(8, 1, 0.5);
        let plan = TrialPlan::new(params, 0, 1);
        let _ = run_trials(&plan, &gen, run_future_rand, |_, _| 0.0);
    }
}
