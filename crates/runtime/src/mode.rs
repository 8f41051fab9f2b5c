//! Execution-mode selection for the protocol pipelines.

/// How an execution path should run: on the calling thread with the
/// legacy per-report schedule, or through the batched multi-worker
/// pipeline.
///
/// Both modes are value-for-value identical for every worker count —
/// per-user randomness derives from `SeedSequence(seed).child(user)` and
/// shard accumulators merge exactly (integer-valued sums) — so the mode
/// is purely a throughput choice.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ExecMode {
    /// The single-threaded reference schedule (per-report framing on the
    /// hot path). This is the oracle the batched pipeline is differenced
    /// against.
    Sequential,
    /// The batched pipeline over a fixed-size pool of this many workers
    /// (≥ 1). `Parallel(1)` exercises the full sharded machinery on one
    /// worker — useful for isolating batching wins from threading wins.
    Parallel(usize),
}

impl ExecMode {
    /// Reads the mode from the `RTF_WORKERS` environment variable:
    /// unset, empty or `0` means [`ExecMode::Sequential`]; `w ≥ 1` means
    /// [`ExecMode::Parallel`]`(w)`. CI sets `RTF_WORKERS=4` to run the
    /// whole test pyramid through the parallel pipeline.
    ///
    /// # Panics
    /// Panics on a value that is not a worker count
    /// ([`parse_workers`](Self::parse_workers)), so a typo cannot
    /// silently select the sequential engine.
    pub fn from_env() -> Self {
        match Self::parse_workers(workers_var().as_deref()) {
            Some(w) if w >= 1 => ExecMode::Parallel(w),
            _ => ExecMode::Sequential,
        }
    }

    /// Like [`from_env`](Self::from_env), but for surfaces whose natural
    /// default is parallel (throughput benches, large examples): unset
    /// or empty `RTF_WORKERS` means `Parallel(available parallelism)`,
    /// an explicit `0` means `Parallel(1)` (single-worker batched
    /// pipeline — no threading, still batched), `w ≥ 1` means
    /// `Parallel(w)`.
    ///
    /// # Panics
    /// Panics on a value that is not a worker count, as
    /// [`from_env`](Self::from_env) does.
    pub fn from_env_or_parallel() -> Self {
        match Self::parse_workers(workers_var().as_deref()) {
            Some(w) => ExecMode::Parallel(w.max(1)),
            None => ExecMode::Parallel(
                std::thread::available_parallelism()
                    .map(|p| p.get())
                    .unwrap_or(1),
            ),
        }
    }

    /// Parses a raw `RTF_WORKERS` value: `None` when it is unset or
    /// blank (the caller's default applies), else the worker count it
    /// names (`0` included; surrounding whitespace is ignored).
    ///
    /// # Panics
    /// Panics, naming the valid values, on anything else — the same
    /// loud failure `SeedSchema::from_env` gives an unknown
    /// `RTF_SEED_SCHEMA`.
    pub fn parse_workers(raw: Option<&str>) -> Option<usize> {
        let v = raw?.trim();
        if v.is_empty() {
            return None;
        }
        Some(v.parse().unwrap_or_else(|_| {
            panic!(
                "unparsable RTF_WORKERS {v:?}; valid values: unset or empty (default), \
                 0, or a worker count w ≥ 1"
            )
        }))
    }

    /// The worker count this mode runs on (`Sequential` ⇒ 1).
    pub fn workers(&self) -> usize {
        match *self {
            ExecMode::Sequential => 1,
            ExecMode::Parallel(w) => w.max(1),
        }
    }

    /// Whether this mode uses the batched multi-worker pipeline.
    pub fn is_parallel(&self) -> bool {
        matches!(self, ExecMode::Parallel(_))
    }
}

/// The raw `RTF_WORKERS` value; a non-Unicode value is kept (lossily)
/// so that it fails to parse instead of reading as unset.
fn workers_var() -> Option<String> {
    std::env::var_os("RTF_WORKERS").map(|v| v.to_string_lossy().into_owned())
}

impl std::fmt::Display for ExecMode {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ExecMode::Sequential => write!(f, "sequential"),
            ExecMode::Parallel(w) => write!(f, "parallel({w})"),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn workers_and_flags() {
        assert_eq!(ExecMode::Sequential.workers(), 1);
        assert!(!ExecMode::Sequential.is_parallel());
        assert_eq!(ExecMode::Parallel(4).workers(), 4);
        assert!(ExecMode::Parallel(4).is_parallel());
        // Degenerate Parallel(0) clamps to one worker.
        assert_eq!(ExecMode::Parallel(0).workers(), 1);
    }

    #[test]
    fn parse_workers_accepts_counts_and_defaults_on_blank() {
        assert_eq!(ExecMode::parse_workers(None), None);
        assert_eq!(ExecMode::parse_workers(Some("")), None);
        assert_eq!(ExecMode::parse_workers(Some("  ")), None);
        assert_eq!(ExecMode::parse_workers(Some("0")), Some(0));
        assert_eq!(ExecMode::parse_workers(Some("4")), Some(4));
        assert_eq!(ExecMode::parse_workers(Some(" 12\n")), Some(12));
    }

    #[test]
    fn parse_workers_rejects_typos_loudly() {
        for raw in ["4x", "-1", "four", "2.0", "\u{FFFD}"] {
            let err = std::panic::catch_unwind(|| ExecMode::parse_workers(Some(raw))).unwrap_err();
            let msg = err.downcast_ref::<String>().expect("formatted panic");
            assert!(msg.contains("RTF_WORKERS"), "{raw:?}: {msg}");
            assert!(msg.contains("valid values"), "{raw:?}: {msg}");
        }
    }

    #[test]
    fn display_names() {
        assert_eq!(ExecMode::Sequential.to_string(), "sequential");
        assert_eq!(ExecMode::Parallel(8).to_string(), "parallel(8)");
    }
}
