//! The paper's primary contribution: the **FutureRand** randomizer and the
//! asymptotically optimal `ε`-LDP longitudinal frequency-estimation
//! protocol.
//!
//! Implements Sections 4 and 5 of *Randomize the Future: Asymptotically
//! Optimal Locally Private Frequency Estimation Protocol for Longitudinal
//! Data* (Ohrimenko, Wirth, Wu — PODS 2022):
//!
//! * [`params`] — validated protocol parameters `(n, d, k, ε, β)` plus the
//!   derived per-order quantities and Theorem 4.1's assumptions;
//! * [`annulus`] — the Hamming-weight annulus `[LB..UB]` of Equation (15);
//! * [`gap`] — *exact* log-domain computation of the weight-class output
//!   law of the composed randomizer: `g(i)`, `P*_out` (Equation 24), the
//!   preservation gap `c_gap` (Lemma 5.3) and the realized privacy loss
//!   (Lemma 5.2);
//! * [`composed`] — the composed randomizer `R̃` (Algorithm 3, lines 3–7)
//!   in two distribution-identical implementations (literal per-coordinate,
//!   and O(1)-per-draw weight-class sampling);
//! * [`randomizer`] — the online [`randomizer::FutureRand`]
//!   (Algorithm 3, `M.init` / `M^{(j)}`) and the naive independent
//!   randomizer of Example 4.2, both behind one trait;
//! * [`client`] — Algorithm 1, the client `Aclt`;
//! * [`accumulator`] — the mergeable per-order accumulation monoid, the
//!   seam along which `rtf-runtime` shards the server across workers:
//!   one exact `f64` lane per order;
//! * [`server`] — Algorithm 2, the streaming server `Asvr`, a thin
//!   checked-ingestion/finalisation facade over one accumulator;
//! * [`protocol`] — an in-memory end-to-end driver (the message-level
//!   simulation lives in `rtf-sim`);
//! * [`bounds`] — the closed-form error bounds the benches print next to
//!   measured errors (Theorem 4.1, the Erlingsson et al. bound, the lower
//!   bound, the central-model bound).
//!
//! # Faithfulness notes
//!
//! The annulus bounds are integers here (`LB = max(0, ⌈kp − 2√k⌉)`,
//! `UB = min(k, ⌊(k/ε̃)·ln(2e^ε̃/(e^ε̃+1))⌋)`); rounding inward (ceil/floor)
//! preserves every inequality in the proofs of Lemmas 5.2/5.3 (see
//! DESIGN.md). The server uses the *exact* `c_gap` of the implemented
//! randomizer — computed in `O(k)` log-domain arithmetic — instead of the
//! asymptotic `Ω(ε/√k)`, which keeps estimates exactly unbiased.
//!
//! Per order `h`, the randomizer is instantiated with
//! `k_eff = max(1, min(k, L))` where `L = d/2^h`: a sequence of length `L`
//! cannot contain more than `L` non-zeros, and Section 5.4's
//! bounded-support argument gives the same privacy guarantee with the
//! smaller (better-utility) parameter.

#![warn(missing_docs)]
#![warn(clippy::all)]

pub mod accumulator;
pub mod annulus;
pub mod bounds;
pub mod calibrate;
pub mod client;
pub mod composed;
pub mod gap;
pub mod params;
pub mod protocol;
pub mod queries;
pub mod randomizer;
pub mod server;
pub mod snapshot;

pub use accumulator::{
    Accumulator, AccumulatorError, AccumulatorKind, AnyAccumulator, DenseAccumulator,
};
pub use annulus::Annulus;
pub use calibrate::{calibrate, Calibration};
pub use client::Client;
pub use composed::ComposedRandomizer;
pub use gap::WeightClassLaw;
pub use params::{ParamsError, ProtocolParams};
pub use protocol::{run_in_memory, ProtocolOutcome};
pub use queries::EstimateStore;
pub use randomizer::{FutureRand, IndependentRand, LocalRandomizer, SpanRandomizers};
pub use server::Server;
pub use snapshot::{SnapReader, SnapWriter, SnapshotError, SNAPSHOT_VERSION};
