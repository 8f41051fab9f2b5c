//! Mergeable accumulation state — the storage layer of Algorithm 2.
//!
//! The server's only per-report state is, per order `h`, the running sum
//! of ±1 report bits of the currently open order-`h` dyadic interval.
//! That is a commutative monoid: accumulating a shard of users on its own
//! [`Accumulator`] and [`merge`](Accumulator::merge)-ing the shards gives
//! exactly the sum the sequential server would have built — report bits
//! are ±1 and batch totals are integer-valued, so every intermediate sum
//! is an integer with `|sum| ≤ n < 2⁵³` and `f64` addition over them is
//! exact, associative, and commutative. This is what makes
//! user-partitioned parallel execution value-for-value identical to
//! sequential execution for any worker count.
//!
//! The sums live in one layout, [`DenseAccumulator`]: one `f64` lane per
//! order plus a report counter. Exactness makes any other exact layout
//! produce the same estimates, and at `1 + log d` lanes the state is a
//! few hundred bytes, so no other layout has anything to win.
//!
//! [`Server`](crate::server::Server) owns one accumulator and is a thin
//! checked-ingestion/finalisation facade over it; the parallel runtime
//! builds one shard accumulator per worker and merges them in
//! shard-index order. Merging shards of different shapes is a typed
//! [`AccumulatorError`], never UB or a silent wrong answer.

use crate::snapshot::{SnapReader, SnapWriter, SnapshotError};
use rtf_primitives::sign::Sign;

/// Why two accumulators refused to merge.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum AccumulatorError {
    /// The order counts differ — the shards track different horizons.
    ShapeMismatch {
        /// Orders of the accumulator being merged into.
        expected: usize,
        /// Orders of the offending shard.
        got: usize,
    },
}

impl std::fmt::Display for AccumulatorError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            AccumulatorError::ShapeMismatch { expected, got } => write!(
                f,
                "cannot merge accumulators of different shapes: {expected} vs {got} orders"
            ),
        }
    }
}

impl std::error::Error for AccumulatorError {}

/// Mergeable per-order report accumulation.
///
/// Implementations must form a commutative monoid under
/// [`merge`](Self::merge) for integer-valued contents: `merge` is how
/// worker shards combine, and the runtime relies on
/// `a ⊕ (b ⊕ c) = (a ⊕ b) ⊕ c` and `a ⊕ b = b ⊕ a` to make results
/// independent of the worker count and partition.
pub trait Accumulator: Send {
    /// Number of orders (`1 + log d`) this accumulator tracks.
    fn orders(&self) -> usize;

    /// Records one ±1 report bit for the currently open order-`h`
    /// interval.
    fn record(&mut self, h: u32, bit: Sign);

    /// Records a pre-summed batch of `count` report bits totalling `sum`
    /// (integer-valued for ±1 bits).
    fn record_batch(&mut self, h: u32, sum: f64, count: u64);

    /// Records a batch given as separate `+1`/`−1` counts — the shape the
    /// packed sign lanes produce from masked popcounts. Equivalent by
    /// definition to `record_batch(h, (plus − minus) as f64,
    /// plus + minus)`.
    #[inline]
    fn record_counts(&mut self, h: u32, plus: u64, minus: u64) {
        self.record_batch(h, (plus as i64 - minus as i64) as f64, plus + minus);
    }

    /// Adds another shard of the same shape into `self`, rejecting
    /// mismatched shapes with a typed error.
    fn try_merge(&mut self, other: &Self) -> Result<(), AccumulatorError>;

    /// Adds another shard of the same shape into `self`.
    ///
    /// # Panics
    /// Panics if the shapes (order counts) differ; use
    /// [`try_merge`](Self::try_merge) where a recoverable error is
    /// wanted.
    fn merge(&mut self, other: &Self) {
        if let Err(e) = self.try_merge(other) {
            panic!("{e}");
        }
    }

    /// The running sum of the currently open order-`h` interval.
    fn order_sum(&self, h: u32) -> f64;

    /// Returns the order-`h` sum and resets it to zero — called by the
    /// server when the order-`h` interval completes.
    fn take_order(&mut self, h: u32) -> f64;

    /// Total number of report bits recorded (including merged shards).
    fn reports(&self) -> u64;

    /// Bytes of heap memory this accumulator's storage currently holds.
    fn heap_bytes(&self) -> usize;
}

/// The dense per-order shard implementation: one running `f64` sum per
/// order plus a report counter. This is the accumulation state formerly
/// embedded in `Server` (`open_sums` + `reports_ingested`), extracted so
/// shards of users can accumulate independently and merge.
#[derive(Debug, Clone, PartialEq)]
pub struct DenseAccumulator {
    sums: Vec<f64>,
    reports: u64,
}

impl DenseAccumulator {
    /// An empty accumulator for `orders` orders (`1 + log d`).
    pub fn new(orders: usize) -> Self {
        DenseAccumulator {
            sums: vec![0.0; orders],
            reports: 0,
        }
    }

    /// The per-order running sums.
    pub fn sums(&self) -> &[f64] {
        &self.sums
    }

    /// Whether nothing has been recorded (all sums zero, zero reports).
    pub fn is_empty(&self) -> bool {
        self.reports == 0 && self.sums.iter().all(|&s| s == 0.0)
    }
}

impl Accumulator for DenseAccumulator {
    fn orders(&self) -> usize {
        self.sums.len()
    }

    #[inline]
    fn record(&mut self, h: u32, bit: Sign) {
        self.sums[h as usize] += bit.as_f64();
        self.reports += 1;
    }

    #[inline]
    fn record_batch(&mut self, h: u32, sum: f64, count: u64) {
        self.sums[h as usize] += sum;
        self.reports += count;
    }

    #[inline]
    fn record_counts(&mut self, h: u32, plus: u64, minus: u64) {
        // Integer difference first, one exact f64 add after — identical
        // value to record_batch (the difference is integral and small).
        self.sums[h as usize] += (plus as i64 - minus as i64) as f64;
        self.reports += plus + minus;
    }

    fn try_merge(&mut self, other: &Self) -> Result<(), AccumulatorError> {
        if self.sums.len() != other.sums.len() {
            return Err(AccumulatorError::ShapeMismatch {
                expected: self.sums.len(),
                got: other.sums.len(),
            });
        }
        for (a, b) in self.sums.iter_mut().zip(&other.sums) {
            *a += b;
        }
        self.reports += other.reports;
        Ok(())
    }

    #[inline]
    fn order_sum(&self, h: u32) -> f64 {
        self.sums[h as usize]
    }

    #[inline]
    fn take_order(&mut self, h: u32) -> f64 {
        std::mem::take(&mut self.sums[h as usize])
    }

    fn reports(&self) -> u64 {
        self.reports
    }

    fn heap_bytes(&self) -> usize {
        self.sums.capacity() * std::mem::size_of::<f64>()
    }
}

/// Snapshot tags of the accumulator payload. Dense (`0`) is the only tag
/// written; `1`–`3` are the integer, sparse and count-lane layouts an
/// older build could write, still read into dense lanes.
const TAG_DENSE: u8 = 0;
const TAG_FIXED: u8 = 1;
const TAG_SPARSE: u8 = 2;
const TAG_COUNT_LANES: u8 = 3;

/// Every integer of magnitude up to `2⁵³` is exactly an `f64`.
const EXACT_LIMIT: i128 = 1 << 53;

/// An integer sum of a retired layout as a dense lane value, refusing
/// magnitudes an `f64` cannot hold exactly.
fn exact_lane(sum: i128) -> Result<f64, SnapshotError> {
    if sum.abs() > EXACT_LIMIT {
        return Err(SnapshotError::Corrupt("integer lane sum beyond 2^53"));
    }
    Ok(sum as f64)
}

impl DenseAccumulator {
    /// Serializes the full accumulator state — layout tag, lanes and
    /// report counter — so a restore is bit-identical.
    pub fn write_state(&self, w: &mut SnapWriter) {
        w.u8(TAG_DENSE);
        w.usize(self.sums.len());
        for &s in &self.sums {
            w.f64(s);
        }
        w.u64(self.reports);
    }

    /// Rebuilds an accumulator from bytes written by
    /// [`write_state`](Self::write_state).
    ///
    /// Snapshots of older builds may carry one of three retired layouts,
    /// each read into the same dense lanes:
    ///
    /// * tag `1`, fixed-point: `i64` sums with a positive saturation bound.
    ///   A payload flagged saturated is refused, because its clamped sums
    ///   are not the true ones.
    /// * tag `2`, sparse: sorted, in-range `(order, sum)` entries; the
    ///   entry of order `h` becomes lane `h`, the other lanes are zero.
    /// * tag `3`, count lanes: a `(+1 count, −1 count)` pair per order
    ///   becomes the lane `plus − minus`.
    ///
    /// Integer sums beyond `2⁵³` are refused, since `f64` cannot hold them
    /// exactly.
    ///
    /// # Errors
    /// A typed [`SnapshotError`] for truncation or any violated
    /// invariant — never a panic.
    pub fn read_state(r: &mut SnapReader<'_>) -> Result<DenseAccumulator, SnapshotError> {
        match r.u8()? {
            TAG_DENSE => {
                let n = r.len(8)?;
                let sums = (0..n).map(|_| r.f64()).collect::<Result<_, _>>()?;
                let reports = r.u64()?;
                Ok(DenseAccumulator { sums, reports })
            }
            TAG_FIXED => {
                let n = r.len(8)?;
                let sums = (0..n)
                    .map(|_| exact_lane(r.i64()?.into()))
                    .collect::<Result<_, _>>()?;
                let reports = r.u64()?;
                if r.i64()? <= 0 {
                    return Err(SnapshotError::Corrupt("fixed-point bound not positive"));
                }
                if r.bool()? {
                    return Err(SnapshotError::Corrupt(
                        "fixed-point sums saturated; the clamped values cannot be restored",
                    ));
                }
                Ok(DenseAccumulator { sums, reports })
            }
            TAG_SPARSE => {
                let orders = r.usize()?;
                // `1 + log d` for a `u64` horizon: bounds the allocation.
                if orders > u64::BITS as usize {
                    return Err(SnapshotError::Corrupt("sparse order count out of range"));
                }
                let mut sums = vec![0.0; orders];
                let n = r.len(12)?;
                let mut prev: Option<u32> = None;
                for _ in 0..n {
                    let h = r.u32()?;
                    if (h as usize) >= orders {
                        return Err(SnapshotError::Corrupt("sparse entry order out of range"));
                    }
                    if prev.is_some_and(|p| h <= p) {
                        return Err(SnapshotError::Corrupt("sparse entries not sorted"));
                    }
                    prev = Some(h);
                    sums[h as usize] = r.f64()?;
                }
                let reports = r.u64()?;
                Ok(DenseAccumulator { sums, reports })
            }
            TAG_COUNT_LANES => {
                let n = r.len(8)?;
                if n % 2 != 0 {
                    return Err(SnapshotError::Corrupt("soa lane count not even"));
                }
                let sums = (0..n / 2)
                    .map(|_| {
                        let plus = i128::from(r.u64()?);
                        exact_lane(plus - i128::from(r.u64()?))
                    })
                    .collect::<Result<_, _>>()?;
                let reports = r.u64()?;
                Ok(DenseAccumulator { sums, reports })
            }
            _ => Err(SnapshotError::Corrupt("unknown accumulator layout tag")),
        }
    }
}

/// The accumulator layout. [`Dense`](Self::Dense) is the only one; the
/// type and [`new_accumulator`](Self::new_accumulator) are kept so callers
/// that name the layout, the repository benchmark among them, compile
/// unchanged.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum AccumulatorKind {
    /// [`DenseAccumulator`] — one `f64` per order.
    Dense,
}

impl AccumulatorKind {
    /// An empty accumulator for `orders` orders.
    pub fn new_accumulator(self, orders: usize) -> AnyAccumulator {
        DenseAccumulator::new(orders)
    }
}

/// The accumulator the server and engines hold: an alias of
/// [`DenseAccumulator`], kept for the repository benchmark's source
/// compatibility.
pub type AnyAccumulator = DenseAccumulator;

#[cfg(test)]
mod tests {
    use super::*;
    use rand::Rng;
    use rtf_primitives::seeding::SeedSequence;

    fn random_acc(rng: &mut impl Rng, orders: usize, events: usize) -> DenseAccumulator {
        let mut acc = DenseAccumulator::new(orders);
        for _ in 0..events {
            let h = rng.random_range(0..orders) as u32;
            if rng.random_bool(0.5) {
                let bit = if rng.random_bool(0.5) {
                    Sign::Plus
                } else {
                    Sign::Minus
                };
                acc.record(h, bit);
            } else {
                // Integer-valued batch totals, like ingest_aggregate sees.
                let count = rng.random_range(0..50u64);
                let sum = if count == 0 {
                    0.0
                } else {
                    rng.random_range(-(count as i64)..=count as i64) as f64
                };
                acc.record_batch(h, sum, count);
            }
        }
        acc
    }

    fn merged(parts: &[&DenseAccumulator]) -> DenseAccumulator {
        let mut out = DenseAccumulator::new(parts[0].orders());
        for p in parts {
            out.merge(p);
        }
        out
    }

    /// A random event stream of `(h, Sign)` pairs.
    fn random_events(rng: &mut impl Rng, orders: usize, events: usize) -> Vec<(u32, Sign)> {
        (0..events)
            .map(|_| {
                let h = rng.random_range(0..orders) as u32;
                let bit = if rng.random_bool(0.5) {
                    Sign::Plus
                } else {
                    Sign::Minus
                };
                (h, bit)
            })
            .collect()
    }

    #[test]
    fn merge_is_associative_and_commutative() {
        // The monoid laws the parallel runtime depends on, over randomly
        // built integer-valued accumulators: every grouping and every
        // ordering of shard merges produces the identical accumulator.
        let mut rng = SeedSequence::new(4242).rng();
        for _ in 0..50 {
            let orders = rng.random_range(1..8usize);
            let a = random_acc(&mut rng, orders, 40);
            let b = random_acc(&mut rng, orders, 40);
            let c = random_acc(&mut rng, orders, 40);

            // Associativity: (a ⊕ b) ⊕ c == a ⊕ (b ⊕ c).
            let mut ab = a.clone();
            ab.merge(&b);
            let mut ab_c = ab.clone();
            ab_c.merge(&c);
            let mut bc = b.clone();
            bc.merge(&c);
            let mut a_bc = a.clone();
            a_bc.merge(&bc);
            assert_eq!(ab_c, a_bc);

            // Commutativity: every permutation of {a, b, c} agrees.
            let abc = merged(&[&a, &b, &c]);
            for perm in [
                [&a, &c, &b],
                [&b, &a, &c],
                [&b, &c, &a],
                [&c, &a, &b],
                [&c, &b, &a],
            ] {
                assert_eq!(merged(&perm), abc);
            }

            // Identity: merging an empty accumulator changes nothing.
            let mut with_unit = abc.clone();
            with_unit.merge(&DenseAccumulator::new(orders));
            assert_eq!(with_unit, abc);
        }
    }

    #[test]
    fn merge_equals_sequential_accumulation() {
        // Splitting one event stream across shards and merging gives the
        // same state as recording everything on one accumulator.
        let mut rng = SeedSequence::new(77).rng();
        let orders = 5usize;
        let events = random_events(&mut rng, orders, 500);
        let mut whole = DenseAccumulator::new(orders);
        for &(h, bit) in &events {
            whole.record(h, bit);
        }
        for shards in [1usize, 2, 3, 8] {
            let chunk = events.len().div_ceil(shards);
            let mut out = DenseAccumulator::new(orders);
            for part in events.chunks(chunk) {
                let mut acc = DenseAccumulator::new(orders);
                for &(h, bit) in part {
                    acc.record(h, bit);
                }
                out.merge(&acc);
            }
            assert_eq!(out, whole, "{shards} shards");
        }
        assert_eq!(whole.reports(), 500);
    }

    #[test]
    fn take_order_drains_one_slot() {
        let mut acc = DenseAccumulator::new(3);
        acc.record(1, Sign::Plus);
        acc.record(1, Sign::Plus);
        acc.record(2, Sign::Minus);
        assert_eq!(acc.order_sum(1), 2.0);
        assert_eq!(acc.take_order(1), 2.0);
        assert_eq!(acc.order_sum(1), 0.0);
        assert_eq!(acc.order_sum(2), -1.0);
        assert_eq!(acc.reports(), 3);
        assert!(!acc.is_empty());
        assert!(DenseAccumulator::new(3).is_empty());
    }

    #[test]
    #[should_panic(expected = "different shapes")]
    fn shape_mismatch_rejected() {
        let mut a = DenseAccumulator::new(3);
        a.merge(&DenseAccumulator::new(4));
    }

    #[test]
    fn shape_mismatch_is_a_typed_error() {
        let mut a = DenseAccumulator::new(3);
        assert_eq!(
            a.try_merge(&DenseAccumulator::new(4)),
            Err(AccumulatorError::ShapeMismatch {
                expected: 3,
                got: 4
            })
        );
        let mut any = AccumulatorKind::Dense.new_accumulator(5);
        assert_eq!(
            any.try_merge(&AccumulatorKind::Dense.new_accumulator(2)),
            Err(AccumulatorError::ShapeMismatch {
                expected: 5,
                got: 2
            })
        );
    }

    #[test]
    fn record_counts_equals_record_batch_on_every_backend() {
        // The packed-lane entry point must be value-identical to the
        // sum/count form it restates.
        let mut rng = SeedSequence::new(777).rng();
        let orders = 6usize;
        let mut via_counts = DenseAccumulator::new(orders);
        let mut via_batch = DenseAccumulator::new(orders);
        for _ in 0..60 {
            let h = rng.random_range(0..orders) as u32;
            let plus = rng.random_range(0..100u64);
            let minus = rng.random_range(0..100u64);
            via_counts.record_counts(h, plus, minus);
            via_batch.record_batch(h, (plus as i64 - minus as i64) as f64, plus + minus);
        }
        assert_eq!(via_counts, via_batch);
    }

    /// Reads one accumulator payload written by `build`.
    fn read(build: &dyn Fn(&mut SnapWriter)) -> Result<DenseAccumulator, SnapshotError> {
        let mut w = SnapWriter::new();
        build(&mut w);
        let bytes = w.finish();
        let mut r = SnapReader::new(&bytes).unwrap();
        let acc = DenseAccumulator::read_state(&mut r)?;
        r.finish().unwrap();
        Ok(acc)
    }

    /// The dense accumulator the retired-layout payloads below all encode:
    /// order sums `[2, 3, -1]` over 8 reports.
    fn expected_from_retired_layout() -> DenseAccumulator {
        DenseAccumulator {
            sums: vec![2.0, 3.0, -1.0],
            reports: 8,
        }
    }

    #[test]
    fn state_roundtrips_bit_identically() {
        let mut acc = AccumulatorKind::Dense.new_accumulator(4);
        acc.record(0, Sign::Plus);
        acc.record(0, Sign::Plus);
        acc.record(2, Sign::Minus);
        acc.record_batch(1, 3.0, 5);
        let mut w = SnapWriter::new();
        acc.write_state(&mut w);
        let bytes = w.finish();
        let mut r = SnapReader::new(&bytes).unwrap();
        let back = AnyAccumulator::read_state(&mut r).unwrap();
        r.finish().unwrap();
        assert_eq!(back, acc);
        // The restored value must serialize to the same bytes again.
        let mut w2 = SnapWriter::new();
        back.write_state(&mut w2);
        assert_eq!(w2.finish(), bytes);
    }

    #[test]
    fn reads_fixed_point_state_into_dense_lanes() {
        let acc = read(&|w| {
            w.u8(1);
            w.usize(3);
            w.i64(2);
            w.i64(3);
            w.i64(-1);
            w.u64(8);
            w.i64(200);
            w.bool(false);
        })
        .unwrap();
        assert_eq!(acc, expected_from_retired_layout());
    }

    #[test]
    fn refuses_saturated_fixed_point_state() {
        let err = read(&|w| {
            w.u8(1);
            w.usize(1);
            w.i64(2);
            w.u64(3);
            w.i64(2);
            w.bool(true);
        })
        .unwrap_err();
        assert!(matches!(err, SnapshotError::Corrupt(m) if m.contains("saturated")));
    }

    #[test]
    fn reads_sparse_state_into_dense_lanes() {
        let acc = read(&|w| {
            w.u8(2);
            w.usize(3);
            w.usize(3);
            for (h, s) in [(0, 2.0), (1, 3.0), (2, -1.0)] {
                w.u32(h);
                w.f64(s);
            }
            w.u64(8);
        })
        .unwrap();
        assert_eq!(acc, expected_from_retired_layout());
        // Orders without an entry read as zero lanes.
        let gappy = read(&|w| {
            w.u8(2);
            w.usize(4);
            w.usize(1);
            w.u32(2);
            w.f64(-3.0);
            w.u64(3);
        })
        .unwrap();
        assert_eq!(gappy.sums(), &[0.0, 0.0, -3.0, 0.0]);
    }

    #[test]
    fn reads_count_lane_state_into_dense_lanes() {
        let acc = read(&|w| {
            w.u8(3);
            w.usize(6);
            for (plus, minus) in [(2, 0), (3, 0), (1, 2)] {
                w.u64(plus);
                w.u64(minus);
            }
            w.u64(8);
        })
        .unwrap();
        assert_eq!(acc, expected_from_retired_layout());
    }

    #[test]
    fn accumulator_read_state_rejects_malformed_payloads() {
        let bad = |build: &dyn Fn(&mut SnapWriter)| read(build).unwrap_err();
        // Unknown layout tag.
        assert!(matches!(
            bad(&|w| w.u8(42)),
            SnapshotError::Corrupt("unknown accumulator layout tag")
        ));
        // Fixed-point with a non-positive bound.
        assert!(matches!(
            bad(&|w| {
                w.u8(1);
                w.usize(0);
                w.u64(0);
                w.i64(0);
                w.bool(false);
            }),
            SnapshotError::Corrupt("fixed-point bound not positive")
        ));
        // Fixed-point sums an f64 lane cannot hold exactly.
        assert!(matches!(
            bad(&|w| {
                w.u8(1);
                w.usize(1);
                w.i64((1 << 53) + 1);
                w.u64(0);
                w.i64(i64::MAX);
                w.bool(false);
            }),
            SnapshotError::Corrupt("integer lane sum beyond 2^53")
        ));
        // Sparse order count no horizon can have.
        assert!(matches!(
            bad(&|w| {
                w.u8(2);
                w.usize(usize::MAX);
                w.usize(0);
                w.u64(0);
            }),
            SnapshotError::Corrupt("sparse order count out of range")
        ));
        // Sparse entries out of order.
        assert!(matches!(
            bad(&|w| {
                w.u8(2);
                w.usize(4);
                w.usize(2);
                w.u32(3);
                w.f64(1.0);
                w.u32(1);
                w.f64(1.0);
                w.u64(2);
            }),
            SnapshotError::Corrupt("sparse entries not sorted")
        ));
        // Sparse entry order beyond the declared shape.
        assert!(matches!(
            bad(&|w| {
                w.u8(2);
                w.usize(2);
                w.usize(1);
                w.u32(7);
                w.f64(1.0);
                w.u64(1);
            }),
            SnapshotError::Corrupt("sparse entry order out of range")
        ));
        // Odd SoA lane count.
        assert!(matches!(
            bad(&|w| {
                w.u8(3);
                w.usize(3);
                w.u64(0);
                w.u64(0);
                w.u64(0);
                w.u64(0);
            }),
            SnapshotError::Corrupt("soa lane count not even")
        ));
        // A dense payload that simply runs out of bytes.
        assert!(matches!(
            bad(&|w| {
                w.u8(0);
                w.usize(1);
            }),
            SnapshotError::Truncated
        ));
    }
}
