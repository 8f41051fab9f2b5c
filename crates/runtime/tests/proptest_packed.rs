//! Property tests for the bit-packed report lanes.
//!
//! The packed hot path (SignLane word ops, run-detected `fold_into`,
//! `extend_packed` bulk appends) must be observation-for-observation
//! identical to the scalar reference — these
//! properties pin that equivalence over adversarial row patterns,
//! including ranges that straddle 64-bit word boundaries.

use proptest::prelude::*;
use rtf_core::accumulator::{Accumulator, DenseAccumulator};
use rtf_primitives::sign::Sign;
use rtf_runtime::{ReportBatch, SignLane};

fn sign(plus: bool) -> Sign {
    if plus {
        Sign::Plus
    } else {
        Sign::Minus
    }
}

proptest! {
    /// Packed fold ≡ row-by-row reference, over random order/sign
    /// patterns: long runs, interleavings, tiny batches, and empty
    /// batches.
    #[test]
    fn packed_fold_equals_scalar_fold_on_every_backend(
        rows in proptest::collection::vec((0u8..7, prop::bool::ANY), 0..600),
    ) {
        let mut batch = ReportBatch::new();
        for (i, &(h, plus)) in rows.iter().enumerate() {
            batch.push(i as u32, h, sign(plus));
        }
        let mut fast = DenseAccumulator::new(7);
        let mut slow = DenseAccumulator::new(7);
        batch.fold_into(&mut fast);
        batch.fold_into_rows(&mut slow);
        prop_assert_eq!(fast.sums(), slow.sums());
        prop_assert_eq!(fast.reports(), slow.reports());
    }

    /// SignLane word ops ≡ a `Vec<Sign>` bit-by-bit model: push/get/iter
    /// round-trip, `count_plus` popcounts any subrange exactly, and
    /// `extend_from_range` stitches shifted words across boundaries.
    #[test]
    fn sign_lane_bulk_ops_match_bit_reference(
        bits in proptest::collection::vec(prop::bool::ANY, 0..300),
        lo in 0usize..300,
        hi in 0usize..300,
    ) {
        let model: Vec<Sign> = bits.iter().map(|&b| sign(b)).collect();
        let mut lane = SignLane::new();
        for &s in &model {
            lane.push(s);
        }
        prop_assert_eq!(lane.len(), model.len());
        let collected: Vec<Sign> = lane.iter().collect();
        prop_assert_eq!(&collected, &model);

        let a = lo.min(hi).min(model.len());
        let b = lo.max(hi).min(model.len());
        let expect = model[a..b].iter().filter(|&&s| s == Sign::Plus).count() as u64;
        prop_assert_eq!(lane.count_plus(a..b), expect);

        // Rebuild the prefix out of two arbitrary cuts: the shifted word
        // copies must reproduce the model bit for bit.
        let mut dst = SignLane::new();
        dst.extend_from_range(&lane, 0..a);
        dst.extend_from_range(&lane, a..b);
        let got: Vec<Sign> = dst.iter().collect();
        prop_assert_eq!(&got[..], &model[..b]);
    }

    /// `extend_packed` (the live path's chunk-split bulk append) ≡ the
    /// same rows pushed one at a time, for any split point.
    #[test]
    fn extend_packed_equals_per_row_pushes(
        bits in proptest::collection::vec(prop::bool::ANY, 1..200),
        order in 0u8..8,
        split_frac in 0usize..100,
    ) {
        let mut lane = SignLane::new();
        for &b in &bits {
            lane.push(sign(b));
        }
        let users: Vec<u32> = (0..bits.len() as u32).collect();
        let split = split_frac * bits.len() / 100;

        let mut bulk = ReportBatch::new();
        bulk.extend_packed(&users[..split], order, &lane, 0..split);
        bulk.extend_packed(&users[split..], order, &lane, split..bits.len());

        let mut scalar = ReportBatch::new();
        for (i, &b) in bits.iter().enumerate() {
            scalar.push(i as u32, order, sign(b));
        }
        let bulk_rows: Vec<(u32, u8, Sign)> = bulk.iter().collect();
        let scalar_rows: Vec<(u32, u8, Sign)> = scalar.iter().collect();
        prop_assert_eq!(bulk_rows, scalar_rows);
    }
}
