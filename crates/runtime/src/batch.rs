//! Columnar (struct-of-arrays) report batches — the hot-path wire
//! representation of the batched pipeline.
//!
//! The sequential engines frame every report into a heap-allocated
//! `Bytes` message and decode it on the server side; at millions of
//! users that allocation/decode pair dominates the run. Workers in the
//! batched pipeline append to reusable columnar buffers instead — one
//! `Vec` per field, no per-report allocation — and fold them straight
//! into a shard accumulator.
//!
//! Two batch shapes exist:
//!
//! * [`ReportBatch`] — the honest schedule: `{user, order, sign}` rows
//!   for one period, folded into the accumulator by the worker itself;
//! * [`FrameBatch`] — the fault-injected schedule: delivered frames with
//!   their *emission* provenance `(emitted period, emitting user)`, so
//!   shard batches can be merged into exactly the sequential engine's
//!   mailbox order before checked ingestion (acceptance under
//!   impersonation depends on frame order, so the merge must reproduce
//!   it bit-for-bit).

use rtf_core::accumulator::Accumulator;
use rtf_core::snapshot::{SnapReader, SnapWriter, SnapshotError};
use rtf_primitives::sign::Sign;
use std::ops::Range;

/// The low `n` bits set (`n ≤ 64`).
#[inline]
fn low_mask(n: usize) -> u64 {
    if n >= 64 {
        u64::MAX
    } else {
        (1u64 << n) - 1
    }
}

/// A bit-packed lane of `±1` signs: bit `i` of word `i / 64` is `1` for
/// `+1`. The protocol payload *is* one bit per report, so this is the
/// information-theoretically tight in-memory representation — 64 reports
/// per word, folded with masked popcounts instead of per-row byte adds.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct SignLane {
    words: Vec<u64>,
    len: usize,
}

impl SignLane {
    /// An empty lane.
    pub fn new() -> Self {
        SignLane::default()
    }

    /// An empty lane with capacity for `bits` signs reserved.
    pub fn with_capacity(bits: usize) -> Self {
        SignLane {
            words: Vec::with_capacity(bits.div_ceil(64)),
            len: 0,
        }
    }

    /// Number of signs in the lane.
    #[inline]
    pub fn len(&self) -> usize {
        self.len
    }

    /// Whether the lane holds no signs.
    #[inline]
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// Clears the lane, keeping the word allocation for reuse.
    pub fn clear(&mut self) {
        self.words.clear();
        self.len = 0;
    }

    /// Appends one sign.
    #[inline]
    pub fn push(&mut self, sign: Sign) {
        let off = self.len % 64;
        if off == 0 {
            self.words.push(0);
        }
        if sign == Sign::Plus {
            *self.words.last_mut().expect("word just ensured") |= 1u64 << off;
        }
        self.len += 1;
    }

    /// The sign at index `i`.
    #[inline]
    pub fn get(&self, i: usize) -> Sign {
        debug_assert!(i < self.len);
        if (self.words[i / 64] >> (i % 64)) & 1 == 1 {
            Sign::Plus
        } else {
            Sign::Minus
        }
    }

    /// Appends `count` signs given as the low bits of `bits`
    /// (bit `j` = sign `j`, `1` = `+1`).
    ///
    /// Public so word-at-a-time producers (the fast-seed span path in the
    /// engines) can append packed randomness without materialising `Sign`s.
    ///
    /// # Panics
    /// Panics (debug) if `count > 64`.
    #[inline]
    pub fn push_bits(&mut self, bits: u64, count: usize) {
        debug_assert!(count <= 64);
        if count == 0 {
            return;
        }
        let bits = bits & low_mask(count);
        let off = self.len % 64;
        if off == 0 {
            self.words.push(bits);
        } else {
            *self.words.last_mut().expect("non-empty at off > 0") |= bits << off;
            let spill = 64 - off;
            if count > spill {
                self.words.push(bits >> spill);
            }
        }
        self.len += count;
    }

    /// Appends `other[range]` to `self` — a word-at-a-time shifted copy,
    /// the bulk path [`ReportBatch::extend_packed`] rides on.
    pub fn extend_from_range(&mut self, other: &SignLane, range: Range<usize>) {
        assert!(range.start <= range.end && range.end <= other.len);
        let mut s = range.start;
        while s < range.end {
            let bi = s % 64;
            let take = (64 - bi).min(range.end - s);
            self.push_bits(other.words[s / 64] >> bi, take);
            s += take;
        }
    }

    /// Counts the `+1` signs in `self[range]` via masked popcounts —
    /// 64 reports per `count_ones`.
    pub fn count_plus(&self, range: Range<usize>) -> u64 {
        assert!(range.start <= range.end && range.end <= self.len);
        let mut total = 0u64;
        let mut s = range.start;
        while s < range.end {
            let bi = s % 64;
            let take = (64 - bi).min(range.end - s);
            let chunk = (self.words[s / 64] >> bi) & low_mask(take);
            total += u64::from(chunk.count_ones());
            s += take;
        }
        total
    }

    /// Counts the `+1` signs among the lanes selected by `mask` (bit `i`
    /// of `mask[i / 64]` selects sign `i`) — one masked popcount per
    /// word, the span-native scenario fold's inner loop. The mask must
    /// have exactly one word per lane word; bits past `len` are ignored
    /// because the lane keeps its tail bits zero.
    ///
    /// # Panics
    /// Panics if `mask` does not span the lane word-for-word.
    pub fn count_plus_masked(&self, mask: &[u64]) -> u64 {
        assert_eq!(
            mask.len(),
            self.words.len(),
            "mask must cover the lane word-for-word"
        );
        self.words
            .iter()
            .zip(mask)
            .map(|(&w, &m)| u64::from((w & m).count_ones()))
            .sum()
    }

    /// Iterates the signs in lane order.
    pub fn iter(&self) -> impl Iterator<Item = Sign> + '_ {
        (0..self.len).map(move |i| self.get(i))
    }
}

/// One period's reports for one shard of users, struct-of-arrays with a
/// bit-packed sign lane ([`SignLane`]): a fold consumes 64 reports per
/// word op instead of one per byte.
#[derive(Debug, Clone, Default)]
pub struct ReportBatch {
    users: Vec<u32>,
    orders: Vec<u8>,
    signs: SignLane,
}

impl ReportBatch {
    /// An empty batch.
    pub fn new() -> Self {
        ReportBatch::default()
    }

    /// An empty batch with row capacity reserved.
    pub fn with_capacity(rows: usize) -> Self {
        ReportBatch {
            users: Vec::with_capacity(rows),
            orders: Vec::with_capacity(rows),
            signs: SignLane::with_capacity(rows),
        }
    }

    /// Appends one report row.
    #[inline]
    pub fn push(&mut self, user: u32, order: u8, sign: Sign) {
        self.users.push(user);
        self.orders.push(order);
        self.signs.push(sign);
    }

    /// Bulk-appends one order group's span: `users` get order `order`
    /// and the signs `lane[range]` — two memcpys and a shifted word copy
    /// instead of `users.len()` per-row pushes.
    pub fn extend_packed(
        &mut self,
        users: &[u32],
        order: u8,
        lane: &SignLane,
        range: Range<usize>,
    ) {
        debug_assert_eq!(users.len(), range.end - range.start, "one sign per user");
        self.users.extend_from_slice(users);
        self.orders.resize(self.orders.len() + users.len(), order);
        self.signs.extend_from_range(lane, range);
    }

    /// Number of rows.
    pub fn len(&self) -> usize {
        self.users.len()
    }

    /// Whether the batch holds no rows.
    pub fn is_empty(&self) -> bool {
        self.users.is_empty()
    }

    /// Clears all rows, keeping the allocations for reuse.
    pub fn clear(&mut self) {
        self.users.clear();
        self.orders.clear();
        self.signs.clear();
    }

    /// Iterates `(user, order, sign)` rows in append order.
    pub fn iter(&self) -> impl Iterator<Item = (u32, u8, Sign)> + '_ {
        self.users
            .iter()
            .zip(&self.orders)
            .enumerate()
            .map(|(i, (&u, &h))| (u, h, self.signs.get(i)))
    }

    /// Folds every row into a shard accumulator — the batched
    /// replacement for per-report `Server::ingest`.
    ///
    /// Rows are walked as **runs of equal order** (the batched pipelines
    /// append whole order groups contiguously, so a batch is a handful of
    /// runs); each run's `+1` count comes from masked popcounts over the
    /// packed sign lane — 64 reports per word op — and the run goes into
    /// the accumulator as one `record_counts`. For integer-valued ±1 rows
    /// the result equals the row-by-row reference
    /// [`fold_into_rows`](Self::fold_into_rows) exactly, as unit and
    /// property tests assert.
    pub fn fold_into<A: Accumulator>(&self, acc: &mut A) {
        let n = self.len();
        let mut a = 0usize;
        while a < n {
            let h = self.orders[a];
            let mut b = a + 1;
            while b < n && self.orders[b] == h {
                b += 1;
            }
            let plus = self.signs.count_plus(a..b);
            acc.record_counts(u32::from(h), plus, (b - a) as u64 - plus);
            a = b;
        }
    }

    /// The pre-batching reference fold: one `record` call per row. Kept
    /// for the before/after comparison in `exp_backends` and as the
    /// equivalence oracle for [`fold_into`](Self::fold_into).
    pub fn fold_into_rows<A: Accumulator>(&self, acc: &mut A) {
        for (i, &h) in self.orders.iter().enumerate() {
            acc.record(u32::from(h), self.signs.get(i));
        }
    }

    /// Serializes the batch (one shared row count, then each column) —
    /// used by the ingestion service to persist open-period journals.
    /// The byte layout predates the packed sign lane and is kept
    /// unchanged (one `i8` per sign), so existing snapshots stay
    /// readable.
    pub fn write_state(&self, w: &mut SnapWriter) {
        w.usize(self.len());
        for &u in &self.users {
            w.u32(u);
        }
        for &h in &self.orders {
            w.u8(h);
        }
        for s in self.signs.iter() {
            w.i8(s.value());
        }
    }

    /// Rebuilds a batch from bytes written by
    /// [`write_state`](Self::write_state), rejecting sign bytes outside
    /// `{−1, +1}` (which would panic later in `Sign::from_i8`).
    ///
    /// # Errors
    /// A typed [`SnapshotError`] on truncation or an invalid sign.
    pub fn read_state(r: &mut SnapReader<'_>) -> Result<ReportBatch, SnapshotError> {
        let rows = r.len(6)?;
        let mut users = Vec::with_capacity(rows);
        for _ in 0..rows {
            users.push(r.u32()?);
        }
        let mut orders = Vec::with_capacity(rows);
        for _ in 0..rows {
            orders.push(r.u8()?);
        }
        let mut signs = SignLane::with_capacity(rows);
        for _ in 0..rows {
            let s = r.i8()?;
            if s != 1 && s != -1 {
                return Err(SnapshotError::Corrupt("report sign not ±1"));
            }
            signs.push(Sign::from_i8(s));
        }
        Ok(ReportBatch {
            users,
            orders,
            signs,
        })
    }
}

/// Delivered frames for one period, struct-of-arrays, with emission
/// provenance for deterministic cross-shard ordering.
#[derive(Debug, Clone)]
pub struct FrameBatch {
    /// Emission period of each frame (the mailbox's primary sort key).
    emitted: Vec<u32>,
    /// The client that put the frame on the wire (secondary sort key —
    /// *not* necessarily the user id inside the frame: Byzantine clients
    /// impersonate).
    emitter: Vec<u32>,
    /// The frame's claimed sender.
    users: Vec<u32>,
    /// The frame's claimed reporting period.
    periods: Vec<u32>,
    /// The frame's report bit (`true` = +1).
    bits: Vec<bool>,
    /// Whether the emitting client is Byzantine (accounting only).
    byzantine: Vec<bool>,
    /// Whether rows are known ascending by `(emitted, emitter)` —
    /// maintained on every mutation so [`merge_ordered`] can take the
    /// zero-copy k-way path instead of materializing and sorting.
    ///
    /// [`merge_ordered`]: Self::merge_ordered
    sorted: bool,
}

impl Default for FrameBatch {
    fn default() -> Self {
        FrameBatch {
            emitted: Vec::new(),
            emitter: Vec::new(),
            users: Vec::new(),
            periods: Vec::new(),
            bits: Vec::new(),
            byzantine: Vec::new(),
            // An empty batch is vacuously in mailbox order.
            sorted: true,
        }
    }
}

/// One delivered frame, as yielded by [`FrameBatch::iter`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Frame {
    /// Emission period.
    pub emitted: u32,
    /// Emitting client.
    pub emitter: u32,
    /// Claimed sender id in the frame payload.
    pub user: u32,
    /// Claimed reporting period in the frame payload.
    pub t: u32,
    /// Report bit (`true` = +1).
    pub bit: bool,
    /// Whether the emitter is Byzantine.
    pub byzantine: bool,
}

impl FrameBatch {
    /// An empty batch.
    pub fn new() -> Self {
        FrameBatch::default()
    }

    /// Appends one frame row.
    #[inline]
    pub fn push(&mut self, frame: Frame) {
        if self.sorted {
            if let Some(i) = self.len().checked_sub(1) {
                if (frame.emitted, frame.emitter) < (self.emitted[i], self.emitter[i]) {
                    self.sorted = false;
                }
            }
        }
        self.emitted.push(frame.emitted);
        self.emitter.push(frame.emitter);
        self.users.push(frame.user);
        self.periods.push(frame.t);
        self.bits.push(frame.bit);
        self.byzantine.push(frame.byzantine);
    }

    /// The frame at row `i` (column reads, no intermediate storage).
    #[inline]
    pub fn frame(&self, i: usize) -> Frame {
        Frame {
            emitted: self.emitted[i],
            emitter: self.emitter[i],
            user: self.users[i],
            t: self.periods[i],
            bit: self.bits[i],
            byzantine: self.byzantine[i],
        }
    }

    /// Whether rows are known ascending by `(emitted, emitter)` — the
    /// precondition for the zero-copy merge fast path.
    pub fn is_sorted(&self) -> bool {
        self.sorted
    }

    /// Number of frames.
    pub fn len(&self) -> usize {
        self.users.len()
    }

    /// Whether the batch holds no frames.
    pub fn is_empty(&self) -> bool {
        self.users.is_empty()
    }

    /// Appends every frame of `other`, preserving row order — how an
    /// ingestion worker accumulates the batches streamed into its mailbox
    /// over one period.
    pub fn append(&mut self, other: &FrameBatch) {
        if other.is_empty() {
            return;
        }
        if self.sorted {
            let boundary_ok = match self.len().checked_sub(1) {
                Some(i) => {
                    (other.emitted[0], other.emitter[0]) >= (self.emitted[i], self.emitter[i])
                }
                None => true,
            };
            self.sorted = other.sorted && boundary_ok;
        }
        self.reserve(other.len());
        self.emitted.extend_from_slice(&other.emitted);
        self.emitter.extend_from_slice(&other.emitter);
        self.users.extend_from_slice(&other.users);
        self.periods.extend_from_slice(&other.periods);
        self.bits.extend_from_slice(&other.bits);
        self.byzantine.extend_from_slice(&other.byzantine);
    }

    /// Clears all frames, keeping the allocations for reuse.
    pub fn clear(&mut self) {
        self.emitted.clear();
        self.emitter.clear();
        self.users.clear();
        self.periods.clear();
        self.bits.clear();
        self.byzantine.clear();
        self.sorted = true;
    }

    /// Iterates frames in row order.
    pub fn iter(&self) -> impl Iterator<Item = Frame> + '_ {
        (0..self.len()).map(move |i| self.frame(i))
    }

    /// Merges per-shard batches for one delivery period into the exact
    /// frame order the sequential engine's mailbox would hold: ascending
    /// `(emission period, emitting user)`. The key is unique per frame —
    /// a client dispatches at most once per period and a retransmitted
    /// copy always lands in a different delivery period — so the order is
    /// total and independent of the shard partition.
    ///
    /// When every shard is already in mailbox order (the common case —
    /// workers append mailbox batches in arrival order, and arrival order
    /// per shard is the dispatch order), the merge is a zero-copy k-way
    /// walk over the shard *columns*: each output row is one linear-min
    /// scan of the shard heads plus a direct column copy. No intermediate
    /// `Vec<Frame>` is materialized and nothing is sorted. Shards that
    /// lost the order fall back to an index sort over `(key, shard, row)`
    /// triples — still never materializing frames before the copy.
    pub fn merge_ordered<'a, I>(shards: I) -> FrameBatch
    where
        I: IntoIterator<Item = &'a FrameBatch>,
    {
        let shards: Vec<&FrameBatch> = shards.into_iter().collect();
        let rows: usize = shards.iter().map(|s| s.len()).sum();
        let mut out = FrameBatch::default();
        out.reserve(rows);
        if shards.iter().all(|s| s.sorted) {
            let mut heads = vec![0usize; shards.len()];
            for _ in 0..rows {
                let mut best: Option<(usize, (u32, u32))> = None;
                for (s, shard) in shards.iter().enumerate() {
                    let i = heads[s];
                    if i >= shard.len() {
                        continue;
                    }
                    let key = (shard.emitted[i], shard.emitter[i]);
                    let better = match best {
                        Some((_, k)) => key < k,
                        None => true,
                    };
                    if better {
                        best = Some((s, key));
                    }
                }
                let (s, _) = best.expect("rows remain in some shard head");
                out.push(shards[s].frame(heads[s]));
                heads[s] += 1;
            }
        } else {
            let mut idx: Vec<(u32, u32, u32, u32)> = Vec::with_capacity(rows);
            for (s, shard) in shards.iter().enumerate() {
                for i in 0..shard.len() {
                    idx.push((shard.emitted[i], shard.emitter[i], s as u32, i as u32));
                }
            }
            idx.sort_unstable();
            for (_, _, s, i) in idx {
                out.push(shards[s as usize].frame(i as usize));
            }
        }
        debug_assert!(out.sorted, "merged output must be in mailbox order");
        out
    }

    fn reserve(&mut self, rows: usize) {
        self.emitted.reserve(rows);
        self.emitter.reserve(rows);
        self.users.reserve(rows);
        self.periods.reserve(rows);
        self.bits.reserve(rows);
        self.byzantine.reserve(rows);
    }

    /// Serializes the batch (one shared row count, then each column) —
    /// used by the ingestion service to persist open-period journals.
    pub fn write_state(&self, w: &mut SnapWriter) {
        w.usize(self.len());
        for &e in &self.emitted {
            w.u32(e);
        }
        for &e in &self.emitter {
            w.u32(e);
        }
        for &u in &self.users {
            w.u32(u);
        }
        for &t in &self.periods {
            w.u32(t);
        }
        for &b in &self.bits {
            w.bool(b);
        }
        for &b in &self.byzantine {
            w.bool(b);
        }
    }

    /// Rebuilds a batch from bytes written by
    /// [`write_state`](Self::write_state).
    ///
    /// # Errors
    /// A typed [`SnapshotError`] on truncation or a malformed boolean
    /// column.
    pub fn read_state(r: &mut SnapReader<'_>) -> Result<FrameBatch, SnapshotError> {
        let rows = r.len(18)?;
        let read_u32s = |r: &mut SnapReader<'_>| -> Result<Vec<u32>, SnapshotError> {
            let mut col = Vec::with_capacity(rows);
            for _ in 0..rows {
                col.push(r.u32()?);
            }
            Ok(col)
        };
        let emitted = read_u32s(r)?;
        let emitter = read_u32s(r)?;
        let users = read_u32s(r)?;
        let periods = read_u32s(r)?;
        let read_bools = |r: &mut SnapReader<'_>| -> Result<Vec<bool>, SnapshotError> {
            let mut col = Vec::with_capacity(rows);
            for _ in 0..rows {
                col.push(r.bool()?);
            }
            Ok(col)
        };
        let bits = read_bools(r)?;
        let byzantine = read_bools(r)?;
        // The byte layout predates the sorted flag; recompute it so
        // restored journals still take the zero-copy merge fast path.
        let sorted =
            (1..rows).all(|i| (emitted[i - 1], emitter[i - 1]) <= (emitted[i], emitter[i]));
        Ok(FrameBatch {
            emitted,
            emitter,
            users,
            periods,
            bits,
            byzantine,
            sorted,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rtf_core::accumulator::DenseAccumulator;

    #[test]
    fn report_batch_folds_like_direct_ingestion() {
        let mut batch = ReportBatch::with_capacity(4);
        batch.push(0, 0, Sign::Plus);
        batch.push(1, 2, Sign::Minus);
        batch.push(2, 2, Sign::Minus);
        batch.push(3, 1, Sign::Plus);
        assert_eq!(batch.len(), 4);

        let mut from_batch = DenseAccumulator::new(3);
        batch.fold_into(&mut from_batch);

        let mut direct = DenseAccumulator::new(3);
        for (_, h, s) in batch.iter() {
            direct.record(u32::from(h), s);
        }
        assert_eq!(from_batch, direct);
        assert_eq!(from_batch.reports(), 4);
        assert_eq!(from_batch.sums(), &[1.0, 1.0, -2.0]);

        batch.clear();
        assert!(batch.is_empty());
    }

    #[test]
    fn preaggregated_fold_equals_row_by_row_on_every_backend() {
        // The per-run fold is observation-for-observation identical to
        // the row-by-row reference, on a batch of short mixed-order runs
        // that touches one order many times and another not at all.
        let mut batch = ReportBatch::new();
        for i in 0..200u32 {
            let h = [0u8, 0, 3, 5][i as usize % 4];
            let s = if i % 3 == 0 { Sign::Minus } else { Sign::Plus };
            batch.push(i, h, s);
        }
        let mut fast = DenseAccumulator::new(6);
        let mut slow = DenseAccumulator::new(6);
        batch.fold_into(&mut fast);
        batch.fold_into_rows(&mut slow);
        assert_eq!(fast, slow);
        assert_eq!(fast.reports(), 200);
        // Empty batches fold to nothing on both paths.
        let empty = ReportBatch::new();
        let mut acc = DenseAccumulator::new(4);
        empty.fold_into(&mut acc);
        assert_eq!(acc.reports(), 0);
    }

    #[test]
    fn masked_count_matches_per_index_filter() {
        // 150 lanes across three words, an irregular mask: the masked
        // popcount must equal filtering get() by the mask bit by bit.
        let mut lane = SignLane::new();
        for i in 0..150usize {
            lane.push(if i % 3 == 0 { Sign::Plus } else { Sign::Minus });
        }
        let mask: Vec<u64> = vec![0xDEAD_BEEF_0F0F_3355, u64::MAX, low_mask(150 % 64)];
        let expect: u64 = (0..150)
            .filter(|&i| (mask[i / 64] >> (i % 64)) & 1 == 1 && lane.get(i) == Sign::Plus)
            .count() as u64;
        assert_eq!(lane.count_plus_masked(&mask), expect);
        // Full mask degenerates to count_plus; empty lane takes an empty mask.
        assert_eq!(
            lane.count_plus_masked(&[u64::MAX, u64::MAX, u64::MAX]),
            lane.count_plus(0..150)
        );
        assert_eq!(SignLane::new().count_plus_masked(&[]), 0);
    }

    #[test]
    fn frame_batch_append_preserves_row_order() {
        let mut a = FrameBatch::new();
        a.push(frame(1, 0));
        a.push(frame(1, 2));
        let mut b = FrameBatch::new();
        b.push(frame(2, 1));
        a.append(&b);
        let keys: Vec<(u32, u32)> = a.iter().map(|f| (f.emitted, f.emitter)).collect();
        assert_eq!(keys, vec![(1, 0), (1, 2), (2, 1)]);
        a.clear();
        assert!(a.is_empty());
        assert_eq!(b.len(), 1, "append borrows, never drains");
    }

    #[test]
    fn report_batch_folds_identically_into_every_backend() {
        let mut batch = ReportBatch::new();
        batch.push(0, 0, Sign::Plus);
        batch.push(1, 1, Sign::Minus);
        batch.push(2, 1, Sign::Minus);
        batch.push(3, 2, Sign::Plus);
        let mut acc = DenseAccumulator::new(3);
        batch.fold_into(&mut acc);
        assert_eq!(acc.sums(), &[1.0, -2.0, 1.0]);
        assert_eq!(acc.reports(), 4);
    }

    fn frame(emitted: u32, emitter: u32) -> Frame {
        Frame {
            emitted,
            emitter,
            user: emitter,
            t: emitted,
            bit: emitter % 2 == 0,
            byzantine: false,
        }
    }

    #[test]
    fn merge_ordered_reconstructs_mailbox_order() {
        // Shard 0 owns users 0..3, shard 1 owns users 3..6; frames from
        // two emission periods interleave. The merged order must be
        // (emitted, emitter) ascending — exactly the sequential mailbox.
        let mut s0 = FrameBatch::new();
        let mut s1 = FrameBatch::new();
        for e in [1u32, 2] {
            for u in 0..3u32 {
                s0.push(frame(e, u));
            }
            for u in 3..6u32 {
                s1.push(frame(e, u));
            }
        }
        let merged = FrameBatch::merge_ordered(&[s0.clone(), s1.clone()]);
        let keys: Vec<(u32, u32)> = merged.iter().map(|f| (f.emitted, f.emitter)).collect();
        let expect: Vec<(u32, u32)> = [1u32, 2]
            .iter()
            .flat_map(|&e| (0..6u32).map(move |u| (e, u)))
            .collect();
        assert_eq!(keys, expect);

        // Partition-invariance: merging in the other shard order, or as
        // one concatenated shard, gives the identical row sequence.
        let swapped = FrameBatch::merge_ordered(&[s1, s0]);
        let swapped_keys: Vec<(u32, u32)> =
            swapped.iter().map(|f| (f.emitted, f.emitter)).collect();
        assert_eq!(swapped_keys, expect);
    }

    #[test]
    fn sorted_flag_tracks_mailbox_order() {
        let mut b = FrameBatch::new();
        assert!(b.is_sorted(), "empty is vacuously sorted");
        b.push(frame(1, 3));
        b.push(frame(1, 5));
        b.push(frame(2, 0));
        assert!(b.is_sorted());
        b.push(frame(1, 9)); // earlier emission period: order lost
        assert!(!b.is_sorted());
        b.clear();
        assert!(b.is_sorted(), "clear restores the vacuous order");

        // Append: sorted ⊕ sorted with an ascending boundary stays
        // sorted; a descending boundary or an unsorted operand does not.
        let mut lo = FrameBatch::new();
        lo.push(frame(1, 0));
        let mut hi = FrameBatch::new();
        hi.push(frame(2, 0));
        let mut ab = lo.clone();
        ab.append(&hi);
        assert!(ab.is_sorted());
        let mut ba = hi.clone();
        ba.append(&lo);
        assert!(!ba.is_sorted());
    }

    #[test]
    fn merge_fast_path_equals_index_sort_fallback() {
        // The same multiset of frames through both merge paths: shard
        // batches in mailbox order ride the k-way column walk, scrambled
        // shards fall back to the index sort — identical output rows.
        let rows = [
            frame(1, 4),
            frame(1, 7),
            frame(2, 1),
            frame(2, 6),
            frame(3, 0),
            frame(3, 9),
        ];
        let mut sorted_a = FrameBatch::new();
        let mut sorted_b = FrameBatch::new();
        for (i, f) in rows.iter().enumerate() {
            if i % 2 == 0 {
                sorted_a.push(*f);
            } else {
                sorted_b.push(*f);
            }
        }
        assert!(sorted_a.is_sorted() && sorted_b.is_sorted());
        let fast = FrameBatch::merge_ordered(&[sorted_a, sorted_b]);
        assert!(fast.is_sorted());

        let mut scrambled = FrameBatch::new();
        for f in rows.iter().rev() {
            scrambled.push(*f);
        }
        assert!(!scrambled.is_sorted());
        let slow = FrameBatch::merge_ordered(std::iter::once(&scrambled));
        let fast_rows: Vec<Frame> = fast.iter().collect();
        let slow_rows: Vec<Frame> = slow.iter().collect();
        assert_eq!(fast_rows, slow_rows);
    }

    #[test]
    fn batches_roundtrip_through_snapshot_state() {
        use rtf_core::snapshot::{SnapReader, SnapWriter};
        let mut rb = ReportBatch::new();
        rb.push(7, 0, Sign::Plus);
        rb.push(8, 3, Sign::Minus);
        let mut fb = FrameBatch::new();
        fb.push(frame(1, 4));
        fb.push(frame(2, 9));
        let mut w = SnapWriter::new();
        rb.write_state(&mut w);
        fb.write_state(&mut w);
        let bytes = w.finish();
        let mut r = SnapReader::new(&bytes).unwrap();
        let rb2 = ReportBatch::read_state(&mut r).unwrap();
        let fb2 = FrameBatch::read_state(&mut r).unwrap();
        r.finish().unwrap();
        let rows: Vec<_> = rb.iter().collect();
        let rows2: Vec<_> = rb2.iter().collect();
        assert_eq!(rows, rows2);
        let frames: Vec<Frame> = fb.iter().collect();
        let frames2: Vec<Frame> = fb2.iter().collect();
        assert_eq!(frames, frames2);
    }

    #[test]
    fn report_batch_rejects_non_sign_bytes() {
        use rtf_core::snapshot::{SnapReader, SnapWriter, SnapshotError};
        let mut w = SnapWriter::new();
        w.usize(1);
        w.u32(0); // user
        w.u8(0); // order
        w.i8(3); // not a ±1 sign
        let bytes = w.finish();
        let mut r = SnapReader::new(&bytes).unwrap();
        assert_eq!(
            ReportBatch::read_state(&mut r).unwrap_err(),
            SnapshotError::Corrupt("report sign not ±1")
        );
    }
}
