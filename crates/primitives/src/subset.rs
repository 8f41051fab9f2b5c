//! Uniform fixed-size subset sampling.
//!
//! The composed randomizer's resampling branch needs a uniformly random
//! string at a given Hamming distance `w` from a base string — i.e. a
//! uniformly random `w`-subset of the `k` coordinate positions to flip.
//! [`sample_subset`] implements Floyd's algorithm: `O(w)` expected time and
//! memory, independent of `k`, which matters because `k` may be large while
//! the annulus keeps `w` near `k·p`.
//!
//! **Cost.** For `w ≤ 32` — every per-user `b̃` draw at the protocol's
//! sparsities and every `UniformChanges` stream — Floyd runs over a stack
//! buffer with a linear-scan membership test: [`flip_random_subset`]
//! touches no heap at all and [`sample_subset`] allocates only its sorted
//! output. Larger `w` falls back to a `HashSet`. Both paths make the same
//! `random_range(0..=j)` draws and choose the same set, so the choice of
//! path never changes an RNG stream.

use rand::Rng;
use std::collections::HashSet;

/// Largest subset size Floyd's algorithm runs on the stack.
const STACK_FLOYD_MAX: usize = 32;

/// Floyd's algorithm for `w ≤ STACK_FLOYD_MAX` and `w ≤ n`: the chosen
/// indices, in draw order, in the first `w` slots of the buffer.
fn floyd_on_stack<R: Rng + ?Sized>(n: usize, w: usize, rng: &mut R) -> [usize; STACK_FLOYD_MAX] {
    debug_assert!(w <= STACK_FLOYD_MAX && w <= n);
    let mut chosen = [0usize; STACK_FLOYD_MAX];
    for (len, j) in ((n - w)..n).enumerate() {
        let t = rng.random_range(0..=j);
        // Every earlier pick is < j, so j itself is always free.
        chosen[len] = if chosen[..len].contains(&t) { j } else { t };
    }
    chosen
}

/// Draws a uniformly random `w`-element subset of `{0, …, n−1}`.
///
/// The returned indices are sorted ascending (callers iterate them against
/// coordinate vectors; sorted order makes that cache-friendly and the output
/// deterministic given the chosen set).
///
/// # Panics
/// Panics if `w > n`.
pub fn sample_subset<R: Rng + ?Sized>(n: usize, w: usize, rng: &mut R) -> Vec<usize> {
    assert!(w <= n, "cannot sample {w} elements from a set of {n}");
    if w == 0 {
        return Vec::new();
    }
    if w == n {
        return (0..n).collect();
    }
    let mut out = if w <= STACK_FLOYD_MAX {
        floyd_on_stack(n, w, rng)[..w].to_vec()
    } else {
        // Floyd's algorithm: for j = n−w .. n−1, insert a uniform t ∈ {0..j};
        // on collision insert j itself. Produces uniform w-subsets.
        let mut chosen: HashSet<usize> = HashSet::with_capacity(w * 2);
        for j in (n - w)..n {
            let t = rng.random_range(0..=j);
            if !chosen.insert(t) {
                chosen.insert(j);
            }
        }
        chosen.into_iter().collect()
    };
    out.sort_unstable();
    out
}

/// Flips the signs of `base` at a uniformly random `w`-subset of positions,
/// in place. This realises "a uniform string at Hamming distance exactly `w`
/// from `base`". Flips the same positions, with the same draws, as
/// flipping every index [`sample_subset`] returns — without allocating
/// unless `w > 32`.
///
/// # Panics
/// Panics if `w > base.len()`.
pub fn flip_random_subset<R: Rng + ?Sized>(base: &mut [crate::sign::Sign], w: usize, rng: &mut R) {
    let n = base.len();
    assert!(w <= n, "cannot sample {w} elements from a set of {n}");
    let flip = |s: &mut crate::sign::Sign| *s = s.flipped();
    if w == n {
        // Like `sample_subset`, the whole set draws nothing.
        base.iter_mut().for_each(flip);
    } else if w <= STACK_FLOYD_MAX {
        for &i in &floyd_on_stack(n, w, rng)[..w] {
            flip(&mut base[i]);
        }
    } else {
        for i in sample_subset(n, w, rng) {
            flip(&mut base[i]);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::sign::Sign;
    use rand::rngs::StdRng;
    use rand::SeedableRng;
    use std::collections::HashMap;

    #[test]
    fn subset_size_and_range() {
        let mut rng = StdRng::seed_from_u64(1);
        for n in [1usize, 5, 64, 1000] {
            for w in [0usize, 1, n / 2, n] {
                let s = sample_subset(n, w, &mut rng);
                assert_eq!(s.len(), w);
                assert!(s.iter().all(|&i| i < n));
                assert!(s.windows(2).all(|p| p[0] < p[1]), "sorted & distinct");
            }
        }
    }

    #[test]
    #[should_panic(expected = "cannot sample")]
    fn oversized_subset_rejected() {
        let mut rng = StdRng::seed_from_u64(2);
        let _ = sample_subset(3, 4, &mut rng);
    }

    #[test]
    fn subsets_are_uniform() {
        // All C(5,2)=10 subsets should appear with equal frequency.
        let mut rng = StdRng::seed_from_u64(3);
        let draws = 100_000;
        let mut counts: HashMap<Vec<usize>, usize> = HashMap::new();
        for _ in 0..draws {
            *counts.entry(sample_subset(5, 2, &mut rng)).or_default() += 1;
        }
        assert_eq!(counts.len(), 10);
        for (s, &c) in &counts {
            let f = c as f64 / draws as f64;
            assert!((f - 0.1).abs() < 0.01, "subset {s:?} freq {f}");
        }
    }

    #[test]
    fn element_inclusion_probability_is_w_over_n() {
        let mut rng = StdRng::seed_from_u64(4);
        let (n, w) = (20usize, 7usize);
        let draws = 50_000;
        let mut hits = vec![0usize; n];
        for _ in 0..draws {
            for i in sample_subset(n, w, &mut rng) {
                hits[i] += 1;
            }
        }
        let expect = w as f64 / n as f64;
        for (i, &h) in hits.iter().enumerate() {
            let f = h as f64 / draws as f64;
            assert!((f - expect).abs() < 0.015, "position {i} freq {f}");
        }
    }

    #[test]
    fn flip_random_subset_changes_exactly_w_positions() {
        let mut rng = StdRng::seed_from_u64(5);
        let base = vec![Sign::Plus; 40];
        for w in [0usize, 1, 17, 40] {
            let mut v = base.clone();
            flip_random_subset(&mut v, w, &mut rng);
            let dist = v.iter().filter(|&&s| s == Sign::Minus).count();
            assert_eq!(dist, w);
        }
    }
}
