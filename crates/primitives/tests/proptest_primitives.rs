//! Property-based tests for the numerical primitives.

use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::{Rng, RngCore, SeedableRng};
use rtf_primitives::logspace::{ln_binomial, ln_factorial, log_add_exp, log_sum_exp, LogSumExp};
use rtf_primitives::seeding::{splitmix64, SeedSequence};
use rtf_primitives::sign::{Sign, Ternary};
use rtf_primitives::subset::{flip_random_subset, sample_subset};
use std::collections::{BTreeSet, HashSet};

/// The textbook `HashSet` Floyd the stack path must reproduce draw for
/// draw: for j = n−w .. n−1 insert a uniform t ∈ {0..j}, or j itself on
/// collision; `w == n` draws nothing.
fn floyd_reference(n: usize, w: usize, rng: &mut StdRng) -> BTreeSet<usize> {
    if w == n {
        return (0..n).collect();
    }
    let mut chosen = HashSet::new();
    for j in (n - w)..n {
        let t = rng.random_range(0..=j);
        if !chosen.insert(t) {
            chosen.insert(j);
        }
    }
    chosen.into_iter().collect()
}

proptest! {
    /// ln n! is strictly increasing and super-additive-ish:
    /// ln (n+1)! = ln n! + ln(n+1).
    #[test]
    fn ln_factorial_recurrence(n in 0u64..100_000) {
        let lhs = ln_factorial(n + 1);
        let rhs = ln_factorial(n) + ((n + 1) as f64).ln();
        prop_assert!((lhs - rhs).abs() < 1e-9 * (1.0 + lhs.abs()));
    }

    /// Pascal's rule in log space: C(n,k) = C(n-1,k-1) + C(n-1,k).
    #[test]
    fn pascals_rule(n in 1u64..2_000, k_frac in 0.0f64..1.0) {
        let k = ((n as f64) * k_frac) as u64;
        let lhs = ln_binomial(n, k);
        let rhs = log_add_exp(
            ln_binomial(n - 1, k.wrapping_sub(1).min(n)),
            ln_binomial(n - 1, k),
        );
        prop_assert!((lhs - rhs).abs() < 1e-9 * (1.0 + lhs.abs()),
            "n={n} k={k}: {lhs} vs {rhs}");
    }

    /// Binomial symmetry: C(n, k) = C(n, n−k).
    #[test]
    fn binomial_symmetry(n in 0u64..50_000, k_frac in 0.0f64..=1.0) {
        let k = ((n as f64) * k_frac) as u64;
        let a = ln_binomial(n, k);
        let b = ln_binomial(n, n - k);
        prop_assert!((a - b).abs() < 1e-9 * (1.0 + a.abs()));
    }

    /// log_sum_exp equals the naive computation when it doesn't overflow.
    #[test]
    fn lse_matches_naive(terms in prop::collection::vec(-50.0f64..50.0, 1..50)) {
        let naive: f64 = terms.iter().map(|t| t.exp()).sum::<f64>().ln();
        let lse = log_sum_exp(&terms);
        prop_assert!((naive - lse).abs() < 1e-9 * (1.0 + naive.abs()));
    }

    /// Streaming LSE is permutation-invariant.
    #[test]
    fn lse_permutation_invariant(mut terms in prop::collection::vec(-300.0f64..300.0, 2..40)) {
        let forward = log_sum_exp(&terms);
        terms.reverse();
        let backward = log_sum_exp(&terms);
        prop_assert!((forward - backward).abs() < 1e-9 * (1.0 + forward.abs()));
        let mut acc = LogSumExp::new();
        for &t in &terms { acc.add(t); }
        prop_assert!((acc.value() - forward).abs() < 1e-9 * (1.0 + forward.abs()));
    }

    /// Subsets are always the right size, sorted, distinct, in range.
    #[test]
    fn subset_invariants(n in 1usize..2_000, w_frac in 0.0f64..=1.0, seed in 0u64..1_000) {
        let w = ((n as f64) * w_frac) as usize;
        let mut rng = StdRng::seed_from_u64(seed);
        let s = sample_subset(n, w, &mut rng);
        prop_assert_eq!(s.len(), w);
        prop_assert!(s.iter().all(|&i| i < n));
        prop_assert!(s.windows(2).all(|p| p[0] < p[1]));
    }

    /// Both Floyd entry points choose exactly the reference `HashSet`
    /// Floyd's set and leave the RNG in the same state, on both sides of
    /// the 32-element stack-buffer boundary.
    #[test]
    fn floyd_matches_hashset_reference(n in 1usize..=200, w_raw in 0usize..=40, seed in 0u64..1_000) {
        let w = w_raw.min(n);
        let mut reference_rng = StdRng::seed_from_u64(seed);
        let reference = floyd_reference(n, w, &mut reference_rng);
        let reference_next = reference_rng.next_u64();

        let mut rng = StdRng::seed_from_u64(seed);
        let sampled: BTreeSet<usize> = sample_subset(n, w, &mut rng).into_iter().collect();
        prop_assert_eq!(&sampled, &reference);
        prop_assert_eq!(rng.next_u64(), reference_next);

        let mut rng = StdRng::seed_from_u64(seed);
        let mut signs = vec![Sign::Plus; n];
        flip_random_subset(&mut signs, w, &mut rng);
        let flipped: BTreeSet<usize> = (0..n).filter(|&i| signs[i] == Sign::Minus).collect();
        prop_assert_eq!(&flipped, &reference);
        prop_assert_eq!(rng.next_u64(), reference_next);
    }

    /// Sign arithmetic is a group action consistent with i8 arithmetic.
    #[test]
    fn sign_algebra(a in 0usize..2, b in 0usize..2) {
        let (x, y) = (Sign::ALL[a], Sign::ALL[b]);
        prop_assert_eq!(x.mul(y).value(), x.value() * y.value());
        prop_assert_eq!(x.mul(y), y.mul(x));
        prop_assert_eq!(x.mul(x), Sign::Plus);
        prop_assert_eq!((-x).value(), -x.value());
    }

    /// Ternary × Sign multiplication matches i8 arithmetic for non-zeros.
    #[test]
    fn ternary_mul(v in -1i8..=1, s in 0usize..2) {
        let sign = Sign::ALL[s];
        if v != 0 {
            let t = Ternary::from_i8(v);
            prop_assert_eq!(t.mul_sign(sign).value(), v * sign.value());
        }
    }

    /// Seed derivation: same path ⇒ same seed, sibling paths differ.
    #[test]
    fn seeding_paths(master in 0u64..u64::MAX, a in 0u64..10_000, b in 0u64..10_000) {
        let root = SeedSequence::new(master);
        prop_assert_eq!(root.child(a).seed(), root.child(a).seed());
        if a != b {
            prop_assert_ne!(root.child(a).seed(), root.child(b).seed());
            prop_assert_ne!(root.child(a).child(b).seed(), root.child(b).child(a).seed());
        }
    }

    /// splitmix64 has no fixed points on sampled inputs (injective mixing).
    #[test]
    fn splitmix_mixes(x in 0u64..u64::MAX) {
        // Not a theorem for every x, but a fixed point would be astonishing;
        // more importantly adjacent inputs must diverge.
        prop_assert_ne!(splitmix64(x), splitmix64(x ^ 1));
    }
}
