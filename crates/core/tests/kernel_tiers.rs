//! Kernel-tier equivalence suite (PR 7 satellite): the `Lanes` tier must
//! track the bit-exact `Reference` fold within the documented tolerance on
//! arbitrary inputs — including dimensions that are not multiples of the
//! lane width, degenerate lengths, subnormals and signed zeros — and the
//! `Reference` tier itself must stay bitwise equal to the pre-tier fold it
//! replaced (the `zip`/`map`/`sum` expression, kept verbatim below as the
//! regression oracle).
//!
//! It also guards against kernel drift: every public distance entry point
//! — `Embedding`'s methods, the kernel tiers and `Metric` — must agree
//! *bitwise* when asked for the same quantity on the same tier. One
//! kernel, many doors; these tests fail the moment a door grows a private
//! fold.

use er_core::kernels::{self, KernelTier, LANES};
use er_core::rng::rng;
use er_core::{Embedding, Metric};
use proptest::prelude::*;
use rand::Rng;

const TIERS: [KernelTier; 2] = [KernelTier::Reference, KernelTier::Lanes];

// ---------------------------------------------------------------------------
// The pre-PR kernels, verbatim. These are the exact expressions that lived
// in er-core before the tier enum existed; `Reference` pins to them bitwise.
// ---------------------------------------------------------------------------

fn pre_pr_dot(a: &[f32], b: &[f32]) -> f32 {
    let mut acc = 0.0f32;
    for (x, y) in a.iter().zip(b) {
        acc += x * y;
    }
    acc
}

fn pre_pr_squared_euclidean(a: &[f32], b: &[f32]) -> f32 {
    let mut acc = 0.0f32;
    for (x, y) in a.iter().zip(b) {
        let d = x - y;
        acc += d * d;
    }
    acc
}

fn pre_pr_cosine(a: &[f32], b: &[f32]) -> f32 {
    let denom = pre_pr_dot(a, a).sqrt() * pre_pr_dot(b, b).sqrt();
    if denom == 0.0 {
        0.0
    } else {
        pre_pr_dot(a, b) / denom
    }
}

/// The documented Lanes tolerance: relative error at most `1e-6` of the
/// absolute-value sum of the products (the natural condition-number scale
/// of a float dot product — cancellation-heavy inputs widen it).
fn abs_scale(a: &[f32], b: &[f32]) -> f32 {
    a.iter().zip(b).map(|(x, y)| (x * y).abs()).sum::<f32>()
}

fn sqeuclid_scale(a: &[f32], b: &[f32]) -> f32 {
    a.iter().zip(b).map(|(x, y)| (x - y) * (x - y)).sum::<f32>()
}

/// A pair of equal-length vectors mixing magnitudes, exact zeros and
/// negative zeros — the seeded replacement for upstream proptest's
/// composite strategies (the vendored `proptest!` only draws scalars).
fn vector_pair(dim: usize, seed: u64) -> (Vec<f32>, Vec<f32>) {
    let mut r = rng(seed);
    let mut gen = |_: usize| -> f32 {
        match r.gen_range(0..8u32) {
            0..=4 => r.gen_range(-100.0f32..100.0),
            5 => r.gen_range(-1.0e-3f32..1.0e-3),
            6 => 0.0,
            _ => -0.0,
        }
    };
    let a: Vec<f32> = (0..dim).map(&mut gen).collect();
    let b: Vec<f32> = (0..dim).map(&mut gen).collect();
    (a, b)
}

proptest! {
    fn reference_is_bit_exact_to_the_pre_pr_fold(dim in 0usize..=40, seed in 0..1_000_000u64) {
        let (a, b) = vector_pair(dim, seed);
        let t = KernelTier::Reference;
        assert_eq!(t.dot(&a, &b).to_bits(), pre_pr_dot(&a, &b).to_bits());
        assert_eq!(
            t.squared_euclidean(&a, &b).to_bits(),
            pre_pr_squared_euclidean(&a, &b).to_bits()
        );
        assert_eq!(t.cosine(&a, &b).to_bits(), pre_pr_cosine(&a, &b).to_bits());
        assert_eq!(t.squared_norm(&a).to_bits(), pre_pr_dot(&a, &a).to_bits());
        // The free functions are the Reference tier.
        assert_eq!(t.dot(&a, &b).to_bits(), kernels::dot(&a, &b).to_bits());
        assert_eq!(t.cosine(&a, &b).to_bits(), kernels::cosine(&a, &b).to_bits());
    }

    fn lanes_tracks_reference_within_tolerance(dim in 0usize..=40, seed in 0..1_000_000u64) {
        let (a, b) = vector_pair(dim, seed);
        let r = KernelTier::Reference;
        let l = KernelTier::Lanes;
        let tol = 1e-6f32;
        assert!((l.dot(&a, &b) - r.dot(&a, &b)).abs() <= tol * abs_scale(&a, &b));
        assert!(
            (l.squared_euclidean(&a, &b) - r.squared_euclidean(&a, &b)).abs()
                <= tol * sqeuclid_scale(&a, &b)
        );
        assert!((l.squared_norm(&a) - r.squared_norm(&a)).abs() <= tol * abs_scale(&a, &a));
        // Cosine is a ratio of two toleranced quantities on a [-1, 1]
        // scale; 1e-5 of slack is far below any ranking-visible drift.
        let (rc, lc) = (r.cosine(&a, &b), l.cosine(&a, &b));
        assert!((rc - lc).abs() <= 1e-5, "cosine drift: {rc} vs {lc}");
    }

    fn lanes_is_deterministic_across_calls(dim in 0usize..=40, seed in 0..1_000_000u64) {
        let (a, b) = vector_pair(dim, seed);
        let l = KernelTier::Lanes;
        let first = (l.dot(&a, &b), l.squared_euclidean(&a, &b), l.cosine(&a, &b));
        for _ in 0..3 {
            assert_eq!(l.dot(&a, &b).to_bits(), first.0.to_bits());
            assert_eq!(l.squared_euclidean(&a, &b).to_bits(), first.1.to_bits());
            assert_eq!(l.cosine(&a, &b).to_bits(), first.2.to_bits());
        }
    }
}

#[test]
fn boundary_lengths_agree_in_every_tier() {
    // 0, 1, LANES−1, LANES, LANES+1: the empty kernel, the no-main-chunk
    // path, and both sides of the unrolled boundary.
    for len in [0usize, 1, LANES - 1, LANES, LANES + 1] {
        let a: Vec<f32> = (0..len).map(|i| (i as f32) * 0.7 - 1.3).collect();
        let b: Vec<f32> = (0..len).map(|i| 2.1 - (i as f32) * 0.4).collect();
        let want_dot = pre_pr_dot(&a, &b);
        let want_sq = pre_pr_squared_euclidean(&a, &b);
        for tier in TIERS {
            let tol = 1e-6 * abs_scale(&a, &b) + f32::EPSILON;
            assert!(
                (tier.dot(&a, &b) - want_dot).abs() <= tol,
                "len {len}, tier {tier:?}"
            );
            assert!(
                (tier.squared_euclidean(&a, &b) - want_sq).abs()
                    <= 1e-6 * sqeuclid_scale(&a, &b) + f32::EPSILON,
                "len {len}, tier {tier:?}"
            );
        }
        // Reference at these lengths is bitwise, not just toleranced.
        assert_eq!(
            KernelTier::Reference.dot(&a, &b).to_bits(),
            want_dot.to_bits()
        );
    }
}

#[test]
fn subnormals_and_signed_zeros_do_not_diverge() {
    let tiny = f32::MIN_POSITIVE / 8.0; // subnormal
    assert!(tiny > 0.0 && !tiny.is_normal());
    let a = [tiny, -tiny, 0.0, -0.0, tiny, tiny, -tiny, 0.0, tiny];
    let b = [1.0f32, 1.0, -0.0, 0.0, 2.0, -2.0, 4.0, 8.0, 0.5];
    for tier in TIERS {
        let d = tier.dot(&a, &b);
        assert!(d.is_finite(), "{tier:?}: {d}");
        // Products of subnormals with small powers of two stay exact, so
        // the tiers must agree to within one subnormal step (no fast-math
        // means no flush-to-zero in any tier).
        assert!(
            (d - pre_pr_dot(&a, &b)).abs() <= f32::MIN_POSITIVE,
            "{tier:?}"
        );
        // ±0.0 inputs are fine everywhere.
        let z = [0.0f32, -0.0, 0.0, -0.0, 0.0, -0.0, 0.0, -0.0, 0.0];
        assert_eq!(tier.dot(&z, &b), 0.0);
        assert_eq!(tier.cosine(&z, &b), 0.0, "zero-vector cosine convention");
        assert_eq!(tier.squared_norm(&z), 0.0);
    }
}

#[test]
fn norm_routes_through_the_tier_squared_norm() {
    let v: Vec<f32> = (0..19).map(|i| (i as f32).sin() * 3.0).collect();
    for tier in TIERS {
        assert_eq!(
            tier.norm(&v).to_bits(),
            tier.squared_norm(&v).sqrt().to_bits()
        );
    }
    // Reference norm == the pre-PR `dot(a, a).sqrt()`.
    assert_eq!(
        kernels::norm(&v).to_bits(),
        pre_pr_dot(&v, &v).sqrt().to_bits()
    );
}

fn random_embeddings(n: usize, dim: usize, seed: u64) -> Vec<Embedding> {
    let mut r = rng(seed);
    (0..n)
        .map(|_| Embedding((0..dim).map(|_| r.gen_range(-2.0..2.0)).collect()))
        .collect()
}

#[test]
fn every_public_dot_entry_point_agrees_bitwise_per_tier() {
    // Dims straddle the 8-lane boundary on purpose.
    for dim in [7usize, 8, 19, 32] {
        let vs = random_embeddings(6, dim, 0xd01f + dim as u64);
        for a in &vs {
            for b in &vs {
                // The tierless doors are all the Reference tier.
                let want = KernelTier::Reference.dot(a.as_slice(), b.as_slice());
                assert_eq!(a.dot(b).to_bits(), want.to_bits(), "dim {dim}");
                assert_eq!(
                    kernels::dot(a.as_slice(), b.as_slice()).to_bits(),
                    want.to_bits()
                );
            }
        }
    }
}

#[test]
fn every_public_cosine_entry_point_agrees_bitwise_per_tier() {
    for dim in [7usize, 8, 19, 32] {
        let vs = random_embeddings(6, dim, 0xc0 + dim as u64);
        for a in &vs {
            for b in &vs {
                for tier in TIERS {
                    let want = tier.cosine(a.as_slice(), b.as_slice());
                    // Metric::Cosine is `1 − cosine` on the same tier, and
                    // its prenorm fast path takes the tier's own norms.
                    assert_eq!(
                        Metric::Cosine
                            .distance_slices_tier(tier, a.as_slice(), b.as_slice())
                            .to_bits(),
                        (1.0 - want).to_bits(),
                        "Metric::Cosine drifted ({tier:?}, dim {dim})"
                    );
                    let (na, nb) = (tier.norm(a.as_slice()), tier.norm(b.as_slice()));
                    assert_eq!(
                        Metric::Cosine
                            .distance_prenorm_tier(tier, a.as_slice(), na, b.as_slice(), nb)
                            .to_bits(),
                        (1.0 - want).to_bits()
                    );
                }
                let want = KernelTier::Reference.cosine(a.as_slice(), b.as_slice());
                assert_eq!(a.cosine(b).to_bits(), want.to_bits());
                assert_eq!(
                    Metric::Cosine.distance(a, b).to_bits(),
                    (1.0 - want).to_bits()
                );
            }
        }
    }
}

#[test]
fn euclidean_metric_routes_through_the_tier_squared_euclidean() {
    for dim in [7usize, 9, 24] {
        let vs = random_embeddings(5, dim, 0xe0c + dim as u64);
        for a in &vs {
            for b in &vs {
                for tier in TIERS {
                    let want = tier.squared_euclidean(a.as_slice(), b.as_slice());
                    assert_eq!(
                        Metric::Euclidean
                            .distance_slices_tier(tier, a.as_slice(), b.as_slice())
                            .to_bits(),
                        want.to_bits(),
                        "Metric::Euclidean drifted ({tier:?}, dim {dim})"
                    );
                }
            }
        }
    }
}

#[test]
fn zero_vectors_score_cosine_zero_through_every_door() {
    let z = Embedding(vec![0.0; 12]);
    let v = Embedding((0..12).map(|i| i as f32 - 5.0).collect());
    for tier in TIERS {
        assert_eq!(tier.cosine(z.as_slice(), v.as_slice()), 0.0);
        assert_eq!(
            Metric::Cosine.distance_slices_tier(tier, z.as_slice(), v.as_slice()),
            1.0
        );
    }
    assert_eq!(z.cosine(&v), 0.0);
}
