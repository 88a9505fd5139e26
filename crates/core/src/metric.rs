//! Distance metrics shared by every index.
//!
//! The paper's blocking experiments retrieve by cosine similarity over the
//! (often unnormalized) sentence embeddings, while the scalability study's
//! FAISS indices operate on (squared) Euclidean distance. Both are exposed
//! behind one enum so the indices and the blocker agree on what a returned
//! "distance" means: always *lower is closer*.
//!
//! All arithmetic lives in [`crate::kernels`], so a distance computed here
//! is bit-identical to the similarity the blocker threads to the matchers
//! ([`Metric::hit_similarity`]).
//!
//! Historically this type lived in `er-index`; it moved down into er-core
//! with the [`crate::OperatingPoint`] redesign (the unified config names a
//! metric without depending on the index crate). `er_index::Metric`
//! re-exports it, so existing imports keep compiling.

use crate::entity::Embedding;
use crate::kernels::{self, KernelTier};

/// The distance an index minimizes. Every `er_index::NnIndex` reports
/// which one it was built with via its `metric()` accessor.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum Metric {
    /// Squared Euclidean distance (monotone in Euclidean, cheaper — the
    /// FAISS convention the paper's blocking code relies on).
    #[default]
    Euclidean,
    /// Cosine *distance*, `1 − cos(a, b)`; zero vectors are maximally far
    /// (distance 1), matching `Embedding::cosine`'s zero-vector convention.
    Cosine,
}

impl Metric {
    /// Distance between two embeddings; lower is closer for both variants.
    pub fn distance(&self, a: &Embedding, b: &Embedding) -> f32 {
        self.distance_slices_tier(KernelTier::Reference, a.as_slice(), b.as_slice())
    }

    /// Slice form of [`Metric::distance`], for raw
    /// [`crate::EmbeddingMatrix`] rows, computed with an explicit kernel tier.
    /// `Reference` is bit-exact; `Lanes` is the unrolled kernel (same
    /// ≤-tolerance contract as [`KernelTier`]).
    #[inline]
    pub fn distance_slices_tier(&self, tier: KernelTier, a: &[f32], b: &[f32]) -> f32 {
        match self {
            Metric::Euclidean => tier.squared_euclidean(a, b),
            Metric::Cosine => 1.0 - tier.cosine(a, b),
        }
    }

    /// Distance with caller-cached norms, computed with an explicit kernel
    /// tier — the hot path of every index scan over an
    /// [`crate::EmbeddingMatrix`], whose row norms are precomputed. Norms
    /// are ignored for Euclidean; for cosine, passing the true norms makes
    /// the `Reference` tier bit-identical to [`Metric::distance`].
    /// The cached row norms stay Reference-computed in every tier (they are
    /// part of the persistence contract); only the per-row accumulation
    /// changes, so the zero-vector convention (distance 1.0 under cosine)
    /// holds in every tier.
    #[inline]
    pub fn distance_prenorm_tier(
        &self,
        tier: KernelTier,
        a: &[f32],
        a_norm: f32,
        b: &[f32],
        b_norm: f32,
    ) -> f32 {
        match self {
            Metric::Euclidean => tier.squared_euclidean(a, b),
            Metric::Cosine => 1.0 - tier.cosine_prenorm(a, a_norm, b, b_norm),
        }
    }

    /// The query norm needed by [`Metric::distance_prenorm_tier`], computed
    /// with an explicit kernel tier: once per query, or skipped entirely
    /// (0.0) when the metric ignores norms.
    #[inline]
    pub fn query_norm_tier(&self, tier: KernelTier, query: &[f32]) -> f32 {
        match self {
            Metric::Euclidean => 0.0,
            Metric::Cosine => tier.norm(query),
        }
    }

    /// The similarity a matcher should consume for a hit this metric
    /// returned — the scored-candidate contract of the blocker.
    ///
    /// Cosine recomputes `cos(a, b)` via [`kernels::cosine_prenorm`] with
    /// the cached row norms rather than subtracting the hit distance from 1:
    /// `1 − (1 − c)` drifts from `c` by an ulp whenever `1 − c` rounds
    /// (every `c < 0.5`), while the prenorm recomputation is bit-identical
    /// to [`kernels::cosine`] because the matrices cache exactly
    /// `kernels::norm(row)`. Squared Euclidean has no bounded
    /// similarity twin, so it maps the distance monotonically through
    /// `1 / (1 + d)` ∈ (0, 1]. Both forms are symmetric in `(a, b)` at the
    /// bit level, which lets Dirty-ER dedup order-normalize pairs without
    /// rescoring.
    ///
    /// Deliberately tier-less: scored-candidate similarities are pinned to
    /// the Reference kernel no matter which tier ranked the scan, so the
    /// matcher-facing score contract never drifts when a faster tier is
    /// enabled.
    #[inline]
    pub fn hit_similarity(&self, a: &[f32], a_norm: f32, b: &[f32], b_norm: f32, dist: f32) -> f32 {
        match self {
            Metric::Euclidean => 1.0 / (1.0 + dist),
            Metric::Cosine => kernels::cosine_prenorm(a, a_norm, b, b_norm),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    // Hand-computed three-vector fixture: a = (1,0), b = (0,2), c = (3,4).
    fn fixture() -> (Embedding, Embedding, Embedding) {
        (
            Embedding(vec![1.0, 0.0]),
            Embedding(vec![0.0, 2.0]),
            Embedding(vec![3.0, 4.0]),
        )
    }

    #[test]
    fn euclidean_is_squared() {
        let (a, b, c) = fixture();
        // |a-b|² = 1 + 4, |a-c|² = 4 + 16, |b-c|² = 9 + 4.
        assert_eq!(Metric::Euclidean.distance(&a, &b), 5.0);
        assert_eq!(Metric::Euclidean.distance(&a, &c), 20.0);
        assert_eq!(Metric::Euclidean.distance(&b, &c), 13.0);
        assert_eq!(Metric::Euclidean.distance(&a, &a), 0.0);
    }

    #[test]
    fn cosine_is_one_minus_similarity() {
        let (a, b, c) = fixture();
        // a ⊥ b ⇒ cos = 0 ⇒ distance 1.
        assert_eq!(Metric::Cosine.distance(&a, &b), 1.0);
        // cos(a, c) = 3 / (1·5) = 0.6; cos(b, c) = 8 / (2·5) = 0.8.
        assert!((Metric::Cosine.distance(&a, &c) - 0.4).abs() < 1e-6);
        assert!((Metric::Cosine.distance(&b, &c) - 0.2).abs() < 1e-6);
        assert!(Metric::Cosine.distance(&a, &a).abs() < 1e-6);
    }

    #[test]
    fn zero_vector_is_maximally_far_under_cosine() {
        let (a, _, _) = fixture();
        let z = Embedding::zeros(2);
        assert_eq!(Metric::Cosine.distance(&a, &z), 1.0);
        assert_eq!(Metric::Cosine.distance(&z, &z), 1.0);
    }

    #[test]
    fn prenorm_path_is_bit_identical_to_recomputed_path() {
        let (a, b, c) = fixture();
        let z = Embedding::zeros(2);
        for metric in [Metric::Euclidean, Metric::Cosine] {
            for (x, y) in [(&a, &b), (&a, &c), (&b, &c), (&a, &z), (&z, &z)] {
                let fresh = metric.distance(x, y);
                let cached = metric.distance_prenorm_tier(
                    KernelTier::Reference,
                    x.as_slice(),
                    metric.query_norm_tier(KernelTier::Reference, x.as_slice()),
                    y.as_slice(),
                    y.norm(),
                );
                assert_eq!(fresh.to_bits(), cached.to_bits(), "{metric:?} {x:?} {y:?}");
            }
        }
    }

    #[test]
    fn hit_similarity_matches_the_kernel_cosine_bitwise() {
        let (a, b, c) = fixture();
        let z = Embedding::zeros(2);
        for (x, y) in [(&a, &b), (&a, &c), (&b, &c), (&a, &z), (&z, &z)] {
            let dist = Metric::Cosine.distance(x, y);
            let sim =
                Metric::Cosine.hit_similarity(x.as_slice(), x.norm(), y.as_slice(), y.norm(), dist);
            assert_eq!(
                sim.to_bits(),
                kernels::cosine(x.as_slice(), y.as_slice()).to_bits(),
                "cosine similarity drifted from the kernel"
            );
        }
        // Euclidean maps distance monotonically into (0, 1].
        let d_ab = Metric::Euclidean.distance(&a, &b);
        let d_ac = Metric::Euclidean.distance(&a, &c);
        let s_ab = Metric::Euclidean.hit_similarity(a.as_slice(), 0.0, b.as_slice(), 0.0, d_ab);
        let s_ac = Metric::Euclidean.hit_similarity(a.as_slice(), 0.0, c.as_slice(), 0.0, d_ac);
        assert!(d_ab < d_ac && s_ab > s_ac);
        assert_eq!(s_ab, 1.0 / 6.0);
    }

    #[test]
    fn metrics_rank_neighbours_differently() {
        // Under Euclidean, (10,0) is far from (1,0); under cosine they are
        // identical directions — the contract-drift case the blocker hit.
        let q = Embedding(vec![1.0, 0.0]);
        let scaled = Embedding(vec![10.0, 0.0]);
        let nearby = Embedding(vec![1.0, 1.0]);
        assert!(Metric::Euclidean.distance(&q, &scaled) > Metric::Euclidean.distance(&q, &nearby));
        assert!(Metric::Cosine.distance(&q, &scaled) < Metric::Cosine.distance(&q, &nearby));
    }
}
