//! Embedding similarities over the vectors the blocking stage already
//! computed.
//!
//! They are thin delegates to [`er_core::kernels`] — the same functions
//! `er_index::Metric` runs its searches on — so a matcher scoring a
//! candidate pair gets the bit-identical cosine the blocker ranked it by
//! (`similarity = 1 − distance`, no kernel drift). Before the kernel
//! module, cosine/dot lived once here and once in `er-index`; these
//! wrappers are now the only er-matching entry points.

use er_core::kernels::KernelTier;
use er_core::Embedding;

/// Dot product of two embedding vectors (unbounded; a raw model-space
/// feature). The `Reference` tier of [`dot_tier`].
pub fn dot(a: &Embedding, b: &Embedding) -> f32 {
    dot_tier(KernelTier::Reference, a, b)
}

/// Dot product on an explicit kernel tier. Every er-matching embedding
/// similarity routes through [`KernelTier`] — there is no private scalar
/// fold in this crate — so a matcher configured with the same tier as the
/// blocker scores candidates with the bit-identical kernel that ranked
/// them.
pub fn dot_tier(tier: KernelTier, a: &Embedding, b: &Embedding) -> f32 {
    tier.dot(a.as_slice(), b.as_slice())
}

/// Cosine similarity in `[-1, 1]`; zero vectors score 0.0, matching the
/// convention of `Embedding::cosine` and `Metric::Cosine` exactly (all
/// three run the same `Reference`-tier kernel).
pub fn cosine(a: &Embedding, b: &Embedding) -> f32 {
    cosine_tier(KernelTier::Reference, a, b)
}

/// Cosine similarity on an explicit kernel tier; the zero-vector → 0.0
/// convention holds in every tier.
pub fn cosine_tier(tier: KernelTier, a: &Embedding, b: &Embedding) -> f32 {
    tier.cosine(a.as_slice(), b.as_slice())
}

/// Slice form of [`cosine`], for [`er_core::EmbeddingMatrix`] rows.
pub fn cosine_slices(a: &[f32], b: &[f32]) -> f32 {
    cosine_slices_tier(KernelTier::Reference, a, b)
}

/// Slice form of [`cosine_tier`].
pub fn cosine_slices_tier(tier: KernelTier, a: &[f32], b: &[f32]) -> f32 {
    tier.cosine(a, b)
}

#[cfg(test)]
mod tests {
    use super::*;
    use er_core::rng::rng;
    use er_index::Metric;
    use rand::Rng;

    fn random_embeddings(n: usize, dim: usize, seed: u64) -> Vec<Embedding> {
        let mut r = rng(seed);
        (0..n)
            .map(|_| Embedding((0..dim).map(|_| r.gen_range(-1.0..1.0)).collect()))
            .collect()
    }

    /// The pre-kernel er-matching implementation, kept verbatim as the
    /// regression oracle: a left-to-right `zip`/`sum` fold.
    fn old_dot(a: &[f32], b: &[f32]) -> f32 {
        a.iter().zip(b.iter()).map(|(x, y)| x * y).sum()
    }

    fn old_cosine(a: &[f32], b: &[f32]) -> f32 {
        let denom = old_dot(a, a).sqrt() * old_dot(b, b).sqrt();
        if denom == 0.0 {
            0.0
        } else {
            old_dot(a, b) / denom
        }
    }

    #[test]
    fn kernel_cosine_and_dot_are_bit_identical_to_the_old_folds() {
        let vectors = random_embeddings(24, 37, 90);
        for a in &vectors {
            for b in &vectors {
                assert_eq!(
                    dot(a, b).to_bits(),
                    old_dot(a.as_slice(), b.as_slice()).to_bits()
                );
                assert_eq!(
                    cosine(a, b).to_bits(),
                    old_cosine(a.as_slice(), b.as_slice()).to_bits()
                );
            }
        }
    }

    #[test]
    fn matcher_cosine_agrees_bitwise_with_core_and_index() {
        // One kernel, three call sites: Embedding::cosine, the matcher
        // similarity, and the blocker's Metric::Cosine (distance = 1 − cos)
        // must never drift apart.
        let vectors = random_embeddings(16, 24, 91);
        for a in &vectors {
            for b in &vectors {
                let sim = cosine(a, b);
                assert_eq!(sim.to_bits(), a.cosine(b).to_bits());
                assert_eq!(
                    sim.to_bits(),
                    cosine_slices(a.as_slice(), b.as_slice()).to_bits()
                );
                assert_eq!(
                    Metric::Cosine.distance(a, b).to_bits(),
                    (1.0 - sim).to_bits()
                );
            }
        }
        let zero = Embedding(vec![0.0; 4]);
        assert_eq!(cosine(&zero, &vectors[0]), 0.0);
    }
}
