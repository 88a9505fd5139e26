//! The single home of the dense distance kernels.
//!
//! Every similarity the pipeline computes — the indices' search distances,
//! the blocker's top-k ranking, the matchers' embedding features — reduces
//! to three slice operations: dot product, (squared) Euclidean distance and
//! cosine. Before this module they were re-implemented per crate
//! (`Embedding::dot`, `er_index::Metric`, the LSH signature loop), which is
//! how kernel drift starts; now `er-index`, `er-matching` and `er-tensor`
//! all call these functions, and the accumulation order is fixed (a plain
//! left-to-right fold) so results are bit-identical wherever they are
//! computed.
//!
//! The `_prenorm` variants take cached norms — the point of
//! [`crate::EmbeddingMatrix`]'s precomputed row norms: cosine against a
//! stored row touches the row once for the dot product instead of twice.

/// Left-to-right dot product. Accumulation order is part of the contract:
/// it matches what `a.iter().zip(b).map(|(x, y)| x * y).sum()` produced
/// before this module existed, so cached and recomputed paths agree bitwise.
#[inline]
pub fn dot(a: &[f32], b: &[f32]) -> f32 {
    debug_assert_eq!(a.len(), b.len(), "dot: dimension mismatch");
    let mut acc = 0.0f32;
    for (x, y) in a.iter().zip(b) {
        acc += x * y;
    }
    acc
}

/// `Σ aᵢ²` — the dot of a slice with itself.
#[inline]
pub(crate) fn squared_norm(a: &[f32]) -> f32 {
    dot(a, a)
}

/// Euclidean norm `‖a‖`.
#[inline]
pub fn norm(a: &[f32]) -> f32 {
    squared_norm(a).sqrt()
}

/// Squared Euclidean distance `‖a − b‖²` (monotone in Euclidean, cheaper —
/// the FAISS convention the blocking code relies on).
#[inline]
pub fn squared_euclidean(a: &[f32], b: &[f32]) -> f32 {
    debug_assert_eq!(a.len(), b.len(), "squared_euclidean: dimension mismatch");
    let mut acc = 0.0f32;
    for (x, y) in a.iter().zip(b) {
        let d = x - y;
        acc += d * d;
    }
    acc
}

/// Cosine similarity with both norms recomputed; zero vectors yield 0.0
/// (the paper's convention for models that cannot embed a record, e.g.
/// GloVe on all-OOV input).
#[inline]
pub fn cosine(a: &[f32], b: &[f32]) -> f32 {
    cosine_prenorm(a, norm(a), b, norm(b))
}

/// Cosine similarity with caller-supplied norms — the cached-norm fast
/// path. Passing `norm(a)`/`norm(b)` makes it bit-identical to [`cosine`];
/// the denominator is the same `‖a‖·‖b‖` product either way.
#[inline]
pub fn cosine_prenorm(a: &[f32], a_norm: f32, b: &[f32], b_norm: f32) -> f32 {
    let denom = a_norm * b_norm;
    if denom == 0.0 {
        0.0
    } else {
        dot(a, b) / denom
    }
}

// ---------------------------------------------------------------------------
// Lanes tier: 8-accumulator unrolled kernels.
//
// The reference fold above carries one loop-dependent f32 accumulator, so the
// CPU serialises every add (and the compiler may not reorder float adds).
// Splitting the sum across 8 independent lane accumulators breaks that chain:
// the loop body becomes 8 independent multiply-adds that vectorise to SSE/AVX
// lanes. The price is a *different* (but still fixed) accumulation order, so
// Lanes results are deterministic run-to-run and machine-independent in
// ordering, yet not bit-identical to the Reference fold — see `KernelTier`
// for the contract.
// ---------------------------------------------------------------------------

/// Number of independent accumulator lanes in the unrolled kernels.
pub const LANES: usize = 8;

/// Fixed lane reduction: pairwise tree `((0+4)+(2+6)) + ((1+5)+(3+7))`.
/// The order is part of the Lanes contract — changing it changes results.
#[inline]
fn reduce_lanes(acc: [f32; LANES]) -> f32 {
    ((acc[0] + acc[4]) + (acc[2] + acc[6])) + ((acc[1] + acc[5]) + (acc[3] + acc[7]))
}

/// 8-lane dot product. Element `i` lands in lane `i % 8` (the trailing
/// partial chunk continues the same assignment), then lanes reduce in the
/// fixed tree order of `reduce_lanes`.
#[inline]
pub(crate) fn dot_lanes(a: &[f32], b: &[f32]) -> f32 {
    debug_assert_eq!(a.len(), b.len(), "dot_lanes: dimension mismatch");
    let mut acc = [0.0f32; LANES];
    let main = a.len() - a.len() % LANES;
    let (a_main, a_tail) = a.split_at(main);
    let (b_main, b_tail) = b.split_at(main);
    for (ca, cb) in a_main.chunks_exact(LANES).zip(b_main.chunks_exact(LANES)) {
        for j in 0..LANES {
            acc[j] += ca[j] * cb[j];
        }
    }
    for (j, (x, y)) in a_tail.iter().zip(b_tail).enumerate() {
        acc[j] += x * y;
    }
    reduce_lanes(acc)
}

/// 8-lane squared Euclidean distance; same lane assignment and reduction
/// order as [`dot_lanes`].
#[inline]
pub(crate) fn squared_euclidean_lanes(a: &[f32], b: &[f32]) -> f32 {
    debug_assert_eq!(
        a.len(),
        b.len(),
        "squared_euclidean_lanes: dimension mismatch"
    );
    let mut acc = [0.0f32; LANES];
    let main = a.len() - a.len() % LANES;
    let (a_main, a_tail) = a.split_at(main);
    let (b_main, b_tail) = b.split_at(main);
    for (ca, cb) in a_main.chunks_exact(LANES).zip(b_main.chunks_exact(LANES)) {
        for j in 0..LANES {
            let d = ca[j] - cb[j];
            acc[j] += d * d;
        }
    }
    for (j, (x, y)) in a_tail.iter().zip(b_tail).enumerate() {
        let d = x - y;
        acc[j] += d * d;
    }
    reduce_lanes(acc)
}

/// `Σ aᵢ²` via the 8-lane kernel.
#[inline]
pub(crate) fn squared_norm_lanes(a: &[f32]) -> f32 {
    dot_lanes(a, a)
}

/// Selector between the scalar reference fold and the unrolled lane kernels.
///
/// The contract, per tier:
///
/// * [`KernelTier::Reference`] — the original left-to-right fold, verbatim.
///   Bit-exact: results equal `a.iter().zip(b).map(|(x, y)| x * y).sum()`
///   and every cached value in the repo (row norms, persisted scores).
///   This is the default everywhere.
/// * [`KernelTier::Lanes`] — 8 independent accumulators with a fixed tree
///   reduction. Deterministic run-to-run, but a different rounding path:
///   agreement with Reference is ≤-tolerance (relative error ≤ 1e-6 of the
///   absolute-value sum), not bitwise.
///
/// Invariants that hold in *every* tier: zero-vector cosine is 0.0 (the
/// paper's all-OOV convention), and `f(a, b)` with `a.len() == b.len() == 0`
/// is 0.0.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default)]
pub enum KernelTier {
    /// Bit-exact left-to-right scalar fold (the pre-tier kernels, verbatim).
    #[default]
    Reference,
    /// 8-lane unrolled kernels with a fixed lane-reduction order.
    Lanes,
}

impl KernelTier {
    /// Dot product in this tier.
    #[inline]
    pub fn dot(self, a: &[f32], b: &[f32]) -> f32 {
        match self {
            KernelTier::Reference => dot(a, b),
            KernelTier::Lanes => dot_lanes(a, b),
        }
    }

    /// `Σ aᵢ²` in this tier.
    #[inline]
    pub fn squared_norm(self, a: &[f32]) -> f32 {
        match self {
            KernelTier::Reference => squared_norm(a),
            KernelTier::Lanes => squared_norm_lanes(a),
        }
    }

    /// Euclidean norm in this tier (`sqrt` of the tier's squared norm).
    #[inline]
    pub fn norm(self, a: &[f32]) -> f32 {
        self.squared_norm(a).sqrt()
    }

    /// Squared Euclidean distance in this tier.
    #[inline]
    pub fn squared_euclidean(self, a: &[f32], b: &[f32]) -> f32 {
        match self {
            KernelTier::Reference => squared_euclidean(a, b),
            KernelTier::Lanes => squared_euclidean_lanes(a, b),
        }
    }

    /// Cosine similarity in this tier; zero vectors yield 0.0 in every tier.
    #[inline]
    pub fn cosine(self, a: &[f32], b: &[f32]) -> f32 {
        self.cosine_prenorm(a, self.norm(a), b, self.norm(b))
    }

    /// Cosine with caller-supplied norms. The zero-denominator convention
    /// (0.0) is tier-independent; only the dot accumulation order varies.
    #[inline]
    pub fn cosine_prenorm(self, a: &[f32], a_norm: f32, b: &[f32], b_norm: f32) -> f32 {
        let denom = a_norm * b_norm;
        if denom == 0.0 {
            0.0
        } else {
            self.dot(a, b) / denom
        }
    }

    /// Stable lowercase name, used in bench output and persisted headers.
    pub(crate) fn name(self) -> &'static str {
        match self {
            KernelTier::Reference => "reference",
            KernelTier::Lanes => "lanes",
        }
    }

    /// Persisted single-byte code (see `er-index` persistence).
    pub fn code(self) -> u8 {
        match self {
            KernelTier::Reference => 0,
            KernelTier::Lanes => 1,
        }
    }

    /// Inverse of [`KernelTier::code`]; `None` on an unknown byte.
    pub fn from_code(code: u8) -> Option<KernelTier> {
        match code {
            0 => Some(KernelTier::Reference),
            1 => Some(KernelTier::Lanes),
            _ => None,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn dot_matches_the_iterator_fold_bitwise() {
        // The exact expression the kernels replaced, on awkward values
        // where f32 addition order matters.
        let a = [1.0e7f32, 1.0, -1.0e7, 0.25, 3.5e-4];
        let b = [0.3f32, 1.0e7, 0.3, -4.0, 7.0];
        let folded: f32 = a.iter().zip(&b).map(|(x, y)| x * y).sum();
        assert_eq!(dot(&a, &b).to_bits(), folded.to_bits());
    }

    #[test]
    fn squared_euclidean_matches_hand_fixture() {
        // a = (1,0), b = (0,2), c = (3,4).
        assert_eq!(squared_euclidean(&[1.0, 0.0], &[0.0, 2.0]), 5.0);
        assert_eq!(squared_euclidean(&[1.0, 0.0], &[3.0, 4.0]), 20.0);
        assert_eq!(squared_euclidean(&[0.0, 2.0], &[3.0, 4.0]), 13.0);
        assert_eq!(squared_euclidean(&[1.0, 0.0], &[1.0, 0.0]), 0.0);
    }

    #[test]
    fn cosine_handles_zero_vectors_and_matches_prenorm() {
        let a = [1.0f32, 0.0];
        let c = [3.0f32, 4.0];
        assert_eq!(cosine(&[0.0, 0.0], &a), 0.0);
        assert!((cosine(&a, &c) - 0.6).abs() < 1e-6);
        let pre = cosine_prenorm(&a, norm(&a), &c, norm(&c));
        assert_eq!(cosine(&a, &c).to_bits(), pre.to_bits());
    }

    #[test]
    fn norm_is_sqrt_of_squared_norm() {
        let v = [3.0f32, 4.0];
        assert_eq!(squared_norm(&v), 25.0);
        assert_eq!(norm(&v), 5.0);
        assert_eq!(norm(&[]), 0.0);
    }

    #[test]
    fn lanes_dot_matches_the_documented_lane_assignment() {
        // 11 elements: 8 in the main chunk, tail elements continue into
        // lanes 0..3. Recompute by hand with the same assignment + tree.
        let a: Vec<f32> = (0..11).map(|i| (i as f32) * 0.37 - 1.5).collect();
        let b: Vec<f32> = (0..11).map(|i| 2.0 - (i as f32) * 0.21).collect();
        let mut lanes = [0.0f32; LANES];
        for i in 0..11 {
            lanes[i % LANES] += a[i] * b[i];
        }
        let expect = ((lanes[0] + lanes[4]) + (lanes[2] + lanes[6]))
            + ((lanes[1] + lanes[5]) + (lanes[3] + lanes[7]));
        assert_eq!(dot_lanes(&a, &b).to_bits(), expect.to_bits());
    }

    #[test]
    fn lanes_tier_is_deterministic_and_close_to_reference() {
        let a: Vec<f32> = (0..133)
            .map(|i| ((i * 37 + 11) % 97) as f32 / 31.0 - 1.2)
            .collect();
        let b: Vec<f32> = (0..133)
            .map(|i| ((i * 53 + 7) % 89) as f32 / 29.0 - 1.4)
            .collect();
        let first = KernelTier::Lanes.dot(&a, &b);
        for _ in 0..4 {
            assert_eq!(KernelTier::Lanes.dot(&a, &b).to_bits(), first.to_bits());
        }
        let scale: f32 = a.iter().zip(&b).map(|(x, y)| (x * y).abs()).sum();
        assert!((first - KernelTier::Reference.dot(&a, &b)).abs() <= 1e-6 * scale);
    }

    #[test]
    fn every_tier_keeps_the_zero_vector_cosine_convention() {
        let z = [0.0f32; 9];
        let v: Vec<f32> = (0..9).map(|i| i as f32 - 4.0).collect();
        for tier in [KernelTier::Reference, KernelTier::Lanes] {
            assert_eq!(tier.cosine(&z, &v), 0.0);
            assert_eq!(tier.cosine(&v, &z), 0.0);
            assert_eq!(tier.cosine(&[], &[]), 0.0);
            assert_eq!(tier.dot(&[], &[]), 0.0);
            assert_eq!(tier.squared_euclidean(&[], &[]), 0.0);
        }
    }

    #[test]
    fn tier_codes_round_trip() {
        for tier in [KernelTier::Reference, KernelTier::Lanes] {
            assert_eq!(KernelTier::from_code(tier.code()), Some(tier));
        }
        assert_eq!(KernelTier::from_code(9), None);
        assert_eq!(KernelTier::default(), KernelTier::Reference);
    }
}
