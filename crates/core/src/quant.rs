//! Int8 scalar quantization of an [`EmbeddingMatrix`].
//!
//! Blocking over millions of rows is memory-bound: a 64-d f32 scan streams
//! 256 bytes per row, and the kernels spend most of their time waiting on
//! loads. [`QuantizedMatrix`] stores each row as `i8` codes with a per-row
//! affine map (`x̂ᵢ = zero + scale · codeᵢ`), cutting the traffic 4× and
//! turning the inner loop into an integer-accumulator dot product that the
//! compiler vectorises aggressively.
//!
//! The affine dot expands exactly:
//!
//! ```text
//! Σ (z_q + s_q·aᵢ)(z_r + s_r·bᵢ)
//!   = d·z_q·z_r + z_q·s_r·Σbᵢ + z_r·s_q·Σaᵢ + s_q·s_r·Σaᵢbᵢ
//! ```
//!
//! so with the per-row code sums `Σbᵢ` precomputed at quantization time,
//! each row costs one `i32` integer dot plus O(1) float corrections. The
//! result is the *exact* dot of the dequantized vectors up to float
//! rounding — the only information loss is the rounding to 255 code levels.
//!
//! Everything here is deterministic: quantization is per-row (row-local, so
//! shard-invariant), and distances depend only on the stored codes. Scores
//! are approximate — callers that need exact results re-rank the quantized
//! top-R with the f32 kernels (see `er-index`'s `ExactIndex`).

use crate::kernels;
use crate::matrix::EmbeddingMatrix;
use crate::{ErError, Result};

/// Codes span `[-127, 127]`; `-128` is never produced, keeping the map
/// symmetric around the per-row zero point.
const CODE_LEVELS: f32 = 254.0;
const CODE_MAX: f32 = 127.0;

/// A row-major `i8` matrix with per-row affine dequantization parameters
/// and the precomputed per-row statistics the scan kernels need.
#[derive(Debug, Clone, PartialEq, Default)]
pub struct QuantizedMatrix {
    dim: usize,
    codes: Vec<i8>,
    /// Per-row `scale` of the affine map `x̂ᵢ = zero + scale · codeᵢ`.
    scales: Vec<f32>,
    /// Per-row `zero` (the midpoint of the row's value range).
    zeros: Vec<f32>,
    /// Per-row `Σ codeᵢ` for the affine dot expansion.
    code_sums: Vec<i32>,
    /// Euclidean norm of each *dequantized* row (Reference fold).
    norms: Vec<f32>,
    /// Squared Euclidean norm of each dequantized row (Reference fold).
    sq_norms: Vec<f32>,
}

/// A query quantized against its own range, plus the *exact* f32 norms of
/// the original query — the cosine denominator and the Euclidean expansion
/// use the true query norms so only the stored side loses precision twice.
#[derive(Debug, Clone, PartialEq)]
pub struct QuantizedQuery {
    /// Query codes, pre-widened to `i16`: the scan's hot loop is then an
    /// `i16 × i8` dot whose products fit `i16×i16 → i32` multiply-add
    /// (SSE2 `pmaddwd`), which the compiler emits for the plain fold. The
    /// values are exactly the `i8` codes; only the storage is wider, and
    /// only on the transient query side — stored rows stay 1 byte/element.
    codes: Vec<i16>,
    scale: f32,
    zero: f32,
    code_sum: i32,
    /// `‖q‖` of the original f32 query (Reference fold).
    pub norm: f32,
    /// `‖q‖²` of the original f32 query (Reference fold).
    pub sq_norm: f32,
}

/// Quantize one vector: `zero` is the midpoint of its value range, `scale`
/// maps the range onto the 254 code levels. An all-equal vector (including
/// all-zero) has `scale == 0` and dequantizes exactly to its constant value.
fn quantize_into(row: &[f32], codes: &mut Vec<i8>) -> (f32, f32, i32) {
    let mut lo = f32::INFINITY;
    let mut hi = f32::NEG_INFINITY;
    for &x in row {
        lo = lo.min(x);
        hi = hi.max(x);
    }
    if row.is_empty() || lo >= hi {
        // Empty or all-equal: scale 0, every code 0, dequant == zero point.
        let zero = if row.is_empty() { 0.0 } else { lo };
        codes.extend(std::iter::repeat_n(0i8, row.len()));
        return (0.0, zero, 0);
    }
    let zero = (lo + hi) / 2.0;
    let scale = (hi - lo) / CODE_LEVELS;
    let inv = 1.0 / scale;
    let mut sum = 0i32;
    for &x in row {
        let c = ((x - zero) * inv).round().clamp(-CODE_MAX, CODE_MAX) as i8;
        sum += c as i32;
        codes.push(c);
    }
    (scale, zero, sum)
}

/// The scan's hot loop: widened query codes against a stored `i8` row,
/// with an `i32` accumulator. Integer adds are associative, so the result
/// is identical in any order, and the `i16` side lets SSE2 multiply-add
/// eight products per instruction instead of sign-extending both operands.
#[inline]
fn dot_query(q: &[i16], row: &[i8]) -> i32 {
    debug_assert_eq!(q.len(), row.len(), "dot_query: dimension mismatch");
    let mut acc = 0i32;
    for (&x, &y) in q.iter().zip(row) {
        acc += (x as i32) * (y as i32);
    }
    acc
}

impl QuantizedMatrix {
    /// Quantize every row of `matrix`. Per-row and deterministic.
    pub fn quantize(matrix: &EmbeddingMatrix) -> QuantizedMatrix {
        let mut q = QuantizedMatrix::new(matrix.dim());
        for row in matrix.rows_iter() {
            q.push_row(row);
        }
        q
    }

    /// An empty quantized matrix for `dim`-component rows.
    pub fn new(dim: usize) -> QuantizedMatrix {
        QuantizedMatrix {
            dim,
            ..QuantizedMatrix::default()
        }
    }

    /// Quantize and append one row (the incremental `er-serve` path).
    /// Panics if `row.len() != dim`, matching `EmbeddingMatrix::push`.
    pub fn push_row(&mut self, row: &[f32]) {
        assert_eq!(
            row.len(),
            self.dim,
            "QuantizedMatrix: pushed a {}-d row into a {}-d matrix",
            row.len(),
            self.dim
        );
        let (scale, zero, sum) = quantize_into(row, &mut self.codes);
        let start = self.codes.len() - self.dim;
        let dequant: Vec<f32> = self.codes[start..]
            .iter()
            .map(|&c| zero + scale * c as f32)
            .collect();
        self.scales.push(scale);
        self.zeros.push(zero);
        self.code_sums.push(sum);
        self.sq_norms.push(kernels::squared_norm(&dequant));
        self.norms.push(kernels::norm(&dequant));
    }

    /// Quantize a query vector for scanning against this matrix.
    pub fn quantize_query(&self, query: &[f32]) -> QuantizedQuery {
        assert_eq!(
            query.len(),
            self.dim,
            "QuantizedMatrix: {}-d query against a {}-d matrix",
            query.len(),
            self.dim
        );
        let mut codes = Vec::with_capacity(query.len());
        let (scale, zero, code_sum) = quantize_into(query, &mut codes);
        QuantizedQuery {
            codes: codes.into_iter().map(|c| c as i16).collect(),
            scale,
            zero,
            code_sum,
            norm: kernels::norm(query),
            sq_norm: kernels::squared_norm(query),
        }
    }

    /// Approximate `⟨q, rowᵢ⟩` — the exact dot of the dequantized vectors
    /// (up to float rounding) via the affine expansion.
    #[inline]
    pub(crate) fn dot(&self, q: &QuantizedQuery, i: usize) -> f32 {
        let codes = self.row_codes(i);
        let int_dot = dot_query(&q.codes, codes) as f32;
        let d = self.dim as f32;
        d * q.zero * self.zeros[i]
            + q.zero * self.scales[i] * self.code_sums[i] as f32
            + self.zeros[i] * q.scale * q.code_sum as f32
            + q.scale * self.scales[i] * int_dot
    }

    /// Approximate cosine similarity; zero vectors (on either side) yield
    /// 0.0 — the same all-OOV convention as every f32 tier.
    #[inline]
    pub fn cosine(&self, q: &QuantizedQuery, i: usize) -> f32 {
        let denom = q.norm * self.norms[i];
        if denom == 0.0 {
            0.0
        } else {
            self.dot(q, i) / denom
        }
    }

    /// Approximate squared Euclidean distance, clamped at 0 (the expansion
    /// can dip fractionally negative from rounding).
    #[inline]
    pub fn squared_euclidean(&self, q: &QuantizedQuery, i: usize) -> f32 {
        (q.sq_norm + self.sq_norms[i] - 2.0 * self.dot(q, i)).max(0.0)
    }

    /// Reconstruct row `i` as f32 — what the approximate kernels "see".
    pub(crate) fn dequantize_row(&self, i: usize) -> Vec<f32> {
        let (scale, zero) = (self.scales[i], self.zeros[i]);
        self.row_codes(i)
            .iter()
            .map(|&c| zero + scale * c as f32)
            .collect()
    }

    /// The `i8` codes of row `i`.
    #[inline]
    pub(crate) fn row_codes(&self, i: usize) -> &[i8] {
        &self.codes[i * self.dim..(i + 1) * self.dim]
    }

    pub fn dim(&self) -> usize {
        self.dim
    }

    pub fn is_empty(&self) -> bool {
        self.scales.is_empty()
    }

    // Flat accessors for binary persistence (`er_core::binary`).
    pub(crate) fn codes(&self) -> &[i8] {
        &self.codes
    }
    pub(crate) fn scales(&self) -> &[f32] {
        &self.scales
    }
    pub(crate) fn zeros(&self) -> &[f32] {
        &self.zeros
    }

    /// A new quantized matrix of the given rows, in order, with their codes,
    /// affine maps and derived statistics copied verbatim — compaction's
    /// float-free copy, like [`EmbeddingMatrix::select_rows`].
    pub fn select_rows(&self, rows: impl IntoIterator<Item = usize>) -> QuantizedMatrix {
        let mut out = QuantizedMatrix::new(self.dim);
        for i in rows {
            out.codes.extend_from_slice(self.row_codes(i));
            out.scales.push(self.scales[i]);
            out.zeros.push(self.zeros[i]);
            out.code_sums.push(self.code_sums[i]);
            out.norms.push(self.norms[i]);
            out.sq_norms.push(self.sq_norms[i]);
        }
        out
    }

    /// Reassemble from persisted codes and affine parameters (the ERBF load
    /// path). The derived statistics (code sums, dequantized norms) are
    /// recomputed deterministically from the codes, so only the codes and
    /// the affine maps are stored.
    pub(crate) fn from_parts(
        dim: usize,
        codes: Vec<i8>,
        scales: Vec<f32>,
        zeros: Vec<f32>,
    ) -> Result<QuantizedMatrix> {
        if scales.len() != zeros.len() {
            return Err(ErError::corrupt(format!(
                "QuantizedMatrix: {} scales but {} zero points",
                scales.len(),
                zeros.len()
            )));
        }
        if codes.len() != dim * scales.len() {
            return Err(ErError::corrupt(format!(
                "QuantizedMatrix: {} codes is not {} rows × dim {dim}",
                codes.len(),
                scales.len()
            )));
        }
        let mut q = QuantizedMatrix {
            dim,
            codes,
            scales,
            zeros,
            code_sums: Vec::new(),
            norms: Vec::new(),
            sq_norms: Vec::new(),
        };
        for i in 0..q.scales.len() {
            q.code_sums
                .push(q.row_codes(i).iter().map(|&c| c as i32).sum());
            let dequant = q.dequantize_row(i);
            q.sq_norms.push(kernels::squared_norm(&dequant));
            q.norms.push(kernels::norm(&dequant));
        }
        Ok(q)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::Rng;

    fn random_matrix(rows: usize, dim: usize, seed: u64) -> EmbeddingMatrix {
        let mut r = crate::rng::rng(seed);
        let mut m = EmbeddingMatrix::new(dim);
        for _ in 0..rows {
            let row: Vec<f32> = (0..dim).map(|_| r.gen_range(-1.5..1.5)).collect();
            m.push(&row);
        }
        m
    }

    #[test]
    fn dequantization_error_is_bounded_by_half_a_step() {
        let m = random_matrix(50, 24, 7);
        let q = QuantizedMatrix::quantize(&m);
        for i in 0..m.len() {
            let step = q.scales()[i];
            for (orig, deq) in m.row(i).iter().zip(q.dequantize_row(i)) {
                assert!(
                    (orig - deq).abs() <= step * 0.51 + 1e-6,
                    "row {i}: {orig} vs {deq} (step {step})"
                );
            }
        }
    }

    #[test]
    fn affine_dot_matches_the_dequantized_dot() {
        let m = random_matrix(40, 32, 11);
        let q = QuantizedMatrix::quantize(&m);
        let query: Vec<f32> = (0..32).map(|i| (i as f32 * 0.11).sin()).collect();
        let qq = q.quantize_query(&query);
        let deq_query: Vec<f32> = {
            let mut codes = Vec::new();
            let (s, z, _) = quantize_into(&query, &mut codes);
            codes.iter().map(|&c| z + s * c as f32).collect()
        };
        for i in 0..m.len() {
            let expect = kernels::dot(&deq_query, &q.dequantize_row(i));
            let got = q.dot(&qq, i);
            assert!((expect - got).abs() <= 1e-3, "row {i}: {expect} vs {got}");
        }
    }

    #[test]
    fn quantized_cosine_tracks_exact_cosine() {
        let m = random_matrix(60, 48, 13);
        let q = QuantizedMatrix::quantize(&m);
        let query: Vec<f32> = (0..48)
            .map(|i| ((i * 7 + 3) % 19) as f32 / 10.0 - 0.9)
            .collect();
        let qq = q.quantize_query(&query);
        for i in 0..m.len() {
            let exact = kernels::cosine(&query, m.row(i));
            let approx = q.cosine(&qq, i);
            assert!(
                (exact - approx).abs() < 0.02,
                "row {i}: {exact} vs {approx}"
            );
        }
    }

    #[test]
    fn all_equal_rows_quantize_to_scale_zero_exactly() {
        let mut m = EmbeddingMatrix::new(4);
        m.push(&[2.5, 2.5, 2.5, 2.5]);
        m.push(&[0.0, 0.0, 0.0, 0.0]);
        m.push(&[-1.0, -1.0, -1.0, -1.0]);
        let q = QuantizedMatrix::quantize(&m);
        assert_eq!(q.scales(), &[0.0, 0.0, 0.0]);
        assert_eq!(q.zeros(), &[2.5, 0.0, -1.0]);
        for i in 0..3 {
            assert_eq!(
                q.dequantize_row(i),
                m.row(i),
                "constant rows dequantize exactly"
            );
        }
        // The zero row keeps the all-OOV cosine convention.
        let qq = q.quantize_query(&[1.0, 2.0, 3.0, 4.0]);
        assert_eq!(q.cosine(&qq, 1), 0.0);
        let zero_q = q.quantize_query(&[0.0; 4]);
        assert_eq!(zero_q.norm, 0.0);
        assert_eq!(q.cosine(&zero_q, 0), 0.0);
    }

    #[test]
    fn incremental_push_matches_batch_quantize() {
        let m = random_matrix(12, 16, 29);
        let batch = QuantizedMatrix::quantize(&m);
        let mut inc = QuantizedMatrix::new(16);
        for row in m.rows_iter() {
            inc.push_row(row);
        }
        assert_eq!(batch, inc);
    }

    #[test]
    fn from_parts_round_trips_and_validates() {
        let m = random_matrix(9, 8, 31);
        let q = QuantizedMatrix::quantize(&m);
        let back = QuantizedMatrix::from_parts(
            8,
            q.codes().to_vec(),
            q.scales().to_vec(),
            q.zeros().to_vec(),
        )
        .unwrap();
        assert_eq!(q, back);
        for bad in [
            QuantizedMatrix::from_parts(8, vec![0; 7], vec![0.0], vec![0.0]),
            QuantizedMatrix::from_parts(8, vec![0; 8], vec![0.0], vec![]),
        ] {
            assert!(matches!(bad, Err(ErError::Corrupt(_))), "{bad:?}");
        }
    }

    #[test]
    fn empty_dim_zero_matrix_is_fine() {
        let q = QuantizedMatrix::quantize(&EmbeddingMatrix::new(0));
        assert!(q.is_empty());
        assert_eq!(q.dim(), 0);
    }
}
