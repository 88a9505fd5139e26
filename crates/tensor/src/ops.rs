//! Forward float bodies of the row-wise ops, on plain row-major slices.
//!
//! [`Graph`](crate::Graph)'s forward ops call these, and so does the
//! tape-free transformer inference in `er-embed`: one definition of each
//! expression, so the two paths cannot drift apart by a single rounding.
//! (The matrix product's body is [`crate::tensor::matmul_into`].)

/// Numerical floor inside layer-norm's `1/√(σ² + ε)`.
pub(crate) const LAYER_NORM_EPS: f32 = 1e-5;

pub(crate) const SQRT_2_OVER_PI: f32 = 0.797_884_6;
pub(crate) const GELU_COEFF: f32 = 0.044_715;

/// `(mean, 1/√(σ² + ε))` of one row — shared by layer-norm forward and
/// backward so both see bit-identical statistics.
pub(crate) fn row_moments(row: &[f32]) -> (f32, f32) {
    let n = row.len() as f32;
    let mean = row.iter().sum::<f32>() / n;
    let var = row.iter().map(|&x| (x - mean) * (x - mean)).sum::<f32>() / n;
    (mean, 1.0 / (var + LAYER_NORM_EPS).sqrt())
}

/// Row-wise layer normalization of `x` (rows of `gamma.len()` floats) into
/// `out`: `γ ⊙ (x − μ)/√(σ² + ε) + β`, statistics from `row_moments`.
pub fn layer_norm_rows(x: &[f32], gamma: &[f32], beta: &[f32], out: &mut [f32]) {
    let cols = gamma.len();
    assert_eq!(beta.len(), cols, "layer_norm beta width mismatch");
    assert_eq!(x.len(), out.len(), "layer_norm output shape mismatch");
    if cols == 0 {
        return;
    }
    for (row, orow) in x.chunks_exact(cols).zip(out.chunks_exact_mut(cols)) {
        let (mean, inv_std) = row_moments(row);
        for (c, (&xc, o)) in row.iter().zip(orow).enumerate() {
            let xhat = (xc - mean) * inv_std;
            *o = gamma[c] * xhat + beta[c];
        }
    }
}

/// In-place row-wise softmax over rows of `cols` floats, with max
/// subtraction so large logits cannot overflow.
pub fn softmax_rows(data: &mut [f32], cols: usize) {
    if cols == 0 {
        return;
    }
    for row in data.chunks_exact_mut(cols) {
        let max = row.iter().fold(f32::NEG_INFINITY, |m, &x| m.max(x));
        let mut z = 0.0f32;
        for x in row.iter_mut() {
            *x = (*x - max).exp();
            z += *x;
        }
        for x in row.iter_mut() {
            *x /= z;
        }
    }
}

/// GELU, tanh approximation: `0.5x(1 + tanh(√(2/π)(x + 0.044715x³)))`.
pub fn gelu_scalar(x: f32) -> f32 {
    0.5 * x * (1.0 + (SQRT_2_OVER_PI * (x + GELU_COEFF * x * x * x)).tanh())
}

/// Column-wise mean of `x`'s `rows` rows (of `out.len()` floats) into
/// `out`: `out = Σᵣ xᵣ · (1/rows)`, accumulated from zero in row order.
pub fn mean_rows_into(x: &[f32], rows: usize, out: &mut [f32]) {
    assert!(rows > 0, "mean_pool of an empty tensor");
    let cols = out.len();
    assert_eq!(x.len(), rows * cols, "mean_pool shape mismatch");
    let inv = 1.0 / rows as f32;
    out.fill(0.0);
    for r in 0..rows {
        for (acc, &v) in out.iter_mut().zip(&x[r * cols..(r + 1) * cols]) {
            *acc += v * inv;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn layer_norm_rows_centres_and_scales_each_row() {
        let x = [1.0, 3.0, -2.0, 2.0];
        let mut out = [0.0; 4];
        layer_norm_rows(&x, &[1.0, 1.0], &[0.5, 0.5], &mut out);
        for row in out.chunks_exact(2) {
            assert!((row[0] + row[1] - 1.0).abs() < 1e-6);
            assert!(row[0] < row[1]);
        }
    }

    #[test]
    fn mean_rows_into_averages_columns() {
        let mut out = [9.0; 2];
        mean_rows_into(&[1.0, 2.0, 3.0, 6.0], 2, &mut out);
        assert_eq!(out, [2.0, 4.0]);
    }
}
