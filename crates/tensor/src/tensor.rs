//! Dense row-major 2-D tensors and the matrix kernels used everywhere.

use er_core::kernels;
use rand::Rng;

/// A dense `rows x cols` matrix of `f32`, row-major.
#[derive(Debug, Clone, PartialEq)]
pub struct Tensor {
    rows: usize,
    cols: usize,
    data: Vec<f32>,
}

impl Tensor {
    pub fn zeros(rows: usize, cols: usize) -> Tensor {
        Tensor {
            rows,
            cols,
            data: vec![0.0; rows * cols],
        }
    }

    pub fn from_rows(rows: usize, cols: usize, data: &[f32]) -> Tensor {
        assert_eq!(data.len(), rows * cols, "shape/data mismatch");
        Tensor {
            rows,
            cols,
            data: data.to_vec(),
        }
    }

    /// Approximately standard-normal init (mean of 12 uniforms, shifted)
    /// multiplied by `scale`, deterministic for a fixed RNG stream. Pass
    /// `scale = 1.0` for unit variance; transformer weights use ~`0.02`.
    pub fn randn(rows: usize, cols: usize, scale: f32, rng: &mut impl Rng) -> Tensor {
        let data = (0..rows * cols)
            .map(|_| {
                let s: f32 = (0..12).map(|_| rng.gen_range(0.0f32..1.0)).sum();
                (s - 6.0) * scale
            })
            .collect();
        Tensor { rows, cols, data }
    }

    pub fn rows(&self) -> usize {
        self.rows
    }

    pub fn cols(&self) -> usize {
        self.cols
    }

    pub fn data(&self) -> &[f32] {
        &self.data
    }

    pub fn data_mut(&mut self) -> &mut [f32] {
        &mut self.data
    }

    pub fn row(&self, r: usize) -> &[f32] {
        &self.data[r * self.cols..(r + 1) * self.cols]
    }

    pub fn get(&self, r: usize, c: usize) -> f32 {
        self.data[r * self.cols + c]
    }

    pub fn set(&mut self, r: usize, c: usize, v: f32) {
        self.data[r * self.cols + c] = v;
    }

    pub fn transposed(&self) -> Tensor {
        let mut out = Tensor::zeros(self.cols, self.rows);
        for r in 0..self.rows {
            for c in 0..self.cols {
                out.set(c, r, self.get(r, c));
            }
        }
        out
    }
}

/// `a (m x k) * b (k x n)`; see [`matmul_into`] for the loop order.
pub fn matmul(a: &Tensor, b: &Tensor) -> Tensor {
    assert_eq!(a.cols, b.rows, "matmul shape mismatch");
    let mut out = Tensor::zeros(a.rows, b.cols);
    matmul_into(&a.data, a.rows, a.cols, &b.data, b.cols, &mut out.data);
    out
}

/// `out (m x n) = a (m x k) * b (k x n)` over row-major slices, with the
/// k-loop innermost-but-one so rows of `b` stream sequentially through
/// cache, and zero entries of `a` skipped. Each output element is its
/// k-sum taken in order from zero, so splitting `b` by columns (or packing
/// several `b`s side by side) leaves every output bit unchanged.
pub fn matmul_into(a: &[f32], m: usize, k: usize, b: &[f32], n: usize, out: &mut [f32]) {
    assert_eq!(a.len(), m * k, "matmul lhs shape mismatch");
    assert_eq!(b.len(), k * n, "matmul rhs shape mismatch");
    assert_eq!(out.len(), m * n, "matmul output shape mismatch");
    out.fill(0.0);
    if k == 0 || n == 0 {
        return;
    }
    for (arow, orow) in a.chunks_exact(k).zip(out.chunks_exact_mut(n)) {
        for (&aik, brow) in arow.iter().zip(b.chunks_exact(n)) {
            if aik == 0.0 {
                continue;
            }
            for (o, &bv) in orow.iter_mut().zip(brow) {
                *o += aik * bv;
            }
        }
    }
}

/// `a (m x k) * bᵀ` for `b (n x k)` — the attention-score shape, computed
/// without materializing the transpose.
pub fn matmul_nt(a: &Tensor, b: &Tensor) -> Tensor {
    assert_eq!(a.cols, b.cols, "matmul_nt shape mismatch");
    let mut out = Tensor::zeros(a.rows, b.rows);
    for i in 0..a.rows {
        let arow = a.row(i);
        for j in 0..b.rows {
            out.set(i, j, kernels::dot(arow, b.row(j)));
        }
    }
    out
}
