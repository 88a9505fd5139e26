//! Tape-based reverse-mode autograd over dense [`Tensor`]s.
//!
//! A [`Graph`] is an arena of nodes; every op appends one node holding its
//! forward value and the `Op` that produced it, and returns a copyable
//! [`Var`] handle. [`Graph::backward`] walks the tape in reverse creation
//! order, accumulating `∂loss/∂node` into each node's gradient tensor —
//! the classic Wengert-list formulation, which is exactly as deterministic
//! as the forward pass (no hash maps, no topological re-sorts).
//!
//! The op set is the transformer-encoder closure (DESIGN.md inventory
//! row 1): matmul / matmulᵀ, elementwise add/mul, row-broadcast add (bias),
//! scalar scale, row softmax, layer-norm, GELU, embedding row-gather,
//! column concat (multi-head reassembly), mean-pool, sum, and mean
//! cross-entropy over integer targets. Every backward formula is pinned
//! against central finite differences in `tests/grad_check.rs`.
//!
//! Typical training step (parameters live *outside* the graph; a fresh
//! tape is built per step):
//!
//! ```
//! use er_tensor::{Graph, Tensor};
//!
//! let w = Tensor::from_rows(2, 2, &[0.1, 0.2, 0.3, 0.4]);
//! let mut g = Graph::new();
//! let wv = g.param(&w);
//! let x = g.constant(Tensor::from_rows(1, 2, &[1.0, -1.0]));
//! let y = g.matmul(x, wv);
//! let loss = g.sum(y);
//! g.backward(loss);
//! assert_eq!(g.grad(wv).rows(), 2);
//! ```

use crate::ops::{
    gelu_scalar, layer_norm_rows, mean_rows_into, row_moments, softmax_rows, GELU_COEFF,
    SQRT_2_OVER_PI,
};
use crate::tensor::{matmul, matmul_nt, Tensor};

/// Handle to one node of a [`Graph`]. Cheap to copy; only meaningful for
/// the graph that created it.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Var(usize);

enum Op {
    Leaf,
    Matmul(Var, Var),
    /// `a · bᵀ` — the attention-score shape (and the weight-tied MLM head).
    MatmulNt(Var, Var),
    Add(Var, Var),
    /// `a (n×d) + b (1×d)` broadcast over rows — bias addition.
    AddRow(Var, Var),
    Mul(Var, Var),
    Scale(Var, f32),
    /// Row-wise softmax.
    Softmax(Var),
    LayerNorm {
        x: Var,
        gamma: Var,
        beta: Var,
    },
    Gelu(Var),
    /// Rows `ids` of `table`, in order — embedding lookup.
    Gather {
        table: Var,
        ids: Vec<usize>,
    },
    /// Horizontal concatenation — multi-head output reassembly.
    ConcatCols(Vec<Var>),
    /// Column-wise mean over rows: `(n×d) → (1×d)`.
    MeanPool(Var),
    /// Sum of all elements: `(n×d) → (1×1)`.
    Sum(Var),
    /// Mean negative log-likelihood of `targets[i]` under row-softmax of
    /// `logits` row `i`: `(n×V) → (1×1)`.
    CrossEntropy {
        logits: Var,
        targets: Vec<usize>,
    },
}

struct Node {
    value: Tensor,
    grad: Tensor,
    op: Op,
}

/// The tape. See the module docs for the op inventory and usage.
#[derive(Default)]
pub struct Graph {
    nodes: Vec<Node>,
}

impl Graph {
    pub fn new() -> Graph {
        Graph { nodes: Vec::new() }
    }

    fn push(&mut self, value: Tensor, op: Op) -> Var {
        let grad = Tensor::zeros(value.rows(), value.cols());
        self.nodes.push(Node { value, grad, op });
        Var(self.nodes.len() - 1)
    }

    /// A leaf holding fixed data (inputs, positional encodings). Gradients
    /// are still accumulated — a constant is just a leaf nobody reads the
    /// gradient of.
    pub fn constant(&mut self, value: Tensor) -> Var {
        self.push(value, Op::Leaf)
    }

    /// A leaf holding a copy of an externally-owned parameter; after
    /// [`Graph::backward`], read `∂loss/∂param` back with [`Graph::grad`].
    pub fn param(&mut self, value: &Tensor) -> Var {
        self.push(value.clone(), Op::Leaf)
    }

    pub fn value(&self, v: Var) -> &Tensor {
        &self.nodes[v.0].value
    }

    pub fn grad(&self, v: Var) -> &Tensor {
        &self.nodes[v.0].grad
    }

    // ---- ops -------------------------------------------------------------

    pub fn matmul(&mut self, a: Var, b: Var) -> Var {
        let value = matmul(self.value(a), self.value(b));
        self.push(value, Op::Matmul(a, b))
    }

    /// `a · bᵀ` for `b` stored row-major `(n × k)` — attention scores
    /// (`q · kᵀ`) and the weight-tied output head (`h · Eᵀ`).
    pub fn matmul_nt(&mut self, a: Var, b: Var) -> Var {
        let value = matmul_nt(self.value(a), self.value(b));
        self.push(value, Op::MatmulNt(a, b))
    }

    pub fn add(&mut self, a: Var, b: Var) -> Var {
        let (va, vb) = (self.value(a), self.value(b));
        assert_eq!(
            (va.rows(), va.cols()),
            (vb.rows(), vb.cols()),
            "add shape mismatch"
        );
        let mut value = va.clone();
        for (x, y) in value.data_mut().iter_mut().zip(vb.data()) {
            *x += y;
        }
        self.push(value, Op::Add(a, b))
    }

    /// `a (n×d) + row (1×d)`, broadcast down the rows.
    pub fn add_row(&mut self, a: Var, row: Var) -> Var {
        let (va, vr) = (self.value(a), self.value(row));
        assert_eq!(vr.rows(), 1, "add_row: bias must be a single row");
        assert_eq!(va.cols(), vr.cols(), "add_row width mismatch");
        let mut value = va.clone();
        let cols = value.cols();
        for r in 0..value.rows() {
            for c in 0..cols {
                let v = value.get(r, c) + vr.get(0, c);
                value.set(r, c, v);
            }
        }
        self.push(value, Op::AddRow(a, row))
    }

    pub fn mul(&mut self, a: Var, b: Var) -> Var {
        let (va, vb) = (self.value(a), self.value(b));
        assert_eq!(
            (va.rows(), va.cols()),
            (vb.rows(), vb.cols()),
            "mul shape mismatch"
        );
        let mut value = va.clone();
        for (x, y) in value.data_mut().iter_mut().zip(vb.data()) {
            *x *= y;
        }
        self.push(value, Op::Mul(a, b))
    }

    pub fn scale(&mut self, a: Var, s: f32) -> Var {
        let mut value = self.value(a).clone();
        for x in value.data_mut() {
            *x *= s;
        }
        self.push(value, Op::Scale(a, s))
    }

    /// Row-wise softmax with the max-subtraction trick, so large logits
    /// cannot overflow.
    pub fn softmax(&mut self, a: Var) -> Var {
        let mut value = self.value(a).clone();
        let cols = value.cols();
        softmax_rows(value.data_mut(), cols);
        self.push(value, Op::Softmax(a))
    }

    /// Row-wise layer normalization: `γ ⊙ (x − μ)/√(σ² + ε) + β` with
    /// `gamma`/`beta` as `1×d` rows and `ops::LAYER_NORM_EPS`.
    pub fn layer_norm(&mut self, x: Var, gamma: Var, beta: Var) -> Var {
        let (vx, vg, vb) = (self.value(x), self.value(gamma), self.value(beta));
        assert_eq!(vg.rows(), 1, "layer_norm: gamma must be 1×d");
        assert_eq!(vb.rows(), 1, "layer_norm: beta must be 1×d");
        assert_eq!(vx.cols(), vg.cols(), "layer_norm gamma width mismatch");
        assert_eq!(vx.cols(), vb.cols(), "layer_norm beta width mismatch");
        let mut value = Tensor::zeros(vx.rows(), vx.cols());
        layer_norm_rows(vx.data(), vg.data(), vb.data(), value.data_mut());
        self.push(value, Op::LayerNorm { x, gamma, beta })
    }

    /// GELU with the tanh approximation (the BERT activation).
    pub fn gelu(&mut self, a: Var) -> Var {
        let mut value = self.value(a).clone();
        for x in value.data_mut() {
            *x = gelu_scalar(*x);
        }
        self.push(value, Op::Gelu(a))
    }

    /// Rows `ids` of `table`, stacked in order — the embedding lookup.
    /// Repeated ids are allowed; their gradients accumulate into the same
    /// table row on backward.
    pub fn gather(&mut self, table: Var, ids: &[usize]) -> Var {
        let vt = self.value(table);
        let cols = vt.cols();
        let mut value = Tensor::zeros(ids.len(), cols);
        for (r, &id) in ids.iter().enumerate() {
            assert!(id < vt.rows(), "gather id {id} out of {} rows", vt.rows());
            value.data_mut()[r * cols..(r + 1) * cols].copy_from_slice(vt.row(id));
        }
        self.push(
            value,
            Op::Gather {
                table,
                ids: ids.to_vec(),
            },
        )
    }

    /// Horizontal concatenation of equal-height blocks — reassembles the
    /// per-head attention outputs into one `(n × d)` matrix.
    pub fn concat_cols(&mut self, parts: &[Var]) -> Var {
        assert!(!parts.is_empty(), "concat_cols of nothing");
        let rows = self.value(parts[0]).rows();
        let total: usize = parts.iter().map(|&p| self.value(p).cols()).sum();
        let mut value = Tensor::zeros(rows, total);
        let mut offset = 0;
        for &p in parts {
            let vp = self.value(p);
            assert_eq!(vp.rows(), rows, "concat_cols height mismatch");
            for r in 0..rows {
                let dst = r * total + offset;
                value.data_mut()[dst..dst + vp.cols()].copy_from_slice(vp.row(r));
            }
            offset += vp.cols();
        }
        self.push(value, Op::ConcatCols(parts.to_vec()))
    }

    /// Column-wise mean over rows: `(n×d) → (1×d)` — sentence pooling.
    pub fn mean_pool(&mut self, a: Var) -> Var {
        let va = self.value(a);
        let mut value = Tensor::zeros(1, va.cols());
        mean_rows_into(va.data(), va.rows(), value.data_mut());
        self.push(value, Op::MeanPool(a))
    }

    /// Sum of every element: `(n×d) → (1×1)` — the generic scalar head the
    /// grad-check tests reduce through.
    pub fn sum(&mut self, a: Var) -> Var {
        let total: f32 = self.value(a).data().iter().sum();
        self.push(Tensor::from_rows(1, 1, &[total]), Op::Sum(a))
    }

    /// Mean cross-entropy of integer `targets` under row-softmax of
    /// `logits`: `(n×V) → (1×1)`. Log-sum-exp is max-shifted, so the loss
    /// is finite for any finite logits.
    pub fn cross_entropy(&mut self, logits: Var, targets: &[usize]) -> Var {
        let vl = self.value(logits);
        assert_eq!(vl.rows(), targets.len(), "cross_entropy target count");
        let mut total = 0.0f32;
        for (r, &t) in targets.iter().enumerate() {
            let row = vl.row(r);
            assert!(t < row.len(), "cross_entropy target {t} out of vocab");
            let max = row.iter().fold(f32::NEG_INFINITY, |m, &x| m.max(x));
            let lse: f32 = row.iter().map(|&x| (x - max).exp()).sum::<f32>().ln() + max;
            total += lse - row[t];
        }
        let value = Tensor::from_rows(1, 1, &[total / targets.len().max(1) as f32]);
        self.push(
            value,
            Op::CrossEntropy {
                logits,
                targets: targets.to_vec(),
            },
        )
    }

    // ---- backward --------------------------------------------------------

    /// Reverse-accumulate `∂loss/∂node` for every node, seeding `loss`
    /// (which must be `1×1`) with gradient 1. Gradients accumulate, so a
    /// node feeding several consumers receives every contribution.
    pub fn backward(&mut self, loss: Var) {
        {
            let node = &mut self.nodes[loss.0];
            assert_eq!(
                (node.value.rows(), node.value.cols()),
                (1, 1),
                "backward needs a scalar loss"
            );
            node.grad.set(0, 0, 1.0);
        }
        for i in (0..=loss.0).rev() {
            // Take this node's grad out so we can mutate input grads.
            let grad = std::mem::replace(&mut self.nodes[i].grad, Tensor::zeros(0, 0));
            match &self.nodes[i].op {
                Op::Leaf => {}
                Op::Matmul(a, b) => {
                    let (a, b) = (*a, *b);
                    // dA += dC · Bᵀ ; dB += Aᵀ · dC
                    let da = matmul_nt(&grad, self.value(b));
                    let db = matmul(&self.value(a).transposed(), &grad);
                    accumulate(&mut self.nodes[a.0].grad, &da);
                    accumulate(&mut self.nodes[b.0].grad, &db);
                }
                Op::MatmulNt(a, b) => {
                    let (a, b) = (*a, *b);
                    // C = A·Bᵀ: dA += dC · B ; dB += dCᵀ · A
                    let da = matmul(&grad, self.value(b));
                    let db = matmul(&grad.transposed(), self.value(a));
                    accumulate(&mut self.nodes[a.0].grad, &da);
                    accumulate(&mut self.nodes[b.0].grad, &db);
                }
                Op::Add(a, b) => {
                    let (a, b) = (*a, *b);
                    accumulate(&mut self.nodes[a.0].grad, &grad);
                    accumulate(&mut self.nodes[b.0].grad, &grad);
                }
                Op::AddRow(a, row) => {
                    let (a, row) = (*a, *row);
                    accumulate(&mut self.nodes[a.0].grad, &grad);
                    let cols = grad.cols();
                    let row_grad = &mut self.nodes[row.0].grad;
                    for r in 0..grad.rows() {
                        for c in 0..cols {
                            let v = row_grad.get(0, c) + grad.get(r, c);
                            row_grad.set(0, c, v);
                        }
                    }
                }
                Op::Mul(a, b) => {
                    let (a, b) = (*a, *b);
                    let da = elementwise_product(&grad, self.value(b));
                    let db = elementwise_product(&grad, self.value(a));
                    accumulate(&mut self.nodes[a.0].grad, &da);
                    accumulate(&mut self.nodes[b.0].grad, &db);
                }
                Op::Scale(a, s) => {
                    let (a, s) = (*a, *s);
                    let mut da = grad.clone();
                    for x in da.data_mut() {
                        *x *= s;
                    }
                    accumulate(&mut self.nodes[a.0].grad, &da);
                }
                Op::Softmax(a) => {
                    let a = *a;
                    // dx = y ⊙ (dy − Σⱼ dyⱼ·yⱼ), per row.
                    let y = &self.nodes[i].value;
                    let mut da = Tensor::zeros(y.rows(), y.cols());
                    for r in 0..y.rows() {
                        let yr = y.row(r);
                        let gr = grad.row(r);
                        let dot: f32 = yr.iter().zip(gr).map(|(y, g)| y * g).sum();
                        for c in 0..y.cols() {
                            da.set(r, c, yr[c] * (gr[c] - dot));
                        }
                    }
                    accumulate(&mut self.nodes[a.0].grad, &da);
                }
                Op::LayerNorm { x, gamma, beta } => {
                    let (x, gamma, beta) = (*x, *gamma, *beta);
                    let vx = self.value(x).clone();
                    let vg = self.value(gamma).clone();
                    let cols = vx.cols();
                    let n = cols as f32;
                    let mut dx = Tensor::zeros(vx.rows(), cols);
                    let mut dgamma = Tensor::zeros(1, cols);
                    let mut dbeta = Tensor::zeros(1, cols);
                    for r in 0..vx.rows() {
                        let row = vx.row(r);
                        let (mean, inv_std) = row_moments(row);
                        // g = dy ⊙ γ; dx = (g − mean(g) − x̂·mean(g⊙x̂))·inv_std
                        let mut sum_g = 0.0f32;
                        let mut sum_gx = 0.0f32;
                        for (c, &xc) in row.iter().enumerate() {
                            let xhat = (xc - mean) * inv_std;
                            let dy = grad.get(r, c);
                            let g = dy * vg.get(0, c);
                            sum_g += g;
                            sum_gx += g * xhat;
                            dgamma.set(0, c, dgamma.get(0, c) + dy * xhat);
                            dbeta.set(0, c, dbeta.get(0, c) + dy);
                        }
                        for (c, &xc) in row.iter().enumerate() {
                            let xhat = (xc - mean) * inv_std;
                            let g = grad.get(r, c) * vg.get(0, c);
                            dx.set(r, c, (g - sum_g / n - xhat * sum_gx / n) * inv_std);
                        }
                    }
                    accumulate(&mut self.nodes[x.0].grad, &dx);
                    accumulate(&mut self.nodes[gamma.0].grad, &dgamma);
                    accumulate(&mut self.nodes[beta.0].grad, &dbeta);
                }
                Op::Gelu(a) => {
                    let a = *a;
                    let vx = self.value(a);
                    let mut da = Tensor::zeros(vx.rows(), vx.cols());
                    for (d, (&x, &g)) in da
                        .data_mut()
                        .iter_mut()
                        .zip(vx.data().iter().zip(grad.data()))
                    {
                        *d = g * gelu_grad_scalar(x);
                    }
                    accumulate(&mut self.nodes[a.0].grad, &da);
                }
                Op::Gather { table, ids } => {
                    let table = *table;
                    let ids = ids.clone();
                    let cols = grad.cols();
                    let tg = &mut self.nodes[table.0].grad;
                    for (r, id) in ids.into_iter().enumerate() {
                        for c in 0..cols {
                            let v = tg.get(id, c) + grad.get(r, c);
                            tg.set(id, c, v);
                        }
                    }
                }
                Op::ConcatCols(parts) => {
                    let parts = parts.clone();
                    let total = grad.cols();
                    let mut offset = 0;
                    for p in parts {
                        let pg = &mut self.nodes[p.0].grad;
                        let w = pg.cols();
                        for r in 0..grad.rows() {
                            for c in 0..w {
                                let v = pg.get(r, c) + grad.data()[r * total + offset + c];
                                pg.set(r, c, v);
                            }
                        }
                        offset += w;
                    }
                }
                Op::MeanPool(a) => {
                    let a = *a;
                    let ag = &mut self.nodes[a.0].grad;
                    let inv = 1.0 / ag.rows() as f32;
                    let cols = ag.cols();
                    for r in 0..ag.rows() {
                        for c in 0..cols {
                            let v = ag.get(r, c) + grad.get(0, c) * inv;
                            ag.set(r, c, v);
                        }
                    }
                }
                Op::Sum(a) => {
                    let a = *a;
                    let g = grad.get(0, 0);
                    for x in self.nodes[a.0].grad.data_mut() {
                        *x += g;
                    }
                }
                Op::CrossEntropy { logits, targets } => {
                    let logits = *logits;
                    let targets = targets.clone();
                    let g = grad.get(0, 0) / targets.len().max(1) as f32;
                    // dlogits = (softmax(z) − onehot(t)) · g, per row.
                    let mut probs = self.value(logits).clone();
                    let cols = probs.cols();
                    softmax_rows(probs.data_mut(), cols);
                    let lg = &mut self.nodes[logits.0].grad;
                    for (r, t) in targets.into_iter().enumerate() {
                        for c in 0..probs.cols() {
                            let onehot = if c == t { 1.0 } else { 0.0 };
                            let v = lg.get(r, c) + (probs.get(r, c) - onehot) * g;
                            lg.set(r, c, v);
                        }
                    }
                }
            }
            self.nodes[i].grad = grad;
        }
    }
}

fn accumulate(into: &mut Tensor, from: &Tensor) {
    debug_assert_eq!((into.rows(), into.cols()), (from.rows(), from.cols()));
    for (a, b) in into.data_mut().iter_mut().zip(from.data()) {
        *a += b;
    }
}

fn elementwise_product(a: &Tensor, b: &Tensor) -> Tensor {
    let mut out = a.clone();
    for (x, y) in out.data_mut().iter_mut().zip(b.data()) {
        *x *= y;
    }
    out
}

/// Analytic derivative of [`gelu_scalar`].
fn gelu_grad_scalar(x: f32) -> f32 {
    let u = SQRT_2_OVER_PI * (x + GELU_COEFF * x * x * x);
    let t = u.tanh();
    let du = SQRT_2_OVER_PI * (1.0 + 3.0 * GELU_COEFF * x * x);
    0.5 * (1.0 + t) + 0.5 * x * (1.0 - t * t) * du
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn forward_values_match_hand_computation() {
        let mut g = Graph::new();
        let a = g.constant(Tensor::from_rows(2, 2, &[1.0, 2.0, 3.0, 4.0]));
        let b = g.constant(Tensor::from_rows(2, 2, &[5.0, 6.0, 7.0, 8.0]));
        let c = g.matmul(a, b);
        assert_eq!(g.value(c).data(), &[19.0, 22.0, 43.0, 50.0]);
        let s = g.sum(c);
        assert_eq!(g.value(s).get(0, 0), 134.0);
    }

    #[test]
    fn softmax_rows_sum_to_one_and_order_is_preserved() {
        let mut g = Graph::new();
        let x = g.constant(Tensor::from_rows(2, 3, &[1.0, 2.0, 3.0, -1.0, 0.0, 100.0]));
        let y = g.softmax(x);
        for r in 0..2 {
            let row = g.value(y).row(r);
            let total: f32 = row.iter().sum();
            assert!((total - 1.0).abs() < 1e-6);
            assert!(row[2] > row[1] && row[1] >= row[0]);
        }
    }

    #[test]
    fn gather_repeats_accumulate_gradient() {
        let mut g = Graph::new();
        let table = g.constant(Tensor::from_rows(3, 2, &[1.0, 2.0, 3.0, 4.0, 5.0, 6.0]));
        let picked = g.gather(table, &[1, 1, 0]);
        assert_eq!(g.value(picked).data(), &[3.0, 4.0, 3.0, 4.0, 1.0, 2.0]);
        let loss = g.sum(picked);
        g.backward(loss);
        // Row 1 was gathered twice, row 0 once, row 2 never.
        assert_eq!(g.grad(table).data(), &[1.0, 1.0, 2.0, 2.0, 0.0, 0.0]);
    }

    #[test]
    fn shared_subexpression_gradients_accumulate() {
        // loss = sum(x + x) ⇒ dx = 2.
        let mut g = Graph::new();
        let x = g.constant(Tensor::from_rows(1, 2, &[3.0, -1.0]));
        let y = g.add(x, x);
        let loss = g.sum(y);
        g.backward(loss);
        assert_eq!(g.grad(x).data(), &[2.0, 2.0]);
    }

    #[test]
    fn zero_width_rows_pass_through_the_row_ops() {
        let mut g = Graph::new();
        let x = g.constant(Tensor::zeros(3, 0));
        let y = g.softmax(x);
        let empty = g.constant(Tensor::zeros(1, 0));
        let z = g.layer_norm(y, empty, empty);
        assert_eq!((g.value(z).rows(), g.value(z).cols()), (3, 0));
    }

    #[test]
    fn cross_entropy_of_uniform_logits_is_log_vocab() {
        let mut g = Graph::new();
        let logits = g.constant(Tensor::zeros(2, 4));
        let loss = g.cross_entropy(logits, &[0, 3]);
        assert!((g.value(loss).get(0, 0) - (4.0f32).ln()).abs() < 1e-6);
    }
}
