//! A first-order optimizer over externally-owned parameter [`Tensor`]s.
//!
//! Parameters never live inside a [`Graph`](crate::Graph): each training
//! step builds a fresh tape, copies the parameters in as leaves, runs
//! forward + backward, reads the gradients back out, and hands matching
//! `(params, grads)` slices to [`Adam`]. It is pure sequential f32
//! arithmetic — a fixed parameter order gives
//! byte-identical updates on every run.

use crate::tensor::Tensor;

/// Adam (Kingma & Ba 2015) with bias-corrected first/second moments.
///
/// Moment buffers are allocated lazily from the shapes of the first
/// `step` call and keyed by position, so the caller must pass parameters
/// in the same order every step (the transformer's `param_tensors` order).
#[derive(Debug, Clone)]
pub struct Adam {
    pub lr: f32,
    pub beta1: f32,
    pub beta2: f32,
    pub eps: f32,
    t: u32,
    m: Vec<Tensor>,
    v: Vec<Tensor>,
}

impl Adam {
    /// Standard hyperparameters: `β₁ = 0.9`, `β₂ = 0.999`, `ε = 1e-8`.
    pub fn new(lr: f32) -> Adam {
        Adam {
            lr,
            beta1: 0.9,
            beta2: 0.999,
            eps: 1e-8,
            t: 0,
            m: Vec::new(),
            v: Vec::new(),
        }
    }

    /// Apply one update. `params[i]` and `grads[i]` must be shape-matched
    /// and in the same order on every call.
    pub fn step(&mut self, params: &mut [&mut Tensor], grads: &[&Tensor]) {
        assert_eq!(params.len(), grads.len(), "param/grad count mismatch");
        if self.m.is_empty() {
            self.m = params
                .iter()
                .map(|p| Tensor::zeros(p.rows(), p.cols()))
                .collect();
            self.v = self.m.clone();
        }
        assert_eq!(params.len(), self.m.len(), "param count changed mid-run");
        self.t += 1;
        let bc1 = 1.0 - self.beta1.powi(self.t as i32);
        let bc2 = 1.0 - self.beta2.powi(self.t as i32);
        for (i, (p, g)) in params.iter_mut().zip(grads).enumerate() {
            debug_assert_eq!((p.rows(), p.cols()), (g.rows(), g.cols()));
            let (m, v) = (&mut self.m[i], &mut self.v[i]);
            for (((w, &d), m), v) in p
                .data_mut()
                .iter_mut()
                .zip(g.data())
                .zip(m.data_mut())
                .zip(v.data_mut())
            {
                *m = self.beta1 * *m + (1.0 - self.beta1) * d;
                *v = self.beta2 * *v + (1.0 - self.beta2) * d * d;
                let mhat = *m / bc1;
                let vhat = *v / bc2;
                *w -= self.lr * mhat / (vhat.sqrt() + self.eps);
            }
        }
    }
}

/// Scale every gradient so the global L2 norm is at most `max_norm`.
/// Returns the pre-clip norm. No-op (returning 0) when all grads are zero.
pub fn clip_grad_norm(grads: &mut [Tensor], max_norm: f32) -> f32 {
    let mut sq = 0.0f32;
    for g in grads.iter() {
        for &x in g.data() {
            sq += x * x;
        }
    }
    let norm = sq.sqrt();
    if norm > max_norm && norm > 0.0 {
        let s = max_norm / norm;
        for g in grads.iter_mut() {
            for x in g.data_mut() {
                *x *= s;
            }
        }
    }
    norm
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn adam_descends_a_quadratic() {
        let mut w = Tensor::from_rows(1, 2, &[3.0, -2.0]);
        let mut adam = Adam::new(0.1);
        for _ in 0..300 {
            let g = Tensor::from_rows(1, 2, &[2.0 * w.get(0, 0), 2.0 * w.get(0, 1)]);
            adam.step(&mut [&mut w], &[&g]);
        }
        assert!(w.get(0, 0).abs() < 1e-3 && w.get(0, 1).abs() < 1e-3);
    }

    #[test]
    fn adam_first_step_moves_by_roughly_lr() {
        // With bias correction, the first Adam step is ≈ lr·sign(g).
        let mut w = Tensor::from_rows(1, 1, &[1.0]);
        let mut adam = Adam::new(0.01);
        let g = Tensor::from_rows(1, 1, &[5.0]);
        adam.step(&mut [&mut w], &[&g]);
        assert!((w.get(0, 0) - (1.0 - 0.01)).abs() < 1e-4);
    }

    #[test]
    fn clip_rescales_to_max_norm() {
        let mut grads = vec![Tensor::from_rows(1, 2, &[3.0, 4.0])];
        let pre = clip_grad_norm(&mut grads, 1.0);
        assert!((pre - 5.0).abs() < 1e-6);
        let post: f32 = grads[0].data().iter().map(|x| x * x).sum::<f32>().sqrt();
        assert!((post - 1.0).abs() < 1e-6);
        // Under the cap: untouched.
        let mut small = vec![Tensor::from_rows(1, 1, &[0.5])];
        clip_grad_norm(&mut small, 1.0);
        assert_eq!(small[0].get(0, 0), 0.5);
    }
}
