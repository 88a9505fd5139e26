//! er-tensor — tensor + reverse-mode autograd engine (DESIGN.md inventory
//! row 1: "Substrate for all neural models").
//!
//! Four layers:
//!
//! - [`tensor`]: dense row-major 2-D [`Tensor`] storage plus the matmul
//!   kernels ([`tensor::matmul`], [`tensor::matmul_nt`]) and the slice-level
//!   body they share with inference ([`tensor::matmul_into`]).
//! - [`ops`]: the forward float bodies of layer-norm, softmax, GELU and
//!   mean-pool on plain slices — one definition, called by the tape and by
//!   `er-embed`'s tape-free transformer inference alike.
//! - [`autograd`]: a tape-based reverse-mode [`Graph`] over those tensors
//!   with the transformer op set (matmul, add/mul, softmax, layer-norm,
//!   GELU, gather, mean-pool, cross-entropy, …).
//! - `optim`: [`Adam`] over externally-owned parameters, plus global-norm
//!   gradient clipping ([`clip_grad_norm`]).
//!
//! # Grad-check methodology
//!
//! Every backward formula is validated in `tests/grad_check.rs` against
//! central finite differences: for each input element `xᵢ` of each op we
//! compare the analytic `∂loss/∂xᵢ` from [`Graph::backward`] with
//! `(f(x + h·eᵢ) − f(x − h·eᵢ)) / 2h`, where `f` reduces the op's output
//! to a scalar through [`Graph::sum`] (or is the scalar loss itself for
//! cross-entropy). We use `h = 1e-2` — large enough that the `O(h²)`
//! truncation error stays above f32 round-off of the forward pass — and
//! accept when `|analytic − numeric| ≤ 1e-2 · max(1, |numeric|)` per
//! element. Inputs are seeded via `er_core::rng`, so a failure is
//! reproducible byte-for-byte. The same checks run in release mode in CI
//! (the `autograd-bt` job), which would catch any `fast-math`-style
//! miscompilation the debug run can't see.

pub mod autograd;
pub mod ops;
mod optim;
pub mod tensor;

pub use autograd::{Graph, Var};
pub use optim::{clip_grad_norm, Adam};
pub use tensor::Tensor;

#[cfg(test)]
mod tests {
    use super::tensor::{matmul, matmul_nt, Tensor};
    use er_core::rng::rng;

    #[test]
    fn matmul_matches_hand_computation() {
        // [[1,2],[3,4]] x [[5,6],[7,8]] = [[19,22],[43,50]]
        let a = Tensor::from_rows(2, 2, &[1.0, 2.0, 3.0, 4.0]);
        let b = Tensor::from_rows(2, 2, &[5.0, 6.0, 7.0, 8.0]);
        let c = matmul(&a, &b);
        assert_eq!(c.data(), &[19.0, 22.0, 43.0, 50.0]);
    }

    #[test]
    fn matmul_nt_is_a_times_b_transposed() {
        let mut r = rng(3);
        let a = Tensor::randn(3, 4, 1.0, &mut r);
        let b = Tensor::randn(5, 4, 1.0, &mut r);
        let direct = matmul_nt(&a, &b);
        let via_transpose = matmul(&a, &b.transposed());
        assert_eq!(direct.data(), via_transpose.data());
        assert_eq!((direct.rows(), direct.cols()), (3, 5));
    }

    #[test]
    fn randn_scale_is_linear() {
        let a = Tensor::randn(2, 3, 1.0, &mut rng(7));
        let b = Tensor::randn(2, 3, 0.5, &mut rng(7));
        for (x, y) in a.data().iter().zip(b.data()) {
            assert_eq!(x * 0.5, *y);
        }
    }
}
