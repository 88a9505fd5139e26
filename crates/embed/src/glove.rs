//! GloVe: global co-occurrence factorization with AdaGrad, trained from
//! scratch (paper model **GE**; DESIGN.md inventory row 4).
//!
//! Mechanics preserved from glove.c (Pennington et al. 2014): distance-
//! weighted symmetric co-occurrence counts, weighted least squares on
//! `w·c̃ + b + b̃ − ln X`, the `min(1, (X/x_max)^α)` weighting, per-parameter
//! AdaGrad, and the released vectors being `w + c̃`. Unlike FastText, GloVe
//! has **no subword fallback** (a [`StaticModel`] without subwords): OOV
//! tokens (typos included) contribute nothing, and an all-OOV sentence
//! embeds to the zero vector — the brittleness the paper's Fig. 3
//! contrasts against FastText.

use crate::vocab::Vocab;
use crate::{ModelCode, StaticModel};
use er_core::rng::derive;
use er_text::Corpus;
use rand::prelude::*;
use std::collections::HashMap;
use std::time::Instant;

#[derive(Debug, Clone)]
pub(crate) struct GloveParams {
    pub dim: usize,
    pub window: usize,
    pub epochs: usize,
    pub lr: f32,
    pub x_max: f32,
    pub alpha: f32,
}

impl StaticModel {
    /// Train GloVe (**GE**) on `corpus` over `vocab`.
    pub(crate) fn glove(
        corpus: &Corpus,
        vocab: Vocab,
        params: &GloveParams,
        seed: u64,
    ) -> StaticModel {
        let start = Instant::now();
        let dim = params.dim;
        let mut rng = derive(seed, "glove");

        // Distance-weighted symmetric co-occurrence counts, accumulated in a
        // map but consumed in sorted order so training is deterministic.
        let mut cooc: HashMap<(u32, u32), f32> = HashMap::new();
        for sentence in corpus.sentences() {
            let ids = vocab.encode(sentence);
            for i in 0..ids.len() {
                let hi = (i + params.window).min(ids.len().saturating_sub(1));
                for j in (i + 1)..=hi {
                    if i == j {
                        continue;
                    }
                    let weight = 1.0 / (j - i) as f32;
                    *cooc.entry((ids[i], ids[j])).or_default() += weight;
                    *cooc.entry((ids[j], ids[i])).or_default() += weight;
                }
            }
        }
        let mut entries: Vec<(u32, u32, f32)> =
            cooc.into_iter().map(|((a, b), x)| (a, b, x)).collect();
        entries.sort_by_key(|&(a, b, _)| (a, b));

        let n = vocab.len();
        let mut w: Vec<f32> = (0..n * dim)
            .map(|_| (rng.gen_range(0.0f32..1.0) - 0.5) / dim as f32)
            .collect();
        let mut c: Vec<f32> = (0..n * dim)
            .map(|_| (rng.gen_range(0.0f32..1.0) - 0.5) / dim as f32)
            .collect();
        let mut bw = vec![0.0f32; n];
        let mut bc = vec![0.0f32; n];
        // AdaGrad accumulators, initialized to 1.0 as in glove.c.
        let mut gw = vec![1.0f32; n * dim];
        let mut gc = vec![1.0f32; n * dim];
        let mut gbw = vec![1.0f32; n];
        let mut gbc = vec![1.0f32; n];

        let mut order: Vec<usize> = (0..entries.len()).collect();
        for _epoch in 0..params.epochs {
            order.shuffle(&mut rng);
            for &e in &order {
                let (a, b, x) = entries[e];
                let (a, b) = (a as usize, b as usize);
                let weight = (x / params.x_max).powf(params.alpha).min(1.0);
                let wa = a * dim..(a + 1) * dim;
                let cb = b * dim..(b + 1) * dim;
                let dot: f32 = w[wa.clone()]
                    .iter()
                    .zip(&c[cb.clone()])
                    .map(|(p, q)| p * q)
                    .sum();
                // Clipped weighted error, as glove.c does for stability.
                let diff = (dot + bw[a] + bc[b] - x.ln()).clamp(-10.0, 10.0);
                let fdiff = weight * diff;

                for d in 0..dim {
                    let (wi, ci) = (a * dim + d, b * dim + d);
                    let grad_w = fdiff * c[ci];
                    let grad_c = fdiff * w[wi];
                    gw[wi] += grad_w * grad_w;
                    gc[ci] += grad_c * grad_c;
                    w[wi] -= params.lr * grad_w / gw[wi].sqrt();
                    c[ci] -= params.lr * grad_c / gc[ci].sqrt();
                }
                gbw[a] += fdiff * fdiff;
                gbc[b] += fdiff * fdiff;
                bw[a] -= params.lr * fdiff / gbw[a].sqrt();
                bc[b] -= params.lr * fdiff / gbc[b].sqrt();
            }
        }

        let vectors: Vec<f32> = w.iter().zip(&c).map(|(p, q)| p + q).collect();
        let init_ns = start.elapsed().as_nanos() as u64;
        StaticModel::new(ModelCode::GE, vocab, dim, vectors, None, init_ns)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::LanguageModel;
    use er_core::Embedding;

    fn toy_params() -> GloveParams {
        GloveParams {
            dim: 16,
            window: 3,
            epochs: 40,
            lr: 0.05,
            x_max: 10.0,
            alpha: 0.75,
        }
    }

    fn toy_corpus() -> Corpus {
        let mut c = Corpus::new();
        for _ in 0..40 {
            c.push_text("alpha beta prize winner");
            c.push_text("beta alpha prize ceremony");
            c.push_text("gamma delta ocean current");
            c.push_text("delta gamma ocean tide");
        }
        c
    }

    #[test]
    fn cooccurring_words_end_up_closer() {
        let corpus = toy_corpus();
        let vocab = Vocab::build(&corpus, 1);
        let model = StaticModel::glove(&corpus, vocab, &toy_params(), 11);
        let alpha = model.embed("alpha");
        let beta = model.embed("beta");
        let gamma = model.embed("gamma");
        assert!(
            alpha.cosine(&beta) > alpha.cosine(&gamma) + 0.1,
            "cos(alpha,beta)={} cos(alpha,gamma)={}",
            alpha.cosine(&beta),
            alpha.cosine(&gamma)
        );
    }

    #[test]
    fn oov_tokens_fall_back_to_zero() {
        let corpus = toy_corpus();
        let vocab = Vocab::build(&corpus, 1);
        let model = StaticModel::glove(&corpus, vocab, &toy_params(), 11);
        // The typo'd word is out of the global dictionary: zero vector.
        assert_eq!(model.embed("alhpa"), Embedding::zeros(16));
        assert_eq!(model.embed(""), Embedding::zeros(16));
    }
}
