//! Word2Vec: skip-gram with negative sampling, trained from scratch
//! (paper model **WC**; DESIGN.md inventory row 3).
//!
//! Mechanics preserved from word2vec.c: dynamic window shrinking, the
//! unigram^0.75 negative table, linear learning-rate decay, uniform
//! ±0.5/dim input init with zero-initialized output vectors. The input
//! vectors are the released weights, a [`StaticModel`] without subwords.

use crate::sgns::{decayed_lr, sgns_step, NegTable};
use crate::vocab::Vocab;
use crate::{ModelCode, StaticModel};
use er_core::rng::derive;
use er_text::Corpus;
use rand::Rng;
use std::time::Instant;

/// SGNS hyper-parameters (shared with FastText).
#[derive(Debug, Clone)]
pub struct SgnsParams {
    pub dim: usize,
    pub window: usize,
    pub negatives: usize,
    pub epochs: usize,
    pub lr: f32,
}

impl StaticModel {
    /// Train Word2Vec (**WC**) on `corpus` over `vocab`.
    pub fn word2vec(corpus: &Corpus, vocab: Vocab, params: &SgnsParams, seed: u64) -> StaticModel {
        let start = Instant::now();
        let dim = params.dim;
        let mut rng = derive(seed, "word2vec");

        let mut in_vecs: Vec<f32> = (0..vocab.len() * dim)
            .map(|_| (rng.gen_range(0.0f32..1.0) - 0.5) / dim as f32)
            .collect();
        let mut out_vecs = vec![0.0f32; vocab.len() * dim];
        let table = NegTable::build(vocab.counts());

        let encoded: Vec<Vec<u32>> = corpus.sentences().iter().map(|s| vocab.encode(s)).collect();
        let total_tokens: usize =
            encoded.iter().map(Vec::len).sum::<usize>().max(1) * params.epochs;
        let mut processed = 0usize;
        let mut grad_h = vec![0.0f32; dim];
        let mut h_buf = vec![0.0f32; dim];

        for _epoch in 0..params.epochs {
            for sentence in &encoded {
                for (i, &center) in sentence.iter().enumerate() {
                    processed += 1;
                    let lr = decayed_lr(params.lr, processed as f32 / total_tokens as f32);
                    let span = rng.gen_range(1..=params.window);
                    let lo = i.saturating_sub(span);
                    let hi = (i + span).min(sentence.len() - 1);
                    for (j, &ctx) in sentence.iter().enumerate().take(hi + 1).skip(lo) {
                        if j == i {
                            continue;
                        }
                        let context = ctx as usize;
                        let h_row = center as usize * dim..(center as usize + 1) * dim;
                        grad_h.fill(0.0);
                        h_buf.copy_from_slice(&in_vecs[h_row.clone()]);
                        sgns_step(&h_buf, &mut grad_h, &mut out_vecs, context, 1.0, lr);
                        for _ in 0..params.negatives {
                            let neg = table.sample(&mut rng) as usize;
                            if neg == context {
                                continue;
                            }
                            sgns_step(&h_buf, &mut grad_h, &mut out_vecs, neg, 0.0, lr);
                        }
                        for (w, g) in in_vecs[h_row].iter_mut().zip(&grad_h) {
                            *w += g;
                        }
                    }
                }
            }
        }

        let init_ns = start.elapsed().as_nanos() as u64;
        StaticModel::new(ModelCode::WC, vocab, dim, in_vecs, None, init_ns)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::LanguageModel;
    use er_core::Embedding;

    fn toy_params() -> SgnsParams {
        SgnsParams {
            dim: 16,
            window: 3,
            negatives: 3,
            epochs: 30,
            lr: 0.05,
        }
    }

    /// Crafted corpus: "alpha" and "beta" always co-occur, "gamma" lives in
    /// disjoint contexts — SGNS must place alpha nearer beta than gamma.
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
        let model = StaticModel::word2vec(&corpus, vocab, &toy_params(), 7);
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
    fn oov_sentences_embed_to_zeros() {
        let corpus = toy_corpus();
        let vocab = Vocab::build(&corpus, 1);
        let model = StaticModel::word2vec(&corpus, vocab, &toy_params(), 7);
        assert_eq!(model.embed("zzz qqq"), Embedding::zeros(16));
        assert_eq!(model.embed(""), Embedding::zeros(16));
    }
}
