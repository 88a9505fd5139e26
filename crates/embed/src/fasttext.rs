//! FastText: char-n-gram SGNS over hashed subword buckets, trained from
//! scratch (paper model **FT**; DESIGN.md inventory row 5).
//!
//! Mechanics preserved from Bojanowski et al. 2017: a word is represented
//! as the average of its word vector and its hashed n-gram bucket vectors,
//! gradients flow into every component, and — crucially for the paper's
//! Fig. 3 findings — an **out-of-vocabulary word still embeds** through the
//! buckets of its n-grams, so typo'd tokens land near their clean form
//! where GloVe collapses to zero. The released weights are a
//! [`StaticModel`] with subwords.

use crate::sgns::{decayed_lr, sgns_step, NegTable};
use crate::static_model::Subwords;
use crate::vocab::Vocab;
use crate::word2vec::SgnsParams;
use crate::{ModelCode, StaticModel};
use er_core::rng::derive;
use er_text::ngram::hashed_ngrams;
use er_text::Corpus;
use rand::Rng;
use std::time::Instant;

#[derive(Debug, Clone)]
pub struct FastTextParams {
    pub sgns: SgnsParams,
    pub nmin: usize,
    pub nmax: usize,
    pub buckets: usize,
}

impl StaticModel {
    /// Train FastText (**FT**) on `corpus` over `vocab`.
    pub fn fasttext(
        corpus: &Corpus,
        vocab: Vocab,
        params: &FastTextParams,
        seed: u64,
    ) -> StaticModel {
        let start = Instant::now();
        let dim = params.sgns.dim;
        let mut rng = derive(seed, "fasttext");

        // Precompute each vocabulary word's bucket ids once.
        let ngram_ids: Vec<Vec<u32>> = (0..vocab.len() as u32)
            .map(|id| hashed_ngrams(vocab.token(id), params.nmin, params.nmax, params.buckets))
            .collect();

        let mut word_vecs: Vec<f32> = (0..vocab.len() * dim)
            .map(|_| (rng.gen_range(0.0f32..1.0) - 0.5) / dim as f32)
            .collect();
        let mut bucket_vecs: Vec<f32> = (0..params.buckets * dim)
            .map(|_| (rng.gen_range(0.0f32..1.0) - 0.5) / dim as f32)
            .collect();
        let mut out_vecs = vec![0.0f32; vocab.len() * dim];
        let table = NegTable::build(vocab.counts());

        let encoded: Vec<Vec<u32>> = corpus.sentences().iter().map(|s| vocab.encode(s)).collect();
        let total_tokens: usize =
            encoded.iter().map(Vec::len).sum::<usize>().max(1) * params.sgns.epochs;
        let mut processed = 0usize;
        let mut h = vec![0.0f32; dim];
        let mut grad_h = vec![0.0f32; dim];

        for _epoch in 0..params.sgns.epochs {
            for sentence in &encoded {
                for (i, &center) in sentence.iter().enumerate() {
                    processed += 1;
                    let lr = decayed_lr(params.sgns.lr, processed as f32 / total_tokens as f32);
                    let span = rng.gen_range(1..=params.sgns.window);
                    let lo = i.saturating_sub(span);
                    let hi = (i + span).min(sentence.len() - 1);

                    let center = center as usize;
                    let grams = &ngram_ids[center];
                    let parts = (1 + grams.len()) as f32;

                    for (j, &ctx) in sentence.iter().enumerate().take(hi + 1).skip(lo) {
                        if j == i {
                            continue;
                        }
                        let context = ctx as usize;

                        // h = average of word vector and subword buckets.
                        h.copy_from_slice(&word_vecs[center * dim..(center + 1) * dim]);
                        for &g in grams {
                            let row = &bucket_vecs[g as usize * dim..(g as usize + 1) * dim];
                            for (hd, bd) in h.iter_mut().zip(row) {
                                *hd += bd;
                            }
                        }
                        for hd in h.iter_mut() {
                            *hd /= parts;
                        }

                        grad_h.fill(0.0);
                        sgns_step(&h, &mut grad_h, &mut out_vecs, context, 1.0, lr);
                        for _ in 0..params.sgns.negatives {
                            let neg = table.sample(&mut rng) as usize;
                            if neg == context {
                                continue;
                            }
                            sgns_step(&h, &mut grad_h, &mut out_vecs, neg, 0.0, lr);
                        }

                        // Distribute the input gradient over all components.
                        let scale = 1.0 / parts;
                        for (wd, g) in word_vecs[center * dim..(center + 1) * dim]
                            .iter_mut()
                            .zip(&grad_h)
                        {
                            *wd += g * scale;
                        }
                        for &gid in grams {
                            let row =
                                &mut bucket_vecs[gid as usize * dim..(gid as usize + 1) * dim];
                            for (bd, g) in row.iter_mut().zip(&grad_h) {
                                *bd += g * scale;
                            }
                        }
                    }
                }
            }
        }

        let subwords = Subwords {
            nmin: params.nmin,
            nmax: params.nmax,
            buckets: params.buckets,
            vectors: bucket_vecs,
        };
        let init_ns = start.elapsed().as_nanos() as u64;
        StaticModel::new(
            ModelCode::FT,
            vocab,
            dim,
            word_vecs,
            Some(subwords),
            init_ns,
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::LanguageModel;
    use er_core::Embedding;

    fn toy_params() -> FastTextParams {
        FastTextParams {
            sgns: SgnsParams {
                dim: 16,
                window: 2,
                negatives: 3,
                epochs: 20,
                lr: 0.05,
            },
            nmin: 3,
            nmax: 5,
            buckets: 512,
        }
    }

    fn toy_corpus() -> Corpus {
        let mut c = Corpus::new();
        for _ in 0..30 {
            c.push_text("golden restaurant downtown plaza");
            c.push_text("restaurant golden kitchen plaza");
            c.push_text("digital camera battery charger");
        }
        c
    }

    #[test]
    fn oov_words_still_embed_via_subwords() {
        let corpus = toy_corpus();
        let vocab = Vocab::build(&corpus, 1);
        let model = StaticModel::fasttext(&corpus, vocab, &toy_params(), 13);
        assert!(model.vocab().id("restaurnat").is_none(), "typo must be OOV");
        let typo = model.embed("restaurnat");
        assert_ne!(typo, Embedding::zeros(16), "subword fallback must fire");
        let clean = model.embed("restaurant");
        assert!(
            clean.cosine(&typo) > 0.5,
            "typo should stay near clean form, got {}",
            clean.cosine(&typo)
        );
    }
}
