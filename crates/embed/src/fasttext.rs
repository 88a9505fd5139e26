//! FastText: char-n-gram SGNS over hashed subword buckets, trained from
//! scratch (paper model **FT**; DESIGN.md inventory row 5).
//!
//! The shared SGNS loop (`sgns.rs`) with hashed n-gram buckets: a word is
//! represented as the average of its word vector and its bucket vectors,
//! gradients flow into every component, and — crucially for the paper's
//! Fig. 3 findings — an **out-of-vocabulary word still embeds** through
//! the buckets of its n-grams, so typo'd tokens land near their clean form
//! where GloVe collapses to zero. The released weights are a
//! [`StaticModel`] with subwords.

use crate::sgns::{self, SgnsParams};
use crate::static_model::Subwords;
use crate::vocab::Vocab;
use crate::{ModelCode, StaticModel};
use er_core::rng::derive;
use er_text::ngram::hashed_ngrams;
use er_text::Corpus;
use std::time::Instant;

#[derive(Debug, Clone)]
pub(crate) struct FastTextParams {
    pub sgns: SgnsParams,
    pub nmin: usize,
    pub nmax: usize,
    pub buckets: usize,
}

impl StaticModel {
    /// Train FastText (**FT**) on `corpus` over `vocab`.
    pub(crate) fn fasttext(
        corpus: &Corpus,
        vocab: Vocab,
        params: &FastTextParams,
        seed: u64,
    ) -> StaticModel {
        let start = Instant::now();
        // Precompute each vocabulary word's bucket ids once.
        let grams: Vec<Vec<u32>> = (0..vocab.len() as u32)
            .map(|id| hashed_ngrams(vocab.token(id), params.nmin, params.nmax, params.buckets))
            .collect();
        let rng = derive(seed, "fasttext");
        let (word_vecs, bucket_vecs) =
            sgns::train(corpus, &vocab, &params.sgns, &grams, params.buckets, rng);
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
            params.sgns.dim,
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
