//! Word2Vec: skip-gram with negative sampling, trained from scratch
//! (paper model **WC**; DESIGN.md inventory row 3).
//!
//! The shared SGNS loop (`sgns.rs`) with no subword buckets. The
//! input vectors are the released weights, a [`StaticModel`] without
//! subwords.

use crate::sgns::{self, SgnsParams};
use crate::vocab::Vocab;
use crate::{ModelCode, StaticModel};
use er_core::rng::derive;
use er_text::Corpus;
use std::time::Instant;

impl StaticModel {
    /// Train Word2Vec (**WC**) on `corpus` over `vocab`.
    pub(crate) fn word2vec(
        corpus: &Corpus,
        vocab: Vocab,
        params: &SgnsParams,
        seed: u64,
    ) -> StaticModel {
        let start = Instant::now();
        let no_grams = vec![Vec::new(); vocab.len()];
        let rng = derive(seed, "word2vec");
        let (in_vecs, _) = sgns::train(corpus, &vocab, params, &no_grams, 0, rng);
        let init_ns = start.elapsed().as_nanos() as u64;
        StaticModel::new(ModelCode::WC, vocab, params.dim, in_vecs, None, init_ns)
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
