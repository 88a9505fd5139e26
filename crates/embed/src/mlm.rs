//! Masked-language-model pre-training for the transformer encoder
//! (DESIGN.md inventory row 7) — the genuine BERT objective, scaled to the
//! synthetic corpus.
//!
//! Per sentence, each position is masked with probability `mask_prob`
//! (at least one per sentence), and every selected position follows the
//! BERT 80/10/10 recipe: 80 % replaced by `er_text::MASK_TOKEN`, 10 % by a
//! random vocabulary token, 10 % kept. The loss is mean cross-entropy of
//! the *original* token at each masked position, with logits produced by
//! the **weight-tied** output head `h · Eᵀ` (the token-embedding table
//! transposed) — so gradients reach the embeddings through both the input
//! lookup and the output projection. Optimization is Adam with global-norm
//! gradient clipping, one sentence per step, sequential by design
//! (DESIGN §1's single-core budget): a fixed `(corpus, vocab, params,
//! seed)` yields byte-identical weights on every run.

use crate::transformer::{Transformer, TransformerConfig};
use crate::vocab::Vocab;
use crate::ModelCode;
use er_core::rng::derive;
use er_tensor::{clip_grad_norm, Adam, Graph, Tensor};
use er_text::{Corpus, MASK_TOKEN};
use rand::Rng;

/// MLM pre-training hyper-parameters.
#[derive(Debug, Clone)]
pub(crate) struct MlmParams {
    pub config: TransformerConfig,
    pub epochs: usize,
    /// Per-position masking probability (BERT's 0.15).
    pub mask_prob: f64,
    pub lr: f32,
    /// Global gradient-norm clip.
    pub clip: f32,
}

/// Pre-train model **BT** on `corpus`, with its RNG stream derived from
/// `(seed, "mlm-BT")`. `vocab` must contain [`MASK_TOKEN`] (build it with
/// [`Vocab::with_special`]).
pub(crate) fn pretrain_bt(
    corpus: &Corpus,
    vocab: Vocab,
    params: &MlmParams,
    seed: u64,
) -> Transformer {
    let code = ModelCode::BT;
    let start = std::time::Instant::now();
    let mask_id = vocab
        .id(MASK_TOKEN)
        .unwrap_or_else(|| panic!("MLM vocab lacks the {MASK_TOKEN} special token"));
    let mut rng = derive(seed, &format!("mlm-{code}"));
    let mut model = Transformer::init(code, vocab, params.config.clone(), &mut rng);

    // Training view of the corpus: vocabulary ids (OOV dropped), truncated
    // to the context window; single-token sentences carry no MLM signal.
    let encoded: Vec<Vec<u32>> = corpus
        .sentences()
        .iter()
        .map(|s| {
            let mut ids = model.vocab().encode(s);
            ids.truncate(params.config.max_len);
            ids
        })
        .filter(|ids| ids.len() >= 2)
        .collect();

    let vocab_len = model.vocab().len() as u32;
    let mut adam = Adam::new(params.lr);
    for _epoch in 0..params.epochs {
        for sentence in &encoded {
            // Select positions, BERT-style corruption per position.
            let mut positions: Vec<usize> = (0..sentence.len())
                .filter(|_| rng.gen_bool(params.mask_prob))
                .collect();
            if positions.is_empty() {
                positions.push(rng.gen_range(0..sentence.len()));
            }
            let mut corrupted = sentence.clone();
            let mut targets = Vec::with_capacity(positions.len());
            for &p in &positions {
                targets.push(sentence[p] as usize);
                let roll: f64 = rng.gen_range(0.0..1.0);
                if roll < 0.8 {
                    corrupted[p] = mask_id;
                } else if roll < 0.9 {
                    corrupted[p] = rng.gen_range(0..vocab_len);
                } // else: keep the original token.
            }

            // Forward: encode the corrupted sentence, project the masked
            // positions through the tied embedding table, score originals.
            let mut g = Graph::new();
            let bound = model.bind(&mut g);
            let hidden = model.encode(&mut g, &bound, &corrupted);
            let masked_hidden = g.gather(hidden, &positions);
            let logits = g.matmul_nt(masked_hidden, bound.token_embed);
            let loss = g.cross_entropy(logits, &targets);
            g.backward(loss);

            let mut grads: Vec<Tensor> = bound
                .list()
                .into_iter()
                .map(|&v| g.grad(v).clone())
                .collect();
            clip_grad_norm(&mut grads, params.clip);
            let grad_refs: Vec<&Tensor> = grads.iter().collect();
            adam.step(&mut model.param_tensors_mut(), &grad_refs);
        }
    }

    model.seal(start.elapsed().as_nanos() as u64);
    model
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::LanguageModel;
    use er_core::rng::rng;
    use er_core::Embedding;
    use er_text::corpus::synthetic_corpus;

    fn tiny_params() -> MlmParams {
        MlmParams {
            config: TransformerConfig {
                dim: 16,
                layers: 1,
                heads: 2,
                ffn: 32,
                max_len: 8,
            },
            epochs: 1,
            mask_prob: 0.15,
            lr: 1e-3,
            clip: 1.0,
        }
    }

    fn tiny_corpus() -> Corpus {
        synthetic_corpus(6, &mut rng(11))
    }

    #[test]
    fn pretraining_is_byte_deterministic() {
        let corpus = tiny_corpus();
        let vocab = Vocab::build(&corpus, 1).with_special(MASK_TOKEN);
        let a = pretrain_bt(&corpus, vocab.clone(), &tiny_params(), 42);
        let b = pretrain_bt(&corpus, vocab, &tiny_params(), 42);
        assert_eq!(
            a.fingerprint(),
            b.fingerprint(),
            "same seed must give bit-identical weights"
        );
        for (x, y) in a.param_tensors().iter().zip(b.param_tensors()) {
            assert_eq!(x.data(), y.data());
        }
    }

    #[test]
    fn different_seeds_give_different_weights() {
        let corpus = tiny_corpus();
        let vocab = Vocab::build(&corpus, 1).with_special(MASK_TOKEN);
        let a = pretrain_bt(&corpus, vocab.clone(), &tiny_params(), 1);
        let b = pretrain_bt(&corpus, vocab, &tiny_params(), 2);
        assert_ne!(a.fingerprint(), b.fingerprint());
    }

    #[test]
    fn training_moves_weights_and_keeps_them_finite() {
        let corpus = tiny_corpus();
        let vocab = Vocab::build(&corpus, 1).with_special(MASK_TOKEN);
        let mut init_rng = derive(42, "mlm-BT");
        let untrained = Transformer::init(
            ModelCode::BT,
            vocab.clone(),
            tiny_params().config.clone(),
            &mut init_rng,
        );
        let trained = pretrain_bt(&corpus, vocab, &tiny_params(), 42);
        let mut moved = false;
        for (u, t) in untrained
            .param_tensors()
            .iter()
            .zip(trained.param_tensors())
        {
            assert!(t.data().iter().all(|x| x.is_finite()), "non-finite weight");
            moved |= u.data() != t.data();
        }
        assert!(moved, "MLM training left every weight untouched");
        let e = trained.embed("golden palace downtown");
        assert!(e.is_finite());
        assert_ne!(e, Embedding::zeros(16));
    }
}
