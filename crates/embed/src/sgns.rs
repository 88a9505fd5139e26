//! Skip-gram with negative sampling (Mikolov et al. 2013): the one trainer
//! behind Word2Vec and FastText.
//!
//! Mechanics preserved from word2vec.c: dynamic window shrinking, the
//! unigram^0.75 negative table, linear learning-rate decay, uniform
//! ±0.5/dim input init with zero-initialized output vectors. FastText
//! (Bojanowski et al. 2017) is the same loop with a word's input
//! represented as the average of its word vector and its hashed n-gram
//! bucket vectors, the gradient flowing into every component; Word2Vec is
//! FastText with no buckets.

use crate::vocab::Vocab;
use er_core::rng::DetRng;
use er_text::Corpus;
use rand::Rng;

/// SGNS hyper-parameters (shared by Word2Vec and FastText).
#[derive(Debug, Clone)]
pub(crate) struct SgnsParams {
    pub dim: usize,
    pub window: usize,
    pub negatives: usize,
    pub epochs: usize,
    pub lr: f32,
}

/// Numerically safe logistic function (inputs clamped to ±8, where the
/// gradient is effectively zero anyway).
#[inline]
fn sigmoid(x: f32) -> f32 {
    let x = x.clamp(-8.0, 8.0);
    1.0 / (1.0 + (-x).exp())
}

/// Unigram^0.75 negative-sampling table (word2vec's distribution).
struct NegTable {
    table: Vec<u32>,
}

impl NegTable {
    const SIZE: usize = 1 << 16;

    fn build(counts: &[u32]) -> NegTable {
        assert!(!counts.is_empty(), "cannot build table over empty vocab");
        let weights: Vec<f64> = counts.iter().map(|&c| (c as f64).powf(0.75)).collect();
        let total: f64 = weights.iter().sum();
        let mut table = Vec::with_capacity(Self::SIZE);
        let mut cum = 0.0;
        let mut id = 0usize;
        for slot in 0..Self::SIZE {
            let target = (slot as f64 + 0.5) / Self::SIZE as f64 * total;
            while cum + weights[id] < target && id + 1 < counts.len() {
                cum += weights[id];
                id += 1;
            }
            table.push(id as u32);
        }
        NegTable { table }
    }

    #[inline]
    fn sample(&self, rng: &mut DetRng) -> u32 {
        self.table[rng.gen_range(0..self.table.len())]
    }
}

/// Linearly decaying learning rate, floored at 10% of the initial rate
/// (word2vec.c's schedule).
#[inline]
fn decayed_lr(lr0: f32, progress: f32) -> f32 {
    lr0 * (1.0 - progress).max(0.1)
}

/// One SGNS update for an input representation `h` against `target`'s
/// output vector, accumulating the input gradient in `grad_h`.
#[inline]
fn sgns_step(
    h: &[f32],
    grad_h: &mut [f32],
    out_vecs: &mut [f32],
    target: usize,
    label: f32,
    lr: f32,
) {
    let dim = h.len();
    let out = &mut out_vecs[target * dim..(target + 1) * dim];
    let dot: f32 = h.iter().zip(out.iter()).map(|(a, b)| a * b).sum();
    let g = (label - sigmoid(dot)) * lr;
    for d in 0..dim {
        grad_h[d] += g * out[d];
        out[d] += g * h[d];
    }
}

/// Train on `corpus` over `vocab` with draws from `rng`, and return the
/// input vectors: `vocab.len()` word rows and `buckets` subword-bucket
/// rows, both row-major.
///
/// `grams[w]` lists word `w`'s bucket ids. A centre word's input is the
/// mean of its word row and those bucket rows, and each component receives
/// the input gradient divided by the part count. With no buckets every
/// part count is 1, and `h / 1.0` and `g * 1.0` are exact in IEEE-754, so
/// the word rows train bit-identically to plain Word2Vec; the draw order
/// (word init, bucket init, then per centre one window and per context
/// its negatives) does not depend on the buckets either.
pub(crate) fn train(
    corpus: &Corpus,
    vocab: &Vocab,
    params: &SgnsParams,
    grams: &[Vec<u32>],
    buckets: usize,
    mut rng: DetRng,
) -> (Vec<f32>, Vec<f32>) {
    let dim = params.dim;
    let mut init = |rows: usize| -> Vec<f32> {
        (0..rows * dim)
            .map(|_| (rng.gen_range(0.0f32..1.0) - 0.5) / dim as f32)
            .collect()
    };
    let mut word_vecs = init(vocab.len());
    let mut bucket_vecs = init(buckets);
    let mut out_vecs = vec![0.0f32; vocab.len() * dim];
    let table = NegTable::build(vocab.counts());

    let encoded: Vec<Vec<u32>> = corpus.sentences().iter().map(|s| vocab.encode(s)).collect();
    let total_tokens: usize = encoded.iter().map(Vec::len).sum::<usize>().max(1) * params.epochs;
    let mut processed = 0usize;
    let mut h = vec![0.0f32; dim];
    let mut grad_h = vec![0.0f32; dim];

    for _epoch in 0..params.epochs {
        for sentence in &encoded {
            for (i, &center) in sentence.iter().enumerate() {
                processed += 1;
                let lr = decayed_lr(params.lr, processed as f32 / total_tokens as f32);
                let span = rng.gen_range(1..=params.window);
                let lo = i.saturating_sub(span);
                let hi = (i + span).min(sentence.len() - 1);

                let center = center as usize;
                let word = center * dim..(center + 1) * dim;
                let grams = &grams[center];
                let parts = (1 + grams.len()) as f32;

                for (j, &ctx) in sentence.iter().enumerate().take(hi + 1).skip(lo) {
                    if j == i {
                        continue;
                    }
                    let context = ctx as usize;

                    // h = average of the word vector and its bucket vectors.
                    h.copy_from_slice(&word_vecs[word.clone()]);
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
                    for _ in 0..params.negatives {
                        let neg = table.sample(&mut rng) as usize;
                        if neg == context {
                            continue;
                        }
                        sgns_step(&h, &mut grad_h, &mut out_vecs, neg, 0.0, lr);
                    }

                    // Distribute the input gradient over all components.
                    let scale = 1.0 / parts;
                    for (wd, g) in word_vecs[word.clone()].iter_mut().zip(&grad_h) {
                        *wd += g * scale;
                    }
                    for &gid in grams {
                        let row = &mut bucket_vecs[gid as usize * dim..(gid as usize + 1) * dim];
                        for (bd, g) in row.iter_mut().zip(&grad_h) {
                            *bd += g * scale;
                        }
                    }
                }
            }
        }
    }
    (word_vecs, bucket_vecs)
}

#[cfg(test)]
mod tests {
    use super::*;
    use er_core::rng::rng;

    #[test]
    fn sigmoid_is_bounded_and_monotone() {
        assert!(sigmoid(-100.0) > 0.0);
        assert!(sigmoid(100.0) < 1.0);
        assert!((sigmoid(0.0) - 0.5).abs() < 1e-6);
        assert!(sigmoid(1.0) > sigmoid(-1.0));
    }

    #[test]
    fn neg_table_prefers_frequent_words() {
        let table = NegTable::build(&[100, 10, 1]);
        let mut r = rng(5);
        let mut hits = [0usize; 3];
        for _ in 0..10_000 {
            hits[table.sample(&mut r) as usize] += 1;
        }
        assert!(hits[0] > hits[1]);
        assert!(hits[1] > hits[2]);
        assert!(hits[2] > 0, "rare words must still be sampled");
    }

    #[test]
    fn sgns_step_pulls_positive_pairs_together() {
        let h = vec![0.5f32, -0.25, 0.1];
        let mut grad = vec![0.0f32; 3];
        let mut out = vec![0.4f32, 0.4, 0.4];
        let before: f32 = h.iter().zip(&out).map(|(a, b)| a * b).sum();
        for _ in 0..50 {
            sgns_step(&h, &mut grad, &mut out, 0, 1.0, 0.1);
        }
        let after: f32 = h.iter().zip(&out).map(|(a, b)| a * b).sum();
        assert!(after > before, "positive update must raise the score");
    }
}
