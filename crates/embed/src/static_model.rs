//! The static models' one inference artifact (paper models **WC**, **GE**
//! and **FT**; DESIGN.md inventory rows 3–5).
//!
//! At inference time a static model is a pre-trained word-vector table: a
//! sentence embeds as the mean of its tokens' vectors, out-of-vocabulary
//! tokens are skipped and an all-OOV sentence embeds to the zero vector.
//! FastText adds hashed char-n-gram bucket rows ([`Subwords`]), so an
//! out-of-vocabulary word — a typo included — still embeds through the
//! buckets of its n-grams, where GloVe and Word2Vec drop it. The three
//! trainers (`word2vec.rs`, `glove.rs`, `fasttext.rs`) differ; what they
//! release is this one type.

use crate::vocab::Vocab;
use crate::{read_code, LanguageModel, ModelCode};
use er_core::binary::{fnv1a64, BinReader, BinWriter};
use er_core::{Embedding, ErError, Result};
use er_text::ngram::for_each_hashed_ngram;
use er_text::{normalize, tokens};
use std::time::Duration;

/// FastText's subword table: one row per hash bucket of the padded char
/// n-grams with n in `nmin..=nmax`.
#[derive(Debug, Clone)]
pub(crate) struct Subwords {
    pub nmin: usize,
    pub nmax: usize,
    pub buckets: usize,
    /// Bucket vectors, `buckets * dim`, row-major.
    pub vectors: Vec<f32>,
}

/// A pre-trained static model: word vectors, plus subword buckets for
/// FastText.
#[derive(Debug, Clone)]
pub struct StaticModel {
    code: ModelCode,
    vocab: Vocab,
    dim: usize,
    /// Word vectors, `vocab.len() * dim`, row-major — the released weights.
    vectors: Vec<f32>,
    subwords: Option<Subwords>,
    init_ns: u64,
    /// FNV-1a over the saved config, vocab and weights (see
    /// [`LanguageModel::fingerprint`]).
    fingerprint: u64,
}

impl StaticModel {
    /// Seal freshly trained weights: the fingerprint is computed here,
    /// once, over the bytes [`StaticModel::to_writer`] saves.
    pub(crate) fn new(
        code: ModelCode,
        vocab: Vocab,
        dim: usize,
        vectors: Vec<f32>,
        subwords: Option<Subwords>,
        init_ns: u64,
    ) -> StaticModel {
        let mut model = StaticModel {
            code,
            vocab,
            dim,
            vectors,
            subwords,
            init_ns,
            fingerprint: 0,
        };
        let mut w = BinWriter::new();
        model.to_writer(&mut w);
        model.fingerprint = fnv1a64(&w.into_bytes());
        model
    }

    pub fn vocab(&self) -> &Vocab {
        &self.vocab
    }

    fn word_vector(&self, token: &str) -> Option<&[f32]> {
        self.vocab
            .id(token)
            .map(|id| &self.vectors[id as usize * self.dim..(id as usize + 1) * self.dim])
    }

    /// Build `token`'s FastText vector in `v`: its word vector (when
    /// in-vocabulary) and its n-gram bucket rows summed in that order, then
    /// divided by their count. Returns `false`, with `v` unspecified, when
    /// the token has no part at all (OOV and shorter than every n-gram).
    fn subword_vector_into(&self, sub: &Subwords, token: &str, v: &mut [f32]) -> bool {
        let dim = self.dim;
        v.fill(0.0);
        let mut parts = 0.0f32;
        let mut add = |row: &[f32]| {
            for (vd, rd) in v.iter_mut().zip(row) {
                *vd += rd;
            }
            parts += 1.0;
        };
        if let Some(row) = self.word_vector(token) {
            add(row);
        }
        for_each_hashed_ngram(token, sub.nmin, sub.nmax, sub.buckets, |g| {
            add(&sub.vectors[g as usize * dim..(g as usize + 1) * dim]);
        });
        if parts == 0.0 {
            return false;
        }
        for vd in v.iter_mut() {
            *vd /= parts;
        }
        true
    }

    /// Code, config, vocab and weights (raw little-endian f32 runs) — the
    /// bytes a zoo cache stores and the fingerprint covers.
    pub(crate) fn to_writer(&self, w: &mut BinWriter) {
        w.put_str(self.code.as_str());
        w.put_usize(self.dim);
        match &self.subwords {
            None => w.put_u8(0),
            Some(sub) => {
                w.put_u8(1);
                w.put_usize(sub.nmin);
                w.put_usize(sub.nmax);
                w.put_usize(sub.buckets);
            }
        }
        self.vocab.to_writer(w);
        w.put_f32_slice(&self.vectors);
        if let Some(sub) = &self.subwords {
            w.put_f32_slice(&sub.vectors);
        }
    }

    /// Inverse of [`StaticModel::to_writer`] over one whole body: the
    /// config is validated and every matrix checked against the shape it
    /// implies, so a damaged cache is `ErError::Corrupt`, never a panic.
    pub(crate) fn from_bytes(body: &[u8], init_ns: u64) -> Result<StaticModel> {
        let mut r = BinReader::new(body);
        let code = read_code(&mut r)?;
        let dim = r.get_usize()?;
        let shape = match r.get_u8()? {
            0 => None,
            1 => Some((r.get_usize()?, r.get_usize()?, r.get_usize()?)),
            other => return Err(ErError::corrupt(format!("unknown subword flag {other}"))),
        };
        if dim == 0 {
            return Err(ErError::corrupt(format!("{code}: dim must be at least 1")));
        }
        if let Some((nmin, nmax, buckets)) = shape {
            if nmin == 0 || nmin > nmax || buckets == 0 {
                return Err(ErError::corrupt(format!(
                    "{code}: bad subword config n = {nmin}..={nmax} over {buckets} buckets"
                )));
            }
        }
        let vocab = Vocab::from_reader(&mut r)?;
        let vectors = r.get_matrix(vocab.len(), dim)?;
        let subwords = match shape {
            None => None,
            Some((nmin, nmax, buckets)) => Some(Subwords {
                nmin,
                nmax,
                buckets,
                vectors: r.get_matrix(buckets, dim)?,
            }),
        };
        r.finish()?;
        Ok(StaticModel {
            code,
            vocab,
            dim,
            vectors,
            subwords,
            init_ns,
            fingerprint: fnv1a64(body),
        })
    }
}

impl LanguageModel for StaticModel {
    fn code(&self) -> ModelCode {
        self.code
    }

    fn dim(&self) -> usize {
        self.dim
    }

    fn init_time(&self) -> Duration {
        Duration::from_nanos(self.init_ns)
    }

    fn fingerprint(&self) -> u64 {
        self.fingerprint
    }

    fn embed(&self, text: &str) -> Embedding {
        let mut v = vec![0.0f32; self.dim];
        self.embed_into(text, &mut v);
        Embedding(v)
    }

    /// The one inference body: the mean of the record's token vectors
    /// (in-vocabulary word rows, or FastText's per-token subword vectors),
    /// summed into `out` in token order and scaled by `1 / n`. A record
    /// with no such token embeds to the zero vector. Besides the normalized
    /// string, only FastText's one scratch row is allocated.
    fn embed_into(&self, text: &str, out: &mut [f32]) {
        debug_assert_eq!(out.len(), self.dim, "embed_into row/dim mismatch");
        out.fill(0.0);
        let normalized = normalize(text);
        let mut scratch = match self.subwords {
            Some(_) => vec![0.0f32; self.dim],
            None => Vec::new(),
        };
        let mut n = 0usize;
        for token in tokens(&normalized) {
            let v = match &self.subwords {
                None => self.word_vector(token),
                Some(sub) => self
                    .subword_vector_into(sub, token, &mut scratch)
                    .then_some(scratch.as_slice()),
            };
            let Some(v) = v else { continue };
            for (s, x) in out.iter_mut().zip(v) {
                *s += x;
            }
            n += 1;
        }
        if n > 0 {
            let inv = 1.0 / n as f32;
            for s in out.iter_mut() {
                *s *= inv;
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use er_text::Corpus;

    /// Vocabulary `a` → `[1, 2]`, `b` → `[3, 6]`, with FastText buckets
    /// when `subwords` is given.
    fn toy(subwords: Option<Subwords>) -> StaticModel {
        let mut corpus = Corpus::new();
        corpus.push_text("a b");
        let vocab = Vocab::build(&corpus, 1);
        let code = if subwords.is_some() {
            ModelCode::FT
        } else {
            ModelCode::WC
        };
        StaticModel::new(code, vocab, 2, vec![1.0, 2.0, 3.0, 6.0], subwords, 0)
    }

    #[test]
    fn embed_is_the_mean_of_token_vectors_and_oov_is_skipped() {
        let wc = toy(None);
        assert_eq!(wc.embed("a b"), Embedding(vec![2.0, 4.0]));
        assert_eq!(wc.embed("B, zz; a"), Embedding(vec![2.0, 4.0]));
        assert_eq!(wc.embed("zz"), Embedding::zeros(2));
        let mut row = [f32::NAN; 2];
        wc.embed_into("", &mut row);
        assert_eq!(
            row,
            [0.0, 0.0],
            "no token pools to zeros, whatever the row held"
        );

        // One bucket row `[4, 4]`: every gram of every word lands on it.
        let one_bucket = |nmin, nmax| Subwords {
            nmin,
            nmax,
            buckets: 1,
            vectors: vec![4.0, 4.0],
        };
        // `a` = (word + gram `<a>`) / 2; OOV `zz` = (`<zz` + `zz>`) / 2.
        let ft = toy(Some(one_bucket(3, 3)));
        assert_eq!(ft.embed("a"), Embedding(vec![2.5, 3.0]));
        assert_eq!(ft.embed("a zz"), Embedding(vec![3.25, 3.5]));
        // With 4-grams only, `<a>` has no gram: `a` is its word vector and
        // OOV `z` has no part at all, so it is skipped like a WC miss.
        let ft = toy(Some(one_bucket(4, 4)));
        assert_eq!(ft.embed("a z"), Embedding(vec![1.0, 2.0]));
        assert_eq!(ft.embed("z"), Embedding::zeros(2));
    }
}
