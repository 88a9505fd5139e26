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
use crate::{mean_pool, read_code, LanguageModel, ModelCode};
use er_core::binary::{fnv1a64, BinReader, BinWriter};
use er_core::{Embedding, ErError, Result};
use er_text::ngram::hashed_ngrams;
use er_text::tokenize;
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

    /// A single token's FastText vector: word vector averaged with its
    /// subword buckets when in-vocabulary, subword buckets alone otherwise.
    /// Only tokens with no characters at all have no representation.
    fn subword_vector(&self, sub: &Subwords, token: &str) -> Option<Embedding> {
        if token.is_empty() {
            return None;
        }
        let grams = hashed_ngrams(token, sub.nmin, sub.nmax, sub.buckets);
        let mut v = vec![0.0f32; self.dim];
        let mut parts = 0.0f32;
        if let Some(row) = self.word_vector(token) {
            for (vd, wd) in v.iter_mut().zip(row) {
                *vd += wd;
            }
            parts += 1.0;
        }
        for &g in &grams {
            let row = &sub.vectors[g as usize * self.dim..(g as usize + 1) * self.dim];
            for (vd, bd) in v.iter_mut().zip(row) {
                *vd += bd;
            }
            parts += 1.0;
        }
        if parts == 0.0 {
            return None;
        }
        for vd in v.iter_mut() {
            *vd /= parts;
        }
        Some(Embedding(v))
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
        let tokens = tokenize(text);
        match &self.subwords {
            None => mean_pool(tokens.iter().filter_map(|t| self.word_vector(t)), self.dim),
            Some(sub) => {
                let vecs: Vec<Embedding> = tokens
                    .iter()
                    .filter_map(|t| self.subword_vector(sub, t))
                    .collect();
                mean_pool(vecs.iter().map(Embedding::as_slice), self.dim)
            }
        }
    }
}
