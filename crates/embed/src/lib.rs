//! er-embed — the language-model zoo (DESIGN.md inventory rows 3–9).
//!
//! The three **static** models are trained from scratch — Word2Vec
//! (SGNS), GloVe (co-occurrence + AdaGrad) and FastText (char-n-gram SGNS
//! over hashed buckets) — and all three release one inference artifact, a
//! [`StaticModel`] word-vector table (with subword buckets for FastText).
//! Beside them sits one **dynamic** model: a from-scratch
//! [`Transformer`] encoder pre-trained with a genuine masked-language-model
//! objective (`mlm::pretrain_bt`) over the `er-tensor` autograd engine,
//! registered as paper model **BT**. All are unified behind the
//! [`LanguageModel`] trait, pre-trained deterministically by
//! [`ModelZoo::pretrain`] and cached as one ERBF container of raw f32
//! weights. [`ModelCode`] names these four and nothing else: the paper's
//! other transformers (AT/RA/DT/XT) and the SBERT family (ST/S5/SA/SM) are
//! not built here, so no caller can ask the zoo for an absent model.

mod fasttext;
mod glove;
mod mlm;
mod sgns;
mod static_model;
mod transformer;
mod vocab;
mod word2vec;
mod zoo;

pub use static_model::StaticModel;
pub use transformer::Transformer;
pub use vocab::Vocab;
pub use zoo::{AnyModel, ModelZoo, ZooConfig};

use er_core::binary::BinReader;
use er_core::{Embedding, ErError, Result};
use std::time::Duration;

/// The language models this crate builds, by their two-letter code in the
/// paper's Table 3. The paper's other eight (AT, RA, DT, XT and the SBERT
/// family ST/S5/SA/SM) are not implemented, so they have no code here
/// (DESIGN.md §1).
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum ModelCode {
    /// Word2Vec (static).
    WC,
    /// GloVe (static).
    GE,
    /// FastText (static).
    FT,
    /// BERT (transformer, MLM pre-trained).
    BT,
}

impl ModelCode {
    /// The zoo's roster, in cache order: the static models, then BT.
    pub const ALL: [ModelCode; 4] = [ModelCode::WC, ModelCode::GE, ModelCode::FT, ModelCode::BT];

    pub fn as_str(&self) -> &'static str {
        match self {
            ModelCode::WC => "WC",
            ModelCode::GE => "GE",
            ModelCode::FT => "FT",
            ModelCode::BT => "BT",
        }
    }

    pub fn full_name(&self) -> &'static str {
        match self {
            ModelCode::WC => "Word2Vec",
            ModelCode::GE => "GloVe",
            ModelCode::FT => "FastText",
            ModelCode::BT => "BERT",
        }
    }

    /// The code a saved model body names; anything else is damaged bytes.
    pub(crate) fn parse(s: &str) -> Result<ModelCode> {
        ModelCode::ALL
            .iter()
            .copied()
            .find(|c| c.as_str() == s)
            .ok_or_else(|| ErError::corrupt(format!("unknown model code {s:?}")))
    }
}

impl std::fmt::Display for ModelCode {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.as_str())
    }
}

/// Uniform interface over every model in the zoo: a model turns text into a
/// fixed-dimension [`Embedding`], and reports how long it took to initialize
/// (the paper's Table 4 init-vs-transform split).
pub trait LanguageModel: Send + Sync {
    fn code(&self) -> ModelCode;
    fn dim(&self) -> usize;
    fn init_time(&self) -> Duration;
    fn embed(&self, text: &str) -> Embedding;

    /// FNV-1a over the model's saved config, vocab and weight bytes (never
    /// its init time), computed once when the model is trained or loaded.
    /// Equal fingerprints mean the same embedding space: a saved resolver
    /// refuses to reopen under a model with another one.
    fn fingerprint(&self) -> u64;

    /// Embed `text` directly into a caller-provided row of length
    /// [`LanguageModel::dim`] — the hook the columnar
    /// `er_core::EmbeddingMatrix` pipeline fills rows through without an
    /// intermediate allocation per entity. The default delegates to
    /// [`LanguageModel::embed`]; models that can write in place may
    /// override it.
    fn embed_into(&self, text: &str, out: &mut [f32]) {
        let e = self.embed(text);
        debug_assert_eq!(e.dim(), out.len(), "embed_into row/dim mismatch");
        out.copy_from_slice(e.as_slice());
    }
}

/// The model code a saved model body starts with.
pub(crate) fn read_code(r: &mut BinReader) -> Result<ModelCode> {
    ModelCode::parse(&r.get_str()?)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn model_codes_round_trip_through_display() {
        for code in ModelCode::ALL {
            assert_eq!(ModelCode::parse(&code.to_string()).unwrap(), code);
        }
        assert!(ModelCode::parse("ZZ").is_err());
    }
}
