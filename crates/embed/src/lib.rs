//! er-embed — the language-model zoo (DESIGN.md inventory rows 3–9).
//!
//! The three **static** models are trained from scratch — Word2Vec
//! (SGNS), GloVe (co-occurrence + AdaGrad) and FastText (char-n-gram SGNS
//! over hashed buckets) — and all three release one inference artifact, a
//! [`StaticModel`] word-vector table (with subword buckets for FastText).
//! Beside them sits the first **dynamic** model: a from-scratch
//! [`Transformer`] encoder pre-trained with a genuine masked-language-model
//! objective ([`mlm::pretrain_bt`]) over the `er-tensor` autograd engine,
//! registered as paper model **BT**. All are unified behind the
//! [`LanguageModel`] trait, pre-trained deterministically by
//! [`ModelZoo::pretrain`] and cached as one ERBF container of raw f32
//! weights. The remaining transformer variants (AT/RA/DT/XT) and the SBERT
//! family (ST/S5/SA/SM) land in later PRs; their [`ModelCode`]s are
//! already defined so the benchmark suite can enumerate the full roster.

mod fasttext;
mod glove;
pub mod mlm;
mod sgns;
mod static_model;
pub mod transformer;
pub mod vocab;
mod word2vec;
pub mod zoo;

pub use fasttext::FastTextParams;
pub use glove::GloveParams;
pub use mlm::MlmParams;
pub use sgns::SgnsParams;
pub use static_model::StaticModel;
pub use transformer::{Transformer, TransformerConfig};
pub use vocab::Vocab;
pub use zoo::{AnyModel, ModelZoo, ZooConfig};

use er_core::binary::BinReader;
use er_core::{Embedding, ErError, Result};
use std::time::Duration;

/// The 12 language models of the paper's Table 3, by two-letter code.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum ModelCode {
    /// Word2Vec (static).
    WC,
    /// GloVe (static).
    GE,
    /// FastText (static).
    FT,
    /// BERT (transformer, MLM pre-trained — the first dynamic model).
    BT,
    /// AlBERT (transformer, later PR).
    AT,
    /// RoBERTa (transformer, later PR).
    RA,
    /// DistilBERT (transformer, later PR).
    DT,
    /// XLNet (transformer, later PR).
    XT,
    /// S-MPNet (SentenceBERT, later PR).
    ST,
    /// S-GTR-T5 (SentenceBERT, later PR).
    S5,
    /// S-DistilRoBERTa (SentenceBERT, later PR).
    SA,
    /// S-MiniLM (SentenceBERT, later PR).
    SM,
}

impl ModelCode {
    pub const ALL: [ModelCode; 12] = [
        ModelCode::WC,
        ModelCode::GE,
        ModelCode::FT,
        ModelCode::BT,
        ModelCode::AT,
        ModelCode::RA,
        ModelCode::DT,
        ModelCode::XT,
        ModelCode::ST,
        ModelCode::S5,
        ModelCode::SA,
        ModelCode::SM,
    ];

    /// The static subset implemented by this crate.
    pub const STATIC: [ModelCode; 3] = [ModelCode::WC, ModelCode::GE, ModelCode::FT];

    /// The dynamic (transformer) subset implemented so far.
    pub const DYNAMIC: [ModelCode; 1] = [ModelCode::BT];

    pub fn as_str(&self) -> &'static str {
        match self {
            ModelCode::WC => "WC",
            ModelCode::GE => "GE",
            ModelCode::FT => "FT",
            ModelCode::BT => "BT",
            ModelCode::AT => "AT",
            ModelCode::RA => "RA",
            ModelCode::DT => "DT",
            ModelCode::XT => "XT",
            ModelCode::ST => "ST",
            ModelCode::S5 => "S5",
            ModelCode::SA => "SA",
            ModelCode::SM => "SM",
        }
    }

    pub fn full_name(&self) -> &'static str {
        match self {
            ModelCode::WC => "Word2Vec",
            ModelCode::GE => "GloVe",
            ModelCode::FT => "FastText",
            ModelCode::BT => "BERT",
            ModelCode::AT => "AlBERT",
            ModelCode::RA => "RoBERTa",
            ModelCode::DT => "DistilBERT",
            ModelCode::XT => "XLNet",
            ModelCode::ST => "S-MPNet",
            ModelCode::S5 => "S-GTR-T5",
            ModelCode::SA => "S-DistilRoBERTa",
            ModelCode::SM => "S-MiniLM",
        }
    }

    pub fn parse(s: &str) -> Result<ModelCode> {
        ModelCode::ALL
            .iter()
            .copied()
            .find(|c| c.as_str() == s)
            .ok_or_else(|| ErError::Parse(format!("unknown model code {s:?}")))
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
    ModelCode::parse(&r.get_str()?).map_err(ErError::corrupt)
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
