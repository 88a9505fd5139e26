//! The model zoo: one entry point that pre-trains every implemented model
//! on the deterministic synthetic corpus, with an optional on-disk cache so
//! repeated runs (and the benchmark suite) skip training.
//!
//! Determinism contract: `ModelZoo::pretrain(None, &config, seed)` is
//! byte-identical across runs for a fixed `(config, seed)` — each model
//! trains from its own seed-derived RNG stream. The cache is one ERBF
//! `kind::MODEL` container whose weights are raw little-endian f32 runs,
//! read back with `from_le_bytes`: save/load is bit-exact and a load parses
//! no floats.

use crate::mlm::{self, MlmParams};
use crate::transformer::{Transformer, TransformerConfig};
use crate::{
    FastTextParams, GloveParams, LanguageModel, ModelCode, SgnsParams, StaticModel, Vocab,
};
use er_core::binary::{self, fnv1a64, kind, BinReader, BinWriter};
use er_core::json::Json;
use er_core::rng::rng;
use er_core::{Embedding, ErError, Result};
use er_text::corpus::synthetic_corpus;
use er_text::ngram::fnv1a;
use std::path::Path;
use std::sync::Arc;
use std::time::Duration;

/// Hyper-parameters for one zoo pre-training run.
#[derive(Debug, Clone)]
pub struct ZooConfig {
    /// Human-readable scale label, part of the cache key ("Fast", "Tiny").
    pub scale: String,
    /// Synthetic-corpus size in documents.
    pub corpus_docs: usize,
    /// Embedding dimension for the static models (paper ratio: 48-d static
    /// vs 64-d transformer ≈ the paper's 300 vs 768).
    pub dim: usize,
    pub window: usize,
    pub negatives: usize,
    pub min_count: u32,
    pub w2v_epochs: usize,
    pub glove_epochs: usize,
    pub ft_epochs: usize,
    pub lr: f32,
    pub glove_lr: f32,
    pub x_max: f32,
    pub alpha: f32,
    pub nmin: usize,
    pub nmax: usize,
    pub buckets: usize,
    /// Transformer (BT) width — 64-d per DESIGN §1 (the paper's 768 scaled
    /// to the static models' 48).
    pub bt_dim: usize,
    pub bt_layers: usize,
    pub bt_heads: usize,
    pub bt_ffn: usize,
    pub bt_max_len: usize,
    pub bt_epochs: usize,
    pub bt_lr: f32,
    /// MLM per-position masking probability (BERT's 0.15).
    pub bt_mask_prob: f32,
}

impl ZooConfig {
    /// The default scale: trains all three static models in seconds on one
    /// CPU core while leaving enough corpus for meaningful geometry.
    pub fn fast() -> ZooConfig {
        ZooConfig {
            scale: "Fast".into(),
            corpus_docs: 96,
            dim: 48,
            window: 4,
            negatives: 4,
            min_count: 2,
            w2v_epochs: 4,
            glove_epochs: 12,
            ft_epochs: 3,
            lr: 0.05,
            glove_lr: 0.05,
            x_max: 16.0,
            alpha: 0.75,
            nmin: 3,
            nmax: 5,
            buckets: 4096,
            bt_dim: 64,
            bt_layers: 2,
            bt_heads: 4,
            bt_ffn: 128,
            bt_max_len: 16,
            bt_epochs: 2,
            bt_lr: 1e-3,
            bt_mask_prob: 0.15,
        }
    }

    /// A miniature scale for unit tests (debug builds train this in well
    /// under a second).
    pub fn tiny() -> ZooConfig {
        ZooConfig {
            scale: "Tiny".into(),
            corpus_docs: 24,
            dim: 48,
            window: 3,
            negatives: 3,
            min_count: 1,
            w2v_epochs: 2,
            glove_epochs: 6,
            ft_epochs: 2,
            lr: 0.05,
            glove_lr: 0.05,
            x_max: 16.0,
            alpha: 0.75,
            nmin: 3,
            nmax: 5,
            buckets: 1024,
            bt_dim: 64,
            bt_layers: 1,
            bt_heads: 2,
            bt_ffn: 64,
            bt_max_len: 10,
            bt_epochs: 1,
            bt_lr: 1e-3,
            bt_mask_prob: 0.15,
        }
    }

    fn to_json(&self) -> Json {
        Json::Obj(vec![
            ("scale".into(), Json::from_str_value(&self.scale)),
            ("corpus_docs".into(), Json::from_usize(self.corpus_docs)),
            ("dim".into(), Json::from_usize(self.dim)),
            ("window".into(), Json::from_usize(self.window)),
            ("negatives".into(), Json::from_usize(self.negatives)),
            ("min_count".into(), Json::from_u64(self.min_count as u64)),
            ("w2v_epochs".into(), Json::from_usize(self.w2v_epochs)),
            ("glove_epochs".into(), Json::from_usize(self.glove_epochs)),
            ("ft_epochs".into(), Json::from_usize(self.ft_epochs)),
            ("lr".into(), Json::from_f32(self.lr)),
            ("glove_lr".into(), Json::from_f32(self.glove_lr)),
            ("x_max".into(), Json::from_f32(self.x_max)),
            ("alpha".into(), Json::from_f32(self.alpha)),
            ("nmin".into(), Json::from_usize(self.nmin)),
            ("nmax".into(), Json::from_usize(self.nmax)),
            ("buckets".into(), Json::from_usize(self.buckets)),
            ("bt_dim".into(), Json::from_usize(self.bt_dim)),
            ("bt_layers".into(), Json::from_usize(self.bt_layers)),
            ("bt_heads".into(), Json::from_usize(self.bt_heads)),
            ("bt_ffn".into(), Json::from_usize(self.bt_ffn)),
            ("bt_max_len".into(), Json::from_usize(self.bt_max_len)),
            ("bt_epochs".into(), Json::from_usize(self.bt_epochs)),
            ("bt_lr".into(), Json::from_f32(self.bt_lr)),
            ("bt_mask_prob".into(), Json::from_f32(self.bt_mask_prob)),
        ])
    }

    /// Cache-file stem: scale plus a hash of every hyper-parameter and the
    /// seed, so stale caches can never be loaded for the wrong config.
    pub fn cache_stem(&self, seed: u64) -> String {
        let key = format!("{}|seed={seed}", self.to_json());
        format!("zoo-{}-{:016x}", self.scale, fnv1a(key.as_bytes()))
    }
}

impl Default for ZooConfig {
    fn default() -> Self {
        ZooConfig::fast()
    }
}

/// A concrete model held by the zoo. (An enum rather than `dyn
/// LanguageModel` so models can be persisted and compared exactly.)
#[derive(Debug, Clone)]
pub enum AnyModel {
    /// WC, GE or FT.
    Static(StaticModel),
    /// BT.
    Transformer(Transformer),
}

impl AnyModel {
    fn inner(&self) -> &dyn LanguageModel {
        match self {
            AnyModel::Static(m) => m,
            AnyModel::Transformer(m) => m,
        }
    }

    /// Whether `token` is in the model's trained vocabulary (FastText can
    /// still *embed* tokens for which this is false, via subword buckets).
    pub fn knows_token(&self, token: &str) -> bool {
        let vocab = match self {
            AnyModel::Static(m) => m.vocab(),
            AnyModel::Transformer(m) => m.vocab(),
        };
        vocab.id(token).is_some()
    }
}

impl LanguageModel for AnyModel {
    fn code(&self) -> ModelCode {
        self.inner().code()
    }

    fn dim(&self) -> usize {
        self.inner().dim()
    }

    fn init_time(&self) -> Duration {
        self.inner().init_time()
    }

    fn fingerprint(&self) -> u64 {
        self.inner().fingerprint()
    }

    fn embed(&self, text: &str) -> Embedding {
        self.inner().embed(text)
    }

    fn embed_into(&self, text: &str, out: &mut [f32]) {
        self.inner().embed_into(text, out)
    }
}

/// The pre-trained roster, ordered as [`ModelCode::STATIC`] then
/// [`ModelCode::DYNAMIC`].
#[derive(Debug, Clone)]
pub struct ModelZoo {
    models: Vec<Arc<AnyModel>>,
    scale: String,
    seed: u64,
}

/// Section tags of a zoo cache: the header (scale, seed, each model's
/// init time), then one section per model in roster order, tagged with its
/// family.
mod tag {
    pub const ZOO: u32 = 1;
    pub const STATIC: u32 = 2;
    pub const TRANSFORMER: u32 = 3;
}

impl ModelZoo {
    /// Load the zoo from `cache_dir` if a cache for this exact
    /// `(config, seed)` exists, otherwise train all models and (best-effort)
    /// save them back. `None` always trains in memory.
    pub fn pretrain(cache_dir: Option<&Path>, config: &ZooConfig, seed: u64) -> ModelZoo {
        if let Some(dir) = cache_dir {
            let path = dir.join(format!("{}.erbf", config.cache_stem(seed)));
            if path.is_file() {
                match ModelZoo::load(&path) {
                    Ok(zoo) => return zoo,
                    Err(e) => eprintln!(
                        "warning: ignoring unreadable zoo cache {}: {e}",
                        path.display()
                    ),
                }
            }
            let zoo = ModelZoo::train_all(config, seed);
            if let Err(e) = zoo.save(&path) {
                eprintln!("warning: could not save zoo cache {}: {e}", path.display());
            }
            zoo
        } else {
            ModelZoo::train_all(config, seed)
        }
    }

    /// Train every implemented model on the synthetic corpus. Sequential by
    /// design: the evaluation machine exposes a single core (DESIGN.md §1).
    pub fn train_all(config: &ZooConfig, seed: u64) -> ModelZoo {
        let corpus = synthetic_corpus(config.corpus_docs, &mut rng(seed));
        let vocab = Vocab::build(&corpus, config.min_count);
        assert!(!vocab.is_empty(), "zoo corpus produced an empty vocabulary");

        let w2v = StaticModel::word2vec(
            &corpus,
            vocab.clone(),
            &SgnsParams {
                dim: config.dim,
                window: config.window,
                negatives: config.negatives,
                epochs: config.w2v_epochs,
                lr: config.lr,
            },
            seed,
        );
        let glove = StaticModel::glove(
            &corpus,
            vocab.clone(),
            &GloveParams {
                dim: config.dim,
                window: config.window,
                epochs: config.glove_epochs,
                lr: config.glove_lr,
                x_max: config.x_max,
                alpha: config.alpha,
            },
            seed,
        );
        let ft = StaticModel::fasttext(
            &corpus,
            vocab.clone(),
            &FastTextParams {
                sgns: SgnsParams {
                    dim: config.dim,
                    window: config.window,
                    negatives: config.negatives,
                    epochs: config.ft_epochs,
                    lr: config.lr,
                },
                nmin: config.nmin,
                nmax: config.nmax,
                buckets: config.buckets,
            },
            seed,
        );
        // The dynamic model shares the static vocabulary plus the reserved
        // mask token, which must never collide with a real corpus token
        // (guaranteed by the tokenizer — see `er_text::MASK_TOKEN`).
        let bt = mlm::pretrain_bt(
            &corpus,
            vocab.with_special(er_text::MASK_TOKEN),
            &MlmParams {
                config: TransformerConfig {
                    dim: config.bt_dim,
                    layers: config.bt_layers,
                    heads: config.bt_heads,
                    ffn: config.bt_ffn,
                    max_len: config.bt_max_len,
                },
                epochs: config.bt_epochs,
                mask_prob: config.bt_mask_prob as f64,
                lr: config.bt_lr,
                clip: 1.0,
            },
            seed,
        );

        ModelZoo {
            models: vec![
                Arc::new(AnyModel::Static(w2v)),
                Arc::new(AnyModel::Static(glove)),
                Arc::new(AnyModel::Static(ft)),
                Arc::new(AnyModel::Transformer(bt)),
            ],
            scale: config.scale.clone(),
            seed,
        }
    }

    pub fn try_get(&self, code: ModelCode) -> Option<&Arc<AnyModel>> {
        self.models.iter().find(|m| m.code() == code)
    }

    /// Fetch a model, panicking with a roster listing if it is not (yet)
    /// implemented — the remaining dynamic models arrive in later PRs.
    pub fn get(&self, code: ModelCode) -> &Arc<AnyModel> {
        self.try_get(code).unwrap_or_else(|| {
            panic!(
                "model {code} ({}) is not in the zoo; available: {:?}",
                code.full_name(),
                self.codes()
            )
        })
    }

    pub fn models(&self) -> &[Arc<AnyModel>] {
        &self.models
    }

    pub fn codes(&self) -> Vec<ModelCode> {
        self.models.iter().map(|m| m.code()).collect()
    }

    pub fn scale(&self) -> &str {
        &self.scale
    }

    pub fn seed(&self) -> u64 {
        self.seed
    }

    /// FNV-1a over the models' fingerprints in roster order (timings
    /// excluded), for cheap bit-identity assertions across runs and
    /// round-trips.
    pub fn fingerprint(&self) -> u64 {
        let bytes: Vec<u8> = self
            .models
            .iter()
            .flat_map(|m| m.fingerprint().to_le_bytes())
            .collect();
        fnv1a64(&bytes)
    }

    /// One `kind::MODEL` container: the header, then each model's code,
    /// config, vocab string table and raw f32 weights.
    fn to_bytes(&self) -> Vec<u8> {
        let mut head = BinWriter::new();
        head.put_str(&self.scale);
        head.put_u64(self.seed);
        let init_ns: Vec<u64> = self
            .models
            .iter()
            .map(|m| m.init_time().as_nanos() as u64)
            .collect();
        head.put_u64_slice(&init_ns);
        let mut sections = vec![(tag::ZOO, head.into_bytes())];
        for model in &self.models {
            let mut w = BinWriter::new();
            let tag = match model.as_ref() {
                AnyModel::Static(m) => {
                    m.to_writer(&mut w);
                    tag::STATIC
                }
                AnyModel::Transformer(m) => {
                    m.to_writer(&mut w);
                    tag::TRANSFORMER
                }
            };
            sections.push((tag, w.into_bytes()));
        }
        binary::write_container(kind::MODEL, 0, &sections)
    }

    /// Inverse of [`ModelZoo::to_bytes`]: every config is validated and
    /// every weight matrix checked against the shape it implies, so a
    /// damaged cache is `ErError::Corrupt` — never a panic.
    fn from_bytes(bytes: &[u8]) -> Result<ModelZoo> {
        let container = binary::read_container(bytes, kind::MODEL)?;
        let [(tag::ZOO, head), bodies @ ..] = container.sections.as_slice() else {
            return Err(ErError::corrupt("zoo cache lacks its header"));
        };
        if bodies.is_empty() {
            return Err(ErError::corrupt("zoo cache holds no models"));
        }
        // One init time per model section.
        let mut head = BinReader::new(head);
        let scale = head.get_str()?;
        let seed = head.get_u64()?;
        let init_ns = head.get_u64s(bodies.len())?;
        head.finish()?;
        let models = bodies
            .iter()
            .zip(init_ns)
            .map(|(&(tag, body), ns)| {
                Ok(Arc::new(match tag {
                    tag::STATIC => AnyModel::Static(StaticModel::from_bytes(body, ns)?),
                    tag::TRANSFORMER => AnyModel::Transformer(Transformer::from_bytes(body, ns)?),
                    other => {
                        return Err(ErError::corrupt(format!("unknown model section {other}")))
                    }
                }))
            })
            .collect::<Result<_>>()?;
        Ok(ModelZoo {
            models,
            scale,
            seed,
        })
    }

    pub fn save(&self, path: &Path) -> Result<()> {
        if let Some(parent) = path.parent() {
            std::fs::create_dir_all(parent)?;
        }
        std::fs::write(path, self.to_bytes())?;
        Ok(())
    }

    pub fn load(path: &Path) -> Result<ModelZoo> {
        ModelZoo::from_bytes(&std::fs::read(path)?)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn tiny_zoo_trains_statics_plus_bt() {
        let zoo = ModelZoo::train_all(&ZooConfig::tiny(), 42);
        assert_eq!(
            zoo.codes(),
            vec![ModelCode::WC, ModelCode::GE, ModelCode::FT, ModelCode::BT]
        );
        for m in zoo.models() {
            // Statics are 48-d; the transformer is 64-d (DESIGN §1).
            let expected = if m.code() == ModelCode::BT { 64 } else { 48 };
            assert_eq!(m.dim(), expected);
            let e = m.embed("restaurant downtown");
            assert_eq!(e.dim(), expected);
            assert!(e.is_finite());
        }
        assert!(zoo.try_get(ModelCode::BT).is_some());
        assert!(zoo.try_get(ModelCode::AT).is_none());
    }

    #[test]
    fn bt_knows_corpus_tokens_but_embeds_oov_to_nothing() {
        let zoo = ModelZoo::train_all(&ZooConfig::tiny(), 42);
        let bt = zoo.get(ModelCode::BT);
        // The mask token rides along in the vocabulary…
        assert!(bt.knows_token(er_text::MASK_TOKEN));
        // …but an unseen token embeds to zeros (no subword fallback).
        assert_eq!(
            bt.embed("zzzzqqqq"),
            Embedding::zeros(bt.dim()),
            "BT must drop OOV tokens, unlike FastText"
        );
    }

    #[test]
    fn cache_stem_depends_on_config_and_seed() {
        let fast = ZooConfig::fast();
        let tiny = ZooConfig::tiny();
        assert_ne!(fast.cache_stem(1), fast.cache_stem(2));
        assert_ne!(fast.cache_stem(1), tiny.cache_stem(1));
        assert!(fast.cache_stem(42).starts_with("zoo-Fast-"));
    }

    #[test]
    #[should_panic(expected = "not in the zoo")]
    fn get_panics_helpfully_for_future_models() {
        let zoo = ModelZoo::train_all(&ZooConfig::tiny(), 1);
        let _ = zoo.get(ModelCode::S5);
    }

    #[test]
    fn embed_into_matches_embed_for_every_model() {
        let zoo = ModelZoo::train_all(&ZooConfig::tiny(), 7);
        // The root golden ledger's probe lists: typos, all-OOV and empty
        // text, then multibyte, short, digit and one 300-char token.
        let long = "zürich".repeat(50);
        let texts = [
            "golden palace grill main street",
            "restaurnat downtwon",
            "golden restaurant goldne restaurnat",
            "zzqx vvkjw",
            "",
            ".,;",
            "Café Zürich naïve",
            "東京 ñandú",
            "a b cd",
            "7 2mp 1080",
            "golden café restaurant",
            &long,
        ];
        for m in zoo.models() {
            for text in texts {
                let e = m.embed(text);
                let mut row = vec![f32::NAN; m.dim()];
                m.embed_into(text, &mut row);
                assert_eq!(
                    row,
                    e.as_slice(),
                    "{} embed_into diverged on {text:?}",
                    m.code()
                );
            }
        }
    }

    /// `bytes` with model section `model` (0 = WC … 3 = BT) edited, then
    /// re-sealed under a valid checksum: damage only the decoder can see.
    fn edited(bytes: &[u8], model: usize, edit: impl FnOnce(&mut Vec<u8>)) -> Vec<u8> {
        let mut sections: Vec<(u32, Vec<u8>)> = binary::read_container(bytes, kind::MODEL)
            .unwrap()
            .sections
            .into_iter()
            .map(|(tag, body)| (tag, body.to_vec()))
            .collect();
        edit(&mut sections[model + 1].1);
        binary::write_container(kind::MODEL, 0, &sections)
    }

    #[test]
    fn damaged_caches_are_corrupt_errors_not_panics() {
        let bytes = ModelZoo::train_all(&ZooConfig::tiny(), 42).to_bytes();
        // A model body opens with its code (8-byte length + 2 letters), then
        // its config: BT's dim, layers, heads, ffn, max_len; a static
        // model's dim, subword flag (1 byte), nmin, nmax, buckets.
        let (wc, ft, bt) = (0, 2, 3);
        let at = |offset: usize, value: u64| {
            move |body: &mut Vec<u8>| body[offset..offset + 8].copy_from_slice(&value.to_le_bytes())
        };
        let cases = [
            ("BT heads 0", edited(&bytes, bt, at(26, 0))),
            ("BT heads not dividing dim", edited(&bytes, bt, at(26, 3))),
            ("BT dim 0", edited(&bytes, bt, at(10, 0))),
            ("BT layers 0", edited(&bytes, bt, at(18, 0))),
            (
                "BT layers past the bytes",
                edited(&bytes, bt, at(18, 1 << 40)),
            ),
            ("BT ffn 0", edited(&bytes, bt, at(34, 0))),
            ("BT max_len 0", edited(&bytes, bt, at(42, 0))),
            ("FT dim 0", edited(&bytes, ft, at(10, 0))),
            ("FT dim off its weights", edited(&bytes, ft, at(10, 47))),
            ("FT nmin > nmax", edited(&bytes, ft, at(19, 6))),
            ("FT buckets 0", edited(&bytes, ft, at(35, 0))),
            (
                "FT buckets off its weights",
                edited(&bytes, ft, at(35, 1 << 40)),
            ),
            ("WC unknown subword flag", edited(&bytes, wc, |b| b[18] = 7)),
            (
                "WC unknown code",
                edited(&bytes, wc, |b| b[8..10].copy_from_slice(b"ZZ")),
            ),
            ("WC trailing byte", edited(&bytes, wc, |b| b.push(0))),
        ];
        for (what, damaged) in &cases {
            assert!(
                matches!(ModelZoo::from_bytes(damaged), Err(ErError::Corrupt(_))),
                "{what} must be Corrupt"
            );
        }
        // A section count the checksum does not cover, sized to abort an
        // unchecked allocation.
        let mut count_bomb = bytes.clone();
        count_bomb[11] ^= 0x80;
        assert!(matches!(
            ModelZoo::from_bytes(&count_bomb),
            Err(ErError::Corrupt(_))
        ));
        // Truncation at every section boundary, and a flipped bit.
        let mut cut = binary::HEADER_LEN;
        for (_, body) in binary::read_container(&bytes, kind::MODEL)
            .unwrap()
            .sections
        {
            assert!(matches!(
                ModelZoo::from_bytes(&bytes[..cut]),
                Err(ErError::Corrupt(_))
            ));
            cut += 12 + body.len();
        }
        assert_eq!(cut, bytes.len());
        let mut flipped = bytes.clone();
        flipped[bytes.len() / 2] ^= 1;
        assert!(matches!(
            ModelZoo::from_bytes(&flipped),
            Err(ErError::Corrupt(_))
        ));
    }
}
