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

use crate::fasttext::FastTextParams;
use crate::glove::GloveParams;
use crate::mlm::{self, MlmParams};
use crate::sgns::SgnsParams;
use crate::transformer::{Transformer, TransformerConfig};
use crate::{LanguageModel, ModelCode, StaticModel, Vocab};
use er_core::binary::{self, fnv1a64, kind, BinReader, BinWriter};
use er_core::json::Json;
use er_core::rng::rng;
use er_core::{Embedding, ErError, Result};
use er_text::corpus::synthetic_corpus;
use er_text::ngram::fnv1a;
use std::path::Path;
use std::sync::Arc;
use std::time::Duration;

/// Hyper-parameters for one zoo pre-training run. The values both presets
/// share are the private constants below.
#[derive(Debug, Clone)]
pub struct ZooConfig {
    /// Human-readable scale label, part of the cache key ("Fast", "Tiny").
    pub scale: String,
    /// Synthetic-corpus size in documents.
    pub corpus_docs: usize,
    pub window: usize,
    pub negatives: usize,
    pub min_count: u32,
    pub w2v_epochs: usize,
    pub glove_epochs: usize,
    pub ft_epochs: usize,
    pub buckets: usize,
    pub bt_layers: usize,
    pub bt_heads: usize,
    pub bt_ffn: usize,
    pub bt_max_len: usize,
    pub bt_epochs: usize,
}

/// Embedding dimension of the static models (paper ratio: 48-d static vs
/// 64-d transformer ≈ the paper's 300 vs 768).
const DIM: usize = 48;
/// SGNS learning rate (Word2Vec and FastText).
const LR: f32 = 0.05;
const GLOVE_LR: f32 = 0.05;
const X_MAX: f32 = 16.0;
const ALPHA: f32 = 0.75;
/// FastText's char-n-gram lengths.
const NMIN: usize = 3;
const NMAX: usize = 5;
/// Transformer (BT) width — 64-d per DESIGN §1 (the paper's 768 scaled to
/// the static models' 48).
const BT_DIM: usize = 64;
const BT_LR: f32 = 1e-3;
/// MLM per-position masking probability (BERT's 0.15).
const BT_MASK_PROB: f32 = 0.15;

impl ZooConfig {
    /// The default scale: trains all three static models in seconds on one
    /// CPU core while leaving enough corpus for meaningful geometry.
    pub fn fast() -> ZooConfig {
        ZooConfig {
            scale: "Fast".into(),
            corpus_docs: 96,
            window: 4,
            negatives: 4,
            min_count: 2,
            w2v_epochs: 4,
            glove_epochs: 12,
            ft_epochs: 3,
            buckets: 4096,
            bt_layers: 2,
            bt_heads: 4,
            bt_ffn: 128,
            bt_max_len: 16,
            bt_epochs: 2,
        }
    }

    /// A miniature scale for unit tests (debug builds train this in well
    /// under a second).
    pub fn tiny() -> ZooConfig {
        ZooConfig {
            scale: "Tiny".into(),
            corpus_docs: 24,
            window: 3,
            negatives: 3,
            min_count: 1,
            w2v_epochs: 2,
            glove_epochs: 6,
            ft_epochs: 2,
            buckets: 1024,
            bt_layers: 1,
            bt_heads: 2,
            bt_ffn: 64,
            bt_max_len: 10,
            bt_epochs: 1,
        }
    }

    /// The cache key: every hyper-parameter, constants included, in one
    /// fixed order.
    fn to_json(&self) -> Json {
        Json::Obj(vec![
            ("scale".into(), Json::from_str_value(&self.scale)),
            ("corpus_docs".into(), Json::from_usize(self.corpus_docs)),
            ("dim".into(), Json::from_usize(DIM)),
            ("window".into(), Json::from_usize(self.window)),
            ("negatives".into(), Json::from_usize(self.negatives)),
            ("min_count".into(), Json::from_u64(self.min_count as u64)),
            ("w2v_epochs".into(), Json::from_usize(self.w2v_epochs)),
            ("glove_epochs".into(), Json::from_usize(self.glove_epochs)),
            ("ft_epochs".into(), Json::from_usize(self.ft_epochs)),
            ("lr".into(), Json::from_f32(LR)),
            ("glove_lr".into(), Json::from_f32(GLOVE_LR)),
            ("x_max".into(), Json::from_f32(X_MAX)),
            ("alpha".into(), Json::from_f32(ALPHA)),
            ("nmin".into(), Json::from_usize(NMIN)),
            ("nmax".into(), Json::from_usize(NMAX)),
            ("buckets".into(), Json::from_usize(self.buckets)),
            ("bt_dim".into(), Json::from_usize(BT_DIM)),
            ("bt_layers".into(), Json::from_usize(self.bt_layers)),
            ("bt_heads".into(), Json::from_usize(self.bt_heads)),
            ("bt_ffn".into(), Json::from_usize(self.bt_ffn)),
            ("bt_max_len".into(), Json::from_usize(self.bt_max_len)),
            ("bt_epochs".into(), Json::from_usize(self.bt_epochs)),
            ("bt_lr".into(), Json::from_f32(BT_LR)),
            ("bt_mask_prob".into(), Json::from_f32(BT_MASK_PROB)),
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

/// The pre-trained roster: one model per [`ModelCode`], in
/// [`ModelCode::ALL`] order (checked when a cache loads), so
/// [`ModelZoo::get`] is total.
#[derive(Debug, Clone)]
pub struct ModelZoo {
    models: [Arc<AnyModel>; ModelCode::ALL.len()],
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

    /// Train every model on the synthetic corpus. Sequential by design: the
    /// evaluation machine exposes a single core (DESIGN.md §1).
    fn train_all(config: &ZooConfig, seed: u64) -> ModelZoo {
        let corpus = synthetic_corpus(config.corpus_docs, &mut rng(seed));
        let vocab = Vocab::build(&corpus, config.min_count);
        assert!(!vocab.is_empty(), "zoo corpus produced an empty vocabulary");

        let w2v = StaticModel::word2vec(
            &corpus,
            vocab.clone(),
            &SgnsParams {
                dim: DIM,
                window: config.window,
                negatives: config.negatives,
                epochs: config.w2v_epochs,
                lr: LR,
            },
            seed,
        );
        let glove = StaticModel::glove(
            &corpus,
            vocab.clone(),
            &GloveParams {
                dim: DIM,
                window: config.window,
                epochs: config.glove_epochs,
                lr: GLOVE_LR,
                x_max: X_MAX,
                alpha: ALPHA,
            },
            seed,
        );
        let ft = StaticModel::fasttext(
            &corpus,
            vocab.clone(),
            &FastTextParams {
                sgns: SgnsParams {
                    dim: DIM,
                    window: config.window,
                    negatives: config.negatives,
                    epochs: config.ft_epochs,
                    lr: LR,
                },
                nmin: NMIN,
                nmax: NMAX,
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
                    dim: BT_DIM,
                    layers: config.bt_layers,
                    heads: config.bt_heads,
                    ffn: config.bt_ffn,
                    max_len: config.bt_max_len,
                },
                epochs: config.bt_epochs,
                mask_prob: BT_MASK_PROB as f64,
                lr: BT_LR,
                clip: 1.0,
            },
            seed,
        );

        ModelZoo {
            models: [
                Arc::new(AnyModel::Static(w2v)),
                Arc::new(AnyModel::Static(glove)),
                Arc::new(AnyModel::Static(ft)),
                Arc::new(AnyModel::Transformer(bt)),
            ],
            scale: config.scale.clone(),
            seed,
        }
    }

    /// The model for `code`: slot `code as usize`, since the roster is in
    /// [`ModelCode::ALL`] order.
    pub fn get(&self, code: ModelCode) -> &Arc<AnyModel> {
        &self.models[code as usize]
    }

    pub fn models(&self) -> &[Arc<AnyModel>] {
        &self.models
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
    /// every weight matrix checked against the shape it implies, and the
    /// sections must be the roster — WC, GE, FT as static models, then BT
    /// as the transformer — so a damaged or foreign cache is
    /// `ErError::Corrupt`, never a panic.
    fn from_bytes(bytes: &[u8]) -> Result<ModelZoo> {
        let container = binary::read_container(bytes, kind::MODEL)?;
        let [(tag::ZOO, head), bodies @ ..] = container.sections.as_slice() else {
            return Err(ErError::corrupt("zoo cache lacks its header"));
        };
        let bodies: &[_; ModelCode::ALL.len()] = bodies.try_into().map_err(|_| {
            ErError::corrupt(format!(
                "zoo cache holds {} model sections, the roster has {}",
                bodies.len(),
                ModelCode::ALL.len()
            ))
        })?;
        // One init time per model section.
        let mut head = BinReader::new(head);
        let scale = head.get_str()?;
        let seed = head.get_u64()?;
        let init_ns = head.get_u64s(bodies.len())?;
        head.finish()?;
        let [wc, ge, ft, bt] = ModelCode::ALL
            .map(|code| decode_model(code, bodies[code as usize], init_ns[code as usize]));
        Ok(ModelZoo {
            models: [wc?, ge?, ft?, bt?],
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

/// Decode the cache section of roster slot `code`: its tag must be the
/// code's family and its body must name the code.
fn decode_model(code: ModelCode, (tag, body): (u32, &[u8]), init_ns: u64) -> Result<Arc<AnyModel>> {
    let model = match (code, tag) {
        (ModelCode::BT, tag::TRANSFORMER) => {
            AnyModel::Transformer(Transformer::from_bytes(body, init_ns)?)
        }
        (ModelCode::WC | ModelCode::GE | ModelCode::FT, tag::STATIC) => {
            AnyModel::Static(StaticModel::from_bytes(body, init_ns)?)
        }
        _ => {
            return Err(ErError::corrupt(format!(
                "zoo cache: the {code} section has tag {tag}"
            )))
        }
    };
    if model.code() != code {
        return Err(ErError::corrupt(format!(
            "zoo cache: the {code} section holds {}",
            model.code()
        )));
    }
    Ok(Arc::new(model))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn tiny_zoo_trains_statics_plus_bt() {
        let zoo = ModelZoo::train_all(&ZooConfig::tiny(), 42);
        let codes: Vec<ModelCode> = zoo.models().iter().map(|m| m.code()).collect();
        assert_eq!(codes, ModelCode::ALL);
        for m in zoo.models() {
            // Statics are 48-d; the transformer is 64-d (DESIGN §1).
            let expected = if m.code() == ModelCode::BT { 64 } else { 48 };
            assert_eq!(m.dim(), expected);
            let e = m.embed("restaurant downtown");
            assert_eq!(e.dim(), expected);
            assert!(e.is_finite());
        }
        for code in ModelCode::ALL {
            assert_eq!(zoo.get(code).code(), code);
        }
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
            (
                "WC section naming GE",
                edited(&bytes, wc, |b| b[8..10].copy_from_slice(b"GE")),
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
