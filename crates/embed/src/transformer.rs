//! From-scratch transformer encoder over the `er-tensor` autograd engine
//! (paper model **BT**; DESIGN.md inventory row 6), with a tape-free
//! inference path.
//!
//! Architecture (a miniature BERT, sized per DESIGN §1's 64-d budget):
//! token embeddings + fixed sinusoidal positional encodings, then
//! pre-LN encoder blocks — `x + MHA(LN(x))` followed by `x + FFN(LN(x))`
//! with GELU — and a final layer-norm. Multi-head attention keeps one
//! `dim × head_dim` projection triple per head (no reshape ops needed on
//! 2-D tensors); scores are scaled by `1/√head_dim`. Sentence embeddings
//! are **mean-pooled final-layer token states**, exactly the raw
//! "feature-extraction" usage whose anisotropy the paper measures —
//! no fine-tuning, no CLS head.
//!
//! Like the static models, everything is deterministic: weights come from
//! one seed-derived RNG stream (in declaration order), the forward pass is
//! sequential f32 arithmetic, and the zoo cache stores the weights as raw
//! f32 runs in the fixed [`Transformer::param_tensors`] order.
//!
//! Two forward passes compute the same floats. MLM training binds the
//! weights into a [`Graph`] (`Transformer::bind` + `Transformer::encode`)
//! so it can run backward. Inference (`embed_into`) reads the weights in
//! place, with no tape and no gradient storage: each layer's per-head Q/K/V
//! projections are packed side by side into one `dim × 3·dim` matrix, and
//! the positional encodings are one `max_len × dim` table. Both tables are
//! derived from the weights by `Transformer::seal` and on cache load, and
//! never saved, so the cache bytes and the fingerprint do not see them.
//! Every activation of one call lives in one scratch vector. Both passes
//! use `er-tensor`'s shared op bodies (`ops`, `tensor::matmul_into`) in the
//! same order, and packing leaves each output column's k-sum unchanged, so
//! inference reproduces the tape bit for bit (pinned by the
//! `inference_matches_the_tape_bit_for_bit` tests below).

use crate::vocab::Vocab;
use crate::{read_code, LanguageModel, ModelCode};
use er_core::binary::{fnv1a64, BinReader, BinWriter};
use er_core::{kernels, Embedding, ErError, Result};
use er_tensor::ops::{gelu_scalar, layer_norm_rows, mean_rows_into, softmax_rows};
use er_tensor::tensor::matmul_into;
use er_tensor::{Graph, Tensor, Var};
use er_text::{normalize, tokens};
use rand::RngCore;
use std::time::Duration;

/// Shape of the encoder. Every field is part of the zoo cache key.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct TransformerConfig {
    /// Model width (64 per DESIGN §1 — the paper's 768 scaled down).
    pub dim: usize,
    /// Number of encoder blocks.
    pub layers: usize,
    /// Attention heads; must divide `dim`.
    pub heads: usize,
    /// FFN inner width.
    pub ffn: usize,
    /// Maximum sequence length; longer token lists are truncated.
    pub max_len: usize,
}

impl TransformerConfig {
    pub fn head_dim(&self) -> usize {
        assert!(
            self.heads > 0 && self.dim.is_multiple_of(self.heads),
            "heads ({}) must divide dim ({})",
            self.heads,
            self.dim
        );
        self.dim / self.heads
    }

    fn fields(&self) -> [usize; 5] {
        [self.dim, self.layers, self.heads, self.ffn, self.max_len]
    }
}

/// One pre-LN encoder block's parameters.
#[derive(Debug, Clone)]
struct EncoderLayer<T> {
    ln1_gamma: T,
    ln1_beta: T,
    /// Per-head projections, each `dim × head_dim`.
    wq: Vec<T>,
    wk: Vec<T>,
    wv: Vec<T>,
    wo: T,
    ln2_gamma: T,
    ln2_beta: T,
    w1: T,
    b1: T,
    w2: T,
    b2: T,
}

/// Initialization scale for weight matrices (BERT's 0.02).
const INIT_SCALE: f32 = 0.02;

/// How a fresh parameter starts: layer-norm gains at 1, biases at 0,
/// matrices random at scale [`INIT_SCALE`]. Loading and binding ignore it.
#[derive(Clone, Copy)]
enum Init {
    Ones,
    Zeros,
    Random,
}

impl<T> EncoderLayer<T> {
    fn build(
        config: &TransformerConfig,
        make: &mut impl FnMut(usize, usize, Init) -> Result<T>,
    ) -> Result<EncoderLayer<T>> {
        let (d, h, hd, f) = (config.dim, config.heads, config.head_dim(), config.ffn);
        Ok(EncoderLayer {
            ln1_gamma: make(1, d, Init::Ones)?,
            ln1_beta: make(1, d, Init::Zeros)?,
            wq: (0..h)
                .map(|_| make(d, hd, Init::Random))
                .collect::<Result<_>>()?,
            wk: (0..h)
                .map(|_| make(d, hd, Init::Random))
                .collect::<Result<_>>()?,
            wv: (0..h)
                .map(|_| make(d, hd, Init::Random))
                .collect::<Result<_>>()?,
            wo: make(d, d, Init::Random)?,
            ln2_gamma: make(1, d, Init::Ones)?,
            ln2_beta: make(1, d, Init::Zeros)?,
            w1: make(d, f, Init::Random)?,
            b1: make(1, f, Init::Zeros)?,
            w2: make(f, d, Init::Random)?,
            b2: make(1, d, Init::Zeros)?,
        })
    }
}

fn ones(rows: usize, cols: usize) -> Tensor {
    Tensor::from_rows(rows, cols, &vec![1.0; rows * cols])
}

/// Every parameter of the encoder — weight tensors in a [`Transformer`],
/// graph handles once bound into a [`Graph`] — in the one fixed order that
/// [`Params::build`] creates them in and [`Params::list`] returns them in:
/// the order shared by the optimizer, the zoo cache and the RNG stream.
#[derive(Debug, Clone)]
pub(crate) struct Params<T> {
    /// Token embedding table, `vocab.len() × dim`. Also the (weight-tied)
    /// MLM output head.
    pub(crate) token_embed: T,
    layers: Vec<EncoderLayer<T>>,
    final_gamma: T,
    final_beta: T,
}

/// `Var` handles for every parameter of a [`Transformer`] bound into one
/// [`Graph`].
pub(crate) type BoundTransformer = Params<Var>;

impl<T> Params<T> {
    /// Every parameter from `make(rows, cols, init)`, called in order.
    fn build(
        config: &TransformerConfig,
        vocab_len: usize,
        make: &mut impl FnMut(usize, usize, Init) -> Result<T>,
    ) -> Result<Params<T>> {
        let d = config.dim;
        Ok(Params {
            token_embed: make(vocab_len, d, Init::Random)?,
            layers: (0..config.layers)
                .map(|_| EncoderLayer::build(config, make))
                .collect::<Result<_>>()?,
            final_gamma: make(1, d, Init::Ones)?,
            final_beta: make(1, d, Init::Zeros)?,
        })
    }

    /// Every parameter, in [`Params::build`] order.
    pub(crate) fn list(&self) -> Vec<&T> {
        let mut out = vec![&self.token_embed];
        for l in &self.layers {
            out.extend([&l.ln1_gamma, &l.ln1_beta]);
            out.extend(l.wq.iter().chain(&l.wk).chain(&l.wv));
            out.extend([&l.wo, &l.ln2_gamma, &l.ln2_beta, &l.w1, &l.b1, &l.w2, &l.b2]);
        }
        out.extend([&self.final_gamma, &self.final_beta]);
        out
    }

    fn list_mut(&mut self) -> Vec<&mut T> {
        let mut out = vec![&mut self.token_embed];
        for l in &mut self.layers {
            out.extend([&mut l.ln1_gamma, &mut l.ln1_beta]);
            out.extend(l.wq.iter_mut().chain(&mut l.wk).chain(&mut l.wv));
            out.extend([
                &mut l.wo,
                &mut l.ln2_gamma,
                &mut l.ln2_beta,
                &mut l.w1,
                &mut l.b1,
                &mut l.w2,
                &mut l.b2,
            ]);
        }
        out.extend([&mut self.final_gamma, &mut self.final_beta]);
        out
    }
}

/// Inference-only tables derived from the config and weights. Built by
/// [`Transformer::seal`] and [`Transformer::from_bytes`] — before any
/// embed — and never saved.
#[derive(Debug, Clone)]
struct Derived {
    /// Per layer, one `dim × 3·dim` matrix: every head's `wq` side by side,
    /// then every head's `wk`, then every head's `wv`.
    qkv: Vec<Tensor>,
    /// `positional_encoding(max_len, dim)`.
    pe: Tensor,
}

impl Derived {
    fn build(config: &TransformerConfig, params: &Params<Tensor>) -> Derived {
        let (d, hd) = (config.dim, config.head_dim());
        let qkv = params
            .layers
            .iter()
            .map(|l| {
                let mut packed = Tensor::zeros(d, 3 * d);
                let rows = packed.data_mut().chunks_exact_mut(3 * d);
                for (r, prow) in rows.enumerate() {
                    let heads = l.wq.iter().chain(&l.wk).chain(&l.wv);
                    for (slot, w) in prow.chunks_exact_mut(hd).zip(heads) {
                        slot.copy_from_slice(w.row(r));
                    }
                }
                packed
            })
            .collect();
        Derived {
            qkv,
            pe: positional_encoding(config.max_len, d),
        }
    }
}

/// The encoder plus its vocabulary; the first *dynamic* model in the zoo.
#[derive(Debug, Clone)]
pub struct Transformer {
    code: ModelCode,
    vocab: Vocab,
    config: TransformerConfig,
    params: Params<Tensor>,
    derived: Derived,
    init_ns: u64,
    /// FNV-1a over the saved config, vocab and weights (see
    /// [`LanguageModel::fingerprint`]), refreshed by [`Transformer::seal`].
    fingerprint: u64,
}

impl Transformer {
    /// Fresh random weights from `rng` (one stream, declaration order):
    /// matrices at scale `INIT_SCALE` (0.02), layer-norm gains at 1, biases 0.
    pub fn init(
        code: ModelCode,
        vocab: Vocab,
        config: TransformerConfig,
        rng: &mut impl RngCore,
    ) -> Transformer {
        let params = Params::build(&config, vocab.len(), &mut |rows, cols, init| {
            Ok(match init {
                Init::Ones => ones(rows, cols),
                Init::Zeros => Tensor::zeros(rows, cols),
                Init::Random => Tensor::randn(rows, cols, INIT_SCALE, rng),
            })
        })
        .expect("fresh initialization reads nothing that can fail");
        let mut model = Transformer {
            code,
            vocab,
            config,
            params,
            // Filled by `seal` below.
            derived: Derived {
                qkv: Vec::new(),
                pe: Tensor::zeros(0, 0),
            },
            init_ns: 0,
            fingerprint: 0,
        };
        model.seal(0);
        model
    }

    pub fn vocab(&self) -> &Vocab {
        &self.vocab
    }

    pub fn config(&self) -> &TransformerConfig {
        &self.config
    }

    /// Record the training time, fingerprint the final weights and rebuild
    /// the inference tables — once, after the last update, so no query or
    /// save hashes or packs them again.
    pub(crate) fn seal(&mut self, init_ns: u64) {
        self.init_ns = init_ns;
        self.derived = Derived::build(&self.config, &self.params);
        let mut w = BinWriter::new();
        self.to_writer(&mut w);
        self.fingerprint = fnv1a64(&w.into_bytes());
    }

    /// Every parameter tensor in one fixed order — the contract shared by
    /// the optimizer, the zoo cache and graph binding.
    pub fn param_tensors(&self) -> Vec<&Tensor> {
        self.params.list()
    }

    /// Mutable view in [`Transformer::param_tensors`] order (training only:
    /// call [`Transformer::seal`] after the last update).
    pub(crate) fn param_tensors_mut(&mut self) -> Vec<&mut Tensor> {
        self.params.list_mut()
    }

    /// Copy every parameter into `g` as leaves and hand back the `Var`s
    /// (MLM training; inference reads the weights in place).
    pub(crate) fn bind(&self, g: &mut Graph) -> BoundTransformer {
        let mut tensors = self.param_tensors().into_iter();
        Params::build(&self.config, self.vocab.len(), &mut |_, _, _| {
            Ok(g.param(tensors.next().expect("bind walks param_tensors")))
        })
        .expect("binding reads nothing that can fail")
    }

    /// Run the encoder over a (non-empty, pre-truncated) id sequence inside
    /// `g`, returning the `len × dim` final-layer-norm hidden states.
    pub(crate) fn encode(&self, g: &mut Graph, bound: &BoundTransformer, ids: &[u32]) -> Var {
        assert!(!ids.is_empty(), "encode of an empty sequence");
        assert!(ids.len() <= self.config.max_len, "sequence not truncated");
        let idx: Vec<usize> = ids.iter().map(|&i| i as usize).collect();
        let embedded = g.gather(bound.token_embed, &idx);
        let pe = g.constant(positional_encoding(idx.len(), self.config.dim));
        let mut x = g.add(embedded, pe);
        let scale = 1.0 / (self.config.head_dim() as f32).sqrt();
        for l in &bound.layers {
            // x ← x + MHA(LN(x))
            let h = g.layer_norm(x, l.ln1_gamma, l.ln1_beta);
            let mut heads = Vec::with_capacity(l.wq.len());
            for ((wq, wk), wv) in l.wq.iter().zip(&l.wk).zip(&l.wv) {
                let q = g.matmul(h, *wq);
                let k = g.matmul(h, *wk);
                let v = g.matmul(h, *wv);
                let scores = g.matmul_nt(q, k);
                let scaled = g.scale(scores, scale);
                let att = g.softmax(scaled);
                heads.push(g.matmul(att, v));
            }
            let cat = g.concat_cols(&heads);
            let proj = g.matmul(cat, l.wo);
            x = g.add(x, proj);
            // x ← x + FFN(LN(x))
            let h2 = g.layer_norm(x, l.ln2_gamma, l.ln2_beta);
            let pre = g.matmul(h2, l.w1);
            let pre_b = g.add_row(pre, l.b1);
            let act = g.gelu(pre_b);
            let ff = g.matmul(act, l.w2);
            let ff_b = g.add_row(ff, l.b2);
            x = g.add(x, ff_b);
        }
        g.layer_norm(x, bound.final_gamma, bound.final_beta)
    }

    /// Vocabulary ids of `text`'s tokens (OOV dropped, like the static
    /// models), truncated to `max_len` — the inference-side tokenization.
    /// Allocates the normalized string and the id list, nothing else.
    fn token_ids(&self, text: &str) -> Vec<u32> {
        let normalized = normalize(text);
        let mut ids = Vec::with_capacity(self.config.max_len);
        ids.extend(
            tokens(&normalized)
                .filter_map(|t| self.vocab.id(t))
                .take(self.config.max_len),
        );
        ids
    }

    /// The tape-free inference body: [`Transformer::encode`]'s forward pass
    /// over a (non-empty, pre-truncated) id sequence, mean-pooled into
    /// `out`, with the same float expressions in the same order. Weights
    /// are borrowed; every activation lives in one scratch vector.
    fn forward_into(&self, ids: &[u32], out: &mut [f32]) {
        debug_assert!(!ids.is_empty() && ids.len() <= self.config.max_len);
        let (n, d, f) = (ids.len(), self.config.dim, self.config.ffn);
        let hd = self.config.head_dim();
        let scale = 1.0 / (hd as f32).sqrt();
        let mut arena = vec![0.0f32; n * (6 * d + n + 2 * hd + f)];
        let (x, rest) = arena.split_at_mut(n * d);
        let (h, rest) = rest.split_at_mut(n * d);
        let (qkv, rest) = rest.split_at_mut(n * 3 * d);
        let (cat, rest) = rest.split_at_mut(n * d);
        let (scores, rest) = rest.split_at_mut(n * n);
        let (v, rest) = rest.split_at_mut(n * hd);
        let (head, ffn) = rest.split_at_mut(n * hd);

        let pe = self.derived.pe.data().chunks_exact(d);
        for ((xr, &id), per) in x.chunks_exact_mut(d).zip(ids).zip(pe) {
            let embedded = self.params.token_embed.row(id as usize);
            for ((xv, &e), &p) in xr.iter_mut().zip(embedded).zip(per) {
                *xv = e + p;
            }
        }
        for (l, packed) in self.params.layers.iter().zip(&self.derived.qkv) {
            // x ← x + MHA(LN(x)), all heads' q|k|v from one product.
            layer_norm_rows(x, l.ln1_gamma.data(), l.ln1_beta.data(), h);
            matmul_into(h, n, d, packed.data(), 3 * d, qkv);
            for hi in 0..l.wq.len() {
                let (q0, k0, v0) = (hi * hd, d + hi * hd, 2 * d + hi * hd);
                for (srow, qrow) in scores.chunks_exact_mut(n).zip(qkv.chunks_exact(3 * d)) {
                    let q = &qrow[q0..q0 + hd];
                    for (s, krow) in srow.iter_mut().zip(qkv.chunks_exact(3 * d)) {
                        *s = kernels::dot(q, &krow[k0..k0 + hd]) * scale;
                    }
                }
                softmax_rows(scores, n);
                for (vr, row) in v.chunks_exact_mut(hd).zip(qkv.chunks_exact(3 * d)) {
                    vr.copy_from_slice(&row[v0..v0 + hd]);
                }
                matmul_into(scores, n, n, v, hd, head);
                for (cr, hr) in cat.chunks_exact_mut(d).zip(head.chunks_exact(hd)) {
                    cr[q0..q0 + hd].copy_from_slice(hr);
                }
            }
            matmul_into(cat, n, d, l.wo.data(), d, h);
            for (xv, &p) in x.iter_mut().zip(h.iter()) {
                *xv += p;
            }
            // x ← x + FFN(LN(x)), biases added where the tape adds them.
            layer_norm_rows(x, l.ln2_gamma.data(), l.ln2_beta.data(), h);
            matmul_into(h, n, d, l.w1.data(), f, ffn);
            for row in ffn.chunks_exact_mut(f) {
                for (a, &b) in row.iter_mut().zip(l.b1.data()) {
                    *a = gelu_scalar(*a + b);
                }
            }
            matmul_into(ffn, n, f, l.w2.data(), d, cat);
            for (xr, fr) in x.chunks_exact_mut(d).zip(cat.chunks_exact(d)) {
                for ((xv, &fv), &b) in xr.iter_mut().zip(fr).zip(l.b2.data()) {
                    *xv += fv + b;
                }
            }
        }
        let (gamma, beta) = (
            self.params.final_gamma.data(),
            self.params.final_beta.data(),
        );
        layer_norm_rows(x, gamma, beta, h);
        mean_rows_into(h, n, out);
    }

    /// Code, config, vocab and every parameter as a raw little-endian f32
    /// run — the bytes a zoo cache stores and the fingerprint covers.
    pub(crate) fn to_writer(&self, w: &mut BinWriter) {
        w.put_str(self.code.as_str());
        for v in self.config.fields() {
            w.put_usize(v);
        }
        self.vocab.to_writer(w);
        for t in self.param_tensors() {
            w.put_f32_slice(t.data());
        }
    }

    /// Inverse of [`Transformer::to_writer`] over one whole body. The
    /// config is validated first and each tensor is checked against the
    /// shape it implies as it is read, so a damaged cache is
    /// `ErError::Corrupt` — never a panic, and never an allocation larger
    /// than the bytes present. `max_len` sizes no saved tensor, only the
    /// derived positional table (`max_len × dim`), so a config whose table
    /// would outgrow the weights it came with is `Corrupt` too.
    pub(crate) fn from_bytes(body: &[u8], init_ns: u64) -> Result<Transformer> {
        let mut r = BinReader::new(body);
        let code = read_code(&mut r)?;
        let mut field = || r.get_usize();
        let config = TransformerConfig {
            dim: field()?,
            layers: field()?,
            heads: field()?,
            ffn: field()?,
            max_len: field()?,
        };
        if config.fields().contains(&0) || !config.dim.is_multiple_of(config.heads) {
            return Err(ErError::corrupt(format!(
                "{code}: invalid config {config:?}"
            )));
        }
        let vocab = Vocab::from_reader(&mut r)?;
        let params = Params::build(&config, vocab.len(), &mut |rows, cols, _| {
            Ok(Tensor::from_rows(rows, cols, &r.get_matrix(rows, cols)?))
        })?;
        r.finish()?;
        let weights: usize = params.list().iter().map(|t| t.data().len()).sum();
        if config.max_len > weights / config.dim {
            return Err(ErError::corrupt(format!(
                "{code}: max_len {} exceeds the {weights} weights present",
                config.max_len
            )));
        }
        Ok(Transformer {
            derived: Derived::build(&config, &params),
            code,
            vocab,
            config,
            params,
            init_ns,
            fingerprint: fnv1a64(body),
        })
    }
}

impl LanguageModel for Transformer {
    fn code(&self) -> ModelCode {
        self.code
    }

    fn dim(&self) -> usize {
        self.config.dim
    }

    fn init_time(&self) -> Duration {
        Duration::from_nanos(self.init_ns)
    }

    fn fingerprint(&self) -> u64 {
        self.fingerprint
    }

    fn embed(&self, text: &str) -> Embedding {
        let mut v = vec![0.0f32; self.config.dim];
        self.embed_into(text, &mut v);
        Embedding(v)
    }

    /// Mean-pooled final hidden states of `text`'s in-vocabulary tokens,
    /// through the tape-free forward pass; a record with none embeds to
    /// the zero vector (the all-OOV contract every zoo model shares).
    /// Allocates the normalized string, the id list and one scratch
    /// vector.
    fn embed_into(&self, text: &str, out: &mut [f32]) {
        debug_assert_eq!(out.len(), self.config.dim, "embed_into row/dim mismatch");
        let ids = self.token_ids(text);
        if ids.is_empty() {
            out.fill(0.0);
            return;
        }
        self.forward_into(&ids, out);
    }
}

/// Fixed sinusoidal positional encodings (Vaswani et al. 2017):
/// `pe[p, 2i] = sin(p / 10000^(2i/dim))`, `pe[p, 2i+1] = cos(·)`.
pub fn positional_encoding(len: usize, dim: usize) -> Tensor {
    let mut pe = Tensor::zeros(len, dim);
    for p in 0..len {
        for i in 0..dim {
            let exponent = 2.0 * (i / 2) as f32 / dim as f32;
            let angle = p as f32 / 10_000f32.powf(exponent);
            pe.set(p, i, if i % 2 == 0 { angle.sin() } else { angle.cos() });
        }
    }
    pe
}

#[cfg(test)]
mod tests {
    use super::*;
    use er_core::rng::rng;
    use er_text::Corpus;

    fn toy() -> Transformer {
        let mut c = Corpus::new();
        c.push_text("golden palace grill downtown");
        c.push_text("royal garden cafe uptown");
        let vocab = Vocab::build(&c, 1).with_special(er_text::MASK_TOKEN);
        let config = TransformerConfig {
            dim: 8,
            layers: 2,
            heads: 2,
            ffn: 16,
            max_len: 6,
        };
        Transformer::init(ModelCode::BT, vocab, config, &mut rng(5))
    }

    /// A model at the fast zoo's BT shape (64-d, 4 heads, 2 layers, ffn
    /// 128, max_len 16) over the words `w0 … w23`.
    fn fast_shape() -> Transformer {
        let mut c = Corpus::new();
        c.push_text(&(0..24).map(|i| format!("w{i} ")).collect::<String>());
        let vocab = Vocab::build(&c, 1).with_special(er_text::MASK_TOKEN);
        let config = TransformerConfig {
            dim: 64,
            layers: 2,
            heads: 4,
            ffn: 128,
            max_len: 16,
        };
        Transformer::init(ModelCode::BT, vocab, config, &mut rng(9))
    }

    /// Overwrite every weight with seeded noise at `scale` — biases and
    /// layer-norm parameters included, so every term of the forward pass
    /// is live — and reseal.
    fn randomize(t: &mut Transformer, scale: f32, seed: u64) {
        let mut r = rng(seed);
        for p in t.param_tensors_mut() {
            *p = Tensor::randn(p.rows(), p.cols(), scale, &mut r);
        }
        t.seal(0);
    }

    /// The taped oracle: `encode` + `mean_pool` inside a fresh `Graph`.
    fn taped(t: &Transformer, ids: &[u32]) -> Vec<f32> {
        if ids.is_empty() {
            return vec![0.0; t.config.dim];
        }
        let mut g = Graph::new();
        let bound = t.bind(&mut g);
        let hidden = t.encode(&mut g, &bound, ids);
        let pooled = g.mean_pool(hidden);
        g.value(pooled).data().to_vec()
    }

    fn bits(v: &[f32]) -> Vec<u32> {
        v.iter().map(|x| x.to_bits()).collect()
    }

    /// `embed` and `embed_into` agree with the tape bit for bit on `texts`.
    fn assert_matches_tape(t: &Transformer, texts: &[String]) {
        for text in texts {
            let want = bits(&taped(t, &t.token_ids(text)));
            let got = t.embed(text);
            assert!(got.is_finite(), "embed({text:?}) is not finite");
            assert_eq!(bits(got.as_slice()), want, "embed({text:?})");
            let mut row = vec![f32::NAN; t.config.dim];
            t.embed_into(text, &mut row);
            assert_eq!(bits(&row), want, "embed_into({text:?})");
        }
    }

    /// One token, a repeated token, exactly `max_len` tokens, more than
    /// `max_len` (truncation), all-OOV and empty, over `words`.
    fn edge_inputs(words: &[&str], max_len: usize) -> Vec<String> {
        let run = |n: usize| -> String {
            (0..n)
                .map(|i| words[i % words.len()])
                .collect::<Vec<_>>()
                .join(" ")
        };
        vec![
            words[0].to_string(),
            format!("{0} {0} {0}", words[1]),
            run(max_len),
            run(max_len + 5),
            "zzz qqq www".to_string(),
            String::new(),
        ]
    }

    #[test]
    fn inference_matches_the_tape_bit_for_bit_on_the_toy_model() {
        let t = toy();
        let words = ["golden", "palace", "grill", "downtown", "royal", "cafe"];
        let mut texts = edge_inputs(&words, t.config.max_len);
        texts.push("Royal  GARDEN, cafe — uptown!".to_string());
        assert_matches_tape(&t, &texts);
    }

    #[test]
    fn inference_matches_the_tape_bit_for_bit_at_the_fast_zoo_shape() {
        let mut t = fast_shape();
        let words: Vec<String> = (0..24).map(|i| format!("w{i}")).collect();
        let words: Vec<&str> = words.iter().map(String::as_str).collect();
        let mut texts = edge_inputs(&words, t.config.max_len);
        texts.push("w3 unknown w17 w3 w0 w22 w9".to_string());
        // At init (0.02-scale matrices, unit gains, zero biases), then with
        // every weight random; at scale 1.5 some attention probabilities
        // underflow to exactly zero, which exercises the product's
        // zero-skip.
        assert_matches_tape(&t, &texts);
        for (scale, seed) in [(0.5, 17), (1.5, 18)] {
            randomize(&mut t, scale, seed);
            assert_matches_tape(&t, &texts);
        }
    }

    #[test]
    fn edited_and_resealed_weights_reach_inference() {
        let mut t = toy();
        let text = "golden palace grill downtown";
        let before = t.embed(text);
        randomize(&mut t, 0.3, 23);
        let after = t.embed(text);
        assert_ne!(before, after, "seal must rebuild the inference tables");
        assert_matches_tape(&t, &[text.to_string()]);
    }

    #[test]
    fn cache_load_rejects_a_positional_table_larger_than_the_weights() {
        let mut t = toy();
        let mut w = BinWriter::new();
        t.to_writer(&mut w);
        let loaded = Transformer::from_bytes(&w.into_bytes(), 0).expect("round trip");
        assert_eq!(loaded.embed("royal garden"), t.embed("royal garden"));
        t.config.max_len = 1 << 40;
        let mut w = BinWriter::new();
        t.to_writer(&mut w);
        let err = Transformer::from_bytes(&w.into_bytes(), 0).unwrap_err();
        assert!(matches!(err, ErError::Corrupt(_)), "{err:?}");
    }

    #[test]
    fn embeds_deterministically_at_declared_dim() {
        let t = toy();
        let a = t.embed("golden palace grill");
        let b = t.embed("golden palace grill");
        assert_eq!(a, b);
        assert_eq!(a.dim(), 8);
        assert!(a.is_finite());
        assert!(a.as_slice().iter().any(|&x| x != 0.0));
    }

    #[test]
    fn empty_and_oov_text_embed_to_zeros() {
        let t = toy();
        assert_eq!(t.embed(""), Embedding::zeros(8));
        assert_eq!(t.embed("zzz qqq www"), Embedding::zeros(8));
    }

    #[test]
    fn embed_into_matches_embed() {
        let t = toy();
        let via_embed = t.embed("royal garden cafe");
        let mut row = vec![7.0f32; 8];
        t.embed_into("royal garden cafe", &mut row);
        assert_eq!(row, via_embed.as_slice());
        t.embed_into("", &mut row);
        assert!(row.iter().all(|&x| x == 0.0));
    }

    #[test]
    fn long_inputs_truncate_to_max_len() {
        let t = toy();
        // 8 known tokens, max_len 6: must not panic, must differ from the
        // first 5 tokens alone (6th token still contributes).
        let long = "golden palace grill downtown royal garden cafe uptown";
        let e = t.embed(long);
        assert!(e.is_finite());
        let first_six = "golden palace grill downtown royal garden";
        assert_eq!(e, t.embed(first_six));
    }

    #[test]
    fn order_matters_unlike_static_mean_pooling() {
        // Positional encodings + attention make the encoder
        // order-sensitive; static mean-pooled models are not.
        let t = toy();
        let ab = t.embed("golden palace");
        let ba = t.embed("palace golden");
        assert_ne!(ab, ba);
    }

    #[test]
    fn param_order_is_stable_between_accessors_and_bind() {
        let mut t = toy();
        let shapes: Vec<(usize, usize)> = t
            .param_tensors()
            .iter()
            .map(|p| (p.rows(), p.cols()))
            .collect();
        let mut_shapes: Vec<(usize, usize)> = t
            .param_tensors_mut()
            .iter()
            .map(|p| (p.rows(), p.cols()))
            .collect();
        assert_eq!(shapes, mut_shapes);
        let mut g = Graph::new();
        let bound = t.bind(&mut g);
        let bound_shapes: Vec<(usize, usize)> = bound
            .list()
            .into_iter()
            .map(|&v| (g.value(v).rows(), g.value(v).cols()))
            .collect();
        assert_eq!(shapes, bound_shapes);
        // token_embed + layers·(2+2 LN + 3·heads proj + wo + w1/b1/w2/b2) + final LN pair.
        assert_eq!(shapes.len(), 1 + 2 * (9 + 3 * 2) + 2);
    }

    #[test]
    fn positional_encoding_first_row_is_sin0_cos0() {
        let pe = positional_encoding(3, 4);
        assert_eq!(pe.row(0), &[0.0, 1.0, 0.0, 1.0]);
        // Row 1 differs from row 0 — positions are distinguishable.
        assert_ne!(pe.row(1), pe.row(0));
    }
}
