//! `er-core` — the shared vocabulary of the `embeddings4er` workspace
//! (DESIGN.md inventory row 26 feeds off it; every other crate imports it).
//!
//! Provides the entity model ([`Entity`], [`EntityId`], [`SerializationMode`]),
//! the vector type every language model emits ([`Embedding`]), the columnar
//! collection storage the pipeline trades in and every index owns
//! ([`EmbeddingMatrix`]), the shared distance kernels ([`kernels`]),
//! evaluation primitives ([`GroundTruth`], [`ScoredPair`]), the shared
//! distance [`Metric`] and scan knobs ([`ScanConfig`], [`Quantization`]),
//! the unified retrieval configuration ([`OperatingPoint`] holding a
//! [`BlockerBackend`] with its [`HnswConfig`] / [`LshConfig`], plus the
//! runtime [`QueryParams`] slice — the `er-tune` autotuner's output type),
//! the workspace error type ([`ErError`]), a portable seeded RNG
//! ([`rng::rng`]), a dependency-free JSON reader/writer ([`json`]) for
//! reports and the zoo's cache key, the checksummed little-endian binary
//! container ([`binary`]) the serving path persists matrices, indices and
//! resolvers with, and the write-ahead journal record codec ([`journal`])
//! that makes serving mutations crash-durable between checkpoints, and the
//! cost-gated fan-out ([`par::fill_chunks`]) every batch of independent
//! work runs through.

pub mod binary;
mod entity;
mod error;
pub mod journal;
pub mod json;
pub mod kernels;
mod matrix;
mod metric;
mod operating_point;
pub mod par;
pub mod pq;
pub mod quant;
pub mod rng;
mod scan;

pub use entity::{
    sort_by_id_pair, sort_by_score_desc, Embedding, Entity, EntityId, GroundTruth, ScoredPair,
    SerializationMode,
};
pub use error::{ErError, Result};
pub use kernels::KernelTier;
pub use matrix::EmbeddingMatrix;
pub use metric::Metric;
pub use operating_point::{BlockerBackend, HnswConfig, LshConfig, OperatingPoint, QueryParams};
pub use scan::{Quantization, ScanConfig};
