//! `er-core` — the shared vocabulary of the `embeddings4er` workspace
//! (DESIGN.md inventory row 26 feeds off it; every other crate imports it).
//!
//! Provides the entity model ([`Entity`], [`EntityId`], [`SerializationMode`]),
//! the vector type every language model emits ([`Embedding`]), the columnar
//! collection storage the pipeline trades in ([`EmbeddingMatrix`] with the
//! [`VectorSource`] seam), the shared distance kernels ([`kernels`]),
//! evaluation primitives ([`GroundTruth`], [`ScoredPair`]), the shared
//! distance [`Metric`] and scan knobs ([`ScanConfig`], [`Quantization`]),
//! the unified retrieval configuration ([`OperatingPoint`] holding a
//! [`BlockerBackend`] with its [`HnswConfig`] / [`LshConfig`], plus the
//! runtime [`QueryParams`] slice — the `er-tune` autotuner's output type),
//! the workspace error type ([`ErError`]), a portable seeded RNG
//! ([`rng::rng`]), a
//! dependency-free JSON reader/writer ([`json`]) used for model persistence,
//! the checksummed little-endian binary container ([`binary`]) the
//! serving path persists matrices, indices and resolvers with, and the
//! write-ahead journal record codec ([`journal`]) that makes serving
//! mutations crash-durable between checkpoints.

pub mod binary;
pub mod entity;
pub mod error;
pub mod journal;
pub mod json;
pub mod kernels;
pub mod matrix;
pub mod metric;
pub mod operating_point;
pub mod pq;
pub mod quant;
pub mod rng;
pub mod scan;

pub use entity::{
    sort_by_id_pair, sort_by_score_desc, Embedding, Entity, EntityId, GroundTruth, ScoredPair,
    SerializationMode,
};
pub use error::{ErError, Result};
pub use journal::{JournalContents, JournalHeader, JournalRecord};
pub use kernels::KernelTier;
pub use matrix::{EmbeddingMatrix, VectorSource, VectorStore};
pub use metric::Metric;
pub use operating_point::{BlockerBackend, HnswConfig, LshConfig, OperatingPoint, QueryParams};
pub use pq::{PqCodebook, PqCodes, PqConfig};
pub use quant::{QuantizedMatrix, QuantizedQuery};
pub use scan::{Quantization, ScanConfig};
