//! The one index type erased over the backend choice ([`AnyIndex`]) — how
//! the blocker, the serving shards and the tuner all turn "a
//! [`BlockerBackend`] + a matrix" into something searchable, through the
//! single validating constructor [`AnyIndex::build`].

use crate::{
    ExactIndex, HnswIndex, HyperplaneLsh, IndexReader, Metric, MutableIndex, Neighbor, NnIndex,
    ScanConfig,
};
use er_core::binary::{self, kind};
use er_core::{BlockerBackend, EmbeddingMatrix, ErError, QueryParams, Result};

/// One index of any backend, owning its matrix. All three variants share
/// the [`MutableIndex`] surface and the binary persistence format of
/// `er_index::persist`.
#[derive(Debug, Clone)]
pub enum AnyIndex {
    Exact(ExactIndex),
    Hnsw(HnswIndex),
    Lsh(HyperplaneLsh),
}

impl AnyIndex {
    /// Build the index `backend` describes over `source` (a matrix moved
    /// in, or a `&EmbeddingMatrix` the index copies) — the one place a
    /// backend choice becomes an index. `scan.tier` is the kernel tier of
    /// every backend; `scan.quant` configures the Exact scan only.
    ///
    /// Errors instead of panicking on a config no index can honour: a
    /// degenerate HNSW/LSH config or quantization on a non-Exact backend
    /// is a typed [`ErError::Config`] (the rules of
    /// [`BlockerBackend::validate`]); a PQ scan that cannot train — an empty
    /// store, so a streaming service must start on `Int8` or `None`, or
    /// `subspaces` not dividing the dimension — is the [`ErError::Model`]
    /// of [`ExactIndex::from_source_scan`].
    pub fn build(
        source: impl Into<EmbeddingMatrix>,
        backend: &BlockerBackend,
        scan: ScanConfig,
    ) -> Result<AnyIndex> {
        Ok(match backend {
            BlockerBackend::Exact(metric) => {
                AnyIndex::Exact(ExactIndex::from_source_scan(source, *metric, scan)?)
            }
            BlockerBackend::Hnsw(config) => {
                AnyIndex::Hnsw(HnswIndex::from_source_scan(source, config.clone(), scan)?)
            }
            BlockerBackend::Lsh(config) => {
                AnyIndex::Lsh(HyperplaneLsh::from_source(source, config.clone(), scan)?)
            }
        })
    }

    /// The backend and scan this index was built with — the config
    /// [`AnyIndex::build`] took (an HNSW/LSH scan is its tier), and how a
    /// loaded shard reconstitutes the `ShardedIndex`-level layout.
    pub fn config(&self) -> (BlockerBackend, ScanConfig) {
        match self {
            AnyIndex::Exact(i) => (BlockerBackend::Exact(i.metric()), i.scan_config()),
            AnyIndex::Hnsw(i) => (
                BlockerBackend::Hnsw(i.config().clone()),
                ScanConfig::with_tier(i.tier()),
            ),
            AnyIndex::Lsh(i) => (
                BlockerBackend::Lsh(i.config().clone()),
                ScanConfig::with_tier(i.tier()),
            ),
        }
    }

    /// The stored vectors.
    pub fn matrix(&self) -> &EmbeddingMatrix {
        match self {
            AnyIndex::Exact(i) => i.matrix(),
            AnyIndex::Hnsw(i) => i.matrix(),
            AnyIndex::Lsh(i) => i.matrix(),
        }
    }

    /// Serialize via the backend's own `er_index::persist` container.
    pub fn to_bytes(&self) -> Vec<u8> {
        match self {
            AnyIndex::Exact(i) => i.to_bytes(),
            AnyIndex::Hnsw(i) => i.to_bytes(),
            AnyIndex::Lsh(i) => i.to_bytes(),
        }
    }

    /// Dispatch on the container's `kind` header to the right loader.
    pub fn from_bytes(bytes: &[u8]) -> Result<AnyIndex> {
        match binary::peek_kind(bytes)? {
            kind::EXACT_INDEX => Ok(AnyIndex::Exact(ExactIndex::from_bytes(bytes)?)),
            kind::HNSW_INDEX => Ok(AnyIndex::Hnsw(HnswIndex::from_bytes(bytes)?)),
            kind::LSH_INDEX => Ok(AnyIndex::Lsh(HyperplaneLsh::from_bytes(bytes)?)),
            other => Err(ErError::corrupt(format!(
                "shard container holds kind {other}, expected an index kind"
            ))),
        }
    }

    fn reader(&self) -> &dyn IndexReader {
        match self {
            AnyIndex::Exact(i) => i,
            AnyIndex::Hnsw(i) => i,
            AnyIndex::Lsh(i) => i,
        }
    }

    fn writer(&mut self) -> &mut dyn MutableIndex {
        match self {
            AnyIndex::Exact(i) => i,
            AnyIndex::Hnsw(i) => i,
            AnyIndex::Lsh(i) => i,
        }
    }
}

impl NnIndex for AnyIndex {
    fn len(&self) -> usize {
        self.reader().len()
    }

    fn metric(&self) -> Metric {
        self.reader().metric()
    }

    fn search_slice(&self, query: &[f32], k: usize) -> Vec<Neighbor> {
        self.reader().search_slice(query, k)
    }
}

impl IndexReader for AnyIndex {
    fn is_deleted(&self, index: usize) -> bool {
        self.reader().is_deleted(index)
    }

    fn live_count(&self) -> usize {
        self.reader().live_count()
    }

    fn search_counted(
        &self,
        query: &[f32],
        k: usize,
        params: &QueryParams,
    ) -> (Vec<Neighbor>, u64) {
        self.reader().search_counted(query, k, params)
    }
}

impl MutableIndex for AnyIndex {
    fn insert_row(&mut self, row: &[f32]) -> Result<usize> {
        self.writer().insert_row(row)
    }

    fn delete_row(&mut self, index: usize) -> bool {
        self.writer().delete_row(index)
    }

    fn compact(&mut self) -> Vec<u32> {
        self.writer().compact()
    }
}
