//! er-index — nearest-neighbour search (DESIGN.md inventory rows 9–11b).
//!
//! Ships the [`NnIndex`] trait, the exact brute-force scan (row 9), the
//! HNSW graph index (row 10) and hyperplane LSH with multi-table probing
//! (row 11), all deterministic under a fixed seed and generic over
//! [`Metric`]. IVF-Flat (row 11b) and cross-polytope LSH arrive with the
//! engine-ablation PR behind the same trait.
//!
//! Mutation is layered: [`IndexReader`] is the immutable view concurrent
//! readers share, [`MutableIndex`] the writer handle with insert, delete
//! and tombstone-reclaiming [`MutableIndex::compact`].
//!
//! Storage is columnar: every index owns one row store (`store::Rows`) —
//! an [`er_core::EmbeddingMatrix`], moved in or copied from a caller's
//! `&EmbeddingMatrix` at build time, and its tombstones. Distances run
//! over contiguous rows with precomputed row norms, so a cosine scan
//! touches each stored vector once.
//!
//! One query rule, checked by the row store at every backend's
//! [`IndexReader::search_counted`] (and so under every other search
//! entry): a search answers only for `k > 0`, at least one live row, a
//! query as wide as the rows and with every component finite. Any other
//! query gets no hits, never a panic or a NaN distance.
//!
//! [`AnyIndex::build`] is the one place a backend choice
//! ([`BlockerBackend`]) and a [`ScanConfig`] become an index: the scan's
//! kernel tier ranks on every backend, and the HNSW and LSH constructors
//! it calls refuse what [`BlockerBackend::validate`] refuses.
//!
//! The crate does not panic on its inputs: outside tests, `unwrap`,
//! `expect`, `panic!` and `unreachable!` are compile errors, and the few
//! sites that state an internal invariant carry a site-local `#[allow]`
//! naming it.

#![cfg_attr(not(test), deny(clippy::unwrap_used, clippy::expect_used))]
#![cfg_attr(not(test), deny(clippy::panic, clippy::unreachable))]

pub mod any;
pub mod exact;
pub mod hnsw;
pub mod lsh;
pub mod persist;
mod store;

pub use any::AnyIndex;
pub use exact::{ExactIndex, Quantization, ScanConfig};
pub use hnsw::HnswIndex;
pub use lsh::HyperplaneLsh;
// The metric, the backend configs and the runtime query-parameter
// overrides every `IndexReader` accepts live in er-core beside
// `OperatingPoint`, which holds them; re-exported so `er_index::{Metric,
// BlockerBackend, HnswConfig, ..}` keep naming them.
pub use er_core::{BlockerBackend, HnswConfig, LshConfig, Metric, QueryParams};

use er_core::par::{self, SCAN_NS_PER_ELEMENT};
use er_core::EmbeddingMatrix;

/// One search hit: the position of a stored vector and its distance from
/// the query under the index's [`Metric`] (lower is always closer).
///
/// This replaces the bare `(usize, f32)` tuples of the tuple era — the
/// distance is carried by the same field on every backend, so the blocker
/// can thread it into a [`er_core::ScoredPair`] without re-deriving it.
/// Equivalence tests pin the `distance` bits against a tuple-era oracle.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Neighbor {
    /// Index of the stored vector (row in the indexed matrix).
    pub index: usize,
    /// Distance from the query under [`NnIndex::metric`].
    pub distance: f32,
}

impl Neighbor {
    pub(crate) fn new(index: usize, distance: f32) -> Neighbor {
        Neighbor { index, distance }
    }
}

/// The immutable, shareable view of a mutable index — everything a
/// concurrent reader needs on top of [`NnIndex`] searches. `er-serve` hands
/// `Arc`-wrapped snapshots implementing this to reader threads while a
/// writer prepares the next snapshot behind their backs.
///
/// Row ids are **stable**: a deleted row keeps its id (and, for HNSW, its
/// graph links, which still route searches); it is merely masked out of
/// every result set. [`NnIndex::len`] keeps counting *stored* rows;
/// [`IndexReader::live_count`] counts the searchable ones, and a search
/// with `k > live_count` truncates cleanly instead of surfacing tombstones.
pub trait IndexReader: NnIndex {
    /// Whether `index` is tombstoned (out-of-range ids are not).
    fn is_deleted(&self, index: usize) -> bool;

    /// Stored rows minus tombstones — the most hits any search can return.
    fn live_count(&self) -> usize;

    /// Search with runtime [`QueryParams`] overrides (HNSW beam width, LSH
    /// probes/tables — knobs that never rebuild the index), returning the
    /// hits **plus the number of full-width f32 distance evaluations** the
    /// search performed over stored rows — the measured quantity `er-tune`
    /// validates its cost estimates against.
    ///
    /// Query rule: no hits and no evals unless `k > 0`, a row is live,
    /// `query.len()` is the rows' width and every query component is
    /// finite. [`NnIndex::search_slice`] and
    /// [`NnIndex::search_batch_rows`] (one row at a time) answer through
    /// it.
    ///
    /// Contract: with `QueryParams::default()` the hits are bit-identical
    /// to [`NnIndex::search_slice`] (pinned by tests); a param the backend
    /// does not understand is ignored. Not counted: per-query setup (query
    /// norm, LSH signature dots, quantized first passes) — the cost model
    /// prices those from the kernel calibration tables instead.
    fn search_counted(&self, query: &[f32], k: usize, params: &QueryParams)
        -> (Vec<Neighbor>, u64);
}

/// The writer handle on top of [`IndexReader`] — the `er-serve` mutation
/// contract. Only the owner of an index (in the serving layer: the shard
/// writer, holding the shard's write lock) sees these methods; readers hold
/// snapshots typed as [`IndexReader`] and can never mutate.
pub trait MutableIndex: IndexReader {
    /// Append one vector, returning its new row id.
    ///
    /// An index's width is fixed when it is built (an empty start is
    /// `EmbeddingMatrix::new(dim)`): a row of another width is
    /// [`er_core::ErError::Model`], on every backend.
    fn insert_row(&mut self, row: &[f32]) -> er_core::Result<usize>;

    /// Tombstone a row. Returns `false` when the id is out of range or
    /// already deleted. Deleted rows never appear in search results.
    fn delete_row(&mut self, index: usize) -> bool;

    /// Rebuild the index without its tombstoned rows, preserving the
    /// relative order of live rows, and return the new→old row mapping
    /// (`map[new_row] == old_row`; the identity when nothing was deleted).
    ///
    /// Live top-k answers are unaffected: exact and LSH backends copy every
    /// float and signature verbatim, and the HNSW rebuild reuses the
    /// incremental insert path so the compacted graph is bit-identical to a
    /// fresh batch build over the live rows in order. Compacting an index
    /// with no tombstones (including an empty one) is a no-op that still
    /// returns the identity mapping.
    fn compact(&mut self) -> Vec<u32>;
}

/// A nearest-neighbour index over a fixed set of embeddings. Searches
/// return up to `k` [`Neighbor`] hits, nearest first, where the distance
/// semantics are given by [`NnIndex::metric`] (lower is always closer).
pub trait NnIndex {
    fn len(&self) -> usize;

    fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// The distance this index was built to minimize.
    fn metric(&self) -> Metric;

    /// Search with a raw query row under the index's built-in parameters:
    /// the hits of [`IndexReader::search_counted`] with
    /// `QueryParams::default()`.
    fn search_slice(&self, query: &[f32], k: usize) -> Vec<Neighbor>;

    /// Batched search over the rows of an [`EmbeddingMatrix`] — the
    /// pipeline's query path — split into contiguous chunks of queries by
    /// [`er_core::par::fill_chunks`] (no crates.io, so no rayon — plain
    /// `std::thread::scope`).
    ///
    /// A chunk runs on its own scoped thread only when its predicted scan
    /// (queries × stored rows × dim × [`er_core::par::SCAN_NS_PER_ELEMENT`])
    /// costs more than the spawn; every query's answer lands in its own
    /// slot, so the output is *identical* to calling
    /// [`NnIndex::search_slice`] sequentially — blocking an entire dataset
    /// saturates cores without sacrificing determinism. A row the query
    /// rule turns away gets an empty slot; the other rows are unaffected.
    fn search_batch_rows(&self, queries: &EmbeddingMatrix, k: usize) -> Vec<Vec<Neighbor>>
    where
        Self: Sync + Sized,
    {
        let row_ns = (self.len() * queries.dim()) as f64 * SCAN_NS_PER_ELEMENT;
        let mut out = vec![Vec::new(); queries.len()];
        par::fill_chunks(
            &mut out,
            1,
            |chunk| chunk.len() as f64 * row_ns,
            |chunk, slots| {
                for (i, slot) in chunk.zip(slots) {
                    *slot = self.search_slice(queries.row(i), k);
                }
            },
        );
        out
    }
}
