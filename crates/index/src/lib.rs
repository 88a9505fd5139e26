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
//! Storage is columnar: every index holds an [`er_core::VectorStore`] —
//! either an [`er_core::EmbeddingMatrix`] it owns (the serving path) or a
//! matrix it *borrows* from the pipeline (zero-copy; indices never clone
//! or mutate a borrowed matrix). Distances run over contiguous rows with
//! precomputed row norms, so a cosine scan touches each stored vector once.
//!
//! [`AnyIndex::build`] is the one place a backend choice
//! ([`BlockerBackend`]) becomes an index, and the one place its config is
//! validated.

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
pub use store::Ranked;
// The metric, the backend configs and the runtime query-parameter
// overrides every `IndexReader` accepts live in er-core beside
// `OperatingPoint`, which holds them; re-exported so `er_index::{Metric,
// BlockerBackend, HnswConfig, ..}` keep naming them.
pub use er_core::{BlockerBackend, HnswConfig, LshConfig, Metric, QueryParams};

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
    pub fn new(index: usize, distance: f32) -> Neighbor {
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
    /// Fails if the index *borrows* its matrix (zero-copy stores stay
    /// frozen — see `er_core::VectorStore::matrix_mut`) or on a dimension
    /// mismatch. An index built over an empty dim-0 store adopts the first
    /// inserted row's dimension where nothing dimension-dependent was
    /// precomputed (exact, HNSW); LSH drew its hyperplanes at build time
    /// and rejects the mismatch instead.
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
    /// returns the identity mapping. Fails like [`MutableIndex::insert_row`]
    /// when the index borrows its matrix.
    fn compact(&mut self) -> er_core::Result<Vec<u32>>;
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
    /// pipeline's query path — parallelized across a scoped-thread worker
    /// pool (no crates.io, so no rayon — plain `std::thread::scope`).
    ///
    /// Queries are split into contiguous chunks, one per worker, and the
    /// per-chunk results are reassembled in input order, so the output is
    /// *identical* to calling [`NnIndex::search_slice`] sequentially —
    /// blocking an entire dataset saturates cores without sacrificing
    /// determinism.
    fn search_batch_rows(&self, queries: &EmbeddingMatrix, k: usize) -> Vec<Vec<Neighbor>>
    where
        Self: Sync + Sized,
    {
        let n = queries.len();
        let search_one = |i: usize| self.search_slice(queries.row(i), k);
        let workers = std::thread::available_parallelism()
            .map(|w| w.get())
            .unwrap_or(1)
            .min(n);
        if workers <= 1 {
            return (0..n).map(search_one).collect();
        }
        let chunk = n.div_ceil(workers);
        let search_one = &search_one;
        let mut out = Vec::with_capacity(n);
        std::thread::scope(|scope| {
            let handles: Vec<_> = (0..n)
                .step_by(chunk)
                .map(|start| {
                    let end = (start + chunk).min(n);
                    scope.spawn(move || (start..end).map(search_one).collect::<Vec<_>>())
                })
                .collect();
            for handle in handles {
                out.extend(handle.join().expect("search worker panicked"));
            }
        });
        out
    }
}
