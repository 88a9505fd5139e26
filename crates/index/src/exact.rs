//! Exact k-NN by brute-force scan with a bounded max-heap — the ground
//! truth every approximate index is measured against. The scan walks the
//! contiguous rows of an [`EmbeddingMatrix`] with precomputed row norms,
//! so a cosine pass reads each stored vector exactly once.
//!
//! The scan has tiers (see [`ScanConfig`]): the f32 pass can run on the
//! bit-exact `Reference` kernels or the unrolled `Lanes` kernels, and the
//! whole pass can be replaced by a memory-bound quantized scan (int8 or
//! PQ) that ranks *approximate* distances and then re-ranks the best `R`
//! candidates with the exact f32 kernels. The re-ranked prefix carries
//! exact distances, so with `R ≥` live rows the output is bit-identical to
//! the pure exact scan.

use crate::store::{owned_mut, push_row, rerank, Ranked, Tombstones};
use crate::{IndexReader, Metric, MutableIndex, Neighbor, NnIndex};
use er_core::pq::{PqCodebook, PqCodes};
use er_core::quant::QuantizedMatrix;
use er_core::{EmbeddingMatrix, QueryParams, VectorSource, VectorStore};
use std::collections::BinaryHeap;

// `ScanConfig` / `Quantization` moved down into er-core with the
// `OperatingPoint` redesign; re-exported here so existing
// `er_index::{ScanConfig, Quantization}` imports keep compiling.
pub use er_core::{Quantization, ScanConfig};

/// The quantized companion storage of an [`ExactIndex`], kept in sync with
/// the f32 matrix on inserts.
#[derive(Debug, Clone)]
pub(crate) enum QuantState {
    None,
    Int8(QuantizedMatrix),
    Pq { book: PqCodebook, codes: PqCodes },
}

/// The scan's bounded max-heap entry: the worst of the current top-k sits
/// on top, ready for eviction.
type Hit = Ranked<usize>;

#[derive(Debug, Clone)]
pub struct ExactIndex<'a> {
    pub(crate) store: VectorStore<'a>,
    pub(crate) metric: Metric,
    /// Deleted rows stay in the matrix (ids are stable) but the scan
    /// skips them.
    pub(crate) tombstones: Tombstones,
    pub(crate) scan: ScanConfig,
    pub(crate) quant: QuantState,
}

impl<'a> ExactIndex<'a> {
    /// Zero-copy: borrow a matrix the pipeline already built.
    pub fn from_matrix(matrix: &'a EmbeddingMatrix, metric: Metric) -> ExactIndex<'a> {
        ExactIndex::from_source(matrix, metric)
    }

    /// The [`VectorSource`] seam: build from anything that yields a
    /// [`VectorStore`] — a borrowed matrix or an owned one.
    pub fn from_source(source: impl VectorSource<'a>, metric: Metric) -> ExactIndex<'a> {
        ExactIndex::from_source_scan(source, metric, ScanConfig::default())
            .expect("the default scan config cannot fail")
    }

    /// Build with an explicit [`ScanConfig`]. Errors (typed
    /// [`er_core::ErError::Model`]) only for PQ configurations that cannot train —
    /// an empty matrix or `subspaces` not dividing the dimension.
    pub fn from_source_scan(
        source: impl VectorSource<'a>,
        metric: Metric,
        scan: ScanConfig,
    ) -> er_core::Result<ExactIndex<'a>> {
        let store = source.into_store();
        let quant = match scan.quant {
            Quantization::None => QuantState::None,
            Quantization::Int8 { .. } => QuantState::Int8(store.matrix().quantize()),
            Quantization::Pq { config, .. } => {
                let book = PqCodebook::train(store.matrix(), &config)?;
                let codes = book.encode(store.matrix());
                QuantState::Pq { book, codes }
            }
        };
        Ok(ExactIndex {
            tombstones: Tombstones::new(store.len()),
            store,
            metric,
            scan,
            quant,
        })
    }

    /// The stored vectors (owned or borrowed).
    pub fn matrix(&self) -> &EmbeddingMatrix {
        self.store.matrix()
    }

    /// The scan configuration this index ranks with.
    pub fn scan_config(&self) -> ScanConfig {
        self.scan
    }

    /// The exact f32 top-k scan on the configured kernel tier, ignoring any
    /// quantized storage — the re-rank pass and the ground-truth scan.
    /// Returns the hits plus the number of full-width distance evaluations
    /// (one per live row).
    fn search_exact(&self, query: &[f32], k: usize) -> (Vec<Neighbor>, u64) {
        let matrix = self.store.matrix();
        let tier = self.scan.tier;
        let query_norm = self.metric.query_norm_tier(tier, query);
        // Capacity is capped by the live rows: `k` is caller input.
        let mut heap: BinaryHeap<Hit> = BinaryHeap::with_capacity(k.min(self.live_count()) + 1);
        let mut evals = 0u64;
        for (idx, row) in matrix.rows_iter().enumerate() {
            if self.tombstones.is_deleted(idx) {
                continue;
            }
            let dist =
                self.metric
                    .distance_prenorm_tier(tier, query, query_norm, row, matrix.norm(idx));
            evals += 1;
            push_bounded(&mut heap, k, dist, idx);
        }
        (drain_sorted(heap), evals)
    }

    /// Quantized first pass: rank every live row by its approximate
    /// distance and keep the best `r`.
    fn search_approx(&self, query: &[f32], r: usize) -> Vec<Neighbor> {
        // `r` may come from a file-borne rerank budget: cap it like `k`.
        let mut heap: BinaryHeap<Hit> = BinaryHeap::with_capacity(r.min(self.live_count()) + 1);
        match &self.quant {
            QuantState::None => unreachable!("search_approx without quantized storage"),
            QuantState::Int8(qm) => {
                let qq = qm.quantize_query(query);
                for idx in 0..qm.len() {
                    if self.tombstones.is_deleted(idx) {
                        continue;
                    }
                    let dist = match self.metric {
                        Metric::Euclidean => qm.squared_euclidean(&qq, idx),
                        Metric::Cosine => 1.0 - qm.cosine(&qq, idx),
                    };
                    push_bounded(&mut heap, r, dist, idx);
                }
            }
            QuantState::Pq { book, codes } => {
                let k_cents = book.centroids();
                match self.metric {
                    Metric::Euclidean => {
                        let table = book.l2_tables(query);
                        for idx in 0..codes.len() {
                            if self.tombstones.is_deleted(idx) {
                                continue;
                            }
                            let dist = codes.adc_sum(&table, k_cents, idx);
                            push_bounded(&mut heap, r, dist, idx);
                        }
                    }
                    Metric::Cosine => {
                        let table = book.dot_tables(query);
                        let query_norm = er_core::kernels::norm(query);
                        for idx in 0..codes.len() {
                            if self.tombstones.is_deleted(idx) {
                                continue;
                            }
                            let dist = 1.0 - codes.cosine(&table, k_cents, idx, query_norm);
                            push_bounded(&mut heap, r, dist, idx);
                        }
                    }
                }
            }
        }
        drain_sorted(heap)
    }
}

/// Keep the best `k` `(dist, idx)` pairs in a bounded max-heap.
#[inline]
fn push_bounded(heap: &mut BinaryHeap<Hit>, k: usize, dist: f32, idx: usize) {
    if heap.len() < k {
        heap.push(Hit { dist, id: idx });
    } else if dist < heap.peek().expect("non-empty").dist {
        heap.pop();
        heap.push(Hit { dist, id: idx });
    }
}

/// Heap → neighbors sorted by `(distance, index)` — [`Ranked`]'s order.
fn drain_sorted(heap: BinaryHeap<Hit>) -> Vec<Neighbor> {
    heap.into_sorted_vec()
        .into_iter()
        .map(|h| Neighbor::new(h.id, h.dist))
        .collect()
}

impl NnIndex for ExactIndex<'_> {
    fn len(&self) -> usize {
        self.store.len()
    }

    fn metric(&self) -> Metric {
        self.metric
    }

    fn search_slice(&self, query: &[f32], k: usize) -> Vec<Neighbor> {
        self.search_counted(query, k, &QueryParams::default()).0
    }
}

impl IndexReader for ExactIndex<'_> {
    fn is_deleted(&self, index: usize) -> bool {
        self.tombstones.is_deleted(index)
    }

    fn live_count(&self) -> usize {
        self.tombstones.live()
    }

    /// The scan has no runtime query parameters, so `params` is ignored.
    /// A pure exact scan evaluates every live row; a quantized scan counts
    /// only the re-ranked candidates (the first pass runs over int8/PQ
    /// codes, which the kernel cost tables price separately — see
    /// `er-tune`).
    fn search_counted(
        &self,
        query: &[f32],
        k: usize,
        _params: &QueryParams,
    ) -> (Vec<Neighbor>, u64) {
        if k == 0 || self.live_count() == 0 {
            return (Vec::new(), 0);
        }
        let rerank_budget = match self.scan.quant {
            Quantization::None => return self.search_exact(query, k),
            Quantization::Int8 { rerank } | Quantization::Pq { rerank, .. } => rerank,
        };
        // Quantized first pass over the best R = max(rerank, k) rows, then
        // an exact re-rank: every returned distance comes from the f32
        // kernels, the quantized codes only choose *which* rows compete.
        let candidates = self.search_approx(query, rerank_budget.max(k));
        let evals = candidates.len() as u64;
        let hits = rerank(
            self.store.matrix(),
            self.metric,
            self.scan.tier,
            query,
            candidates.into_iter().map(|c| c.index),
            k,
        );
        (hits, evals)
    }
}

impl MutableIndex for ExactIndex<'_> {
    fn insert_row(&mut self, row: &[f32]) -> er_core::Result<usize> {
        let id = push_row(
            &mut self.store,
            &mut self.tombstones,
            row,
            "ExactIndex::insert_row",
        )?;
        // Keep the quantized companion storage in sync.
        match &mut self.quant {
            QuantState::None => {}
            QuantState::Int8(qm) => {
                if qm.is_empty() && qm.dim() != row.len() {
                    // The empty index adopted this row's dimension above.
                    *qm = QuantizedMatrix::new(row.len());
                }
                qm.push_row(row);
            }
            QuantState::Pq { book, codes } => book.encode_row(row, codes),
        }
        Ok(id)
    }

    fn delete_row(&mut self, index: usize) -> bool {
        self.tombstones.delete(index)
    }

    /// Float-free compaction: live rows, their cached norms, and any
    /// quantized companion codes are copied verbatim in stable order, so
    /// every distance the compacted index computes is bit-identical to the
    /// tombstoned original's.
    fn compact(&mut self) -> er_core::Result<Vec<u32>> {
        let keep = self.tombstones.live_rows();
        if self.tombstones.count() == 0 {
            return Ok(keep);
        }
        let matrix = owned_mut(&mut self.store, "ExactIndex::compact")?;
        *matrix = matrix.select_rows(keep.iter().map(|&old| old as usize));
        match &mut self.quant {
            QuantState::None => {}
            QuantState::Int8(qm) => {
                let dim = qm.dim();
                let mut codes = Vec::with_capacity(keep.len() * dim);
                let mut scales = Vec::with_capacity(keep.len());
                let mut zeros = Vec::with_capacity(keep.len());
                for &old in &keep {
                    let o = old as usize;
                    codes.extend_from_slice(&qm.codes()[o * dim..(o + 1) * dim]);
                    scales.push(qm.scales()[o]);
                    zeros.push(qm.zeros()[o]);
                }
                *qm = QuantizedMatrix::from_parts(dim, codes, scales, zeros)?;
            }
            QuantState::Pq { book, codes } => {
                let m = book.subspaces();
                let mut kept = Vec::with_capacity(keep.len() * m);
                for &old in &keep {
                    let o = old as usize;
                    kept.extend_from_slice(&codes.codes()[o * m..(o + 1) * m]);
                }
                *codes = PqCodes::from_parts(book, kept)?;
            }
        }
        self.tombstones = Tombstones::new(keep.len());
        Ok(keep)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn matrix(rows: &[[f32; 2]]) -> EmbeddingMatrix {
        EmbeddingMatrix::from_flat(2, rows.concat()).unwrap()
    }

    fn points() -> EmbeddingMatrix {
        matrix(&[[0.0, 0.0], [1.0, 0.0], [0.0, 3.0], [5.0, 5.0]])
    }

    #[test]
    fn returns_nearest_first() {
        let index = ExactIndex::from_source(points(), Metric::Euclidean);
        assert_eq!(index.metric(), Metric::Euclidean);
        let hits = index.search_slice(&[0.9, 0.1], 2);
        assert_eq!(hits.len(), 2);
        assert_eq!(hits[0].index, 1, "closest point is (1,0)");
        assert_eq!(hits[1].index, 0);
        assert!(hits[0].distance <= hits[1].distance);
    }

    #[test]
    fn k_larger_than_corpus_returns_everything() {
        let index = ExactIndex::from_source(points(), Metric::Euclidean);
        assert_eq!(index.search_slice(&[0.0, 0.0], 10).len(), 4);
        assert_eq!(index.len(), 4);
        assert!(index.search_slice(&[0.0, 0.0], 0).is_empty());
    }

    #[test]
    fn hand_computed_euclidean_fixture() {
        // a = (1,0), b = (0,2), c = (3,4); query (1,0): |q-a|² = 0,
        // |q-b|² = 1+4 = 5, |q-c|² = 4+16 = 20.
        let vectors = matrix(&[[1.0, 0.0], [0.0, 2.0], [3.0, 4.0]]);
        let index = ExactIndex::from_matrix(&vectors, Metric::Euclidean);
        let hits = index.search_slice(&[1.0, 0.0], 3);
        assert_eq!(
            hits,
            vec![
                Neighbor::new(0, 0.0),
                Neighbor::new(1, 5.0),
                Neighbor::new(2, 20.0)
            ]
        );
    }

    #[test]
    fn hand_computed_cosine_fixture() {
        // Same fixture, query (1,0): cos distances 0, 1, 1−3/5 = 0.4 — the
        // scaled-but-colinear ranking Euclidean gets wrong.
        let vectors = matrix(&[[1.0, 0.0], [0.0, 2.0], [3.0, 4.0]]);
        let index = ExactIndex::from_matrix(&vectors, Metric::Cosine);
        assert_eq!(index.metric(), Metric::Cosine);
        let hits = index.search_slice(&[1.0, 0.0], 3);
        assert_eq!(hits[0].index, 0);
        assert_eq!(
            hits[1].index, 2,
            "colinear-ish beats orthogonal under cosine"
        );
        assert_eq!(hits[2].index, 1);
        assert!((hits[1].distance - 0.4).abs() < 1e-6);
        assert!((hits[2].distance - 1.0).abs() < 1e-6);

        // Under Euclidean the order of those two flips: 20 > 5.
        let euclid = ExactIndex::from_matrix(&vectors, Metric::Euclidean);
        let hits = euclid.search_slice(&[1.0, 0.0], 3);
        assert_eq!(hits[1].index, 1);
        assert_eq!(hits[2].index, 2);
    }

    #[test]
    fn borrowed_matrix_gives_the_same_hits_as_the_owned_copy() {
        let vectors = points();
        for metric in [Metric::Euclidean, Metric::Cosine] {
            let owned = ExactIndex::from_source(vectors.clone(), metric);
            let borrowed = ExactIndex::from_matrix(&vectors, metric);
            for q in vectors.rows_iter() {
                assert_eq!(owned.search_slice(q, 3), borrowed.search_slice(q, 3));
            }
        }
    }
}
