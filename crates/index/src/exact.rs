//! Exact k-NN by brute-force scan — the ground truth every approximate
//! index is measured against. The scan walks the contiguous rows of an
//! [`EmbeddingMatrix`] with precomputed row norms, so a cosine pass reads
//! each stored vector exactly once, and keeps the best `k` with the one
//! bounded top-k selector every exact pass shares (`store::top_k`).
//!
//! The scan has tiers (see [`ScanConfig`]): the f32 pass can run on the
//! bit-exact `Reference` kernels or the unrolled `Lanes` kernels, and the
//! whole pass can be replaced by a memory-bound quantized scan (int8 or
//! PQ) that ranks *approximate* distances and then re-ranks the best `R`
//! candidates with the exact f32 kernels. The re-ranked prefix carries
//! exact distances, so with `R ≥` live rows the output is bit-identical to
//! the pure exact scan. The index holds the quantization as one value —
//! the re-rank budget, the PQ config and the companion codes together —
//! and derives its [`ScanConfig`] from it.

use crate::store::{top_k, Rows};
use crate::{IndexReader, Metric, MutableIndex, Neighbor, NnIndex};
use er_core::pq::{PqCodebook, PqCodes, PqConfig};
use er_core::quant::QuantizedMatrix;
use er_core::{EmbeddingMatrix, KernelTier, QueryParams};

// `ScanConfig` / `Quantization` moved down into er-core with the
// `OperatingPoint` redesign; re-exported here so existing
// `er_index::{ScanConfig, Quantization}` imports keep compiling.
pub use er_core::{Quantization, ScanConfig};

/// The quantized first pass of an [`ExactIndex`]: its re-rank budget, its
/// configuration and the companion codes it ranks with, one value.
#[derive(Debug, Clone)]
pub(crate) enum Quant {
    None,
    Int8 {
        rerank: usize,
        codes: QuantizedMatrix,
    },
    Pq {
        rerank: usize,
        config: PqConfig,
        book: PqCodebook,
        codes: PqCodes,
    },
}

#[derive(Debug, Clone)]
pub struct ExactIndex {
    /// Deleted rows stay stored (ids are stable) but the scan skips them.
    pub(crate) rows: Rows,
    pub(crate) metric: Metric,
    /// The f32 kernel tier of the exact scan and the re-rank.
    pub(crate) tier: KernelTier,
    pub(crate) quant: Quant,
}

impl ExactIndex {
    /// Build over a copy of `matrix` with the default scan: the same index
    /// as `from_source(matrix, metric)`.
    pub fn from_matrix(matrix: &EmbeddingMatrix, metric: Metric) -> ExactIndex {
        ExactIndex::from_source(matrix, metric)
    }

    /// Build with the default scan over `source`: a matrix moved in, or a
    /// `&EmbeddingMatrix` the index copies (the index owns its rows).
    pub fn from_source(source: impl Into<EmbeddingMatrix>, metric: Metric) -> ExactIndex {
        ExactIndex {
            rows: Rows::new(source.into()),
            metric,
            tier: KernelTier::Reference,
            quant: Quant::None,
        }
    }

    /// Build with an explicit [`ScanConfig`]. Errors (typed
    /// [`er_core::ErError::Model`]) only for PQ configurations that cannot train —
    /// an empty matrix or `subspaces` not dividing the dimension.
    pub fn from_source_scan(
        source: impl Into<EmbeddingMatrix>,
        metric: Metric,
        scan: ScanConfig,
    ) -> er_core::Result<ExactIndex> {
        let mut index = ExactIndex::from_source(source, metric);
        let matrix = index.rows.matrix();
        index.quant = match scan.quant {
            Quantization::None => Quant::None,
            Quantization::Int8 { rerank } => Quant::Int8 {
                rerank,
                codes: matrix.quantize(),
            },
            Quantization::Pq { config, rerank } => {
                let book = PqCodebook::train(matrix, &config)?;
                let codes = book.encode(matrix);
                Quant::Pq {
                    rerank,
                    config,
                    book,
                    codes,
                }
            }
        };
        index.tier = scan.tier;
        Ok(index)
    }

    /// The stored vectors.
    pub fn matrix(&self) -> &EmbeddingMatrix {
        self.rows.matrix()
    }

    /// The scan configuration this index ranks with.
    pub fn scan_config(&self) -> ScanConfig {
        let quant = match self.quant {
            Quant::None => Quantization::None,
            Quant::Int8 { rerank, .. } => Quantization::Int8 { rerank },
            Quant::Pq { rerank, config, .. } => Quantization::Pq { config, rerank },
        };
        ScanConfig {
            tier: self.tier,
            quant,
        }
    }

    /// Quantized first pass: rank every live row by its approximate
    /// distance and keep the best `max(rerank, k)`; `None` for the pure
    /// f32 scan.
    fn first_pass(&self, query: &[f32], k: usize) -> Option<Vec<Neighbor>> {
        Some(match &self.quant {
            Quant::None => return None,
            Quant::Int8 { rerank, codes } => {
                let qq = codes.quantize_query(query);
                let dist = |i| match self.metric {
                    Metric::Euclidean => codes.squared_euclidean(&qq, i),
                    Metric::Cosine => 1.0 - codes.cosine(&qq, i),
                };
                top_k(
                    (*rerank).max(k),
                    self.rows.live_rows().map(|i| (i, dist(i))),
                )
            }
            Quant::Pq {
                rerank,
                book,
                codes,
                ..
            } => {
                let r = (*rerank).max(k);
                let k_cents = book.centroids();
                let rows = self.rows.live_rows();
                match self.metric {
                    Metric::Euclidean => {
                        let table = book.l2_tables(query);
                        top_k(r, rows.map(|i| (i, codes.adc_sum(&table, k_cents, i))))
                    }
                    Metric::Cosine => {
                        let table = book.dot_tables(query);
                        let query_norm = er_core::kernels::norm(query);
                        let dist = |i| 1.0 - codes.cosine(&table, k_cents, i, query_norm);
                        top_k(r, rows.map(|i| (i, dist(i))))
                    }
                }
            }
        })
    }
}

impl NnIndex for ExactIndex {
    fn len(&self) -> usize {
        self.rows.len()
    }

    fn metric(&self) -> Metric {
        self.metric
    }

    fn search_slice(&self, query: &[f32], k: usize) -> Vec<Neighbor> {
        self.search_counted(query, k, &QueryParams::default()).0
    }
}

impl IndexReader for ExactIndex {
    fn is_deleted(&self, index: usize) -> bool {
        self.rows.is_deleted(index)
    }

    fn live_count(&self) -> usize {
        self.rows.live()
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
        if !self.rows.answers(query, k) {
            return (Vec::new(), 0);
        }
        let (metric, tier) = (self.metric, self.tier);
        match self.first_pass(query, k) {
            // Quantized first pass, then an exact re-rank: every returned
            // distance comes from the f32 kernels, the quantized codes only
            // choose *which* rows compete.
            Some(candidates) => {
                let evals = candidates.len() as u64;
                let ids = candidates.into_iter().map(|c| c.index);
                (self.rows.rerank(metric, tier, query, ids, k), evals)
            }
            None => {
                let live = self.rows.live_rows();
                let hits = self.rows.rerank(metric, tier, query, live, k);
                (hits, self.live_count() as u64)
            }
        }
    }
}

impl MutableIndex for ExactIndex {
    fn insert_row(&mut self, row: &[f32]) -> er_core::Result<usize> {
        let id = self.rows.push(row, "ExactIndex::insert_row")?;
        // Keep the quantized companion storage in step.
        match &mut self.quant {
            Quant::None => {}
            Quant::Int8 { codes, .. } => codes.push_row(row),
            Quant::Pq { book, codes, .. } => book.encode_row(row, codes),
        }
        Ok(id)
    }

    fn delete_row(&mut self, index: usize) -> bool {
        self.rows.delete(index)
    }

    /// Float-free compaction: live rows, their cached norms, and any
    /// quantized companion codes are copied verbatim in stable order, so
    /// every distance the compacted index computes is bit-identical to the
    /// tombstoned original's.
    fn compact(&mut self) -> Vec<u32> {
        let stored = self.len();
        let keep = self.rows.compact();
        if keep.len() < stored {
            let rows = || keep.iter().map(|&old| old as usize);
            match &mut self.quant {
                Quant::None => {}
                Quant::Int8 { codes, .. } => *codes = codes.select_rows(rows()),
                Quant::Pq { codes, .. } => *codes = codes.select_rows(rows()),
            }
        }
        keep
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
}
