//! The plumbing all three backends share: [`Rows`] (the stored rows, their
//! tombstones and the query rule), the `(distance, id)` heap entry, the one
//! bounded top-k selector, and the exact re-rank of a candidate list.

use crate::{Metric, Neighbor};
use er_core::{EmbeddingMatrix, ErError, KernelTier, Result};
use std::cmp::Ordering;
use std::collections::BinaryHeap;

/// A `(distance, id)` pair with a total, deterministic order: primary by
/// distance (`f32::total_cmp`), ties by id. `BinaryHeap<Ranked<T>>` is a
/// max-heap (worst on top, ready for eviction),
/// `BinaryHeap<Reverse<Ranked<T>>>` a min-heap (best on top).
#[derive(Debug, Clone, Copy)]
pub(crate) struct Ranked<T> {
    pub(crate) dist: f32,
    pub(crate) id: T,
}

impl<T: Ord> Ord for Ranked<T> {
    fn cmp(&self, other: &Self) -> Ordering {
        self.dist
            .total_cmp(&other.dist)
            .then_with(|| self.id.cmp(&other.id))
    }
}

impl<T: Ord> PartialOrd for Ranked<T> {
    fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}

impl<T: Ord> PartialEq for Ranked<T> {
    fn eq(&self, other: &Self) -> bool {
        self.cmp(other) == Ordering::Equal
    }
}

impl<T: Ord> Eq for Ranked<T> {}

/// The rows an index keeps and the one rule for the queries it answers:
/// the owned matrix and a deletion flag per stored row, one value held by
/// every backend. Row ids are stable: a deleted row keeps its slot in the
/// matrix (and, for HNSW, its graph links) and is only masked out of
/// results, until [`Rows::compact`] drops it.
#[derive(Debug, Clone)]
pub(crate) struct Rows {
    matrix: EmbeddingMatrix,
    deleted: Vec<bool>,
    deleted_count: usize,
}

impl Rows {
    /// `matrix`, every row live.
    pub(crate) fn new(matrix: EmbeddingMatrix) -> Rows {
        let deleted = vec![false; matrix.len()];
        Rows::with_deleted(matrix, deleted)
    }

    /// `matrix` with one persisted deletion flag per row.
    pub(crate) fn with_deleted(matrix: EmbeddingMatrix, deleted: Vec<bool>) -> Rows {
        debug_assert_eq!(deleted.len(), matrix.len());
        let deleted_count = deleted.iter().filter(|&&d| d).count();
        Rows {
            matrix,
            deleted,
            deleted_count,
        }
    }

    /// The stored rows, tombstoned ones included.
    pub(crate) fn matrix(&self) -> &EmbeddingMatrix {
        &self.matrix
    }

    /// One deletion flag per stored row — what persistence writes.
    pub(crate) fn deleted(&self) -> &[bool] {
        &self.deleted
    }

    /// Stored rows, tombstones included.
    pub(crate) fn len(&self) -> usize {
        self.matrix.len()
    }

    /// Stored rows minus tombstones.
    pub(crate) fn live(&self) -> usize {
        self.len() - self.deleted_count
    }

    /// Whether `row` is tombstoned (out-of-range rows are not).
    #[inline]
    pub(crate) fn is_deleted(&self, row: usize) -> bool {
        self.deleted.get(row).copied().unwrap_or(false)
    }

    /// The live row ids in ascending order.
    pub(crate) fn live_rows(&self) -> impl Iterator<Item = usize> + '_ {
        (0..self.len()).filter(|&i| !self.deleted[i])
    }

    /// The query rule of every index, checked at each backend's
    /// `search_counted` before anything is scored: `k > 0`, at least one
    /// live row, a query as wide as the rows, and every query component
    /// finite. Any other query has no nearest rows to name — a NaN
    /// distance orders nothing, and a truncated or overrun dot product
    /// answers another question (or panics a kernel) — so it gets no hits.
    pub(crate) fn answers(&self, query: &[f32], k: usize) -> bool {
        k > 0
            && self.live() > 0
            && query.len() == self.matrix.dim()
            && query.iter().all(|x| x.is_finite())
    }

    /// Append `row`, live, and return its new row id. Fails on a row of
    /// another width than the one the rows were built with, and on every
    /// row when that width is 0 (an empty row stores nothing to name).
    pub(crate) fn push(&mut self, row: &[f32], who: &str) -> Result<usize> {
        if row.is_empty() || self.matrix.dim() != row.len() {
            return Err(ErError::Model(format!(
                "{who}: pushed a {}-d row into a {}-d index",
                row.len(),
                self.matrix.dim()
            )));
        }
        self.matrix.push(row);
        self.deleted.push(false);
        Ok(self.len() - 1)
    }

    /// Tombstone `row`; `false` when out of range or already deleted.
    pub(crate) fn delete(&mut self, row: usize) -> bool {
        match self.deleted.get_mut(row) {
            Some(flag) if !*flag => {
                *flag = true;
                self.deleted_count += 1;
                true
            }
            _ => false,
        }
    }

    /// Drop the tombstoned rows, live rows keeping their order and their
    /// floats and cached norms verbatim, and return the new→old row map
    /// (the identity, with nothing copied, when no row is tombstoned).
    pub(crate) fn compact(&mut self) -> Vec<u32> {
        let keep: Vec<u32> = self.live_rows().map(|row| row as u32).collect();
        if self.deleted_count > 0 {
            let matrix = self
                .matrix
                .select_rows(keep.iter().map(|&old| old as usize));
            *self = Rows::new(matrix);
        }
        keep
    }

    /// Exact distances from `query` to the candidate rows on `tier`, cut
    /// to the best `k` by [`top_k`] — the exact scan (every live row) and
    /// the second pass of every backend that gathers candidates cheaply
    /// first (quantized scan, LSH).
    pub(crate) fn rerank(
        &self,
        metric: Metric,
        tier: KernelTier,
        query: &[f32],
        candidates: impl Iterator<Item = usize>,
        k: usize,
    ) -> Vec<Neighbor> {
        let m = &self.matrix;
        let query_norm = metric.query_norm_tier(tier, query);
        let dist = |row, norm| metric.distance_prenorm_tier(tier, query, query_norm, row, norm);
        top_k(k, candidates.map(|i| (i, dist(m.row(i), m.norm(i)))))
    }
}

/// The best `k` of `(id, distance)` pairs, sorted by `(distance, id)`:
/// the one top-k selector of every exact pass (the f32 scan, the int8 and
/// PQ first passes, the re-rank). A bounded max-heap admits and evicts in
/// [`Ranked`] order, its own order, so a `+NaN` distance ranks last and
/// never shadows a finite one. The hot path is one float compare against
/// the cached worst entry; `Ranked` decides only ties and NaN.
// `expect`: the loop runs only once the heap holds `k >= 1` entries.
#[allow(clippy::expect_used)]
pub(crate) fn top_k(k: usize, mut hits: impl Iterator<Item = (usize, f32)>) -> Vec<Neighbor> {
    // `k` is caller input: cap the capacity by what the iterator can yield.
    let cap = hits.size_hint().1.map_or(k, |n| n.min(k));
    let mut heap = BinaryHeap::with_capacity(cap);
    heap.extend(hits.by_ref().take(k).map(|(id, dist)| Ranked { dist, id }));
    if let Some(top) = heap.peek() {
        let mut worst = top.dist;
        for (id, dist) in hits {
            if dist > worst {
                continue;
            }
            // Neither `>` nor `<` is a tie or a NaN: the heap's order decides.
            let hit = Ranked { dist, id };
            if dist < worst || hit < *heap.peek().expect("full") {
                *heap.peek_mut().expect("full") = hit;
                worst = heap.peek().expect("full").dist;
            }
        }
    }
    heap.into_sorted_vec()
        .into_iter()
        .map(|h| Neighbor::new(h.id, h.dist))
        .collect()
}
