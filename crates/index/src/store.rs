//! The plumbing all three backends share: the tombstone set, the checked
//! append into an index's matrix, the `(distance, id)` heap entry, the one
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
pub struct Ranked<T> {
    pub dist: f32,
    pub id: T,
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

/// Which stored rows are deleted. Row ids are stable: a deleted row keeps
/// its slot in the matrix (and, for HNSW, its graph links) and is only
/// masked out of results. One flag per stored row, always.
#[derive(Debug, Clone)]
pub(crate) struct Tombstones {
    flags: Vec<bool>,
    count: usize,
}

impl Tombstones {
    /// `rows` live rows.
    pub(crate) fn new(rows: usize) -> Tombstones {
        Tombstones {
            flags: vec![false; rows],
            count: 0,
        }
    }

    /// From a persisted deletion bitmap.
    pub(crate) fn from_flags(flags: Vec<bool>) -> Tombstones {
        let count = flags.iter().filter(|&&d| d).count();
        Tombstones { flags, count }
    }

    /// One flag per stored row — what persistence writes.
    pub(crate) fn flags(&self) -> &[bool] {
        &self.flags
    }

    /// Whether `row` is tombstoned (out-of-range rows are not).
    #[inline]
    pub(crate) fn is_deleted(&self, row: usize) -> bool {
        self.flags.get(row).copied().unwrap_or(false)
    }

    /// Tombstoned rows.
    pub(crate) fn count(&self) -> usize {
        self.count
    }

    /// Stored rows minus tombstones.
    pub(crate) fn live(&self) -> usize {
        self.flags.len() - self.count
    }

    /// Tombstone `row`; `false` when out of range or already deleted.
    pub(crate) fn delete(&mut self, row: usize) -> bool {
        if row >= self.flags.len() || self.flags[row] {
            return false;
        }
        self.flags[row] = true;
        self.count += 1;
        true
    }

    /// The live rows in order — the new→old map a compaction returns.
    pub(crate) fn live_rows(&self) -> Vec<u32> {
        (0..self.flags.len() as u32)
            .filter(|&row| !self.flags[row as usize])
            .collect()
    }
}

/// Append `row` (and its live tombstone slot) to an index's matrix and
/// return the new row id. Fails on a dimension mismatch; a matrix built
/// over nothing (dim 0) adopts the first row's dimension.
pub(crate) fn push_row(
    matrix: &mut EmbeddingMatrix,
    tombstones: &mut Tombstones,
    row: &[f32],
    who: &str,
) -> Result<usize> {
    if matrix.is_empty() && matrix.dim() == 0 && !row.is_empty() {
        *matrix = EmbeddingMatrix::new(row.len());
    }
    if matrix.dim() != row.len() {
        return Err(ErError::Model(format!(
            "{who}: pushed a {}-d row into a {}-d index",
            row.len(),
            matrix.dim()
        )));
    }
    matrix.push(row);
    tombstones.flags.push(false);
    Ok(matrix.len() - 1)
}

/// The best `k` of `(id, distance)` pairs, sorted by `(distance, id)`:
/// the one top-k selector of every exact pass (the f32 scan, the int8 and
/// PQ first passes, the re-rank). A bounded max-heap admits and evicts in
/// [`Ranked`] order, its own order, so a `+NaN` distance ranks last and
/// never shadows a finite one. The hot path is one float compare against
/// the cached worst entry; `Ranked` decides only ties and NaN.
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

/// Exact distances from `query` to the candidate rows on `tier`, cut to
/// the best `k` by [`top_k`] — the exact scan (every live row) and the
/// second pass of every backend that gathers candidates cheaply first
/// (quantized scan, LSH).
pub(crate) fn rerank(
    matrix: &EmbeddingMatrix,
    metric: Metric,
    tier: KernelTier,
    query: &[f32],
    candidates: impl Iterator<Item = usize>,
    k: usize,
) -> Vec<Neighbor> {
    let query_norm = metric.query_norm_tier(tier, query);
    let dist = |row, norm| metric.distance_prenorm_tier(tier, query, query_norm, row, norm);
    top_k(
        k,
        candidates.map(|i| (i, dist(matrix.row(i), matrix.norm(i)))),
    )
}
