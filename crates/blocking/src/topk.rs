//! The embedding top-k blocker (DESIGN.md inventory row 12): index one
//! side of a Clean-Clean dataset, query the other with each entity's
//! embedding, and keep every `(query, neighbour)` pair as a candidate —
//! the paper's Fig. 3 blocking recipe (DeepER lineage, §4.3).
//!
//! The native storage is the columnar [`EmbeddingMatrix`]:
//! [`top_k_blocking_scored_matrix`] builds the chosen index *borrowing*
//! the right side (zero-copy), batch-queries it with the left side's rows
//! via [`NnIndex::search_batch_rows`] (fanning out over a scoped-thread
//! worker pool while staying bit-identical to sequential search), and
//! threads each hit's similarity outward as a [`ScoredPair`] — the
//! scored-candidate contract the matchers consume (see
//! [`er_index::Metric::hit_similarity`]: cosine scores are bit-identical to
//! `er_matching::similarity::cosine`). This is the one blocking entry
//! point; the unscored view is `.map(|p| p.id_pair())` at the call site.

use crate::dedup_scored;
use er_core::{EmbeddingMatrix, EntityId, OperatingPoint, ScoredPair};
use er_index::{AnyIndex, NnIndex};

/// Run top-k blocking over columnar storage: index `right` (borrowed,
/// zero-copy) with the point's backend (and its `scan`, for Exact),
/// batch-query it with every row of `left`, and return the deduplicated candidate pairs, each carrying
/// the similarity the matchers consume, threaded from the index hit via
/// [`er_index::Metric::hit_similarity`].
///
/// For cosine backends the score is recomputed as
/// `kernels::cosine_prenorm(left row, cached left norm, right row, cached
/// right norm)`, which is bit-identical to
/// `er_matching::similarity::cosine` on the same rows — subtracting the
/// hit distance from 1 instead would drift by an ulp whenever `1 − cos`
/// rounds. Euclidean backends map the (squared) distance monotonically
/// through `1 / (1 + d)`. Either way downstream matchers never touch the
/// vectors again: no re-scoring, no kernel drift.
///
/// Output is deduplicated (order-normalized and self-pair-free when
/// `config.dirty`) and sorted by `(left, right)`; the similarity is
/// symmetric at the bit level, so order normalization never changes a
/// score. For Dirty ER pass the same collection as both sides.
///
/// Panics when [`AnyIndex::build`] rejects the config (a degenerate
/// backend config, a scan on an approximate backend, a PQ layout not
/// dividing the dimension): that is a construction bug in the caller's
/// config, not a data error — [`OperatingPoint::validate`] reports the
/// same rules as a typed error up front.
pub fn top_k_blocking_scored_matrix(
    left_ids: &[EntityId],
    left: &EmbeddingMatrix,
    right_ids: &[EntityId],
    right: &EmbeddingMatrix,
    config: &OperatingPoint,
) -> Vec<ScoredPair> {
    assert_eq!(left_ids.len(), left.len(), "left ids/vectors differ");
    assert_eq!(right_ids.len(), right.len(), "right ids/vectors differ");
    if left_ids.is_empty() || right_ids.is_empty() || config.k == 0 {
        return Vec::new();
    }
    let index = AnyIndex::build(right, &config.backend, config.scan)
        .expect("top-k blocking: backend config failed to build");
    let metric = index.metric();
    let hits = index.search_batch_rows(left, config.k);
    let pairs = hits.into_iter().enumerate().flat_map(|(i, neighbours)| {
        let left_row = left.row(i);
        let left_norm = left.norm(i);
        neighbours.into_iter().map(move |n| {
            let score = metric.hit_similarity(
                left_row,
                left_norm,
                right.row(n.index),
                right.norm(n.index),
                n.distance,
            );
            ScoredPair::new(left_ids[i], right_ids[n.index], score)
        })
    });
    dedup_scored(pairs, config.dirty)
}

#[cfg(test)]
mod tests {
    use super::*;
    use er_core::{BlockerBackend, LshConfig};
    use er_index::{HnswConfig, Metric};

    fn ids(n: u32) -> Vec<EntityId> {
        (0..n).map(EntityId).collect()
    }

    fn matrix(rows: &[[f32; 2]]) -> EmbeddingMatrix {
        EmbeddingMatrix::from_flat(2, rows.concat()).unwrap()
    }

    /// Two tight clusters far apart: blocking must pair within clusters.
    fn clustered() -> (EmbeddingMatrix, EmbeddingMatrix) {
        let left = matrix(&[[0.0, 1.0], [0.1, 1.0], [10.0, 0.0]]);
        let right = matrix(&[[0.05, 1.0], [10.1, 0.1], [9.9, 0.0]]);
        (left, right)
    }

    /// Block `left` against `right` under ids `0..n` and project the
    /// scores away.
    fn candidates(
        left: &EmbeddingMatrix,
        right: &EmbeddingMatrix,
        config: &OperatingPoint,
    ) -> Vec<(EntityId, EntityId)> {
        let (left_ids, right_ids) = (ids(left.len() as u32), ids(right.len() as u32));
        top_k_blocking_scored_matrix(&left_ids, left, &right_ids, right, config)
            .iter()
            .map(|p| p.id_pair())
            .collect()
    }

    fn exact_euclidean(k: usize) -> OperatingPoint {
        OperatingPoint::new(k).backend(BlockerBackend::Exact(Metric::Euclidean))
    }

    #[test]
    fn exact_backend_pairs_within_clusters() {
        let (left, right) = clustered();
        assert_eq!(
            candidates(&left, &right, &exact_euclidean(1)),
            vec![
                (EntityId(0), EntityId(0)),
                (EntityId(1), EntityId(0)),
                (EntityId(2), EntityId(2)),
            ]
        );
    }

    #[test]
    fn k_bounds_the_candidate_count() {
        let (left, right) = clustered();
        for k in [1usize, 2, 3, 10] {
            let found = candidates(&left, &right, &exact_euclidean(k));
            assert!(found.len() <= 3 * k.min(3));
        }
    }

    #[test]
    fn dirty_mode_self_blocks_without_self_pairs() {
        let vectors = matrix(&[[0.0, 1.0], [0.0, 1.01], [5.0, 0.0], [5.0, 0.01]]);
        let found = candidates(&vectors, &vectors, &exact_euclidean(2).dirty(true));
        assert!(found.iter().all(|(a, b)| a < b), "{found:?}");
        assert!(found.contains(&(EntityId(0), EntityId(1))));
        assert!(found.contains(&(EntityId(2), EntityId(3))));
    }

    #[test]
    fn empty_sides_and_zero_k_yield_no_candidates() {
        let (left, right) = clustered();
        let empty = EmbeddingMatrix::new(2);
        assert!(candidates(&left, &right, &exact_euclidean(0)).is_empty());
        assert!(candidates(&empty, &right, &OperatingPoint::default()).is_empty());
        assert!(candidates(&left, &empty, &OperatingPoint::default()).is_empty());
    }

    #[test]
    fn builder_matches_struct_literal_construction() {
        let built = OperatingPoint::new(3)
            .backend(BlockerBackend::Exact(Metric::Cosine))
            .dirty(true);
        assert_eq!(
            built,
            OperatingPoint {
                k: 3,
                backend: BlockerBackend::Exact(Metric::Cosine),
                dirty: true,
                ..OperatingPoint::default()
            }
        );
        // Defaults: HNSW under cosine, clean-clean.
        let defaulted = OperatingPoint::new(7);
        assert_eq!(defaulted.k, 7);
        assert!(!defaulted.dirty);
        assert!(
            matches!(defaulted.backend, BlockerBackend::Hnsw(ref c) if c.metric == Metric::Cosine)
        );
        assert_eq!(defaulted.backend.metric(), Metric::Cosine);
    }

    #[test]
    fn cosine_scores_are_bit_identical_to_the_kernel() {
        let (left, right) = clustered();
        let config = OperatingPoint::new(3).backend(BlockerBackend::Exact(Metric::Cosine));
        let scored = top_k_blocking_scored_matrix(&ids(3), &left, &ids(3), &right, &config);
        assert!(!scored.is_empty());
        for p in scored {
            let expected = er_core::kernels::cosine(
                left.row(p.left.0 as usize),
                right.row(p.right.0 as usize),
            );
            assert_eq!(p.score.to_bits(), expected.to_bits(), "{p:?}");
        }
    }

    #[test]
    fn every_point_backend_blocks_with_finite_scores() {
        let (left, right) = clustered();
        for point in [
            OperatingPoint::new(2),
            OperatingPoint::new(2).exact(),
            OperatingPoint::new(2).backend(BlockerBackend::Lsh(LshConfig {
                tables: 4,
                ..LshConfig::default()
            })),
        ] {
            let scored = top_k_blocking_scored_matrix(&ids(3), &left, &ids(3), &right, &point);
            assert!(!scored.is_empty(), "{:?}", point.backend);
            assert!(
                scored.iter().all(|p| p.score.is_finite()),
                "{:?}",
                point.backend
            );
        }
    }

    #[test]
    fn backends_agree_on_easy_data() {
        let (left, right) = clustered();
        let hnsw = exact_euclidean(1).backend(BlockerBackend::Hnsw(HnswConfig::default()));
        assert_eq!(
            candidates(&left, &right, &exact_euclidean(1)),
            candidates(&left, &right, &hnsw)
        );
    }
}
