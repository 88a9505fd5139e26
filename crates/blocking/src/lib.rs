//! er-blocking — blocking (DESIGN.md inventory rows 12–14: embedding top-k
//! blocker + candidate-set machinery, DeepBlocker-style Auto-Encoder
//! blocker, token-overlap blocking).
//!
//! Ships row 12 complete: the embedding top-k blocker
//! ([`top_k_blocking_scored_matrix`], configured by an
//! `er_core::OperatingPoint`) over the `er-index` backends (exact / HNSW /
//! LSH) plus the redundant-pair dedup. The DeepBlocker-style Auto-Encoder
//! (row 13) and token-overlap blocking (row 14) land with the
//! matching-SotA PR.

pub mod topk;

pub use topk::top_k_blocking_scored_matrix;
// `TopKConfig` is the blocker's historical config name, now an alias of
// the `OperatingPoint` it takes; kept only because the `bench_e2e` harness
// still spells it (and `BlockerBackend`) through this crate.
pub use er_core::{BlockerBackend, OperatingPoint as TopKConfig};

use er_core::{EntityId, ScoredPair};

/// Deduplicate candidate pairs produced by redundancy-positive blocking
/// (k-NN from both sides, multiple blocks). Order-normalizes each pair for
/// Dirty ER when `dirty` is set, drops self-pairs, and returns a sorted,
/// unique candidate list.
pub fn dedup_candidates(
    pairs: impl IntoIterator<Item = (EntityId, EntityId)>,
    dirty: bool,
) -> Vec<(EntityId, EntityId)> {
    let mut out: Vec<(EntityId, EntityId)> = pairs
        .into_iter()
        .filter_map(|(a, b)| {
            if dirty {
                match a.0.cmp(&b.0) {
                    std::cmp::Ordering::Less => Some((a, b)),
                    std::cmp::Ordering::Equal => None,
                    std::cmp::Ordering::Greater => Some((b, a)),
                }
            } else {
                Some((a, b))
            }
        })
        .collect();
    out.sort_unstable();
    out.dedup();
    out
}

/// The scored twin of [`dedup_candidates`]: order-normalize for Dirty ER,
/// drop self-pairs, sort by `(left, right)` and keep one entry per id
/// pair. Safe to apply to blocker output because every blocker similarity
/// is bitwise symmetric in its endpoints (see
/// `er_index::Metric::hit_similarity`), so flipping a pair never changes
/// its score.
pub fn dedup_scored(pairs: impl IntoIterator<Item = ScoredPair>, dirty: bool) -> Vec<ScoredPair> {
    let mut out: Vec<ScoredPair> = pairs
        .into_iter()
        .filter_map(|p| {
            if dirty {
                match p.left.0.cmp(&p.right.0) {
                    std::cmp::Ordering::Less => Some(p),
                    std::cmp::Ordering::Equal => None,
                    std::cmp::Ordering::Greater => Some(ScoredPair::new(p.right, p.left, p.score)),
                }
            } else {
                Some(p)
            }
        })
        .collect();
    out.sort_unstable_by(|a, b| a.cmp_id_pair(b).then_with(|| a.score.total_cmp(&b.score)));
    out.dedup_by(|a, b| a.id_pair() == b.id_pair());
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn dirty_mode_normalizes_direction_and_drops_self_pairs() {
        let raw = vec![
            (EntityId(2), EntityId(1)),
            (EntityId(1), EntityId(2)),
            (EntityId(3), EntityId(3)),
            (EntityId(1), EntityId(4)),
        ];
        let deduped = dedup_candidates(raw, true);
        assert_eq!(
            deduped,
            vec![(EntityId(1), EntityId(2)), (EntityId(1), EntityId(4))]
        );
    }

    #[test]
    fn empty_input_yields_empty_output() {
        assert!(dedup_candidates(Vec::new(), true).is_empty());
        assert!(dedup_candidates(Vec::new(), false).is_empty());
    }

    #[test]
    fn all_self_pairs_vanish_in_dirty_mode_but_survive_clean() {
        let raw: Vec<_> = (0..5).map(|i| (EntityId(i), EntityId(i))).collect();
        assert!(
            dedup_candidates(raw.clone(), true).is_empty(),
            "a Dirty-ER record cannot be its own duplicate"
        );
        // Clean-Clean ids live in separate namespaces: (i, i) is a real
        // cross-collection pair and must be kept (once).
        let doubled: Vec<_> = raw.iter().chain(raw.iter()).copied().collect();
        assert_eq!(dedup_candidates(doubled, false), raw);
    }

    #[test]
    fn output_is_sorted_and_unique_in_both_modes() {
        let raw = vec![
            (EntityId(9), EntityId(1)),
            (EntityId(0), EntityId(3)),
            (EntityId(9), EntityId(1)),
            (EntityId(1), EntityId(9)),
        ];
        let dirty = dedup_candidates(raw.clone(), true);
        assert_eq!(
            dirty,
            vec![(EntityId(0), EntityId(3)), (EntityId(1), EntityId(9))]
        );
        let clean = dedup_candidates(raw, false);
        assert_eq!(
            clean,
            vec![
                (EntityId(0), EntityId(3)),
                (EntityId(1), EntityId(9)),
                (EntityId(9), EntityId(1)),
            ]
        );
    }

    #[test]
    fn scored_dedup_matches_unscored_dedup_on_the_id_pairs() {
        let raw = [
            (EntityId(2), EntityId(1)),
            (EntityId(1), EntityId(2)),
            (EntityId(3), EntityId(3)),
            (EntityId(1), EntityId(4)),
            (EntityId(1), EntityId(4)),
        ];
        let scored: Vec<ScoredPair> = raw
            .iter()
            .map(|&(a, b)| ScoredPair::new(a, b, 0.25 * (a.0 + b.0) as f32))
            .collect();
        for dirty in [false, true] {
            let plain = dedup_candidates(raw.iter().copied(), dirty);
            let rich = dedup_scored(scored.iter().copied(), dirty);
            let projected: Vec<(EntityId, EntityId)> = rich.iter().map(|p| p.id_pair()).collect();
            assert_eq!(projected, plain, "dirty={dirty}");
        }
    }

    #[test]
    fn scored_dedup_keeps_the_symmetric_score_when_flipping() {
        let flipped = dedup_scored([ScoredPair::new(EntityId(7), EntityId(3), 0.625)], true);
        assert_eq!(
            flipped,
            vec![ScoredPair::new(EntityId(3), EntityId(7), 0.625)]
        );
    }

    #[test]
    fn clean_clean_keeps_direction() {
        // Left/right ids are distinct namespaces in Clean-Clean ER: (2,1)
        // means left#2 vs right#1 and must not be flipped.
        let raw = vec![
            (EntityId(2), EntityId(1)),
            (EntityId(2), EntityId(1)),
            (EntityId(1), EntityId(1)),
        ];
        let deduped = dedup_candidates(raw, false);
        assert_eq!(
            deduped,
            vec![(EntityId(1), EntityId(1)), (EntityId(2), EntityId(1))]
        );
    }
}
