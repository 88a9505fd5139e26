//! Unique Mapping Clustering (paper §4.3, Figs. 8/15) — the paper's
//! unsupervised matcher of choice for Clean-Clean ER.
//!
//! Sort the scored candidates by similarity descending and greedily accept
//! every pair whose endpoints are both still unmatched; two bitsets (one
//! per side) track the seen entities, so the whole pass after sorting is
//! O(pairs). The 1–1 constraint is what turns a noisy candidate list into
//! high-precision matches: each left entity spends its one match on its
//! highest-similarity partner that is still free.
//!
//! Determinism: the sort uses [`ScoredPair::cmp_score_desc`] — a total
//! order (`total_cmp` + id-pair tiebreak) — so the output is independent
//! of the input permutation, bit-for-bit, even when scores tie.

use er_core::{sort_by_score_desc, EntityId, ScoredPair};

/// A growable bitset over dense [`EntityId`]s — the two "seen" sets of
/// UMC's greedy pass.
#[derive(Debug, Clone, Default)]
pub(crate) struct IdBitset {
    words: Vec<u64>,
}

impl IdBitset {
    pub(crate) fn new() -> IdBitset {
        IdBitset::default()
    }

    pub(crate) fn contains(&self, id: EntityId) -> bool {
        let word = (id.0 / 64) as usize;
        self.words
            .get(word)
            .is_some_and(|w| w >> (id.0 % 64) & 1 == 1)
    }

    pub(crate) fn insert(&mut self, id: EntityId) {
        let word = (id.0 / 64) as usize;
        if word >= self.words.len() {
            self.words.resize(word + 1, 0);
        }
        self.words[word] |= 1 << (id.0 % 64);
    }
}

/// Unique Mapping Clustering: accept candidates in descending-similarity
/// order while both endpoints are unseen, skipping everything below
/// `delta`. Returns the accepted matches in acceptance (score-descending)
/// order; the result is one-to-one by construction — no left or right id
/// appears twice.
pub fn unique_mapping_clustering(pairs: &[ScoredPair], delta: f32) -> Vec<ScoredPair> {
    let mut sorted: Vec<ScoredPair> = pairs.iter().filter(|p| p.score >= delta).copied().collect();
    sort_by_score_desc(&mut sorted);
    let mut left_seen = IdBitset::new();
    let mut right_seen = IdBitset::new();
    let mut matches = Vec::new();
    for pair in sorted {
        if !left_seen.contains(pair.left) && !right_seen.contains(pair.right) {
            left_seen.insert(pair.left);
            right_seen.insert(pair.right);
            matches.push(pair);
        }
    }
    matches
}

#[cfg(test)]
mod tests {
    use super::*;

    fn pair(l: u32, r: u32, s: f32) -> ScoredPair {
        ScoredPair::new(EntityId(l), EntityId(r), s)
    }

    #[test]
    fn greedy_acceptance_respects_one_to_one() {
        let pairs = vec![
            pair(0, 0, 0.9),
            pair(0, 1, 0.8), // left 0 already matched
            pair(1, 0, 0.7), // right 0 already matched
            pair(1, 1, 0.6),
        ];
        let matches = unique_mapping_clustering(&pairs, 0.0);
        assert_eq!(matches, vec![pair(0, 0, 0.9), pair(1, 1, 0.6)]);
    }

    #[test]
    fn delta_filters_before_matching() {
        let pairs = vec![pair(0, 0, 0.9), pair(1, 1, 0.3)];
        let matches = unique_mapping_clustering(&pairs, 0.5);
        assert_eq!(matches, vec![pair(0, 0, 0.9)]);
        assert!(unique_mapping_clustering(&pairs, 0.95).is_empty());
        // Boundary: delta is inclusive.
        assert_eq!(unique_mapping_clustering(&pairs, 0.3).len(), 2);
    }

    #[test]
    fn output_is_independent_of_input_permutation() {
        let pairs = vec![
            pair(0, 1, 0.7),
            pair(2, 0, 0.95),
            pair(1, 1, 0.8),
            pair(0, 2, 0.65),
            pair(1, 2, 0.6),
        ];
        let forward = unique_mapping_clustering(&pairs, 0.0);
        let mut reversed = pairs.clone();
        reversed.reverse();
        assert_eq!(forward, unique_mapping_clustering(&reversed, 0.0));
    }

    #[test]
    fn ties_break_on_id_pair_not_arrival_order() {
        // Both pairs want right 0 at the same score; the smaller left id
        // must win regardless of input order.
        let a = vec![pair(5, 0, 0.5), pair(3, 0, 0.5)];
        let b = vec![pair(3, 0, 0.5), pair(5, 0, 0.5)];
        assert_eq!(unique_mapping_clustering(&a, 0.0), vec![pair(3, 0, 0.5)]);
        assert_eq!(
            unique_mapping_clustering(&a, 0.0),
            unique_mapping_clustering(&b, 0.0)
        );
    }

    #[test]
    fn bitset_handles_sparse_ids() {
        let mut set = IdBitset::new();
        assert!(!set.contains(EntityId(0)));
        assert!(!set.contains(EntityId(1000)));
        set.insert(EntityId(1000));
        assert!(set.contains(EntityId(1000)));
        assert!(!set.contains(EntityId(999)));
        assert!(!set.contains(EntityId(1001)));
        set.insert(EntityId(0));
        assert!(set.contains(EntityId(0)));
    }
}
