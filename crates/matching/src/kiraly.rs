//! Kiraly's proposal-based stable-marriage approximation (the "KRC"
//! clusterer of the paper's Fig. 2 generality check).
//!
//! A Gale–Shapley-style proposal loop where both sides rank partners by
//! the candidate score: each left entity proposes down its
//! preference list (score descending); a right entity holds the best
//! proposal it has seen and displaces the weaker suitor. Kiraly's twist —
//! the linear-time 3/2-approximation for maximum stable marriage with
//! ties — is the *promotion* step: a left entity that exhausts its list
//! unmatched restarts it once as "promoted", and promoted suitors win
//! score ties against unpromoted ones.
//!
//! Determinism: preference lists are sorted with
//! [`ScoredPair::cmp_score_desc`] (a total order) and every right-side
//! comparison tie-breaks on promotion then left id, so the matching is
//! independent of the input permutation.

use er_core::{sort_by_id_pair, sort_by_score_desc, EntityId, ScoredPair};
use std::collections::{HashMap, VecDeque};

/// A proposal currently held by a right entity.
#[derive(Debug, Clone, Copy)]
struct Held {
    pair: ScoredPair,
    promoted: bool,
}

/// Does a new proposal displace the held one? Higher score wins; on a
/// score tie a promoted suitor beats an unpromoted one; the final
/// tiebreak (smaller left id) keeps the choice total and deterministic.
fn displaces(new: &ScoredPair, new_promoted: bool, held: &Held) -> bool {
    match new.score.total_cmp(&held.pair.score) {
        std::cmp::Ordering::Greater => true,
        std::cmp::Ordering::Less => false,
        std::cmp::Ordering::Equal => match (new_promoted, held.promoted) {
            (true, false) => true,
            (false, true) => false,
            _ => new.left < held.pair.left,
        },
    }
}

/// Kiraly stable-marriage clustering over the candidates scoring ≥
/// `delta`. Returns a one-to-one matching in canonical `(left, right)`
/// order.
pub(crate) fn kiraly_clustering(pairs: &[ScoredPair], delta: f32) -> Vec<ScoredPair> {
    let mut surviving: Vec<ScoredPair> =
        pairs.iter().filter(|p| p.score >= delta).copied().collect();
    // Score-descending total order, so each per-left list comes out ranked
    // and duplicate (left, right) entries keep only their best score.
    sort_by_score_desc(&mut surviving);
    let mut prefs: HashMap<EntityId, Vec<ScoredPair>> = HashMap::new();
    for p in surviving {
        let list = prefs.entry(p.left).or_default();
        if !list.iter().any(|q| q.right == p.right) {
            list.push(p);
        }
    }
    let mut lefts: Vec<EntityId> = prefs.keys().copied().collect();
    lefts.sort_unstable();

    // next[left] = index of the next proposal; promoted[left] = second pass.
    let mut next: HashMap<EntityId, usize> = HashMap::new();
    let mut promoted: HashMap<EntityId, bool> = HashMap::new();
    let mut held: HashMap<EntityId, Held> = HashMap::new();
    let mut free: VecDeque<EntityId> = lefts.into_iter().collect();

    while let Some(left) = free.pop_front() {
        let list = &prefs[&left];
        let pos = *next.get(&left).unwrap_or(&0);
        let is_promoted = *promoted.get(&left).unwrap_or(&false);
        if pos >= list.len() {
            if !is_promoted {
                // Kiraly promotion: restart the list once with tie priority.
                promoted.insert(left, true);
                next.insert(left, 0);
                free.push_back(left);
            }
            continue;
        }
        let proposal = list[pos];
        next.insert(left, pos + 1);
        match held.get(&proposal.right) {
            None => {
                held.insert(
                    proposal.right,
                    Held {
                        pair: proposal,
                        promoted: is_promoted,
                    },
                );
            }
            Some(current) => {
                if displaces(&proposal, is_promoted, current) {
                    let displaced = current.pair.left;
                    held.insert(
                        proposal.right,
                        Held {
                            pair: proposal,
                            promoted: is_promoted,
                        },
                    );
                    free.push_back(displaced);
                } else {
                    free.push_back(left);
                }
            }
        }
    }

    let mut matches: Vec<ScoredPair> = held.into_values().map(|h| h.pair).collect();
    sort_by_id_pair(&mut matches);
    matches
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::umc::unique_mapping_clustering;

    fn pair(l: u32, r: u32, s: f32) -> ScoredPair {
        ScoredPair::new(EntityId(l), EntityId(r), s)
    }

    #[test]
    fn matching_is_one_to_one_and_stable_on_a_small_instance() {
        let pairs = vec![
            pair(0, 0, 0.9),
            pair(0, 1, 0.8),
            pair(1, 0, 0.85),
            pair(1, 1, 0.4),
        ];
        let matches = kiraly_clustering(&pairs, 0.0);
        assert_eq!(matches, vec![pair(0, 0, 0.9), pair(1, 1, 0.4)]);
    }

    #[test]
    fn displaced_suitor_falls_back_to_its_next_choice() {
        // Left 1 proposes to right 0 first but is displaced by left 0's
        // stronger claim, so it settles for right 1.
        let pairs = vec![pair(1, 0, 0.7), pair(1, 1, 0.6), pair(0, 0, 0.9)];
        let matches = kiraly_clustering(&pairs, 0.0);
        assert_eq!(matches, vec![pair(0, 0, 0.9), pair(1, 1, 0.6)]);
    }

    #[test]
    fn is_permutation_independent_and_delta_aware() {
        let pairs = vec![
            pair(0, 1, 0.7),
            pair(2, 0, 0.95),
            pair(1, 1, 0.8),
            pair(0, 2, 0.65),
            pair(1, 2, 0.6),
        ];
        let mut reversed = pairs.clone();
        reversed.reverse();
        let forward = kiraly_clustering(&pairs, 0.0);
        assert_eq!(forward, kiraly_clustering(&reversed, 0.0));
        assert!(kiraly_clustering(&pairs, 0.99).is_empty());
        // One-to-one: no endpoint repeats.
        let mut lefts: Vec<_> = forward.iter().map(|p| p.left).collect();
        let mut rights: Vec<_> = forward.iter().map(|p| p.right).collect();
        lefts.sort_unstable();
        rights.sort_unstable();
        lefts.dedup();
        rights.dedup();
        assert_eq!(lefts.len(), forward.len());
        assert_eq!(rights.len(), forward.len());
    }

    #[test]
    fn agrees_with_umc_when_preferences_are_unambiguous() {
        // Distinct scores, disjoint best partners: greedy UMC and stable
        // marriage coincide (the Fig. 2 correlation in its cleanest form).
        let pairs = vec![
            pair(0, 0, 0.9),
            pair(1, 1, 0.8),
            pair(2, 2, 0.7),
            pair(0, 1, 0.3),
            pair(2, 1, 0.2),
        ];
        let mut umc = unique_mapping_clustering(&pairs, 0.0);
        sort_by_id_pair(&mut umc);
        assert_eq!(kiraly_clustering(&pairs, 0.0), umc);
    }
}
