//! The clusterers a threshold sweep can run: Unique Mapping Clustering,
//! the paper's default, and the Kiraly approximation. The paper's Fig. 2
//! generality check compares UMC, Exact Clustering and Kiraly and finds
//! their per-δ F1 curves strongly correlated; Exact Clustering is not
//! built here.
//!
//! Both clusterers share one bipartite contract: input is a scored
//! candidate list over a Clean-Clean dataset (left and right ids are
//! separate namespaces), output is the matched pairs — UMC's in
//! acceptance order, Kiraly's in canonical `(left, right)` order.

use crate::kiraly::kiraly_clustering;
use crate::umc::unique_mapping_clustering;
use er_core::ScoredPair;

/// The clusterer a threshold sweep runs at each δ.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum Clusterer {
    /// Unique Mapping Clustering — the paper's default (§4.3).
    #[default]
    UniqueMapping,
    /// Kiraly's linear-time 3/2-approximation of maximum stable marriage.
    Kiraly,
}

impl Clusterer {
    /// Run this clusterer over the candidates at threshold `delta`.
    pub(crate) fn cluster(&self, pairs: &[ScoredPair], delta: f32) -> Vec<ScoredPair> {
        match self {
            Clusterer::UniqueMapping => unique_mapping_clustering(pairs, delta),
            Clusterer::Kiraly => kiraly_clustering(pairs, delta),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use er_core::EntityId;

    fn pair(l: u32, r: u32, s: f32) -> ScoredPair {
        ScoredPair::new(EntityId(l), EntityId(r), s)
    }

    #[test]
    fn clusterer_enum_dispatches_to_every_algorithm() {
        let pairs = vec![pair(0, 0, 0.9), pair(1, 0, 0.8), pair(1, 1, 0.7)];
        for clusterer in [Clusterer::UniqueMapping, Clusterer::Kiraly] {
            let matches = clusterer.cluster(&pairs, 0.0);
            assert!(!matches.is_empty(), "{clusterer:?}");
            assert!(matches.iter().all(|p| p.score >= 0.7), "{clusterer:?}");
        }
        assert_eq!(Clusterer::default(), Clusterer::UniqueMapping);
    }
}
