//! er-eval — evaluation machinery (DESIGN.md inventory row 25: PC /
//! precision / F1, Pearson, rankings, discriminativeness histograms,
//! timers, report writers).
//!
//! This PR ships the core [`Metrics`] triple every experiment reports and
//! the per-stage [`StageReport`] timers the facade `Pipeline` fills in;
//! statistics and report writers land with the experiment-binary PR.

pub mod report;
pub mod stats;

pub use report::{StageReport, StageStats};
pub use stats::pearson;

use er_core::{EntityId, GroundTruth, ScoredPair};
use std::collections::BTreeSet;

/// Precision / recall (the paper's "pairs completeness" for blocking) / F1.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Metrics {
    pub precision: f64,
    pub recall: f64,
    pub f1: f64,
}

impl Metrics {
    /// From raw counts. Degenerate denominators score 0, not NaN.
    pub fn from_counts(tp: usize, fp: usize, fn_: usize) -> Metrics {
        let precision = if tp + fp == 0 {
            0.0
        } else {
            tp as f64 / (tp + fp) as f64
        };
        let recall = if tp + fn_ == 0 {
            0.0
        } else {
            tp as f64 / (tp + fn_) as f64
        };
        let f1 = if precision + recall == 0.0 {
            0.0
        } else {
            2.0 * precision * recall / (precision + recall)
        };
        Metrics {
            precision,
            recall,
            f1,
        }
    }

    /// Score an unscored candidate set (a blocker's output) against the
    /// ground truth. `recall` is the paper's *pairs completeness* — the
    /// fraction of true matches surviving blocking — and `precision` is
    /// the candidate-set quality (≈ 1 / pairs-quality denominator).
    ///
    /// Duplicate predictions are counted **once**: pairs are
    /// order-normalized to the ground truth's convention (Dirty ER is
    /// order-free) and deduplicated before counting. The pre-dedup
    /// implementation counted each duplicate as a fresh true positive,
    /// letting `tp` exceed `gt.len()` while a `saturating_sub` silently
    /// clamped the false-negative count — inflating both precision and
    /// recall.
    pub fn of_candidates(candidates: &[(EntityId, EntityId)], gt: &GroundTruth) -> Metrics {
        Metrics::of_unique_pairs(candidates.iter().copied(), gt)
    }

    /// Score a predicted pair set against the ground truth. Deduplicates
    /// exactly like [`Metrics::of_candidates`]; scores are ignored.
    pub fn of_pairs(predicted: &[ScoredPair], gt: &GroundTruth) -> Metrics {
        Metrics::of_unique_pairs(predicted.iter().map(|p| (p.left, p.right)), gt)
    }

    fn of_unique_pairs(
        predicted: impl IntoIterator<Item = (EntityId, EntityId)>,
        gt: &GroundTruth,
    ) -> Metrics {
        let unique: BTreeSet<(EntityId, EntityId)> = predicted
            .into_iter()
            .map(|(l, r)| gt.normalize(l, r))
            .collect();
        let tp = unique.iter().filter(|(l, r)| gt.contains(*l, *r)).count();
        let fp = unique.len() - tp;
        // Distinct normalized pairs hit distinct ground-truth entries, so
        // tp ≤ gt.len() holds and the subtraction cannot underflow.
        let fn_ = gt.len() - tp;
        Metrics::from_counts(tp, fp, fn_)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use er_core::EntityId;

    #[test]
    fn counts_map_to_the_usual_formulas() {
        let m = Metrics::from_counts(8, 2, 8);
        assert!((m.precision - 0.8).abs() < 1e-12);
        assert!((m.recall - 0.5).abs() < 1e-12);
        assert!((m.f1 - 2.0 * 0.8 * 0.5 / 1.3).abs() < 1e-12);
        let zero = Metrics::from_counts(0, 0, 0);
        assert_eq!(zero, Metrics::from_counts(0, 5, 5));
        assert_eq!(zero.f1, 0.0);
    }

    #[test]
    fn degenerate_denominators_score_zero_not_nan() {
        // No predictions at all: precision undefined -> 0, recall 0.
        let none = Metrics::from_counts(0, 0, 7);
        assert_eq!((none.precision, none.recall, none.f1), (0.0, 0.0, 0.0));
        // No true matches exist: recall undefined -> 0.
        let no_gt = Metrics::from_counts(0, 7, 0);
        assert_eq!((no_gt.precision, no_gt.recall, no_gt.f1), (0.0, 0.0, 0.0));
        // Perfect prediction: both denominators collapse to tp.
        let perfect = Metrics::from_counts(7, 0, 0);
        assert_eq!(
            (perfect.precision, perfect.recall, perfect.f1),
            (1.0, 1.0, 1.0)
        );
        for m in [none, no_gt, perfect] {
            assert!(m.precision.is_finite() && m.recall.is_finite() && m.f1.is_finite());
        }
    }

    #[test]
    fn scores_candidates_for_pairs_completeness() {
        let gt = GroundTruth::clean_clean([
            (EntityId(0), EntityId(5)),
            (EntityId(1), EntityId(6)),
            (EntityId(2), EntityId(7)),
        ]);
        let candidates = vec![
            (EntityId(0), EntityId(5)),
            (EntityId(1), EntityId(6)),
            (EntityId(1), EntityId(7)), // near-miss: not in gt
            (EntityId(3), EntityId(9)),
        ];
        let m = Metrics::of_candidates(&candidates, &gt);
        assert!((m.recall - 2.0 / 3.0).abs() < 1e-12, "PC = 2 of 3 matches");
        assert!((m.precision - 0.5).abs() < 1e-12);

        // Empty candidate set against empty ground truth stays finite.
        let zero = Metrics::of_candidates(&[], &GroundTruth::default());
        assert_eq!(zero, Metrics::from_counts(0, 0, 0));
    }

    #[test]
    fn duplicate_predictions_no_longer_inflate_the_metrics() {
        // Regression: the pre-dedup counter saw the same true pair three
        // times, reported tp = 3 > gt.len() = 2, and saturating_sub hid
        // the inflation (fn = 0 ⇒ recall 1.0, precision 0.75).
        let gt = GroundTruth::clean_clean([(EntityId(0), EntityId(0)), (EntityId(1), EntityId(1))]);
        let predicted = vec![
            ScoredPair::new(EntityId(0), EntityId(0), 0.9),
            ScoredPair::new(EntityId(0), EntityId(0), 0.9),
            ScoredPair::new(EntityId(0), EntityId(0), 0.8),
            ScoredPair::new(EntityId(5), EntityId(5), 0.7),
        ];
        let m = Metrics::of_pairs(&predicted, &gt);
        assert!((m.precision - 0.5).abs() < 1e-12, "1 unique tp of 2 unique");
        assert!((m.recall - 0.5).abs() < 1e-12, "1 of 2 true matches found");

        let candidates: Vec<(EntityId, EntityId)> =
            predicted.iter().map(|p| (p.left, p.right)).collect();
        assert_eq!(Metrics::of_candidates(&candidates, &gt), m);
    }

    #[test]
    fn dirty_ground_truth_merges_flipped_duplicates() {
        // (2,7) and (7,2) are the same Dirty-ER pair: one tp, not two.
        let gt = GroundTruth::dirty([(EntityId(2), EntityId(7))]);
        let predicted = vec![
            ScoredPair::new(EntityId(2), EntityId(7), 0.9),
            ScoredPair::new(EntityId(7), EntityId(2), 0.9),
        ];
        let m = Metrics::of_pairs(&predicted, &gt);
        assert_eq!((m.precision, m.recall, m.f1), (1.0, 1.0, 1.0));
        // Clean-Clean keeps direction: (7,2) is a distinct (false) pair.
        let cc = GroundTruth::clean_clean([(EntityId(2), EntityId(7))]);
        let m = Metrics::of_pairs(&predicted, &cc);
        assert!((m.precision - 0.5).abs() < 1e-12);
        assert_eq!(m.recall, 1.0);
    }

    #[test]
    fn scores_pairs_against_ground_truth() {
        let gt = GroundTruth::clean_clean((0..4).map(|i| (EntityId(i), EntityId(i))));
        let predicted = vec![
            ScoredPair::new(EntityId(0), EntityId(0), 0.9),
            ScoredPair::new(EntityId(1), EntityId(1), 0.8),
            ScoredPair::new(EntityId(2), EntityId(3), 0.7),
        ];
        let m = Metrics::of_pairs(&predicted, &gt);
        assert!((m.precision - 2.0 / 3.0).abs() < 1e-12);
        assert!((m.recall - 0.5).abs() < 1e-12);
    }
}
