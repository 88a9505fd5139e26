//! The threshold sweep of the paper's Fig. 15: run a clusterer at every
//! δ ∈ {0.05, 0.10, …, 0.95} over one scored candidate list, score each
//! δ's matches against the ground truth, and report the per-δ
//! [`Metrics`] curve plus the best-F1 operating point. The sweep is what
//! turns "UMC with some threshold" into a concrete, reproducible
//! configuration — the paper reads its headline unsupervised-matching
//! numbers off exactly this curve.
//!
//! UMC is swept in one pass. Its acceptance list at a δ is a prefix of its
//! acceptance list at any lower δ: the candidates scoring ≥ δ are a prefix
//! of the `total_cmp` score-descending order, and greedy acceptance over a
//! prefix makes the same `seen` decisions as over the whole list. So UMC
//! runs once, at the grid's smallest δ; one walk over its acceptance list
//! records prefix counts of distinct (order-normalised) pairs and of true
//! positives; and each δ is a `partition_point` on that list. The sweep
//! costs one sort plus O(pairs + grid · log pairs), and every point is
//! bit-identical to clustering and scoring that δ on its own. Kiraly has
//! no prefix property, so it runs once per δ.

use crate::clusterers::Clusterer;
use crate::umc::unique_mapping_clustering;
use er_core::{GroundTruth, ScoredPair};
use er_eval::Metrics;
use std::collections::HashSet;

/// One evaluated operating point of the sweep.
#[derive(Debug, Clone)]
pub struct SweepPoint {
    /// The similarity threshold the clusterer ran at.
    pub delta: f32,
    /// The matches the clusterer produced at this δ.
    pub matches: Vec<ScoredPair>,
    /// Precision/recall/F1 of those matches against the ground truth.
    pub metrics: Metrics,
}

/// The per-δ curve of one clusterer over one candidate list.
#[derive(Debug, Clone)]
pub struct ThresholdSweep {
    /// Which clusterer produced the curve.
    pub clusterer: Clusterer,
    /// One point per δ of the grid, in the caller's grid order.
    pub points: Vec<SweepPoint>,
}

impl ThresholdSweep {
    /// The paper's δ grid: 0.05 to 0.95 in steps of 0.05 (Fig. 15).
    ///
    /// Contract: each δ is `(i as f64 * 0.05) as f32` — the nearest f32 to
    /// the *exact* multiple of 0.05, rounded independently per point. The
    /// earlier `i as f32 * 0.05` accumulated per-step f32 error (e.g.
    /// δ₇ = 0.35000002), so a candidate scored exactly at a nominal grid
    /// value could flip sides of the `score >= delta` cut. The 19 values
    /// are pinned bit-exactly in `paper_deltas_are_bit_exact`.
    pub fn paper_deltas() -> Vec<f32> {
        (1..=19).map(|i| (i as f64 * 0.05) as f32).collect()
    }

    /// Sweep Unique Mapping Clustering — the paper's default matcher —
    /// over the paper's δ grid.
    pub fn run(pairs: &[ScoredPair], gt: &GroundTruth) -> ThresholdSweep {
        ThresholdSweep::run_with(pairs, gt, Clusterer::UniqueMapping, &Self::paper_deltas())
    }

    /// Sweep an arbitrary clusterer over an arbitrary δ grid.
    pub fn run_with(
        pairs: &[ScoredPair],
        gt: &GroundTruth,
        clusterer: Clusterer,
        deltas: &[f32],
    ) -> ThresholdSweep {
        let points = if clusterer == Clusterer::UniqueMapping {
            umc_points(pairs, gt, deltas)
        } else {
            deltas
                .iter()
                .map(|&delta| {
                    let matches = clusterer.cluster(pairs, delta);
                    let metrics = Metrics::of_pairs(&matches, gt);
                    SweepPoint {
                        delta,
                        matches,
                        metrics,
                    }
                })
                .collect()
        };
        ThresholdSweep { clusterer, points }
    }

    /// The best-F1 operating point; ties break toward the smaller δ (by
    /// `f32::total_cmp`), matching the paper's preference for recall when
    /// F1 is indifferent, whatever the grid order. `None` only for an
    /// empty grid.
    pub fn best(&self) -> Option<&SweepPoint> {
        self.points.iter().max_by(|a, b| {
            a.metrics
                .f1
                .total_cmp(&b.metrics.f1)
                .then_with(|| b.delta.total_cmp(&a.delta))
        })
    }

    /// The F1 values in δ order — the curve the Fig. 2 correlation check
    /// (`er_eval::pearson`) compares across clusterers.
    pub fn f1_curve(&self) -> Vec<f64> {
        self.points.iter().map(|p| p.metrics.f1).collect()
    }
}

/// UMC's sweep points, read off one acceptance list (see the module doc).
fn umc_points(pairs: &[ScoredPair], gt: &GroundTruth, deltas: &[f32]) -> Vec<SweepPoint> {
    // `f32::min` skips NaN, so a grid with no real δ folds to NaN, at which
    // UMC — like `score >= NaN` — accepts nothing.
    let floor = deltas.iter().copied().fold(f32::NAN, f32::min);
    let accepted = unique_mapping_clustering(pairs, floor);
    // `counts[i]` = (distinct normalised pairs, true positives) among
    // `accepted[..i]`: `Metrics::of_pairs`' dedup, one prefix at a time.
    // UMC's output is one-to-one, so its pairs are distinct; only Dirty ER
    // can accept a pair and its mirror, which count once.
    let mut seen = HashSet::new();
    let mut counts = Vec::with_capacity(accepted.len() + 1);
    let (mut unique, mut tp) = (0, 0);
    counts.push((unique, tp));
    for p in &accepted {
        if !gt.is_dirty() || seen.insert(gt.normalize(p.left, p.right)) {
            unique += 1;
            tp += usize::from(gt.contains(p.left, p.right));
        }
        counts.push((unique, tp));
    }
    deltas
        .iter()
        .map(|&delta| {
            let len = accepted.partition_point(|p| p.score >= delta);
            let (unique, tp) = counts[len];
            SweepPoint {
                delta,
                matches: accepted[..len].to_vec(),
                metrics: Metrics::from_counts(tp, unique - tp, gt.len() - tp),
            }
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use er_core::EntityId;
    use er_eval::pearson;

    fn pair(l: u32, r: u32, s: f32) -> ScoredPair {
        ScoredPair::new(EntityId(l), EntityId(r), s)
    }

    /// Three true matches at high scores, two decoys at low scores. The
    /// decoys pair otherwise-unmatched entities, so no clusterer can
    /// reject them structurally — only δ filters them out.
    fn fixture() -> (Vec<ScoredPair>, GroundTruth) {
        let pairs = vec![
            pair(0, 0, 0.92),
            pair(1, 1, 0.88),
            pair(2, 2, 0.79),
            pair(3, 4, 0.32),
            pair(5, 6, 0.11),
        ];
        let gt = GroundTruth::clean_clean((0..3).map(|i| (EntityId(i), EntityId(i))));
        (pairs, gt)
    }

    #[test]
    fn sweeps_the_paper_grid_and_finds_the_best_delta() {
        let (pairs, gt) = fixture();
        let sweep = ThresholdSweep::run(&pairs, &gt);
        assert_eq!(sweep.points.len(), 19);
        assert_eq!(sweep.clusterer, Clusterer::UniqueMapping);
        let best = sweep.best().expect("non-empty grid");
        assert_eq!(best.metrics.f1, 1.0);
        // F1 is perfect on [0.35, 0.79]: decoys gone, matches kept. The
        // tie-break picks the lowest such δ on the grid.
        assert!((best.delta - 0.35).abs() < 1e-6, "{}", best.delta);
    }

    #[test]
    fn best_breaks_ties_on_the_smaller_delta_whatever_the_grid_order() {
        let (pairs, gt) = fixture();
        let mut deltas = ThresholdSweep::paper_deltas();
        deltas.reverse();
        let sweep = ThresholdSweep::run_with(&pairs, &gt, Clusterer::UniqueMapping, &deltas);
        // Points follow the caller's grid order...
        assert_eq!(sweep.points[0].delta, 0.95);
        // ...but the tie over F1 = 1 on [0.35, 0.79] still goes to 0.35.
        let best = sweep.best().expect("non-empty grid");
        assert_eq!(best.metrics.f1, 1.0);
        assert!((best.delta - 0.35).abs() < 1e-6, "{}", best.delta);
    }

    #[test]
    fn paper_deltas_are_bit_exact() {
        // Each grid point must be the f32 nearest the exact multiple of
        // 0.05 — i.e. bit-identical to the literal — not a value with
        // accumulated f32 stepping error. In particular a pair scored
        // exactly 0.35f32 must satisfy `score >= delta` at δ₇.
        let expected: [f32; 19] = [
            0.05, 0.1, 0.15, 0.2, 0.25, 0.3, 0.35, 0.4, 0.45, 0.5, 0.55, 0.6, 0.65, 0.7, 0.75, 0.8,
            0.85, 0.9, 0.95,
        ];
        let got = ThresholdSweep::paper_deltas();
        assert_eq!(got.len(), 19);
        for (i, (g, e)) in got.iter().zip(expected.iter()).enumerate() {
            assert_eq!(
                g.to_bits(),
                e.to_bits(),
                "δ{} = {g:?} is not bit-identical to the literal {e:?}",
                i + 1
            );
        }
        assert!(0.35f32 >= got[6], "nominal grid score flips the δ₇ cut");
    }

    #[test]
    fn match_count_is_monotone_non_increasing_in_delta() {
        let (pairs, gt) = fixture();
        let sweep = ThresholdSweep::run(&pairs, &gt);
        for w in sweep.points.windows(2) {
            assert!(
                w[0].matches.len() >= w[1].matches.len(),
                "δ={} has fewer matches than δ={}",
                w[0].delta,
                w[1].delta
            );
        }
    }

    #[test]
    fn clusterer_curves_are_strongly_correlated_on_easy_data() {
        // The Fig. 2 generality check in miniature: UMC and Kiraly
        // produce near-identical F1 curves on well-separated scores.
        let (pairs, gt) = fixture();
        let umc = ThresholdSweep::run(&pairs, &gt).f1_curve();
        let kiraly = ThresholdSweep::run_with(
            &pairs,
            &gt,
            Clusterer::Kiraly,
            &ThresholdSweep::paper_deltas(),
        )
        .f1_curve();
        let r = pearson(&umc, &kiraly);
        assert!(r > 0.9, "Kiraly decorrelated from UMC: r = {r}");
    }

    #[test]
    fn empty_grid_and_empty_candidates_stay_well_defined() {
        let (pairs, gt) = fixture();
        let empty_grid = ThresholdSweep::run_with(&pairs, &gt, Clusterer::UniqueMapping, &[]);
        assert!(empty_grid.best().is_none());
        let no_candidates = ThresholdSweep::run(&[], &gt);
        let best = no_candidates.best().expect("grid is non-empty");
        assert_eq!(best.metrics.f1, 0.0);
        assert!(best.matches.is_empty());
    }
}
