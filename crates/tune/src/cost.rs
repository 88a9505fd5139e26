//! The per-backend query-cost estimators: the one place a query is
//! priced. Measuring is the tuner's job (one `search_counted` pass per
//! trial); this module turns what was measured into a cost.
//!
//! Every estimate is in the same currency: **full-width distance
//! evaluations per query** (the `u64` that `IndexReader::search_counted`
//! reports) and **estimated nanoseconds per query** (evaluations priced by
//! the frozen calibration table, plus each backend's setup terms — the
//! quantized first pass for exact scans, the signature dots for LSH).
//!
//! - **Exact** is analytic: a pure scan evaluates every live row; a
//!   quantized scan runs a cheap first pass over every row and re-ranks
//!   `max(rerank, k)` survivors at full width.
//! - **HNSW** has no closed form — beam search's evaluation count depends
//!   on the graph actually built. Mean evaluations measured at a few
//!   anchor `ef_search` values become an [`HnswCostModel`], which
//!   interpolates piecewise linearly in `ef` between them.
//!   [`CostModel::probe_hnsw`] measures such anchors on any built index.
//! - **LSH** is priced from the measured mean candidate count (every
//!   candidate is re-ranked at full width, so it is the evaluation count)
//!   plus the query's `tables × planes` signature dots.
//!
//! **Extrapolation.** The tuner measures on a sample and prices the full
//! collection: exact scans analytically at the full row count; LSH
//! candidate counts scale with collection size (bucket occupancy is
//! proportional to rows); HNSW evaluation counts scale with the depth
//! ratio `ln N / ln n` — the logarithmic-descent heuristic. When the
//! measured index holds the whole collection (the repo's datasets fit the
//! tuner's sample) every scale factor is exactly 1.
//!
//! Accuracy is pinned in `tests/cost_accuracy.rs`: each estimator stays
//! within 25% of measured evaluation counts on D1/D3/D7 for both metrics.

use crate::autotune::search_probes;
use crate::calibrate::{ns_per_row, CostTier, Op};
use er_core::{ErError, Metric, Quantization, QueryParams, Result, ScanConfig};
use er_index::{HnswIndex, HyperplaneLsh, NnIndex};

/// One backend configuration's predicted per-query cost.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct CostEstimate {
    /// Predicted full-width distance evaluations per query — the number
    /// `search_counted` is expected to report.
    pub evals: f64,
    /// Predicted nanoseconds per query: `evals` priced by the calibration
    /// table, plus setup terms (quantized first pass, LSH signature dots)
    /// that `evals` deliberately excludes.
    pub ns: f64,
}

/// The per-backend formulas over the compiled-in calibration table. It
/// holds no state.
#[derive(Debug, Clone, Copy)]
pub struct CostModel;

impl CostModel {
    /// The model over the compiled-in calibration table.
    pub fn builtin() -> CostModel {
        CostModel
    }

    /// Exact scan over `rows` live rows of width `dim`: analytic, and
    /// always `Ok`.
    ///
    /// Pure scans evaluate every live row at full width. Quantized scans
    /// run the quantized kernel over every row, then re-rank
    /// `max(rerank, k)` candidates (clamped to `rows`) at full width —
    /// only the re-rank counts as full-width evaluations, matching the
    /// counter contract.
    pub fn exact(
        &self,
        rows: usize,
        dim: usize,
        metric: Metric,
        scan: &ScanConfig,
        k: usize,
    ) -> Result<CostEstimate> {
        let full = ns_per_row(CostTier::of_kernel(scan.tier), metric.into(), dim);
        Ok(match scan.quant {
            Quantization::None => CostEstimate {
                evals: rows as f64,
                ns: rows as f64 * full,
            },
            Quantization::Int8 { rerank } | Quantization::Pq { rerank, .. } => {
                let first_pass = ns_per_row(CostTier::of_scan(scan), metric.into(), dim);
                let rerank = rerank.max(k).min(rows) as f64;
                CostEstimate {
                    evals: rerank,
                    ns: rows as f64 * first_pass + rerank * full,
                }
            }
        })
    }

    /// Probe an HNSW index into an [`HnswCostModel`]: measure mean
    /// evaluation counts at each `anchor_efs` value over `queries` (the
    /// tuner's measuring pass), priced by the index's metric/tier/dim for
    /// the index's own rows.
    pub fn probe_hnsw(
        &self,
        index: &HnswIndex,
        queries: impl Iterator<Item = impl AsRef<[f32]>> + Clone,
        k: usize,
        anchor_efs: &[usize],
    ) -> Result<HnswCostModel> {
        if anchor_efs.is_empty() {
            return Err(ErError::Config(
                "probe_hnsw needs at least one anchor ef".into(),
            ));
        }
        if queries.clone().next().is_none() {
            return Err(ErError::Config(
                "probe_hnsw needs at least one query".into(),
            ));
        }
        let anchors = anchor_efs
            .iter()
            .map(|&ef| {
                let params = QueryParams::with_ef_search(ef);
                let evals = search_probes(index, queries.clone(), k, &params, |_, _| {});
                (ef as f64, evals)
            })
            .collect();
        Ok(HnswCostModel::new(index, anchors, index.len()))
    }

    /// LSH cost of a query under runtime `tables` that re-ranks `evals`
    /// candidates — the mean measured on `index` — priced for a
    /// collection of `rows` rows.
    ///
    /// Candidates are re-ranked at full width (= the counted evaluations)
    /// and scale with the collection, by `rows / index.len()`; on top the
    /// query pays `tables × planes` signature dot products, which do not.
    pub fn lsh(
        &self,
        index: &HyperplaneLsh,
        tables: usize,
        evals: f64,
        rows: usize,
    ) -> CostEstimate {
        let config = index.config();
        let dim = index.matrix().dim();
        let tier = CostTier::of_kernel(index.tier());
        let rerank_ns = ns_per_row(tier, config.metric.into(), dim);
        let hash_ns = ns_per_row(tier, Op::Dot, dim);
        let hashes = (tables.clamp(1, config.tables) * config.planes) as f64;
        let measured_ns = evals * rerank_ns + hashes * hash_ns;
        let scaled = evals * (rows as f64 / index.len() as f64);
        // Priced as the measured cost plus the extra candidates' re-rank,
        // in this order, so golden `AUTOTUNE_SCALED` keeps its bits.
        CostEstimate {
            evals: scaled,
            ns: measured_ns + (scaled - evals) * rerank_ns,
        }
    }
}

/// A probed HNSW cost curve: mean measured evaluations at anchor
/// `ef_search` values, interpolated piecewise linearly in `ef`.
///
/// Beam width is the only runtime knob, and measured evaluation counts
/// grow monotonically (and sub-linearly) with it; a handful of anchors
/// brackets the sweep grid, so linear interpolation stays well inside the
/// 25% accuracy budget. Outside the anchor range the nearest segment is
/// extended (clamped below at the smallest anchor's count — a narrower
/// beam never evaluates more).
#[derive(Debug, Clone)]
pub struct HnswCostModel {
    /// `(ef, mean evals)` sorted by ef.
    anchors: Vec<(f64, f64)>,
    ns_per_row: f64,
    /// The depth ratio `ln N / ln n` from the measured index's `n` rows to
    /// the priced collection's `N`; 1 when they are the same.
    scale: f64,
}

impl HnswCostModel {
    /// The curve of `(ef, mean evals)` anchors measured on `index`, priced
    /// by its metric/tier/dim for a collection of `rows` rows.
    pub(crate) fn new(index: &HnswIndex, mut anchors: Vec<(f64, f64)>, rows: usize) -> Self {
        anchors.sort_by(|a, b| a.0.total_cmp(&b.0));
        anchors.dedup_by(|a, b| a.0 == b.0);
        let config = index.config();
        let measured = index.len();
        let scale = if rows > measured && measured >= 2 {
            (rows as f64).ln() / (measured as f64).ln()
        } else {
            1.0
        };
        HnswCostModel {
            anchors,
            ns_per_row: ns_per_row(
                CostTier::of_kernel(index.tier()),
                config.metric.into(),
                index.matrix().dim(),
            ),
            scale,
        }
    }

    /// Predicted cost at beam width `ef`.
    pub fn estimate(&self, ef: usize) -> CostEstimate {
        let evals = self.evals_at(ef as f64);
        CostEstimate {
            evals: evals * self.scale,
            ns: evals * self.ns_per_row * self.scale,
        }
    }

    fn evals_at(&self, ef: f64) -> f64 {
        let a = &self.anchors;
        if a.len() == 1 {
            return a[0].1;
        }
        // Pick the segment to interpolate (or extrapolate) on.
        let seg = if ef <= a[0].0 {
            (a[0], a[1])
        } else if ef >= a[a.len() - 1].0 {
            (a[a.len() - 2], a[a.len() - 1])
        } else {
            let hi = a.iter().position(|&(x, _)| x >= ef).expect("in range");
            (a[hi - 1], a[hi])
        };
        let ((x0, y0), (x1, y1)) = seg;
        let t = (ef - x0) / (x1 - x0);
        // Never predict below the narrowest measured beam: evals are
        // monotone in ef, so left-extrapolation clamps at the first anchor.
        (y0 + t * (y1 - y0)).max(a[0].1.min(y0))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use er_core::KernelTier;

    #[test]
    fn pure_exact_scan_costs_one_full_width_eval_per_row() {
        let model = CostModel::builtin();
        let est = model
            .exact(1000, 64, Metric::Cosine, &ScanConfig::default(), 10)
            .unwrap();
        assert_eq!(est.evals, 1000.0);
        assert!((est.ns - 1000.0 * 40.547585).abs() < 1e-3);
    }

    #[test]
    fn quantized_scan_charges_the_first_pass_plus_the_rerank() {
        let model = CostModel::builtin();
        let scan = ScanConfig {
            tier: KernelTier::Lanes,
            quant: Quantization::Int8 { rerank: 40 },
        };
        let est = model.exact(1000, 64, Metric::Cosine, &scan, 10).unwrap();
        assert_eq!(est.evals, 40.0);
        let expected = 1000.0 * 6.7543125 + 40.0 * 18.14148;
        assert!((est.ns - expected).abs() < 1e-3, "{} vs {expected}", est.ns);
        // k above the rerank budget widens the re-rank set; tiny
        // collections clamp it at the row count.
        let est = model.exact(1000, 64, Metric::Cosine, &scan, 100).unwrap();
        assert_eq!(est.evals, 100.0);
        let est = model.exact(30, 64, Metric::Cosine, &scan, 100).unwrap();
        assert_eq!(est.evals, 30.0);
    }

    #[test]
    fn hnsw_model_interpolates_between_its_anchors() {
        let model = HnswCostModel {
            anchors: vec![(16.0, 100.0), (64.0, 220.0), (128.0, 300.0)],
            ns_per_row: 10.0,
            scale: 1.0,
        };
        assert_eq!(model.estimate(16).evals, 100.0);
        assert_eq!(model.estimate(40).evals, 160.0);
        assert_eq!(model.estimate(128).evals, 300.0);
        assert_eq!(model.estimate(128).ns, 3000.0);
        // Right-extrapolation continues the last segment; left clamps at
        // the narrowest measured beam.
        assert_eq!(model.estimate(192).evals, 380.0);
        assert_eq!(model.estimate(4).evals, 100.0);
    }
}
