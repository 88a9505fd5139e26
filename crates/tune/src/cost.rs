//! The per-backend query-cost estimators.
//!
//! Every estimate is in the same currency: **full-width distance
//! evaluations per query** (the `u64` that `IndexReader::search_counted`
//! reports) and **estimated nanoseconds per query** (evaluations priced by
//! the `Calibration` table, plus each backend's setup terms — the
//! quantized first pass for exact scans, the signature dots for LSH).
//!
//! - **Exact** is analytic: a pure scan evaluates every live row; a
//!   quantized scan runs a cheap first pass over every row and re-ranks
//!   `max(rerank, k)` survivors at full width.
//! - **HNSW** has no closed form — beam search's evaluation count depends
//!   on the graph actually built. [`CostModel::probe_hnsw`] *measures*
//!   mean evaluations at a few anchor `ef_search` values on a query
//!   sample (cheap: the sample index is small) and interpolates piecewise
//!   linearly in `ef` between them.
//! - **LSH** follows expected bucket occupancy: a *dry gather* of the
//!   probed buckets on sample queries — signature dots and bucket
//!   lookups only, zero distance evaluations — yields the expected
//!   unique candidate count (the union of probed-bucket occupancies;
//!   tables overlap far too much for an independence correction, since a
//!   true near-duplicate collides in every table at once). On top the
//!   query pays `tables × planes` signature dots.
//!
//! Accuracy is pinned in `tests/cost_accuracy.rs`: each estimator stays
//! within 25% of measured evaluation counts on D1/D3/D7 for both metrics.

use crate::calibrate::{Calibration, CostTier};
use er_core::{ErError, Metric, Quantization, QueryParams, Result, ScanConfig};
use er_index::{HnswIndex, HyperplaneLsh, IndexReader};

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

/// The estimator bundle: a `Calibration` table plus the per-backend
/// formulas.
#[derive(Debug, Clone)]
pub struct CostModel {
    pub(crate) calibration: Calibration,
}

impl CostModel {
    /// The compiled-in calibration snapshot.
    pub fn builtin() -> CostModel {
        CostModel {
            calibration: Calibration::builtin(),
        }
    }

    /// Exact scan over `rows` live rows of width `dim`: analytic.
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
        let full =
            self.calibration
                .ns_per_row_metric(CostTier::of_kernel(scan.tier), metric, dim)?;
        Ok(match scan.quant {
            Quantization::None => CostEstimate {
                evals: rows as f64,
                ns: rows as f64 * full,
            },
            Quantization::Int8 { rerank } | Quantization::Pq { rerank, .. } => {
                let first_pass =
                    self.calibration
                        .ns_per_row_metric(CostTier::of_scan(scan), metric, dim)?;
                let rerank = rerank.max(k).min(rows) as f64;
                CostEstimate {
                    evals: rerank,
                    ns: rows as f64 * first_pass + rerank * full,
                }
            }
        })
    }

    /// Probe an HNSW index into an [`HnswCostModel`]: measure mean
    /// evaluation counts at each `anchor_efs` value over `queries`, and
    /// price rows by the index's metric/tier/dim.
    pub fn probe_hnsw(
        &self,
        index: &HnswIndex,
        queries: impl Iterator<Item = impl AsRef<[f32]>> + Clone,
        k: usize,
        anchor_efs: &[usize],
    ) -> Result<HnswCostModel> {
        let config = index.config();
        let ns_per_row = self.calibration.ns_per_row_metric(
            CostTier::of_kernel(config.tier),
            config.metric,
            index.matrix().dim(),
        )?;
        if anchor_efs.is_empty() {
            return Err(ErError::Config(
                "probe_hnsw needs at least one anchor ef".into(),
            ));
        }
        let mut anchors: Vec<(f64, f64)> = Vec::with_capacity(anchor_efs.len());
        for &ef in anchor_efs {
            let mut total = 0u64;
            let mut count = 0usize;
            for q in queries.clone() {
                let (_, evals) =
                    index.search_counted(q.as_ref(), k, &QueryParams::with_ef_search(ef));
                total += evals;
                count += 1;
            }
            if count == 0 {
                return Err(ErError::Config(
                    "probe_hnsw needs at least one query".into(),
                ));
            }
            anchors.push((ef as f64, total as f64 / count as f64));
        }
        anchors.sort_by(|a, b| a.0.total_cmp(&b.0));
        anchors.dedup_by(|a, b| a.0 == b.0);
        Ok(HnswCostModel {
            anchors,
            ns_per_row,
        })
    }

    /// LSH cost under runtime `(probes, tables)` from expected bucket
    /// occupancy, averaged over `queries`.
    ///
    /// Per query the probed buckets are dry-gathered — signature dots and
    /// bucket lookups, **no distance evaluations** — into the unique
    /// candidate count (the union of the probed occupancies; an
    /// independence correction over `probed_occupancy` badly over-counts
    /// because a near-duplicate collides in every table at once, so the
    /// union is taken exactly). Candidates are re-ranked at full width
    /// (= the counted evaluations); on top the query pays
    /// `tables × planes` signature dot products.
    pub fn lsh(
        &self,
        index: &HyperplaneLsh,
        queries: impl Iterator<Item = impl AsRef<[f32]>>,
        probes: usize,
        tables: usize,
    ) -> Result<CostEstimate> {
        let config = index.config();
        let dim = index.matrix().dim();
        let tier = CostTier::of_kernel(config.tier);
        let rerank_ns = self
            .calibration
            .ns_per_row_metric(tier, config.metric, dim)?;
        let hash_ns = self.calibration.ns_per_row(tier, "dot", dim)?;
        let mut total_expected = 0.0f64;
        let mut count = 0usize;
        for q in queries {
            total_expected += index
                .candidates_slice_with(q.as_ref(), probes, tables)
                .len() as f64;
            count += 1;
        }
        if count == 0 {
            return Err(ErError::Config(
                "lsh estimate needs at least one query".into(),
            ));
        }
        let evals = total_expected / count as f64;
        let tables = tables.clamp(1, config.tables);
        let hashes = (tables * config.planes) as f64;
        Ok(CostEstimate {
            evals,
            ns: evals * rerank_ns + hashes * hash_ns,
        })
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
}

impl HnswCostModel {
    /// Predicted cost at beam width `ef`.
    pub fn estimate(&self, ef: usize) -> CostEstimate {
        let evals = self.evals_at(ef as f64);
        CostEstimate {
            evals,
            ns: evals * self.ns_per_row,
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
