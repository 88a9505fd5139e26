//! Calibration tables: nanoseconds-per-row scan cells keyed by
//! `(cost tier, metric, dim)`.
//!
//! The cost model prices a query as *distance evaluations × ns-per-row*,
//! so everything hinges on knowing what one row costs. That number is
//! frozen data: [`Calibration::builtin`] carries the compiled-in
//! `BUILTIN` table (its doc says where the cells were measured), so the
//! tuner works without touching the filesystem. `bench_e2e --traced`
//! reports today's 48-d `core.scan_ns_per_row.{reference,lanes,int8}`
//! beside it, which is where drift shows.
//!
//! Lookups interpolate linearly between the two bracketing benched
//! dimensions; outside the benched range the nearest cell is scaled by
//! the dim ratio (row cost is linear in dim for every kernel here).

use er_core::{ErError, KernelTier, Metric, Quantization, Result, ScanConfig};

/// The kernel a scan's *first pass* runs on — [`KernelTier`] widened with
/// the quantized tiers.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum CostTier {
    Reference,
    Lanes,
    Int8,
    Pq,
}

impl CostTier {
    /// The tier's lower-case name, as error messages print it.
    pub fn name(self) -> &'static str {
        match self {
            CostTier::Reference => "reference",
            CostTier::Lanes => "lanes",
            CostTier::Int8 => "int8",
            CostTier::Pq => "pq",
        }
    }

    /// The tier a [`ScanConfig`]'s first pass runs on: the quantized tier
    /// when quantization is set, the full-width kernel tier otherwise.
    pub fn of_scan(scan: &ScanConfig) -> CostTier {
        match scan.quant {
            Quantization::None => CostTier::of_kernel(scan.tier),
            Quantization::Int8 { .. } => CostTier::Int8,
            Quantization::Pq { .. } => CostTier::Pq,
        }
    }

    /// The full-width tier (what re-ranking and graph distances run on).
    pub fn of_kernel(tier: KernelTier) -> CostTier {
        match tier {
            KernelTier::Reference => CostTier::Reference,
            KernelTier::Lanes => CostTier::Lanes,
        }
    }
}

/// The calibration metric name for a [`Metric`].
pub fn metric_name(metric: Metric) -> &'static str {
    match metric {
        Metric::Euclidean => "sqeuclidean",
        Metric::Cosine => "cosine",
    }
}

/// One calibration cell: what one row of a `dim`-dimensional scan costs
/// under `(tier, metric)` on the benched machine.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Cell {
    pub tier: CostTier,
    /// `"dot"`, `"cosine"` or `"sqeuclidean"` — kept as the raw bench
    /// name because the hash-cost lookup needs `"dot"`, which has no
    /// [`Metric`] variant.
    pub metric: &'static str,
    pub dim: usize,
    pub ns_per_row: f64,
}

/// A full `(tier, metric, dim)` table of ns-per-row cells.
#[derive(Debug, Clone)]
pub struct Calibration {
    cells: Vec<Cell>,
}

/// Frozen ns-per-row cells. They were recorded once, at commit bff992d, by
/// the since-deleted `bench_kernels` binary: a full scan of 12 000 seeded
/// random rows per cell, 4 queries, best of 5 repetitions, on an AVX2
/// (`x86-64-v3`) build. Golden `AUTOTUNE` pins them, because its trials
/// digest folds every trial's estimated ns; changing a cell is a named
/// re-pin of that row.
const BUILTIN: &[(CostTier, &str, usize, f64)] = &[
    (CostTier::Reference, "dot", 48, 23.868397),
    (CostTier::Reference, "cosine", 48, 25.780834),
    (CostTier::Reference, "sqeuclidean", 48, 27.776),
    (CostTier::Lanes, "dot", 48, 13.102708),
    (CostTier::Lanes, "cosine", 48, 12.514688),
    (CostTier::Lanes, "sqeuclidean", 48, 15.775354),
    (CostTier::Int8, "dot", 48, 7.3765),
    (CostTier::Int8, "cosine", 48, 8.043167),
    (CostTier::Int8, "sqeuclidean", 48, 8.47425),
    (CostTier::Pq, "dot", 48, 5.1401668),
    (CostTier::Pq, "cosine", 48, 6.4361873),
    (CostTier::Pq, "sqeuclidean", 48, 5.064271),
    (CostTier::Reference, "dot", 64, 36.832645),
    (CostTier::Reference, "cosine", 64, 40.547585),
    (CostTier::Reference, "sqeuclidean", 64, 47.59342),
    (CostTier::Lanes, "dot", 64, 20.300125),
    (CostTier::Lanes, "cosine", 64, 18.14148),
    (CostTier::Lanes, "sqeuclidean", 64, 21.86329),
    (CostTier::Int8, "dot", 64, 5.8832707),
    (CostTier::Int8, "cosine", 64, 6.7543125),
    (CostTier::Int8, "sqeuclidean", 64, 6.630375),
    (CostTier::Pq, "dot", 64, 5.1114583),
    (CostTier::Pq, "cosine", 64, 6.5704165),
    (CostTier::Pq, "sqeuclidean", 64, 5.0927916),
    (CostTier::Reference, "dot", 96, 55.922314),
    (CostTier::Reference, "cosine", 96, 56.78425),
    (CostTier::Reference, "sqeuclidean", 96, 68.10485),
    (CostTier::Lanes, "dot", 96, 28.092522),
    (CostTier::Lanes, "cosine", 96, 28.066626),
    (CostTier::Lanes, "sqeuclidean", 96, 33.56194),
    (CostTier::Int8, "dot", 96, 7.306354),
    (CostTier::Int8, "cosine", 96, 9.330521),
    (CostTier::Int8, "sqeuclidean", 96, 8.638729),
    (CostTier::Pq, "dot", 96, 5.29),
    (CostTier::Pq, "cosine", 96, 6.833875),
    (CostTier::Pq, "sqeuclidean", 96, 5.395604),
];

impl Calibration {
    /// The compiled-in `BUILTIN` table.
    pub fn builtin() -> Calibration {
        Calibration {
            cells: BUILTIN
                .iter()
                .map(|&(tier, metric, dim, ns_per_row)| Cell {
                    tier,
                    metric,
                    dim,
                    ns_per_row,
                })
                .collect(),
        }
    }

    pub fn cells(&self) -> &[Cell] {
        &self.cells
    }

    /// Ns-per-row for one stored row under `(tier, metric)` at `dim`:
    /// linear interpolation between the bracketing benched dims, nearest
    /// cell scaled by the dim ratio outside the benched range.
    pub fn ns_per_row(&self, tier: CostTier, metric: &str, dim: usize) -> Result<f64> {
        let mut matching: Vec<&Cell> = self
            .cells
            .iter()
            .filter(|c| c.tier == tier && c.metric == metric)
            .collect();
        if matching.is_empty() {
            return Err(ErError::Config(format!(
                "no calibration cells for tier={} metric={metric}",
                tier.name()
            )));
        }
        matching.sort_by_key(|c| c.dim);
        let d = dim as f64;
        let first = matching[0];
        let last = matching[matching.len() - 1];
        if dim <= first.dim {
            return Ok(first.ns_per_row * d / first.dim as f64);
        }
        if dim >= last.dim {
            return Ok(last.ns_per_row * d / last.dim as f64);
        }
        let hi = matching
            .iter()
            .position(|c| c.dim >= dim)
            .expect("in range");
        let (lo, hi) = (matching[hi - 1], matching[hi]);
        if hi.dim == dim {
            return Ok(hi.ns_per_row);
        }
        let t = (d - lo.dim as f64) / (hi.dim - lo.dim) as f64;
        Ok(lo.ns_per_row + t * (hi.ns_per_row - lo.ns_per_row))
    }

    /// Convenience: ns-per-row for a [`Metric`] (not the raw bench name).
    pub fn ns_per_row_metric(&self, tier: CostTier, metric: Metric, dim: usize) -> Result<f64> {
        self.ns_per_row(tier, metric_name(metric), dim)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    const TIERS: [CostTier; 4] = [
        CostTier::Reference,
        CostTier::Lanes,
        CostTier::Int8,
        CostTier::Pq,
    ];

    #[test]
    fn builtin_has_every_tier_metric_and_benched_dim() {
        let cal = Calibration::builtin();
        assert_eq!(cal.cells().len(), TIERS.len() * 3 * 3);
        for tier in TIERS {
            for metric in ["dot", "cosine", "sqeuclidean"] {
                for dim in [48, 64, 96] {
                    let cell = cal
                        .cells()
                        .iter()
                        .find(|c| c.tier == tier && c.metric == metric && c.dim == dim);
                    let ns = cell.map(|c| c.ns_per_row);
                    assert!(
                        ns.is_some_and(|ns| ns.is_finite() && ns > 0.0),
                        "{}/{metric}/{dim}: {ns:?}",
                        tier.name()
                    );
                }
            }
        }
    }

    #[test]
    fn every_tier_and_metric_prices_any_dim() {
        let cal = Calibration::builtin();
        for tier in TIERS {
            for metric in [Metric::Cosine, Metric::Euclidean] {
                for dim in [1, 48, 56, 96, 300] {
                    let ns = cal.ns_per_row_metric(tier, metric, dim);
                    assert!(
                        ns.as_ref().is_ok_and(|ns| ns.is_finite() && *ns > 0.0),
                        "{}/{metric:?}/{dim}: {ns:?}",
                        tier.name()
                    );
                }
            }
        }
    }

    #[test]
    fn lookup_interpolates_between_benched_dims_and_scales_outside() {
        let cal = Calibration::builtin();
        let at48 = cal.ns_per_row(CostTier::Reference, "cosine", 48).unwrap();
        let at64 = cal.ns_per_row(CostTier::Reference, "cosine", 64).unwrap();
        assert!((at48 - 25.780834).abs() < 1e-9);
        // Midpoint of the 48..64 bracket.
        let at56 = cal.ns_per_row(CostTier::Reference, "cosine", 56).unwrap();
        assert!((at56 - 0.5 * (at48 + at64)).abs() < 1e-9);
        // Below the range: scaled from the dim-48 cell.
        let at24 = cal.ns_per_row(CostTier::Reference, "cosine", 24).unwrap();
        assert!((at24 - at48 * 0.5).abs() < 1e-9);
        // Above the range: scaled from the dim-96 cell.
        let at96 = cal.ns_per_row(CostTier::Reference, "cosine", 96).unwrap();
        let at192 = cal.ns_per_row(CostTier::Reference, "cosine", 192).unwrap();
        assert!((at192 - at96 * 2.0).abs() < 1e-9);
    }

    #[test]
    fn scan_config_maps_to_its_first_pass_tier() {
        assert_eq!(
            CostTier::of_scan(&ScanConfig::default()),
            CostTier::Reference
        );
        assert_eq!(
            CostTier::of_scan(&ScanConfig::with_tier(KernelTier::Lanes)),
            CostTier::Lanes
        );
        let int8 = ScanConfig {
            tier: KernelTier::Lanes,
            quant: Quantization::Int8 { rerank: 8 },
        };
        assert_eq!(CostTier::of_scan(&int8), CostTier::Int8);
    }

    #[test]
    fn missing_cells_are_typed_errors() {
        let cal = Calibration::builtin();
        assert!(matches!(
            cal.ns_per_row(CostTier::Reference, "hamming", 64),
            Err(ErError::Config(_))
        ));
    }
}
