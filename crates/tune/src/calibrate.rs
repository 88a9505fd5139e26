//! The calibration table: nanoseconds per scanned row, one frozen cell
//! per `(cost tier, kernel op, benched dim)`.
//!
//! The cost model prices a query as *distance evaluations × ns-per-row*,
//! so everything hinges on knowing what one row costs. That number is
//! frozen data: the compiled-in `BUILTIN` table (its doc says where the
//! cells were measured), so the tuner works without touching the
//! filesystem. `bench_e2e --traced` reports today's 48-d
//! `core.scan_ns_per_row.{reference,lanes,int8}` beside it, which is
//! where drift shows.
//!
//! [`ns_per_row`] interpolates linearly between the two bracketing
//! benched dimensions; outside the benched range the nearest cell is
//! scaled by the dim ratio (row cost is linear in dim for every kernel
//! here).

use er_core::{KernelTier, Metric, Quantization, ScanConfig};

/// The kernel a scan's *first pass* runs on — [`KernelTier`] widened with
/// the quantized tiers. Its discriminant indexes `BUILTIN`.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum CostTier {
    Reference,
    Lanes,
    Int8,
    Pq,
}

impl CostTier {
    /// The tier a [`ScanConfig`]'s first pass runs on: the quantized tier
    /// when quantization is set, the full-width kernel tier otherwise.
    pub(crate) fn of_scan(scan: &ScanConfig) -> CostTier {
        match scan.quant {
            Quantization::None => CostTier::of_kernel(scan.tier),
            Quantization::Int8 { .. } => CostTier::Int8,
            Quantization::Pq { .. } => CostTier::Pq,
        }
    }

    /// The full-width tier (what re-ranking and graph distances run on).
    pub(crate) fn of_kernel(tier: KernelTier) -> CostTier {
        match tier {
            KernelTier::Reference => CostTier::Reference,
            KernelTier::Lanes => CostTier::Lanes,
        }
    }
}

/// The row kernel a cell prices: a [`Metric`]'s distance, or the bare dot
/// product an LSH signature bit costs. Its discriminant indexes
/// `BUILTIN`.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum Op {
    Dot,
    Cosine,
    SqEuclidean,
}

impl From<Metric> for Op {
    fn from(metric: Metric) -> Op {
        match metric {
            Metric::Cosine => Op::Cosine,
            Metric::Euclidean => Op::SqEuclidean,
        }
    }
}

/// The benched dimensions, ascending; the last index of every `BUILTIN`
/// cell row.
const DIMS: [usize; 3] = [48, 64, 96];

/// Frozen ns-per-row cells, `BUILTIN[tier][op][dim]` in [`CostTier`],
/// [`Op`] and `DIMS` order. They were recorded once, at commit bff992d,
/// by the since-deleted `bench_kernels` binary: a full scan of 12 000
/// seeded random rows per cell, 4 queries, best of 5 repetitions, on an
/// AVX2 (`x86-64-v3`) build. Golden `AUTOTUNE` pins them, because its
/// trials digest folds every trial's estimated ns; changing a cell is a
/// named re-pin of that row.
const BUILTIN: [[[f64; DIMS.len()]; 3]; 4] = [
    // Reference: dot, cosine, sqeuclidean.
    [
        [23.868397, 36.832645, 55.922314],
        [25.780834, 40.547585, 56.78425],
        [27.776, 47.59342, 68.10485],
    ],
    // Lanes.
    [
        [13.102708, 20.300125, 28.092522],
        [12.514688, 18.14148, 28.066626],
        [15.775354, 21.86329, 33.56194],
    ],
    // Int8.
    [
        [7.3765, 5.8832707, 7.306354],
        [8.043167, 6.7543125, 9.330521],
        [8.47425, 6.630375, 8.638729],
    ],
    // Pq.
    [
        [5.1401668, 5.1114583, 5.29],
        [6.4361873, 6.5704165, 6.833875],
        [5.064271, 5.0927916, 5.395604],
    ],
];

/// Ns-per-row for one stored row under `(tier, op)` at `dim`: linear
/// interpolation between the bracketing benched dims, nearest cell
/// scaled by the dim ratio outside the benched range.
pub(crate) fn ns_per_row(tier: CostTier, op: Op, dim: usize) -> f64 {
    let cells = &BUILTIN[tier as usize][op as usize];
    let last = DIMS.len() - 1;
    let d = dim as f64;
    if dim <= DIMS[0] {
        return cells[0] * d / DIMS[0] as f64;
    }
    if dim >= DIMS[last] {
        return cells[last] * d / DIMS[last] as f64;
    }
    let hi = DIMS.partition_point(|&benched| benched < dim);
    if DIMS[hi] == dim {
        return cells[hi];
    }
    let lo = hi - 1;
    let t = (d - DIMS[lo] as f64) / (DIMS[hi] - DIMS[lo]) as f64;
    cells[lo] + t * (cells[hi] - cells[lo])
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
    const OPS: [Op; 3] = [Op::Dot, Op::Cosine, Op::SqEuclidean];

    #[test]
    fn builtin_has_every_tier_metric_and_benched_dim() {
        for tier in TIERS {
            for op in OPS {
                for (i, dim) in DIMS.into_iter().enumerate() {
                    let cell = BUILTIN[tier as usize][op as usize][i];
                    assert!(
                        cell.is_finite() && cell > 0.0,
                        "{tier:?}/{op:?}/{dim}: {cell}"
                    );
                    // The end dims go through the dim-ratio scaling, which
                    // may round in the last bit.
                    let ns = ns_per_row(tier, op, dim);
                    assert!(
                        (ns - cell).abs() <= 1e-12 * cell,
                        "{tier:?}/{op:?}/{dim}: {ns}"
                    );
                }
            }
        }
    }

    #[test]
    fn every_tier_and_metric_prices_any_dim() {
        for tier in TIERS {
            for metric in [Metric::Cosine, Metric::Euclidean] {
                for dim in [1, 48, 56, 96, 300] {
                    let ns = ns_per_row(tier, metric.into(), dim);
                    assert!(
                        ns.is_finite() && ns > 0.0,
                        "{tier:?}/{metric:?}/{dim}: {ns}"
                    );
                }
            }
        }
    }

    #[test]
    fn lookup_interpolates_between_benched_dims_and_scales_outside() {
        let cosine = |dim| ns_per_row(CostTier::Reference, Op::Cosine, dim);
        let (at48, at64) = (cosine(48), cosine(64));
        assert!((at48 - 25.780834).abs() < 1e-9);
        // Midpoint of the 48..64 bracket.
        assert!((cosine(56) - 0.5 * (at48 + at64)).abs() < 1e-9);
        // Below the range: scaled from the dim-48 cell.
        assert!((cosine(24) - at48 * 0.5).abs() < 1e-9);
        // Above the range: scaled from the dim-96 cell.
        assert!((cosine(192) - cosine(96) * 2.0).abs() < 1e-9);
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
}
