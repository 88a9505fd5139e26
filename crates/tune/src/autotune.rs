//! The parameter autotuner: sweep backend configurations on a sample of
//! the collection, score each by a ground-truth-free recall proxy and the
//! cost model, and return the cheapest [`OperatingPoint`] meeting the
//! recall target.
//!
//! The sweep never rebuilds an index per knob: HNSW is built once per `M`
//! and `ef_search` varies at query time; LSH is built once at the widest
//! table count and `(tables, probes)` vary at query time — the runtime
//! [`QueryParams`] redesign exists exactly for this loop.
//!
//! **Recall proxy.** The tuner has no ground truth, so it uses the exact
//! scan's top-k on the sample as reference: a trial's recall is the mean
//! overlap of its top-k with the exact top-k over the sampled queries.
//! Exact trials therefore sit at proxy recall 1.0 by construction (kernel
//! tiers agree to within ordering tolerance; quantized re-ranks are
//! measured like every other trial).
//!
//! **Extrapolation.** Costs are estimated for the *full* collection:
//! exact analytically at the full row count; LSH candidate counts scale
//! with collection size (bucket occupancy is proportional to rows); HNSW
//! evaluation counts scale with the depth ratio `ln N / ln n` — the
//! logarithmic-descent heuristic. On collections small enough for the
//! sample to cover everything (the repo's datasets), every scale factor
//! is exactly 1 and estimates are pure measurements.
//!
//! Determinism: sampling is stride-based (no RNG), trial order is fixed,
//! and index builds take their seed from [`TunerConfig::seed`] — the same
//! inputs always yield a byte-identical chosen point (pinned by
//! `tests/autotune.rs`).

use crate::calibrate::CostTier;
use crate::cost::CostModel;
use er_core::{
    BlockerBackend, EmbeddingMatrix, ErError, HnswConfig, LshConfig, OperatingPoint, QueryParams,
    Result, ScanConfig,
};
use er_index::{AnyIndex, ExactIndex, HnswIndex, HyperplaneLsh, IndexReader, Neighbor, NnIndex};

/// What the tuner sweeps and how it samples. The defaults mirror the
/// paper's parameter ranges scaled to the repo's dataset sizes.
#[derive(Debug, Clone)]
pub struct TunerConfig {
    /// Max rows sampled (stride-sampled, deterministic) to build trial
    /// indices over.
    pub sample_rows: usize,
    /// Max queries sampled to score recall proxies with.
    pub sample_queries: usize,
    /// HNSW graph degrees to build (one build each).
    pub hnsw_ms: Vec<usize>,
    /// HNSW beam widths, swept at query time against each build.
    pub ef_grid: Vec<usize>,
    /// LSH table counts, swept at query time against one widest build.
    pub lsh_tables: Vec<usize>,
    /// LSH multi-probe depths, swept at query time.
    pub lsh_probes: Vec<usize>,
    /// Hyperplanes per LSH table.
    pub lsh_planes: usize,
    /// Seed for every trial index build.
    pub seed: u64,
}

impl Default for TunerConfig {
    fn default() -> Self {
        TunerConfig {
            sample_rows: 256,
            sample_queries: 64,
            hnsw_ms: vec![8, 16],
            ef_grid: vec![16, 32, 64, 128],
            lsh_tables: vec![4, 8, 16],
            lsh_probes: vec![0, 2],
            lsh_planes: 12,
            seed: 42,
        }
    }
}

/// One swept configuration with its proxy recall and estimated full-
/// collection cost.
#[derive(Debug, Clone)]
pub struct Trial {
    pub point: OperatingPoint,
    /// Mean overlap@k with the exact-scan reference on the sample.
    pub recall: f32,
    /// Estimated full-width distance evaluations per query on the full
    /// collection.
    pub est_evals: f64,
    /// Estimated nanoseconds per query on the full collection.
    pub est_ns: f64,
    /// Whether the trial meets the recall target (and budget, if set).
    pub feasible: bool,
}

/// The tuner's verdict: the chosen point plus every trial it considered,
/// in sweep order.
#[derive(Debug, Clone)]
pub struct TuneOutcome {
    pub chosen: OperatingPoint,
    pub trials: Vec<Trial>,
    /// Rows actually sampled (≤ `TunerConfig::sample_rows`).
    pub sample_rows: usize,
    /// Queries actually sampled (≤ `TunerConfig::sample_queries`).
    pub sample_queries: usize,
}

impl TuneOutcome {
    /// The trial the chosen point came from.
    pub fn chosen_trial(&self) -> &Trial {
        self.trials
            .iter()
            .find(|t| t.point == self.chosen)
            .expect("chosen point is always one of the trials")
    }
}

/// Stride-sample up to `max` row indices from `0..n` — deterministic,
/// evenly spread, first row always included.
fn stride_sample(n: usize, max: usize) -> Vec<usize> {
    if n == 0 || max == 0 {
        return Vec::new();
    }
    if n <= max {
        return (0..n).collect();
    }
    let stride = n as f64 / max as f64;
    (0..max).map(|i| (i as f64 * stride) as usize).collect()
}

fn overlap(reference: &[Neighbor], hits: &[Neighbor]) -> f32 {
    if reference.is_empty() {
        return 1.0;
    }
    let shared = hits
        .iter()
        .filter(|h| reference.iter().any(|r| r.index == h.index))
        .count();
    shared as f32 / reference.len() as f32
}

/// Tune `(backend, parameters, scan)` for searching `rows` with `queries`
/// under the goal's `k`, `metric`, `recall_target` and optional
/// `budget_ns`: sweep the [`TunerConfig`] grid on a sample and return the
/// cheapest estimated configuration whose proxy recall meets the target.
///
/// The `goal` carries intent (k, metric, target, budget, dirty); its
/// backend is read for the metric only — choosing the backend is the
/// tuner's job — and its `scan.tier` is the kernel tier every trial ranks
/// on. A goal without a recall target defaults to 0.95. When no trial is
/// feasible the exact Reference scan (proxy recall 1.0) is chosen, so the
/// tuner always returns a valid point.
pub fn autotune(
    queries: &EmbeddingMatrix,
    rows: &EmbeddingMatrix,
    goal: &OperatingPoint,
    config: &TunerConfig,
    model: &CostModel,
) -> Result<TuneOutcome> {
    if rows.is_empty() || queries.is_empty() {
        return Err(ErError::Config(
            "autotune needs non-empty query and row collections".into(),
        ));
    }
    if rows.dim() != queries.dim() {
        return Err(ErError::Config(format!(
            "autotune dim mismatch: rows dim {} vs queries dim {}",
            rows.dim(),
            queries.dim()
        )));
    }
    if goal.k == 0 {
        return Err(ErError::Config("autotune needs k >= 1".into()));
    }
    let k = goal.k;
    let metric = goal.backend.metric();
    let tier = goal.scan.tier;
    let target = goal.recall_target.unwrap_or(0.95);
    let dim = rows.dim();
    let full_rows = rows.len();

    let row_sample = stride_sample(rows.len(), config.sample_rows);
    let query_sample = stride_sample(queries.len(), config.sample_queries);
    let sample = rows.select_rows(row_sample.iter().copied());
    let probes: Vec<&[f32]> = query_sample.iter().map(|&i| queries.row(i)).collect();

    // Ground-truth-free reference: the exact scan's top-k on the sample.
    let exact_ref = ExactIndex::from_matrix(&sample, metric);
    let reference: Vec<Vec<Neighbor>> = probes
        .iter()
        .map(|q| exact_ref.search_slice(q, k))
        .collect();

    let mut trials: Vec<Trial> = Vec::new();
    let mut push_trial = |point: OperatingPoint, recall: f32, est_evals: f64, est_ns: f64| {
        let feasible = recall >= target
            && goal
                .budget_ns
                .map(|budget| est_ns <= budget)
                .unwrap_or(true);
        trials.push(Trial {
            point,
            recall,
            est_evals,
            est_ns,
            feasible,
        });
    };

    // --- Exact scans: analytic cost, measured recall. -------------------
    let exact_scans = [
        ScanConfig::default(),
        ScanConfig::with_tier(er_core::KernelTier::Lanes),
        ScanConfig {
            tier: er_core::KernelTier::Lanes,
            quant: er_core::Quantization::Int8 { rerank: 4 * k },
        },
    ];
    for scan in exact_scans {
        let index = ExactIndex::from_source_scan(&sample, metric, scan)?;
        let recall = probes
            .iter()
            .zip(&reference)
            .map(|(q, r)| overlap(r, &index.search_slice(q, k)))
            .sum::<f32>()
            / probes.len() as f32;
        let est = model.exact(full_rows, dim, metric, &scan, k)?;
        let point = goal.clone().exact().scan(scan);
        push_trial(point, recall, est.evals, est.ns);
    }

    // --- HNSW: one build per M, beam width swept at query time. ---------
    // Depth heuristic: evaluation counts grow with graph depth ~ ln n.
    let hnsw_scale = if full_rows > sample.len() && sample.len() >= 2 {
        (full_rows as f64).ln() / (sample.len() as f64).ln()
    } else {
        1.0
    };
    let mut build = HnswConfig::default();
    (build.seed, build.metric, build.tier) = (config.seed, metric, tier);
    for &m in &config.hnsw_ms {
        // One graph per `m`, built as a chosen point would build it: the
        // beam width is a query-time knob and does not shape the graph.
        build.m = m;
        let index = HnswIndex::from_source(&sample, build.clone());
        let point_at = |ef_search: usize| {
            let mut trial = build.clone();
            trial.ef_search = ef_search;
            goal.clone()
                .backend(BlockerBackend::Hnsw(trial))
                .scan(ScanConfig::default())
        };
        let curve = model.probe_hnsw(&index, probes.iter().copied(), k, &config.ef_grid)?;
        for &ef in &config.ef_grid {
            let recall = probes
                .iter()
                .zip(&reference)
                .map(|(q, r)| {
                    let params = QueryParams::with_ef_search(ef);
                    overlap(r, &index.search_counted(q, k, &params).0)
                })
                .sum::<f32>()
                / probes.len() as f32;
            let est = curve.estimate(ef);
            push_trial(
                point_at(ef),
                recall,
                est.evals * hnsw_scale,
                est.ns * hnsw_scale,
            );
        }
    }

    // --- LSH: one widest build, (tables, probes) swept at query time. ---
    let max_tables = config.lsh_tables.iter().copied().max().unwrap_or(0);
    if max_tables > 0 {
        let max_probes = config.lsh_probes.iter().copied().max().unwrap_or(0);
        let mut build = LshConfig::default();
        (build.planes, build.tables, build.probes) = (config.lsh_planes, max_tables, max_probes);
        (build.seed, build.metric, build.tier) = (config.seed, metric, tier);
        let index = HyperplaneLsh::from_source(&sample, build.clone());
        let point_at = |tables: usize, probes: usize| {
            let mut trial = build.clone();
            (trial.tables, trial.probes) = (tables, probes);
            goal.clone()
                .backend(BlockerBackend::Lsh(trial))
                .scan(ScanConfig::default())
        };
        // Occupancy (and hence candidate count) is proportional to rows.
        let lsh_scale = full_rows as f64 / sample.len() as f64;
        let rerank_ns =
            model
                .calibration
                .ns_per_row_metric(CostTier::of_kernel(tier), metric, dim)?;
        for &tables in &config.lsh_tables {
            for &probe_depth in &config.lsh_probes {
                let params = QueryParams {
                    probes: Some(probe_depth),
                    tables: Some(tables),
                    ef_search: None,
                };
                let recall = probes
                    .iter()
                    .zip(&reference)
                    .map(|(q, r)| overlap(r, &index.search_counted(q, k, &params).0))
                    .sum::<f32>()
                    / probes.len() as f32;
                let est = model.lsh(&index, probes.iter().copied(), probe_depth, tables)?;
                // Scale the re-ranked candidates to the full collection;
                // the signature-hash term is row-count independent.
                let est_evals = est.evals * lsh_scale;
                let est_ns = est.ns + (est_evals - est.evals) * rerank_ns;
                push_trial(point_at(tables, probe_depth), recall, est_evals, est_ns);
            }
        }
    }

    // Cheapest feasible trial wins; strict comparison keeps the earliest
    // trial on ties, so the outcome is deterministic. The exact Reference
    // scan (always recall 1.0, modulo tie-ordering noise) is the fallback
    // when nothing is feasible.
    let chosen = trials
        .iter()
        .filter(|t| t.feasible)
        .fold(None::<&Trial>, |best, t| match best {
            Some(b) if b.est_ns <= t.est_ns => Some(b),
            _ => Some(t),
        })
        .map(|t| t.point.clone())
        .unwrap_or_else(|| goal.clone().exact().scan(ScanConfig::default()));
    chosen.validate()?;

    Ok(TuneOutcome {
        chosen,
        trials,
        sample_rows: row_sample.len(),
        sample_queries: query_sample.len(),
    })
}

/// The measured twin of the estimates: build the index `point` describes
/// over `rows`, run every query through `search_counted`, and return
/// `(total, per-query mean)` full-width distance evaluations. This is
/// what the acceptance tests compare the tuner's choices against.
pub fn measure_point(
    queries: &EmbeddingMatrix,
    rows: &EmbeddingMatrix,
    point: &OperatingPoint,
) -> Result<(u64, f64)> {
    point.validate()?;
    if queries.is_empty() {
        return Err(ErError::Config(
            "measure_point needs at least one query".into(),
        ));
    }
    let params = point.query_params();
    let index = AnyIndex::build(rows, &point.backend, point.scan)?;
    let mut total = 0u64;
    for q in queries.rows_iter() {
        total += index.search_counted(q, point.k, &params).1;
    }
    Ok((total, total as f64 / queries.len() as f64))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn stride_sampling_is_even_deterministic_and_covers_small_inputs() {
        assert_eq!(stride_sample(5, 10), vec![0, 1, 2, 3, 4]);
        assert_eq!(stride_sample(10, 10), (0..10).collect::<Vec<_>>());
        let s = stride_sample(1000, 4);
        assert_eq!(s, vec![0, 250, 500, 750]);
        assert_eq!(s, stride_sample(1000, 4));
        assert!(stride_sample(0, 4).is_empty());
        assert!(stride_sample(4, 0).is_empty());
    }

    #[test]
    fn empty_inputs_and_degenerate_goals_are_typed_errors() {
        let empty = EmbeddingMatrix::new(4);
        let mut one = EmbeddingMatrix::new(4);
        one.push(&[1.0, 0.0, 0.0, 0.0]);
        let goal = OperatingPoint::recall_target(0.9);
        let model = CostModel::builtin();
        let config = TunerConfig::default();
        assert!(matches!(
            autotune(&one, &empty, &goal, &config, &model),
            Err(ErError::Config(_))
        ));
        assert!(matches!(
            autotune(&empty, &one, &goal, &config, &model),
            Err(ErError::Config(_))
        ));
        let mut wide = EmbeddingMatrix::new(8);
        wide.push(&[0.0; 8]);
        assert!(matches!(
            autotune(&wide, &one, &goal, &config, &model),
            Err(ErError::Config(_))
        ));
        let zero_k = goal.clone().k(0);
        assert!(matches!(
            autotune(&one, &one, &zero_k, &config, &model),
            Err(ErError::Config(_))
        ));
    }
}
