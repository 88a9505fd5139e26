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
//! **One measurement per trial.** Every trial is one `search_counted`
//! pass over the sampled queries (`search_probes`): its hits give the
//! recall proxy and its counter the mean evaluation count, which the
//! [`CostModel`] prices for the *full* collection (its module doc says
//! how a sample's measurement is extrapolated). Exact scans are priced
//! analytically and need only the recall.
//!
//! **Recall proxy.** The tuner has no ground truth, so it uses the exact
//! scan's top-k on the sample as reference: a trial's recall is the mean
//! overlap of its top-k with the exact top-k over the sampled queries.
//! Exact trials therefore sit at proxy recall 1.0 by construction (kernel
//! tiers agree to within ordering tolerance; quantized re-ranks are
//! measured like every other trial).
//!
//! Determinism: sampling is stride-based (no RNG), trial order is fixed,
//! and every trial index is built from one fixed seed — the same inputs
//! always yield a byte-identical chosen point (pinned by
//! `tests/autotune.rs`).

use crate::cost::{CostEstimate, CostModel, HnswCostModel};
use er_core::{
    BlockerBackend, EmbeddingMatrix, ErError, HnswConfig, LshConfig, OperatingPoint, QueryParams,
    Result, ScanConfig,
};
use er_index::{AnyIndex, ExactIndex, HnswIndex, HyperplaneLsh, IndexReader, Neighbor, NnIndex};

// What the tuner sweeps and how it samples: the paper's parameter ranges
// scaled to the repo's dataset sizes. Golden `AUTOTUNE` pins the outcome
// of exactly this grid.
/// Max rows sampled (stride-sampled, deterministic) to build trial indices
/// over.
const SAMPLE_ROWS: usize = 256;
/// Max queries sampled to score recall proxies with.
const SAMPLE_QUERIES: usize = 64;
/// HNSW graph degrees to build (one build each).
const HNSW_MS: [usize; 2] = [8, 16];
/// HNSW beam widths, swept at query time against each build.
const EF_GRID: [usize; 4] = [16, 32, 64, 128];
/// LSH table counts, swept at query time against one build at the last
/// (widest) count.
const LSH_TABLES: [usize; 3] = [4, 8, 16];
/// LSH multi-probe depths, swept at query time; the build holds the last.
const LSH_PROBES: [usize; 2] = [0, 2];
/// Hyperplanes per LSH table.
const LSH_PLANES: usize = 12;
/// Seed for every trial index build.
const SEED: u64 = 42;

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
    /// Whether the trial meets the recall target.
    pub feasible: bool,
}

/// The tuner's verdict: the chosen point plus every trial it considered,
/// in sweep order.
#[derive(Debug, Clone)]
pub struct TuneOutcome {
    pub chosen: OperatingPoint,
    pub trials: Vec<Trial>,
    /// Rows actually sampled (≤ `SAMPLE_ROWS` = 256).
    pub sample_rows: usize,
    /// Queries actually sampled (≤ `SAMPLE_QUERIES` = 64).
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

/// The tuner's one measuring pass: search each of `probes` once through
/// `search_counted` under `params`, hand probe `i`'s hits to `hits`, and
/// return the mean evaluation count (`NaN` when there are no probes).
pub(crate) fn search_probes(
    index: &dyn IndexReader,
    probes: impl Iterator<Item = impl AsRef<[f32]>>,
    k: usize,
    params: &QueryParams,
    mut hits: impl FnMut(usize, &[Neighbor]),
) -> f64 {
    let (mut total, mut count) = (0u64, 0usize);
    for (i, q) in probes.enumerate() {
        let (found, evals) = index.search_counted(q.as_ref(), k, params);
        hits(i, &found);
        total += evals;
        count += 1;
    }
    total as f64 / count as f64
}

/// Tune `(backend, parameters, scan)` for searching `rows` with `queries`
/// under the goal's `k`, `metric` and `recall_target`: sweep a fixed grid
/// on a sample, price each trial with [`CostModel::builtin`], and return
/// the cheapest estimated configuration whose proxy recall meets the
/// target.
///
/// The `goal` carries intent (k, metric, target, dirty); its
/// backend is read for the metric only — choosing the backend is the
/// tuner's job — and its `scan.tier` is the kernel tier every trial ranks
/// on. A goal without a recall target defaults to 0.95. The exact
/// Reference trial ranks exactly like the reference (proxy recall 1.0), so
/// every target in (0, 1] has a feasible trial; any other target is a
/// typed [`ErError::Config`].
pub fn autotune(
    queries: &EmbeddingMatrix,
    rows: &EmbeddingMatrix,
    goal: &OperatingPoint,
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
    let model = CostModel::builtin();

    let row_sample = stride_sample(rows.len(), SAMPLE_ROWS);
    let query_sample = stride_sample(queries.len(), SAMPLE_QUERIES);
    let sample = rows.select_rows(row_sample.iter().copied());
    let probes: Vec<&[f32]> = query_sample.iter().map(|&i| queries.row(i)).collect();

    // Ground-truth-free reference: the exact scan's top-k on the sample.
    let exact_ref = ExactIndex::from_source(&sample, metric);
    let reference: Vec<Vec<Neighbor>> = probes
        .iter()
        .map(|q| exact_ref.search_slice(q, k))
        .collect();

    // A trial's recall proxy (the mean overlap of its top-k with the
    // reference) and mean evaluation count, from one pass.
    let measure = |index: &dyn IndexReader, params: &QueryParams| {
        let mut overlaps = 0.0f32;
        let evals = search_probes(index, probes.iter(), k, params, |i, hits| {
            overlaps += overlap(&reference[i], hits);
        });
        (overlaps / probes.len() as f32, evals)
    };

    let mut trials: Vec<Trial> = Vec::new();
    let mut push_trial = |point: OperatingPoint, recall: f32, est: CostEstimate| {
        trials.push(Trial {
            point,
            recall,
            est_evals: est.evals,
            est_ns: est.ns,
            feasible: recall >= target,
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
        // The Reference scan is the reference itself: recall 1.0, no rerun.
        let recall = if scan == ScanConfig::default() {
            1.0
        } else {
            let index = ExactIndex::from_source_scan(&sample, metric, scan)?;
            measure(&index, &QueryParams::default()).0
        };
        let est = model.exact(full_rows, dim, metric, &scan, k)?;
        push_trial(goal.clone().exact().scan(scan), recall, est);
    }

    // --- HNSW: one build per M, beam width swept at query time. ---------
    let mut build = HnswConfig::default();
    (build.seed, build.metric, build.tier) = (SEED, metric, tier);
    for m in HNSW_MS {
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
        let measured = EF_GRID.map(|ef| measure(&index, &QueryParams::with_ef_search(ef)));
        let anchors = EF_GRID
            .iter()
            .zip(&measured)
            .map(|(&ef, &(_, evals))| (ef as f64, evals))
            .collect();
        let curve = HnswCostModel::new(&index, anchors, full_rows);
        for (ef, (recall, _)) in EF_GRID.into_iter().zip(measured) {
            push_trial(point_at(ef), recall, curve.estimate(ef));
        }
    }

    // --- LSH: one widest build, (tables, probes) swept at query time. ---
    let mut build = LshConfig::default();
    // The build holds the widest grid values; narrower ones are queried.
    (build.planes, build.tables, build.probes) = (LSH_PLANES, LSH_TABLES[2], LSH_PROBES[1]);
    (build.seed, build.metric, build.tier) = (SEED, metric, tier);
    let index = HyperplaneLsh::from_source(&sample, build.clone());
    let point_at = |tables: usize, probes: usize| {
        let mut trial = build.clone();
        (trial.tables, trial.probes) = (tables, probes);
        goal.clone()
            .backend(BlockerBackend::Lsh(trial))
            .scan(ScanConfig::default())
    };
    for tables in LSH_TABLES {
        for probe_depth in LSH_PROBES {
            let params = QueryParams {
                probes: Some(probe_depth),
                tables: Some(tables),
                ef_search: None,
            };
            let (recall, evals) = measure(&index, &params);
            let est = model.lsh(&index, tables, evals, full_rows);
            push_trial(point_at(tables, probe_depth), recall, est);
        }
    }

    // Cheapest feasible trial wins; strict comparison keeps the earliest
    // trial on ties, so the outcome is deterministic. Only an out-of-range
    // target leaves nothing feasible; it falls back to the exact Reference
    // scan and fails `validate`.
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
    // The index is built from `point`, so its default query parameters
    // are the point's own.
    let index = AnyIndex::build(rows, &point.backend, point.scan)?;
    let mut total = 0u64;
    for q in queries.rows_iter() {
        total += index.search_counted(q, point.k, &QueryParams::default()).1;
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
        assert!(matches!(
            autotune(&one, &empty, &goal),
            Err(ErError::Config(_))
        ));
        assert!(matches!(
            autotune(&empty, &one, &goal),
            Err(ErError::Config(_))
        ));
        let mut wide = EmbeddingMatrix::new(8);
        wide.push(&[0.0; 8]);
        assert!(matches!(
            autotune(&wide, &one, &goal),
            Err(ErError::Config(_))
        ));
        for bad in [goal.clone().k(0), OperatingPoint::recall_target(1.5)] {
            assert!(matches!(
                autotune(&one, &one, &bad),
                Err(ErError::Config(_))
            ));
        }
    }
}
