//! The cost-estimate accuracy suite (ISSUE 9 acceptance): on D1/D3/D7,
//! for both metrics, every backend's estimated distance-evaluation count
//! stays within 25% of the measured `search_counted` totals.
//!
//! Exact estimates are analytic and must be *exactly* right; HNSW and LSH
//! estimates are model-based (probed anchors / sampled candidate counts)
//! and get the full 25% margin. HNSW and LSH are deliberately measured on
//! a *subset* of the queries and validated against all of them — the
//! estimator must generalize, not memorize.

use er_core::{
    EmbeddingMatrix, KernelTier, Metric, Quantization, QueryParams, ScanConfig, SerializationMode,
};
use er_datasets::{CleanCleanDataset, DatasetId};
use er_embed::{LanguageModel, ModelCode, ModelZoo, ZooConfig};
use er_index::{ExactIndex, HnswConfig, HnswIndex, HyperplaneLsh, IndexReader, LshConfig};
use er_tune::CostModel;

const K: usize = 10;
const MARGIN: f64 = 0.25;

fn embed(ds: &CleanCleanDataset) -> (EmbeddingMatrix, EmbeddingMatrix) {
    let zoo = ModelZoo::pretrain(None, &ZooConfig::tiny(), 42);
    let model = zoo.get(ModelCode::FT);
    let mode = SerializationMode::SchemaAgnostic;
    let to_matrix = |entities: &[er_core::Entity]| {
        let rows: Vec<er_core::Embedding> = entities
            .iter()
            .map(|e| model.embed(&e.serialize(&mode)))
            .collect();
        EmbeddingMatrix::from_embeddings(&rows)
    };
    (to_matrix(&ds.left), to_matrix(&ds.right))
}

fn assert_within(estimated: f64, measured: f64, label: &str) {
    assert!(
        measured > 0.0,
        "{label}: measured no evaluations — the comparison is vacuous"
    );
    let error = (estimated - measured).abs() / measured;
    assert!(
        error <= MARGIN,
        "{label}: estimated {estimated:.1} vs measured {measured:.1} evals \
         ({:.1}% > {:.0}%)",
        error * 100.0,
        MARGIN * 100.0
    );
}

fn mean_measured(index: &dyn IndexReader, queries: &EmbeddingMatrix, params: &QueryParams) -> f64 {
    let total: u64 = queries
        .rows_iter()
        .map(|q| index.search_counted(q, K, params).1)
        .sum();
    total as f64 / queries.len() as f64
}

/// Every `stride`-th query — the probe sample the estimators are built
/// from (they must generalize to the full query set).
fn probe_sample(queries: &EmbeddingMatrix, stride: usize) -> Vec<&[f32]> {
    (0..queries.len())
        .step_by(stride)
        .map(|i| queries.row(i))
        .collect()
}

fn check_dataset(id: DatasetId) {
    let ds = CleanCleanDataset::generate(id, 42);
    let (queries, rows) = embed(&ds);
    let model = CostModel::builtin();
    let dim = rows.dim();

    for metric in [Metric::Euclidean, Metric::Cosine] {
        let label = |what: &str| format!("{id:?}/{metric:?}/{what}");

        // --- Exact: analytic, must match the counter contract exactly.
        for scan in [
            ScanConfig::default(),
            ScanConfig {
                tier: KernelTier::Lanes,
                quant: Quantization::Int8 { rerank: 4 * K },
            },
        ] {
            let index = ExactIndex::from_source_scan(&rows, metric, scan).expect("builds");
            let measured = mean_measured(&index, &queries, &QueryParams::default());
            let est = model
                .exact(rows.len(), dim, metric, &scan, K)
                .expect("cells");
            assert_within(est.evals, measured, &label("exact"));
            assert_eq!(
                est.evals,
                measured,
                "{}: the analytic exact estimate must be exact",
                label("exact")
            );
        }

        // --- HNSW: probed on a query subset, validated on all queries,
        // including beam widths *between* the probe anchors.
        let hnsw = HnswIndex::from_source(
            &rows,
            HnswConfig {
                metric,
                ..HnswConfig::default()
            },
        );
        let curve = model
            .probe_hnsw(
                &hnsw,
                probe_sample(&queries, 4).into_iter(),
                K,
                &[16, 32, 64, 128],
            )
            .expect("probe");
        for ef in [16usize, 24, 48, 96, 128] {
            let measured = mean_measured(&hnsw, &queries, &QueryParams::with_ef_search(ef));
            assert_within(
                curve.estimate(ef).evals,
                measured,
                &label(&format!("hnsw ef={ef}")),
            );
        }

        // --- LSH: priced from the mean candidate count of real searches
        // on every other query, validated against all queries.
        let lsh = HyperplaneLsh::from_source(
            &rows,
            LshConfig {
                tables: 16,
                probes: 4,
                metric,
                ..LshConfig::default()
            },
        );
        let sample = probe_sample(&queries, 2);
        for (tables, probes) in [(4usize, 2usize), (8, 2), (16, 4)] {
            let params = QueryParams {
                probes: Some(probes),
                tables: Some(tables),
                ef_search: None,
            };
            let measured = mean_measured(&lsh, &queries, &params);
            let sampled: u64 = sample
                .iter()
                .map(|q| lsh.search_counted(q, K, &params).1)
                .sum();
            let est = model.lsh(
                &lsh,
                tables,
                sampled as f64 / sample.len() as f64,
                rows.len(),
            );
            assert_within(
                est.evals,
                measured,
                &label(&format!("lsh t={tables} p={probes}")),
            );
        }
    }
}

#[test]
fn d1_estimates_are_within_25_percent_of_measured_evals() {
    check_dataset(DatasetId::D1);
}

#[test]
fn d3_estimates_are_within_25_percent_of_measured_evals() {
    check_dataset(DatasetId::D3);
}

#[test]
fn d7_estimates_are_within_25_percent_of_measured_evals() {
    check_dataset(DatasetId::D7);
}
