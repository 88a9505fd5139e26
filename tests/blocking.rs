//! End-to-end blocking (the acceptance contract of the ANN PR): generate a
//! D1-profile Clean-Clean dataset, vectorize with FastText, block with
//! HNSW top-10, and check pairs-completeness, candidate-set reduction and
//! run-to-run determinism — the paper's Fig. 3 pipeline in miniature.

use embeddings4er::prelude::*;

fn d1_candidates(
    zoo: &ModelZoo,
    config: &OperatingPoint,
) -> (CleanCleanDataset, Vec<(EntityId, EntityId)>) {
    let ds = CleanCleanDataset::generate(DatasetId::D1, 42);
    let model = zoo.get(ModelCode::FT);
    let candidates = Pipeline::new(model.as_ref(), SerializationMode::SchemaAgnostic)
        .block(&ds.left, &ds.right, config)
        .candidates();
    (ds, candidates)
}

fn hnsw_config() -> OperatingPoint {
    OperatingPoint::new(10).backend(BlockerBackend::Hnsw(HnswConfig {
        metric: Metric::Cosine,
        ..HnswConfig::default()
    }))
}

#[test]
fn d1_fasttext_hnsw_blocking_hits_090_pairs_completeness() {
    let zoo = ModelZoo::pretrain(None, &ZooConfig::tiny(), 42);
    let (ds, candidates) = d1_candidates(&zoo, &hnsw_config());

    let metrics = Metrics::of_candidates(&candidates, &ds.ground_truth);
    assert!(
        metrics.recall >= 0.9,
        "pairs-completeness {:.3} < 0.9 over {} candidates",
        metrics.recall,
        candidates.len()
    );
    let cross = ds.id.profile().cross_product();
    assert!(
        (candidates.len() as f64) < 0.25 * cross as f64,
        "blocking emitted {} of {cross} pairs (>= 25% of the cross-product)",
        candidates.len()
    );
}

#[test]
fn end_to_end_blocking_is_deterministic_across_runs() {
    // Two fully independent runs: fresh zoo pretrain, fresh dataset, fresh
    // index build — candidate lists must be identical.
    let first = {
        let zoo = ModelZoo::pretrain(None, &ZooConfig::tiny(), 42);
        d1_candidates(&zoo, &hnsw_config()).1
    };
    let second = {
        let zoo = ModelZoo::pretrain(None, &ZooConfig::tiny(), 42);
        d1_candidates(&zoo, &hnsw_config()).1
    };
    assert_eq!(first, second);
    assert!(!first.is_empty());
}

#[test]
fn batched_blocking_queries_match_sequential_search() {
    let zoo = ModelZoo::pretrain(None, &ZooConfig::tiny(), 42);
    let ds = CleanCleanDataset::generate(DatasetId::D1, 42);
    let model = zoo.get(ModelCode::FT);
    let mode = SerializationMode::SchemaAgnostic;
    let left = vectorize_matrix(model.as_ref(), &ds.left, &mode);
    let right = vectorize_matrix(model.as_ref(), &ds.right, &mode);
    let index = HnswIndex::from_source(
        &right,
        HnswConfig {
            metric: Metric::Cosine,
            ..HnswConfig::default()
        },
    );
    let sequential: Vec<_> = left
        .rows_iter()
        .map(|q| index.search_slice(q, 10))
        .collect();
    assert_eq!(index.search_batch_rows(&left, 10), sequential);
}

#[test]
fn exact_backend_is_at_least_as_complete_as_hnsw() {
    let zoo = ModelZoo::pretrain(None, &ZooConfig::tiny(), 42);
    let (ds, hnsw) = d1_candidates(&zoo, &hnsw_config());
    let exact_config = OperatingPoint::new(10).backend(BlockerBackend::Exact(Metric::Cosine));
    let (_, exact) = d1_candidates(&zoo, &exact_config);
    let pc_hnsw = Metrics::of_candidates(&hnsw, &ds.ground_truth).recall;
    let pc_exact = Metrics::of_candidates(&exact, &ds.ground_truth).recall;
    assert!(
        pc_exact >= pc_hnsw,
        "exact k-NN ({pc_exact:.3}) cannot trail its approximation ({pc_hnsw:.3})"
    );
}
