//! Acceptance contract of the columnar pipeline: on the D1 dataset,
//! [`Pipeline::block`] (parallel matrix vectorization, shared-collection
//! detection) emits candidate pairs byte-identical to the sequential
//! recipe — per-entity `vectorize` of both sides, copied into matrices,
//! handed to the one blocker — Dirty ER embeds its shared collection
//! once, and the stage report accounts for every stage.

use embeddings4er::prelude::*;

/// The oracle: sequential per-entity vectorization of both sides (the
/// reference `vectorize`), copied into matrices, through the one blocker.
fn pre_refactor_block(
    model: &dyn LanguageModel,
    left: &[Entity],
    right: &[Entity],
    mode: &SerializationMode,
    config: &TopKConfig,
) -> Vec<(EntityId, EntityId)> {
    let left_vectors = vectorize(model, left, mode);
    let right_vectors = vectorize(model, right, mode);
    let left_ids: Vec<EntityId> = left.iter().map(|e| e.id).collect();
    let right_ids: Vec<EntityId> = right.iter().map(|e| e.id).collect();
    top_k_blocking_scored_matrix(
        &left_ids,
        &EmbeddingMatrix::from_embeddings(&left_vectors),
        &right_ids,
        &EmbeddingMatrix::from_embeddings(&right_vectors),
        config,
    )
    .iter()
    .map(|p| p.id_pair())
    .collect()
}

fn d1_config() -> TopKConfig {
    TopKConfig {
        k: 10,
        backend: BlockerBackend::Hnsw(HnswConfig {
            metric: Metric::Cosine,
            ..HnswConfig::default()
        }),
        dirty: false,
        ..TopKConfig::default()
    }
}

#[test]
fn pipeline_block_is_byte_identical_to_the_pre_refactor_path_on_d1() {
    let zoo = ModelZoo::pretrain(None, &ZooConfig::tiny(), 42);
    let model = zoo.get(ModelCode::FT);
    let ds = CleanCleanDataset::generate(DatasetId::D1, 42);
    let mode = SerializationMode::SchemaAgnostic;
    let config = d1_config();

    let outcome = Pipeline::new(model.as_ref(), mode.clone()).block(&ds.left, &ds.right, &config);
    let oracle = pre_refactor_block(model.as_ref(), &ds.left, &ds.right, &mode, &config);
    assert_eq!(outcome.candidates(), oracle);
    assert!(!outcome.scored.is_empty());
}

#[test]
fn pipeline_reports_every_stage_with_wall_clock_and_counts() {
    let zoo = ModelZoo::pretrain(None, &ZooConfig::tiny(), 42);
    let model = zoo.get(ModelCode::FT);
    let ds = CleanCleanDataset::generate(DatasetId::D1, 42);
    let outcome = Pipeline::new(model.as_ref(), SerializationMode::SchemaAgnostic).block(
        &ds.left,
        &ds.right,
        &d1_config(),
    );
    let stages: Vec<&str> = outcome
        .report
        .stages()
        .iter()
        .map(|s| s.stage.as_str())
        .collect();
    assert_eq!(stages, vec!["vectorize-left", "vectorize-right", "block"]);
    assert_eq!(
        outcome.report.get("vectorize-left").unwrap().items,
        ds.left.len()
    );
    assert_eq!(
        outcome.report.get("vectorize-right").unwrap().items,
        ds.right.len()
    );
    assert_eq!(
        outcome.report.get("block").unwrap().items,
        outcome.scored.len()
    );
    assert!(outcome.report.total_wall() > std::time::Duration::ZERO);
}

#[test]
fn dirty_er_pipeline_embeds_once_and_matches_the_double_embed_oracle() {
    let zoo = ModelZoo::pretrain(None, &ZooConfig::tiny(), 42);
    let model = zoo.get(ModelCode::FT);
    // A Dirty collection: both sides of D1 concatenated with distinct ids.
    let ds = CleanCleanDataset::generate(DatasetId::D1, 42);
    let mut collection = ds.left.clone();
    collection.extend(ds.right.iter().map(|e| {
        let mut shifted = e.clone();
        shifted.id = EntityId(e.id.0 + ds.left.len() as u32);
        shifted
    }));
    let mode = SerializationMode::SchemaAgnostic;
    let config = TopKConfig {
        dirty: true,
        ..d1_config()
    };

    let outcome =
        Pipeline::new(model.as_ref(), mode.clone()).block(&collection, &collection, &config);
    let oracle = pre_refactor_block(model.as_ref(), &collection, &collection, &mode, &config);
    assert_eq!(outcome.candidates(), oracle);

    // The shared collection was detected by identity: one vectorize stage.
    let stages: Vec<&str> = outcome
        .report
        .stages()
        .iter()
        .map(|s| s.stage.as_str())
        .collect();
    assert_eq!(stages, vec!["vectorize", "block"]);
    assert!(outcome.scored.iter().all(|p| p.left < p.right));
}
