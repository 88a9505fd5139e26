//! Acceptance contract of the transformer (BT) PR: the paper's anisotropy
//! finding (§5.1) reproduced in miniature. Raw BERT-style token states are
//! notoriously anisotropic — mean-pooled sentence vectors crowd a narrow
//! cone, so cosine top-k blocking over *raw* BT embeddings separates
//! matches from non-matches worse than humble FastText, whose subword
//! n-grams additionally embed the typo'd variants BT's closed vocabulary
//! drops as OOV. On D1 with the tiny zoo, BT's k=10 blocking recall must
//! sit strictly below FastText's, and the whole comparison must be
//! byte-deterministic across fully independent runs.

use embeddings4er::prelude::*;

fn k10_exact() -> TopKConfig {
    TopKConfig::new(10).backend(BlockerBackend::Exact(Metric::Cosine))
}

struct AnisotropyRun {
    ft_recall: f64,
    bt_recall: f64,
    ft_candidates: Vec<(EntityId, EntityId)>,
    bt_candidates: Vec<(EntityId, EntityId)>,
}

/// One fully independent run: fresh zoo pretrain (statics + MLM), fresh
/// dataset, fresh exact index per model.
fn run_d1() -> AnisotropyRun {
    let zoo = ModelZoo::pretrain(None, &ZooConfig::tiny(), 42);
    let ds = CleanCleanDataset::generate(DatasetId::D1, 42);
    let candidates_of = |code: ModelCode| {
        let model = zoo.get(code);
        Pipeline::new(model.as_ref(), SerializationMode::SchemaAgnostic)
            .block(&ds.left, &ds.right, &k10_exact())
            .candidates()
    };
    let ft_candidates = candidates_of(ModelCode::FT);
    let bt_candidates = candidates_of(ModelCode::BT);
    AnisotropyRun {
        ft_recall: Metrics::of_candidates(&ft_candidates, &ds.ground_truth).recall,
        bt_recall: Metrics::of_candidates(&bt_candidates, &ds.ground_truth).recall,
        ft_candidates,
        bt_candidates,
    }
}

#[test]
fn raw_bt_blocking_recall_trails_fasttext_on_d1() {
    let run = run_d1();
    assert!(
        run.bt_recall < run.ft_recall,
        "anisotropy finding violated: raw BT recall {:.3} not below FastText's {:.3}",
        run.bt_recall,
        run.ft_recall
    );
    // FastText keeps the static-model bar of tests/blocking.rs; BT still
    // retrieves *something* — degraded, not broken.
    assert!(
        run.ft_recall >= 0.9,
        "FastText pairs-completeness regressed to {:.3}",
        run.ft_recall
    );
    assert!(
        !run.bt_candidates.is_empty(),
        "BT blocking emitted no candidates at all"
    );
}

#[test]
fn anisotropy_gap_is_deterministic_across_independent_runs() {
    let first = run_d1();
    let second = run_d1();
    assert_eq!(
        first.ft_recall.to_bits(),
        second.ft_recall.to_bits(),
        "FastText recall drifted between runs"
    );
    assert_eq!(
        first.bt_recall.to_bits(),
        second.bt_recall.to_bits(),
        "BT recall drifted between runs"
    );
    assert_eq!(first.ft_candidates, second.ft_candidates);
    assert_eq!(first.bt_candidates, second.bt_candidates);
}
