//! Autotuner behavior: determinism (same seed + sample ⇒ byte-identical
//! chosen `OperatingPoint`), target-respecting choices, and estimate
//! accuracy for the chosen point against the measured twin.

use er_core::{EmbeddingMatrix, Metric, OperatingPoint, SerializationMode};
use er_datasets::{CleanCleanDataset, DatasetId};
use er_embed::{LanguageModel, ModelCode, ModelZoo, ZooConfig};
use er_tune::{autotune, measure_point, CostModel, TunerConfig};

fn embed(id: DatasetId) -> (EmbeddingMatrix, EmbeddingMatrix) {
    let ds = CleanCleanDataset::generate(id, 42);
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

#[test]
fn same_seed_and_sample_choose_a_byte_identical_point() {
    let (queries, rows) = embed(DatasetId::D1);
    let goal = OperatingPoint::recall_target(0.9).metric(Metric::Cosine);
    let config = TunerConfig::default();
    let model = CostModel::builtin();

    let first = autotune(&queries, &rows, &goal, &config, &model).expect("tunes");
    let second = autotune(&queries, &rows, &goal, &config, &model).expect("tunes");
    assert_eq!(
        first.chosen.to_json(),
        second.chosen.to_json(),
        "the tuner must be a pure function of (inputs, seed)"
    );
    // Not just the winner: the whole sweep replays identically.
    assert_eq!(first.trials.len(), second.trials.len());
    for (a, b) in first.trials.iter().zip(&second.trials) {
        assert_eq!(a.point.to_json(), b.point.to_json());
        assert_eq!(a.recall.to_bits(), b.recall.to_bits());
        assert_eq!(a.est_ns.to_bits(), b.est_ns.to_bits());
    }

    // Fully independent inputs (fresh dataset, fresh zoo pretrain)
    // reproduce the same choice too — nothing ambient leaks in.
    let (queries2, rows2) = embed(DatasetId::D1);
    let third = autotune(&queries2, &rows2, &goal, &config, &model).expect("tunes");
    assert_eq!(first.chosen.to_json(), third.chosen.to_json());
}

#[test]
fn chosen_point_meets_the_proxy_target_and_beats_the_exact_scan() {
    let (queries, rows) = embed(DatasetId::D1);
    let goal = OperatingPoint::recall_target(0.9).metric(Metric::Cosine);
    let outcome = autotune(
        &queries,
        &rows,
        &goal,
        &TunerConfig::default(),
        &CostModel::builtin(),
    )
    .expect("tunes");

    let chosen = outcome.chosen_trial();
    assert!(
        chosen.recall >= 0.9,
        "chosen proxy recall {} below target",
        chosen.recall
    );
    // The exact Reference scan is always a feasible trial; choosing
    // anything means it was no more expensive than that.
    let exact_ns = outcome.trials[0].est_ns;
    assert!(
        chosen.est_ns <= exact_ns,
        "chosen {} ns/query > exact scan {exact_ns} ns/query",
        chosen.est_ns
    );
    // The goal's intent fields survive into the chosen point.
    assert_eq!(outcome.chosen.k, goal.k);
    assert_eq!(outcome.chosen.backend.metric(), goal.backend.metric());
    assert_eq!(outcome.chosen.recall_target, Some(0.9));
}

#[test]
fn chosen_estimate_matches_the_measured_twin_within_margin() {
    // The repo's datasets fit inside the tuner sample, so the chosen
    // trial's estimate must agree with a from-scratch measured build.
    let (queries, rows) = embed(DatasetId::D7);
    let goal = OperatingPoint::recall_target(0.9).metric(Metric::Cosine);
    let outcome = autotune(
        &queries,
        &rows,
        &goal,
        &TunerConfig::default(),
        &CostModel::builtin(),
    )
    .expect("tunes");
    let (_, measured_per_query) =
        measure_point(&queries, &rows, &outcome.chosen).expect("measures");
    let est = outcome.chosen_trial().est_evals;
    let error = (est - measured_per_query).abs() / measured_per_query;
    assert!(
        error <= 0.25,
        "chosen point: estimated {est:.1} vs measured {measured_per_query:.1} evals/query"
    );
}

#[test]
fn an_unreachable_budget_falls_back_to_the_exact_reference_scan() {
    let (queries, rows) = embed(DatasetId::D1);
    // A budget no real configuration can meet: nothing is feasible, so
    // the tuner returns the always-correct exact Reference scan.
    let goal = OperatingPoint::recall_target(0.9)
        .metric(Metric::Cosine)
        .budget(1e-6);
    let outcome = autotune(
        &queries,
        &rows,
        &goal,
        &TunerConfig::default(),
        &CostModel::builtin(),
    )
    .expect("tunes");
    assert!(outcome.trials.iter().all(|t| !t.feasible));
    assert_eq!(outcome.chosen.backend.name(), "exact");
    assert_eq!(outcome.chosen.scan, er_core::ScanConfig::default());
}
