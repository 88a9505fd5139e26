//! End-to-end autotuning acceptance (ISSUE 9): on D1 and D7, the chosen
//! `OperatingPoint` meets its recall target measured against ground truth
//! post-hoc — its blocking pairs-completeness stays within the target
//! factor of the exact-scan ceiling at the same k — while costing no more
//! measured distance evaluations than the default global config.

use embeddings4er::prelude::*;

const TARGET: f32 = 0.9;

struct TunedRun {
    ds: CleanCleanDataset,
    queries: EmbeddingMatrix,
    rows: EmbeddingMatrix,
    outcome: TuneOutcome,
}

fn tuned_run(id: DatasetId) -> TunedRun {
    let ds = CleanCleanDataset::generate(id, 42);
    let zoo = ModelZoo::pretrain(None, &ZooConfig::tiny(), 42);
    let model = zoo.get(ModelCode::FT);
    let mode = SerializationMode::SchemaAgnostic;
    let pipeline = Pipeline::new(model.as_ref(), mode);
    let queries = pipeline.vectorize(&ds.left);
    let rows = pipeline.vectorize(&ds.right);
    let goal = OperatingPoint::recall_target(TARGET).metric(Metric::Cosine);
    let outcome = autotune(
        &queries,
        &rows,
        &goal,
        &TunerConfig::default(),
        &CostModel::builtin(),
    )
    .expect("tunes");
    TunedRun {
        ds,
        queries,
        rows,
        outcome,
    }
}

fn blocking_recall(run: &TunedRun, point: &OperatingPoint) -> f32 {
    let left_ids: Vec<EntityId> = run.ds.left.iter().map(|e| e.id).collect();
    let right_ids: Vec<EntityId> = run.ds.right.iter().map(|e| e.id).collect();
    let scored =
        top_k_blocking_scored_matrix(&left_ids, &run.queries, &right_ids, &run.rows, point);
    let candidates: Vec<(EntityId, EntityId)> = scored.iter().map(|p| p.id_pair()).collect();
    Metrics::of_candidates(&candidates, &run.ds.ground_truth).recall as f32
}

fn check_dataset(id: DatasetId) {
    let run = tuned_run(id);
    let chosen = &run.outcome.chosen;
    eprintln!(
        "{id:?}: chosen {} | trials {}",
        chosen.to_json(),
        run.outcome.trials.len()
    );

    // Post-hoc ground-truth recall: the chosen point must retain at least
    // the target fraction of what the exact scan achieves at the same k —
    // the proxy's promise, restated against real labels.
    let exact_point = chosen.clone().exact().scan(ScanConfig::default());
    let exact_recall = blocking_recall(&run, &exact_point);
    let chosen_recall = blocking_recall(&run, chosen);
    eprintln!("{id:?}: gt recall chosen {chosen_recall:.3} exact {exact_recall:.3}");
    assert!(
        chosen_recall >= TARGET * exact_recall,
        "{id:?}: chosen point keeps {chosen_recall:.3} pairs-completeness, \
         below {TARGET} x exact ceiling {exact_recall:.3}"
    );

    // Cost: measured full-width distance evaluations of the chosen point
    // must not exceed the default global config's measured scan count.
    let default_point = OperatingPoint::new(chosen.k).metric(chosen.backend.metric());
    let (chosen_evals, _) = measure_point(&run.queries, &run.rows, chosen).expect("measures");
    let (default_evals, _) =
        measure_point(&run.queries, &run.rows, &default_point).expect("measures");
    eprintln!("{id:?}: measured evals chosen {chosen_evals} default {default_evals}");
    assert!(
        chosen_evals <= default_evals,
        "{id:?}: chosen point costs {chosen_evals} evals, default config {default_evals}"
    );
}

#[test]
fn d1_tuned_point_meets_target_and_costs_no_more_than_the_default() {
    check_dataset(DatasetId::D1);
}

#[test]
fn d7_tuned_point_meets_target_and_costs_no_more_than_the_default() {
    check_dataset(DatasetId::D7);
}

#[test]
fn resolve_tuned_matches_resolve_under_the_chosen_point() {
    // The pipeline facade twin: resolve_tuned's blocking must be
    // byte-identical to a plain resolve configured with the point the
    // tuner chose, and its report must carry the tune stage.
    let ds = CleanCleanDataset::generate(DatasetId::D1, 42);
    let zoo = ModelZoo::pretrain(None, &ZooConfig::tiny(), 42);
    let model = zoo.get(ModelCode::FT);
    let pipeline = Pipeline::new(model.as_ref(), SerializationMode::SchemaAgnostic);
    let goal = OperatingPoint::recall_target(TARGET).metric(Metric::Cosine);
    let (outcome, tune) = pipeline
        .resolve_tuned(
            &ds.left,
            &ds.right,
            &ds.ground_truth,
            &goal,
            &TunerConfig::default(),
        )
        .expect("resolves");
    assert!(outcome.report.get("tune").is_some(), "missing tune stage");
    assert_eq!(outcome.report.items_of("tune"), tune.trials.len());

    let config = ResolveConfig {
        blocking: tune.chosen.clone(),
        ..ResolveConfig::default()
    };
    let plain = pipeline.resolve(&ds.left, &ds.right, &ds.ground_truth, &config);
    assert_eq!(outcome.candidates, plain.candidates);
    assert_eq!(outcome.best_delta, plain.best_delta);
    assert_eq!(outcome.matches, plain.matches);
}
