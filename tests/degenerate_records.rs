//! Degenerate-record sweep: a record whose every attribute is empty (or
//! all-OOV after tokenization) must flow through the *entire* pipeline —
//! zero embedding, 0.0 cosine against everything, threshold sweep, UMC —
//! without a single NaN or panic. Regression net for the zero-vector
//! handling in `er_core::kernels::cosine` and the empty-text paths of
//! every model's `embed_into`.

use embeddings4er::prelude::*;

/// D1 with one left record's attributes blanked out. Returns the dataset
/// and the victim's row index (D1 ids are dense row indices).
fn d1_with_empty_record() -> (CleanCleanDataset, usize) {
    let mut ds = CleanCleanDataset::generate(DatasetId::D1, 42);
    let idx = 3;
    let id = ds.left[idx].id;
    ds.left[idx] = Entity::new(id, vec![("name".into(), String::new())]);
    (ds, idx)
}

#[test]
fn empty_record_flows_through_sweep_and_umc_without_nans() {
    let zoo = ModelZoo::pretrain(None, &ZooConfig::tiny(), 42);
    let (ds, idx) = d1_with_empty_record();
    let empty_id = ds.left[idx].id;
    // One static subword model and the dynamic transformer: both must
    // degrade to the zero vector, not to garbage.
    for code in [ModelCode::FT, ModelCode::BT] {
        let model = zoo.get(code);
        let pipeline = Pipeline::new(model.as_ref(), SerializationMode::SchemaAgnostic);

        let matrix = pipeline.vectorize(&ds.left);
        assert!(
            matrix.row(idx).iter().all(|&x| x == 0.0),
            "{code}: empty record must embed to the zero vector"
        );

        let outcome = pipeline.resolve(
            &ds.left,
            &ds.right,
            &ds.ground_truth,
            &ResolveConfig {
                blocking: OperatingPoint::new(10).backend(BlockerBackend::Exact(Metric::Cosine)),
                ..ResolveConfig::default()
            },
        );
        for p in &outcome.candidates {
            assert!(
                p.score.is_finite(),
                "{code}: non-finite candidate score on {:?}",
                p.id_pair()
            );
            if p.left == empty_id {
                assert_eq!(
                    p.score, 0.0,
                    "{code}: zero embedding scored {} against {:?}",
                    p.score, p.right
                );
            }
        }
        for point in &outcome.sweep.points {
            assert!(point.delta.is_finite(), "{code}: non-finite δ");
            assert!(
                point.metrics.precision.is_finite()
                    && point.metrics.recall.is_finite()
                    && point.metrics.f1.is_finite(),
                "{code}: non-finite metrics at δ={}",
                point.delta
            );
        }
        assert!(outcome.best_delta.is_finite());
        assert!(outcome.matches.iter().all(|p| p.score.is_finite()));
        // UMC at any positive δ can never pair the zero record: its only
        // scores are 0.0.
        assert!(
            outcome
                .matches
                .iter()
                .all(|p| p.left != empty_id || p.score > 0.0 || outcome.best_delta == 0.0),
            "{code}: the empty record matched at δ={}",
            outcome.best_delta
        );
    }
}
