//! Acceptance contract of the unsupervised matching PR: on the D1
//! dataset with tiny FastText and exact-cosine top-10 blocking,
//! [`Pipeline::resolve`] with a UMC threshold sweep reaches F1 ≥ 0.8 at
//! its best δ, is byte-deterministic across two fully independent runs,
//! and every scored candidate's similarity is bit-identical to
//! `er_matching::similarity::cosine` recomputed from the embedding
//! matrices — no kernel drift, no re-scoring.

use embeddings4er::matching::similarity;
use embeddings4er::prelude::*;

fn resolve_config() -> ResolveConfig {
    ResolveConfig {
        blocking: OperatingPoint::new(10).backend(BlockerBackend::Exact(Metric::Cosine)),
        ..ResolveConfig::default()
    }
}

/// One fully independent run: fresh zoo pretrain, fresh dataset, fresh
/// index build.
fn resolve_d1() -> (CleanCleanDataset, ResolveOutcome) {
    let zoo = ModelZoo::pretrain(None, &ZooConfig::tiny(), 42);
    let model = zoo.get(ModelCode::FT);
    let ds = CleanCleanDataset::generate(DatasetId::D1, 42);
    let outcome = Pipeline::new(model.as_ref(), SerializationMode::SchemaAgnostic).resolve(
        &ds.left,
        &ds.right,
        &ds.ground_truth,
        &resolve_config(),
    );
    (ds, outcome)
}

#[test]
fn umc_sweep_on_d1_reaches_f1_080_at_its_best_delta() {
    let (_, outcome) = resolve_d1();
    let best = outcome.sweep.best().expect("non-empty paper grid");
    assert!(
        best.metrics.f1 >= 0.8,
        "best F1 {:.3} at δ={:.2} below the acceptance bar",
        best.metrics.f1,
        best.delta
    );
    assert_eq!(best.delta, outcome.best_delta);
    // resolve's matches are the clusterer re-run at the best δ; UMC is
    // deterministic, so they equal the sweep point's matches exactly.
    assert_eq!(outcome.matches, best.matches);
    // Clean-Clean UMC output is one-to-one: no entity matched twice.
    let mut lefts: Vec<_> = outcome.matches.iter().map(|p| p.left).collect();
    let mut rights: Vec<_> = outcome.matches.iter().map(|p| p.right).collect();
    lefts.sort_unstable();
    lefts.dedup();
    rights.sort_unstable();
    rights.dedup();
    assert_eq!(lefts.len(), outcome.matches.len());
    assert_eq!(rights.len(), outcome.matches.len());
}

#[test]
fn resolve_is_byte_deterministic_across_independent_runs() {
    let (_, first) = resolve_d1();
    let (_, second) = resolve_d1();
    assert!(!first.matches.is_empty());
    assert_pairs_bit_identical(&first.matches, &second.matches, "matches");
    assert_pairs_bit_identical(&first.candidates, &second.candidates, "candidates");
    assert_eq!(first.best_delta.to_bits(), second.best_delta.to_bits());
    assert_eq!(first.sweep.points.len(), second.sweep.points.len());
    for (a, b) in first.sweep.points.iter().zip(&second.sweep.points) {
        assert_eq!(a.delta.to_bits(), b.delta.to_bits());
        assert_eq!(a.metrics.f1.to_bits(), b.metrics.f1.to_bits());
        assert_pairs_bit_identical(&a.matches, &b.matches, "sweep matches");
    }
}

fn assert_pairs_bit_identical(a: &[ScoredPair], b: &[ScoredPair], what: &str) {
    assert_eq!(a.len(), b.len(), "{what}: lengths diverged");
    for (pa, pb) in a.iter().zip(b) {
        assert_eq!(pa.id_pair(), pb.id_pair(), "{what}: ids diverged");
        assert_eq!(
            pa.score.to_bits(),
            pb.score.to_bits(),
            "{what}: score drifted on {:?}",
            pa.id_pair()
        );
    }
}

/// The scored-candidate contract: blocking's similarities must be
/// bit-identical to the matcher-side cosine recomputed from the raw
/// embedding matrices. D1 ids are dense and equal to row indices on both
/// sides, so `p.left.0` / `p.right.0` address the matrices directly.
#[test]
fn candidate_scores_are_bit_identical_to_matcher_side_cosine() {
    let zoo = ModelZoo::pretrain(None, &ZooConfig::tiny(), 42);
    let model = zoo.get(ModelCode::FT);
    let ds = CleanCleanDataset::generate(DatasetId::D1, 42);
    let mode = SerializationMode::SchemaAgnostic;
    let pipeline = Pipeline::new(model.as_ref(), mode.clone());
    let left = pipeline.vectorize(&ds.left);
    let right = pipeline.vectorize(&ds.right);
    let outcome = pipeline.block(&ds.left, &ds.right, &resolve_config().blocking);
    assert!(!outcome.scored.is_empty());
    for p in &outcome.scored {
        let expected =
            similarity::cosine_slices(left.row(p.left.0 as usize), right.row(p.right.0 as usize));
        assert_eq!(
            p.score.to_bits(),
            expected.to_bits(),
            "score drifted from the cosine kernel on {:?}: {} vs {expected}",
            p.id_pair(),
            p.score
        );
    }
}
