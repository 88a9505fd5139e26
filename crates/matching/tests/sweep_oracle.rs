//! The one-pass UMC sweep against its definition: every point of
//! `ThresholdSweep::run_with(.., Clusterer::UniqueMapping, grid)` must equal
//! `unique_mapping_clustering(pairs, δ)` scored by `Metrics::of_pairs`, bit
//! for bit, on seeded random candidate lists full of the cases the prefix
//! argument has to survive: NaN, ±∞ and ±0.0 scores, duplicate pairs,
//! mirrored Dirty-ER pairs, score ties, and grids that are unsorted,
//! repeat a δ, hold NaN or ±∞, or are empty.

use er_core::{EntityId, GroundTruth, ScoredPair};
use er_eval::Metrics;
use er_matching::{unique_mapping_clustering, Clusterer, SweepPoint, ThresholdSweep};
use rand::seq::SliceRandom;
use rand::Rng;

/// Scores that tie with each other, sit exactly on paper-grid values, or
/// are IEEE edge cases.
const PALETTE: [f32; 14] = [
    f32::NAN,
    -f32::NAN,
    f32::INFINITY,
    f32::NEG_INFINITY,
    0.0,
    -0.0,
    0.05,
    0.35,
    0.5,
    0.5000001,
    0.95,
    1.0,
    -0.25,
    0.7,
];

fn score(r: &mut impl Rng) -> f32 {
    if r.gen_bool(0.5) {
        PALETTE[r.gen_range(0..PALETTE.len())]
    } else {
        r.gen_range(-0.2f32..1.2)
    }
}

/// A candidate list over a small id space, so ids collide: exact
/// duplicates, re-scored duplicates and mirrored `(b, a)` twins.
fn candidates(r: &mut impl Rng) -> Vec<ScoredPair> {
    let ids = r.gen_range(1u32..10);
    let mut pairs = Vec::new();
    for _ in 0..r.gen_range(0..40) {
        let p = ScoredPair::new(
            EntityId(r.gen_range(0..ids)),
            EntityId(r.gen_range(0..ids)),
            score(r),
        );
        pairs.push(p);
        if r.gen_bool(0.2) {
            pairs.push(ScoredPair::new(p.right, p.left, p.score));
        }
        if r.gen_bool(0.1) {
            pairs.push(p);
        }
        if r.gen_bool(0.1) {
            pairs.push(ScoredPair::new(p.left, p.right, score(r)));
        }
    }
    pairs.shuffle(r);
    pairs
}

fn ground_truth(r: &mut impl Rng, dirty: bool) -> GroundTruth {
    let pairs: Vec<(EntityId, EntityId)> = (0..r.gen_range(0..12))
        .map(|_| (EntityId(r.gen_range(0..10)), EntityId(r.gen_range(0..10))))
        .collect();
    if dirty {
        GroundTruth::dirty(pairs)
    } else {
        GroundTruth::clean_clean(pairs)
    }
}

fn grids(r: &mut impl Rng) -> Vec<Vec<f32>> {
    let paper = ThresholdSweep::paper_deltas();
    let mut shuffled = paper.clone();
    shuffled.shuffle(r);
    let random: Vec<f32> = (0..r.gen_range(1..8)).map(|_| score(r)).collect();
    vec![
        paper,
        shuffled,
        vec![0.5, 0.2, 0.5, 0.2],
        vec![f32::NAN, 0.35, -f32::NAN],
        vec![f32::NAN],
        vec![f32::INFINITY, 0.0, f32::NEG_INFINITY, -0.0],
        Vec::new(),
        random,
    ]
}

fn pair_bits(pairs: &[ScoredPair]) -> Vec<(u32, u32, u32)> {
    pairs
        .iter()
        .map(|p| (p.left.0, p.right.0, p.score.to_bits()))
        .collect()
}

fn metric_bits(m: &Metrics) -> [u64; 3] {
    [m.precision.to_bits(), m.recall.to_bits(), m.f1.to_bits()]
}

fn assert_point_eq(got: &SweepPoint, want: &SweepPoint, context: &str) {
    assert_eq!(got.delta.to_bits(), want.delta.to_bits(), "{context}");
    assert_eq!(
        pair_bits(&got.matches),
        pair_bits(&want.matches),
        "{context}: matches at δ={}",
        want.delta
    );
    assert_eq!(
        metric_bits(&got.metrics),
        metric_bits(&want.metrics),
        "{context}: metrics at δ={}",
        want.delta
    );
}

#[test]
fn one_pass_umc_sweep_equals_the_per_delta_oracle_bit_for_bit() {
    for seed in 0..400u64 {
        let mut r = er_core::rng::rng(0x5eed_0000 + seed);
        let pairs = if seed % 25 == 0 {
            Vec::new()
        } else {
            candidates(&mut r)
        };
        let gt = ground_truth(&mut r, seed % 2 == 1);
        for (g, grid) in grids(&mut r).into_iter().enumerate() {
            let sweep = ThresholdSweep::run_with(&pairs, &gt, Clusterer::UniqueMapping, &grid);
            assert_eq!(sweep.points.len(), grid.len());
            for (got, &delta) in sweep.points.iter().zip(&grid) {
                let matches = unique_mapping_clustering(&pairs, delta);
                let metrics = Metrics::of_pairs(&matches, &gt);
                let want = SweepPoint {
                    delta,
                    matches,
                    metrics,
                };
                assert_point_eq(got, &want, &format!("seed {seed}, grid {g}"));
            }
        }
    }
}

#[test]
fn best_point_does_not_depend_on_grid_order() {
    for seed in 0..200u64 {
        let mut r = er_core::rng::rng(0xbe57_0000 + seed);
        let pairs = candidates(&mut r);
        let gt = ground_truth(&mut r, seed % 2 == 1);
        let mut grid: Vec<f32> = (0..r.gen_range(1..12)).map(|_| score(&mut r)).collect();
        grid.extend(ThresholdSweep::paper_deltas());
        let mut shuffled = grid.clone();
        shuffled.shuffle(&mut r);
        let sweep = ThresholdSweep::run_with(&pairs, &gt, Clusterer::UniqueMapping, &grid);
        let other = ThresholdSweep::run_with(&pairs, &gt, Clusterer::UniqueMapping, &shuffled);
        let best = sweep.best().expect("non-empty grid");
        assert_point_eq(
            other.best().expect("non-empty grid"),
            best,
            &format!("seed {seed}"),
        );
        // No point beats it, and every point tying it has a δ no smaller.
        for p in &sweep.points {
            assert!(p.metrics.f1 <= best.metrics.f1, "seed {seed}");
            if p.metrics.f1 == best.metrics.f1 {
                assert!(p.delta.total_cmp(&best.delta).is_ge(), "seed {seed}");
            }
        }
    }
}
