//! Blocker-level integration: planted near-duplicate vector sets run
//! through every backend, checking pairs-completeness, the deterministic
//! candidate-list contract, and agreement between the batch and
//! sequential search paths.

use er_blocking::{top_k_blocking_scored_matrix, BlockerBackend, TopKConfig};
use er_core::rng::rng;
use er_core::{EmbeddingMatrix, EntityId, GroundTruth};
use er_eval::Metrics;
use er_index::{HnswConfig, LshConfig, Metric};
use rand::Rng;

/// A synthetic Clean-Clean instance in embedding space: `matches` right
/// vectors are jittered copies of the corresponding left vectors, the rest
/// of both sides is background noise.
fn planted(
    left_n: usize,
    right_n: usize,
    matches: usize,
    dim: usize,
    jitter: f32,
    seed: u64,
) -> (EmbeddingMatrix, EmbeddingMatrix, GroundTruth) {
    let mut r = rng(seed);
    let mut left = EmbeddingMatrix::with_capacity(dim, left_n);
    for _ in 0..left_n {
        let row: Vec<f32> = (0..dim).map(|_| r.gen_range(-1.0..1.0)).collect();
        left.push(&row);
    }
    let mut right = EmbeddingMatrix::with_capacity(dim, right_n);
    for l in left.rows_iter().take(matches) {
        let row: Vec<f32> = l.iter().map(|x| x + r.gen_range(-jitter..jitter)).collect();
        right.push(&row);
    }
    for _ in matches..right_n {
        let row: Vec<f32> = (0..dim).map(|_| r.gen_range(-1.0..1.0)).collect();
        right.push(&row);
    }
    let gt =
        GroundTruth::clean_clean((0..matches).map(|i| (EntityId(i as u32), EntityId(i as u32))));
    (left, right, gt)
}

/// The one blocker under ids `0..n`, scores projected away.
fn block(
    left: &EmbeddingMatrix,
    right: &EmbeddingMatrix,
    config: &TopKConfig,
) -> Vec<(EntityId, EntityId)> {
    let ids = |n: usize| (0..n as u32).map(EntityId).collect::<Vec<_>>();
    top_k_blocking_scored_matrix(&ids(left.len()), left, &ids(right.len()), right, config)
        .iter()
        .map(|p| p.id_pair())
        .collect()
}

#[test]
fn every_backend_recovers_planted_duplicates() {
    let (left, right, gt) = planted(120, 120, 80, 12, 0.05, 31);
    let backends = [
        BlockerBackend::Exact(Metric::Cosine),
        BlockerBackend::Hnsw(HnswConfig {
            metric: Metric::Cosine,
            ..HnswConfig::default()
        }),
        BlockerBackend::Lsh(LshConfig {
            tables: 16,
            probes: 4,
            ..LshConfig::default()
        }),
    ];
    for backend in backends {
        let label = format!("{backend:?}");
        let config = TopKConfig {
            k: 10,
            backend,
            dirty: false,
            ..TopKConfig::default()
        };
        let candidates = block(&left, &right, &config);
        let m = Metrics::of_candidates(&candidates, &gt);
        assert!(
            m.recall >= 0.9,
            "{label}: pairs-completeness {:.3} < 0.9",
            m.recall
        );
        assert!(
            candidates.len() <= 120 * 10,
            "{label}: more candidates than queries x k"
        );
    }
}

#[test]
fn blocker_candidate_lists_are_deterministic() {
    let (left, right, _) = planted(100, 100, 60, 12, 0.05, 32);
    for backend in [
        BlockerBackend::Hnsw(HnswConfig {
            metric: Metric::Cosine,
            ..HnswConfig::default()
        }),
        BlockerBackend::Lsh(LshConfig::default()),
    ] {
        let config = TopKConfig {
            k: 5,
            backend,
            dirty: false,
            ..TopKConfig::default()
        };
        let a = block(&left, &right, &config);
        let b = block(&left, &right, &config);
        assert_eq!(a, b, "same build, same candidates: {config:?}");
        assert!(!a.is_empty());
    }

    // Different index seeds are allowed to block differently (and with this
    // jitter they do for HNSW at k=1 or LSH generally) — but determinism
    // per seed is the contract; just assert both seeds yield valid output.
    let reseeded = TopKConfig {
        k: 5,
        backend: BlockerBackend::Hnsw(HnswConfig {
            metric: Metric::Cosine,
            seed: 99,
            ..HnswConfig::default()
        }),
        dirty: false,
        ..TopKConfig::default()
    };
    let c = block(&left, &right, &reseeded);
    assert!(!c.is_empty());
}

#[test]
fn candidate_set_is_far_smaller_than_cross_product() {
    let (left, right, gt) = planted(150, 150, 100, 12, 0.05, 33);
    let config = TopKConfig {
        k: 10,
        backend: BlockerBackend::Hnsw(HnswConfig {
            metric: Metric::Cosine,
            ..HnswConfig::default()
        }),
        dirty: false,
        ..TopKConfig::default()
    };
    let candidates = block(&left, &right, &config);
    let cross = 150 * 150;
    assert!(
        candidates.len() * 4 < cross,
        "blocking must emit < 25% of the cross-product ({} of {cross})",
        candidates.len()
    );
    let m = Metrics::of_candidates(&candidates, &gt);
    assert!(m.recall >= 0.9, "PC {:.3}", m.recall);
}
