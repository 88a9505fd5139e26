//! The index determinism contract, mirroring `zoo_determinism.rs`: the
//! same seed builds the bit-identical structure across independent builds,
//! different seeds diverge, and the parallel batch path returns exactly
//! the sequential results.

use er_core::rng::rng;
use er_core::{kernels, Embedding, EmbeddingMatrix, ScanConfig};
use er_index::{
    ExactIndex, HnswConfig, HnswIndex, HyperplaneLsh, LshConfig, Metric, Neighbor, NnIndex,
};
use rand::Rng;

fn random_vectors(n: usize, dim: usize, seed: u64) -> Vec<Embedding> {
    let mut r = rng(seed);
    (0..n)
        .map(|_| Embedding((0..dim).map(|_| r.gen_range(-1.0..1.0)).collect()))
        .collect()
}

#[test]
fn same_seed_builds_bit_identical_hnsw_graphs() {
    let vectors = random_vectors(300, 12, 21);
    let a = HnswIndex::from_source(
        EmbeddingMatrix::from_embeddings(&vectors),
        HnswConfig::default(),
    );
    let b = HnswIndex::from_source(
        EmbeddingMatrix::from_embeddings(&vectors),
        HnswConfig::default(),
    );
    assert_eq!(a.adjacency(), b.adjacency());
    assert_eq!(a.max_level(), b.max_level());
    for q in random_vectors(10, 12, 22) {
        assert_eq!(
            a.search_slice(q.as_slice(), 10),
            b.search_slice(q.as_slice(), 10)
        );
    }
}

#[test]
fn different_seeds_build_different_hnsw_graphs() {
    let vectors = random_vectors(300, 12, 23);
    let a = HnswIndex::from_source(
        EmbeddingMatrix::from_embeddings(&vectors),
        HnswConfig::default(),
    );
    let b = HnswIndex::from_source(
        EmbeddingMatrix::from_embeddings(&vectors),
        HnswConfig {
            seed: 43,
            ..HnswConfig::default()
        },
    );
    assert_ne!(
        a.adjacency(),
        b.adjacency(),
        "level sampling must depend on the seed"
    );
}

#[test]
fn same_seed_builds_bit_identical_lsh_signatures() {
    let vectors = random_vectors(200, 12, 24);
    let a = HyperplaneLsh::from_source(
        EmbeddingMatrix::from_embeddings(&vectors),
        LshConfig::default(),
        ScanConfig::default(),
    )
    .unwrap();
    let b = HyperplaneLsh::from_source(
        EmbeddingMatrix::from_embeddings(&vectors),
        LshConfig::default(),
        ScanConfig::default(),
    )
    .unwrap();
    assert_eq!(a.signatures(), b.signatures());
    for q in random_vectors(10, 12, 25) {
        assert_eq!(
            a.candidates_slice_with(q.as_slice(), 2, 8),
            b.candidates_slice_with(q.as_slice(), 2, 8)
        );
        assert_eq!(
            a.search_slice(q.as_slice(), 5),
            b.search_slice(q.as_slice(), 5)
        );
    }

    let c = HyperplaneLsh::from_source(
        EmbeddingMatrix::from_embeddings(&vectors),
        LshConfig {
            seed: 7,
            ..LshConfig::default()
        },
        ScanConfig::default(),
    )
    .unwrap();
    assert_ne!(a.signatures(), c.signatures());
}

#[test]
fn search_batch_matches_sequential_search() {
    let vectors = EmbeddingMatrix::from_embeddings(&random_vectors(400, 12, 26));
    // The batch fans out only when each chunk's predicted scan (queries ×
    // 400 rows × 12 dims × 0.25 ns) beats the 47 µs spawn: 67 queries stay
    // inline, 240 cross the gate on up to 4 cores (≥ 60 queries, 72 µs).
    for n_queries in [67, 240] {
        let queries = EmbeddingMatrix::from_embeddings(&random_vectors(n_queries, 12, 27));
        let sequential = |index: &dyn NnIndex| -> Vec<Vec<Neighbor>> {
            queries
                .rows_iter()
                .map(|q| index.search_slice(q, 10))
                .collect()
        };
        for metric in [Metric::Euclidean, Metric::Cosine] {
            let hnsw = HnswIndex::from_source(
                &vectors,
                HnswConfig {
                    metric,
                    ..HnswConfig::default()
                },
            );
            assert_eq!(hnsw.search_batch_rows(&queries, 10), sequential(&hnsw));
        }
        let lsh = HyperplaneLsh::from_source(&vectors, LshConfig::default(), ScanConfig::default())
            .unwrap();
        assert_eq!(lsh.search_batch_rows(&queries, 10), sequential(&lsh));
        let exact = ExactIndex::from_matrix(&vectors, Metric::Euclidean);
        assert_eq!(exact.search_batch_rows(&queries, 10), sequential(&exact));
    }

    // Degenerate batch shapes.
    let exact = ExactIndex::from_matrix(&vectors, Metric::Euclidean);
    assert!(exact
        .search_batch_rows(&EmbeddingMatrix::new(12), 10)
        .is_empty());
    let one = vectors.select_rows([0]);
    assert_eq!(exact.search_batch_rows(&one, 10).len(), 1);
}

/// The tuple-era oracle: a verbatim brute-force scan returning the bare
/// `(usize, f32)` hits searches used to emit before [`Neighbor`].
fn tuple_era_scan(
    vectors: &[Embedding],
    query: &Embedding,
    metric: Metric,
    k: usize,
) -> Vec<(usize, f32)> {
    let mut hits: Vec<(usize, f32)> = vectors
        .iter()
        .enumerate()
        .map(|(i, v)| {
            let dist = match metric {
                Metric::Euclidean => kernels::squared_euclidean(query.as_slice(), v.as_slice()),
                Metric::Cosine => 1.0 - kernels::cosine(query.as_slice(), v.as_slice()),
            };
            (i, dist)
        })
        .collect();
    hits.sort_by(|a, b| a.1.total_cmp(&b.1).then_with(|| a.0.cmp(&b.0)));
    hits.truncate(k);
    hits
}

/// The `Neighbor` redesign must not perturb a single bit: every hit's
/// `(index, distance)` equals the tuple the old API returned.
#[test]
fn neighbor_hits_are_bit_identical_to_the_tuple_era() {
    let vectors = random_vectors(200, 24, 51);
    let queries = random_vectors(25, 24, 52);
    for metric in [Metric::Euclidean, Metric::Cosine] {
        let index = ExactIndex::from_source(EmbeddingMatrix::from_embeddings(&vectors), metric);
        for q in &queries {
            let hits = index.search_slice(q.as_slice(), 10);
            let oracle = tuple_era_scan(&vectors, q, metric, 10);
            assert_eq!(hits.len(), oracle.len());
            for (n, (idx, dist)) in hits.iter().zip(&oracle) {
                assert_eq!(n.index, *idx, "{metric:?}");
                assert_eq!(
                    n.distance.to_bits(),
                    dist.to_bits(),
                    "{metric:?}: distance drifted from the tuple era"
                );
            }
        }
    }
}
