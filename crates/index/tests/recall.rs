//! Property/recall harness: the approximate indices are measured against
//! [`ExactIndex`] ground truth on seeded random vector sets, pinning the
//! quality contract the blocking experiments (paper Fig. 7) rely on.

use er_core::rng::rng;
use er_core::{Embedding, EmbeddingMatrix, QueryParams, ScanConfig};
use er_index::{
    ExactIndex, HnswConfig, HnswIndex, HyperplaneLsh, IndexReader, LshConfig, Metric, NnIndex,
};
use rand::Rng;

fn random_vectors(n: usize, dim: usize, seed: u64) -> Vec<Embedding> {
    let mut r = rng(seed);
    (0..n)
        .map(|_| Embedding((0..dim).map(|_| r.gen_range(-1.0..1.0)).collect()))
        .collect()
}

/// Mean recall@k of `index` (searched under `params`) against exact ground
/// truth under `metric`.
fn recall_at_k(
    index: &dyn IndexReader,
    params: &QueryParams,
    vectors: &[Embedding],
    queries: &[Embedding],
    metric: Metric,
    k: usize,
) -> f64 {
    let exact = ExactIndex::from_source(EmbeddingMatrix::from_embeddings(vectors), metric);
    let mut hit = 0usize;
    let mut total = 0usize;
    for q in queries {
        let truth: Vec<usize> = exact
            .search_slice(q.as_slice(), k)
            .into_iter()
            .map(|n| n.index)
            .collect();
        let approx: Vec<usize> = index
            .search_counted(q.as_slice(), k, params)
            .0
            .into_iter()
            .map(|n| n.index)
            .collect();
        total += truth.len();
        hit += truth.iter().filter(|i| approx.contains(i)).count();
    }
    hit as f64 / total as f64
}

#[test]
fn hnsw_recall_at_10_beats_090_with_ef_64() {
    let vectors = random_vectors(600, 16, 11);
    let queries = random_vectors(50, 16, 12);
    for metric in [Metric::Euclidean, Metric::Cosine] {
        let index = HnswIndex::from_source(
            EmbeddingMatrix::from_embeddings(&vectors),
            HnswConfig {
                ef_search: 64,
                metric,
                ..HnswConfig::default()
            },
        );
        let recall = recall_at_k(
            &index,
            &QueryParams::default(),
            &vectors,
            &queries,
            metric,
            10,
        );
        assert!(
            recall >= 0.9,
            "HNSW recall@10 under {metric:?} was {recall:.3} (< 0.9)"
        );
    }
}

#[test]
fn hnsw_recall_grows_with_ef_search() {
    // ef_search is a query-time knob: one graph, re-tuned per measurement.
    let vectors = random_vectors(600, 16, 13);
    let queries = random_vectors(40, 16, 14);
    let index = HnswIndex::from_source(
        EmbeddingMatrix::from_embeddings(&vectors),
        HnswConfig::default(),
    );
    let recall_at_ef = |ef: usize| {
        let params = QueryParams::with_ef_search(ef);
        recall_at_k(&index, &params, &vectors, &queries, Metric::Euclidean, 10)
    };
    let narrow = recall_at_ef(10);
    let wide = recall_at_ef(256);
    assert!(
        wide >= narrow,
        "widening the beam must not lose recall ({narrow:.3} -> {wide:.3})"
    );
    assert!(wide >= 0.95, "ef=256 recall was {wide:.3}");
}

#[test]
fn lsh_recall_improves_monotonically_with_table_count() {
    // Tables are seeded per table index (`derive(seed, "lsh-table-{t}")`),
    // so a build with T tables contains the tables of every smaller build:
    // the candidate union — and hence recall — is non-decreasing in T.
    let vectors = random_vectors(400, 16, 15);
    let queries = random_vectors(40, 16, 16);
    let mut last = -1.0f64;
    let mut recalls = Vec::new();
    for tables in [1usize, 2, 4, 8, 16] {
        let lsh = HyperplaneLsh::from_source(
            EmbeddingMatrix::from_embeddings(&vectors),
            LshConfig {
                planes: 10,
                tables,
                probes: 1,
                metric: Metric::Cosine,
                seed: 42,
            },
            ScanConfig::default(),
        )
        .unwrap();
        let recall = recall_at_k(
            &lsh,
            &QueryParams::default(),
            &vectors,
            &queries,
            Metric::Cosine,
            10,
        );
        assert!(
            recall >= last,
            "recall dropped when adding tables: {recalls:?} then {recall:.3}"
        );
        last = recall;
        recalls.push(recall);
    }
    assert!(
        *recalls.last().expect("non-empty") > recalls[0],
        "16 tables should beat 1: {recalls:?}"
    );
    assert!(last >= 0.5, "16-table recall too low: {recalls:?}");
}

#[test]
fn lsh_candidate_sets_are_nested_across_table_counts() {
    // The structural fact behind the monotonicity property above.
    let vectors = random_vectors(300, 12, 17);
    let small = HyperplaneLsh::from_source(
        EmbeddingMatrix::from_embeddings(&vectors),
        LshConfig {
            tables: 2,
            ..LshConfig::default()
        },
        ScanConfig::default(),
    )
    .unwrap();
    let large = HyperplaneLsh::from_source(
        EmbeddingMatrix::from_embeddings(&vectors),
        LshConfig {
            tables: 6,
            ..LshConfig::default()
        },
        ScanConfig::default(),
    )
    .unwrap();
    assert_eq!(small.signatures()[0], large.signatures()[0]);
    assert_eq!(small.signatures()[1], large.signatures()[1]);
    for q in random_vectors(10, 12, 18) {
        let narrow = small.candidates_slice_with(q.as_slice(), 2, 2);
        let wide = large.candidates_slice_with(q.as_slice(), 2, 6);
        assert!(narrow.iter().all(|id| wide.contains(id)));
    }
}
