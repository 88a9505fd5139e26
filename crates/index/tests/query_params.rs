//! Pins for the runtime query-parameter redesign (`er_core::QueryParams`):
//!
//! 1. Default-parameter counted searches are **bit-identical** to the
//!    pre-redesign `search_slice` path, on every backend.
//! 2. Sweeping HNSW `ef_search` / LSH `probes` at query time is
//!    bit-identical to building the index with those values — the property
//!    that lets the `er-tune` autotuner sweep without rebuilding.
//! 3. The eval counters report exactly what each backend's contract says
//!    (exact: live rows; LSH: gathered candidates).

use er_core::rng::rng;
use er_core::{Embedding, EmbeddingMatrix, QueryParams};
use er_index::{
    ExactIndex, HnswConfig, HnswIndex, HyperplaneLsh, IndexReader, LshConfig, Metric, MutableIndex,
    NnIndex, Quantization, ScanConfig,
};
use rand::Rng;

fn random_vectors(n: usize, dim: usize, seed: u64) -> Vec<Embedding> {
    let mut r = rng(seed);
    (0..n)
        .map(|_| Embedding((0..dim).map(|_| r.gen_range(-1.0..1.0)).collect()))
        .collect()
}

fn assert_bit_identical(a: &[er_index::Neighbor], b: &[er_index::Neighbor], label: &str) {
    assert_eq!(a.len(), b.len(), "{label}: hit counts differ");
    for (x, y) in a.iter().zip(b) {
        assert_eq!(x.index, y.index, "{label}");
        assert_eq!(x.distance.to_bits(), y.distance.to_bits(), "{label}");
    }
}

#[test]
fn default_params_match_search_slice_on_every_backend() {
    let vectors = random_vectors(120, 16, 11);
    let queries = random_vectors(20, 16, 12);
    for metric in [Metric::Euclidean, Metric::Cosine] {
        let exact = ExactIndex::from_source(EmbeddingMatrix::from_embeddings(&vectors), metric);
        let hnsw = HnswIndex::from_source(
            EmbeddingMatrix::from_embeddings(&vectors),
            HnswConfig {
                metric,
                ..HnswConfig::default()
            },
        );
        let lsh = HyperplaneLsh::from_source(
            EmbeddingMatrix::from_embeddings(&vectors),
            LshConfig {
                metric,
                ..LshConfig::default()
            },
            ScanConfig::default(),
        )
        .unwrap();
        for q in &queries {
            for k in [1usize, 5, 17] {
                let d = QueryParams::default();
                assert_bit_identical(
                    &exact.search_slice(q.as_slice(), k),
                    &exact.search_counted(q.as_slice(), k, &d).0,
                    "exact",
                );
                assert_bit_identical(
                    &hnsw.search_slice(q.as_slice(), k),
                    &hnsw.search_counted(q.as_slice(), k, &d).0,
                    "hnsw",
                );
                assert_bit_identical(
                    &lsh.search_slice(q.as_slice(), k),
                    &lsh.search_counted(q.as_slice(), k, &d).0,
                    "lsh",
                );
            }
        }
    }
}

#[test]
fn runtime_ef_search_matches_the_construction_time_setter() {
    let vectors = random_vectors(150, 12, 21);
    let queries = random_vectors(25, 12, 22);
    let matrix = EmbeddingMatrix::from_embeddings(&vectors);
    let build = |ef_search: usize| {
        HnswIndex::from_source(
            &matrix,
            HnswConfig {
                metric: Metric::Cosine,
                ef_search,
                ..HnswConfig::default()
            },
        )
    };
    let base = build(HnswConfig::default().ef_search);
    for ef in [4usize, 16, 48, 200] {
        let rebuilt = build(ef);
        assert_eq!(rebuilt.adjacency(), base.adjacency());
        let params = QueryParams::with_ef_search(ef);
        for q in &queries {
            assert_bit_identical(
                &rebuilt.search_slice(q.as_slice(), 5),
                &base.search_counted(q.as_slice(), 5, &params).0,
                &format!("ef={ef}"),
            );
        }
    }
}

#[test]
fn runtime_probes_and_tables_match_a_matching_build() {
    let vectors = random_vectors(200, 10, 31);
    let queries = random_vectors(25, 10, 32);
    // One wide build; narrower settings are runtime overrides against it.
    let wide = HyperplaneLsh::from_source(
        EmbeddingMatrix::from_embeddings(&vectors),
        LshConfig {
            tables: 16,
            probes: 4,
            ..LshConfig::default()
        },
        ScanConfig::default(),
    )
    .unwrap();
    for (tables, probes) in [(4usize, 0usize), (8, 2), (16, 4), (3, 1)] {
        let narrow = HyperplaneLsh::from_source(
            EmbeddingMatrix::from_embeddings(&vectors),
            LshConfig {
                tables,
                probes,
                ..LshConfig::default()
            },
            ScanConfig::default(),
        )
        .unwrap();
        let params = QueryParams {
            probes: Some(probes),
            tables: Some(tables),
            ef_search: None,
        };
        for q in &queries {
            assert_eq!(
                narrow.candidates_slice_with(q.as_slice(), probes, tables),
                wide.candidates_slice_with(q.as_slice(), probes, tables),
                "tables={tables} probes={probes}: candidate sets differ"
            );
            assert_bit_identical(
                &narrow.search_slice(q.as_slice(), 5),
                &wide.search_counted(q.as_slice(), 5, &params).0,
                &format!("tables={tables} probes={probes}"),
            );
        }
    }
}

#[test]
fn exact_counter_is_live_rows_and_respects_tombstones() {
    let vectors = random_vectors(80, 8, 41);
    let q = &vectors[0];
    let mut index =
        ExactIndex::from_source(EmbeddingMatrix::from_embeddings(&vectors), Metric::Cosine);
    let (_, evals) = index.search_counted(q.as_slice(), 10, &QueryParams::default());
    assert_eq!(evals, 80);
    for dead in [3usize, 10, 77] {
        assert!(index.delete_row(dead));
    }
    let (_, evals) = index.search_counted(q.as_slice(), 10, &QueryParams::default());
    assert_eq!(evals, index.live_count() as u64);
    assert_eq!(evals, 77);
}

#[test]
fn quantized_exact_counter_is_the_rerank_set() {
    let vectors = random_vectors(100, 8, 51);
    let scan = ScanConfig {
        quant: Quantization::Int8 { rerank: 24 },
        ..ScanConfig::default()
    };
    let index = ExactIndex::from_source_scan(
        EmbeddingMatrix::from_embeddings(&vectors),
        Metric::Cosine,
        scan,
    )
    .expect("int8 builds");
    let (_, evals) = index.search_counted(vectors[3].as_slice(), 10, &QueryParams::default());
    // Full-width evals are the re-ranked candidates, not the whole matrix.
    assert_eq!(evals, 24);
    // With k above the rerank budget, the rerank set widens to k.
    let (_, evals) = index.search_counted(vectors[3].as_slice(), 40, &QueryParams::default());
    assert_eq!(evals, 40);
}

#[test]
fn lsh_counter_is_the_gathered_candidate_count() {
    let vectors = random_vectors(150, 10, 61);
    let lsh = HyperplaneLsh::from_source(
        EmbeddingMatrix::from_embeddings(&vectors),
        LshConfig::default(),
        ScanConfig::default(),
    )
    .unwrap();
    for q in random_vectors(10, 10, 62) {
        let (_, evals) = lsh.search_counted(q.as_slice(), 5, &QueryParams::default());
        let config = lsh.config();
        let gathered = lsh.candidates_slice_with(q.as_slice(), config.probes, config.tables);
        assert_eq!(evals, gathered.len() as u64);
    }
}

#[test]
fn hnsw_counter_grows_with_the_beam_and_is_deterministic() {
    let vectors = random_vectors(300, 12, 71);
    let hnsw = HnswIndex::from_source(
        EmbeddingMatrix::from_embeddings(&vectors),
        HnswConfig {
            metric: Metric::Cosine,
            ..HnswConfig::default()
        },
    );
    let q = random_vectors(1, 12, 72).pop().unwrap();
    let evals_at = |ef: usize| {
        hnsw.search_counted(q.as_slice(), 5, &QueryParams::with_ef_search(ef))
            .1
    };
    let narrow = evals_at(4);
    let wide = evals_at(128);
    assert!(narrow > 0);
    assert!(
        wide > narrow,
        "a wider beam must evaluate more distances ({narrow} vs {wide})"
    );
    // The count is a pure function of (index, query, params).
    assert_eq!(evals_at(32), evals_at(32));
    // And never exceeds one evaluation per stored row plus revisits across
    // layers — sanity-bound it by a small multiple of n.
    assert!(wide <= 4 * vectors.len() as u64, "wide beam evals {wide}");
}
