//! Streaming-mutation contract of [`MutableIndex`]: incremental insertion
//! equals batch construction, tombstones mask without destabilizing ids,
//! and the edge cases (empty index, all-deleted index, `k > live_count`)
//! return clean truncated results instead of panicking or leaking
//! deleted ids.

use er_core::{Embedding, EmbeddingMatrix, ErError, ScanConfig};
use er_index::{
    ExactIndex, HnswConfig, HnswIndex, HyperplaneLsh, IndexReader, LshConfig, Metric, MutableIndex,
    NnIndex,
};
use rand::Rng;

fn vectors(n: usize, dim: usize, seed: u64) -> Vec<Embedding> {
    let mut r = er_core::rng::rng(seed);
    (0..n)
        .map(|_| Embedding((0..dim).map(|_| r.gen_range(-1.0..1.0)).collect()))
        .collect()
}

/// The load-bearing equivalence of the serving path: building an HNSW
/// graph by streaming `insert_row` calls in build order is *bit-identical*
/// to the batch build — same adjacency, same entry point, same hits.
#[test]
fn hnsw_incremental_build_is_bit_identical_to_batch() {
    let vs = vectors(60, 8, 21);
    for metric in [Metric::Euclidean, Metric::Cosine] {
        let config = HnswConfig {
            metric,
            ..HnswConfig::default()
        };
        let batch = HnswIndex::from_source(EmbeddingMatrix::from_embeddings(&vs), config.clone());
        let mut incremental = HnswIndex::from_source(EmbeddingMatrix::new(8), config);
        for v in &vs {
            incremental.insert_row(v.as_slice()).unwrap();
        }
        assert_eq!(batch.adjacency(), incremental.adjacency());
        assert_eq!(batch.max_level(), incremental.max_level());
        for v in &vs {
            assert_eq!(
                batch.search_slice(v.as_slice(), 5),
                incremental.search_slice(v.as_slice(), 5)
            );
        }
    }
}

#[test]
fn exact_and_lsh_incremental_build_match_batch() {
    let vs = vectors(40, 6, 22);
    let batch_exact =
        ExactIndex::from_source(EmbeddingMatrix::from_embeddings(&vs), Metric::Cosine);
    let mut inc_exact = ExactIndex::from_source(EmbeddingMatrix::new(6), Metric::Cosine);
    let batch_lsh = HyperplaneLsh::from_source(
        EmbeddingMatrix::from_embeddings(&vs),
        LshConfig::default(),
        ScanConfig::default(),
    )
    .unwrap();
    let mut inc_lsh = HyperplaneLsh::from_source(
        EmbeddingMatrix::new(6),
        LshConfig::default(),
        ScanConfig::default(),
    )
    .unwrap();
    for (i, v) in vs.iter().enumerate() {
        assert_eq!(inc_exact.insert_row(v.as_slice()).unwrap(), i);
        assert_eq!(inc_lsh.insert_row(v.as_slice()).unwrap(), i);
    }
    assert_eq!(batch_lsh.signatures(), inc_lsh.signatures());
    for v in &vs {
        assert_eq!(
            batch_exact.search_slice(v.as_slice(), 7),
            inc_exact.search_slice(v.as_slice(), 7)
        );
        assert_eq!(
            batch_lsh.search_slice(v.as_slice(), 7),
            inc_lsh.search_slice(v.as_slice(), 7)
        );
    }
}

/// Deleted ids never surface, and the remaining hits are exactly the
/// search over the surviving rows (ids unchanged — tombstones don't shift
/// positions).
#[test]
fn tombstones_mask_results_without_moving_ids() {
    let vs = vectors(30, 6, 23);
    let dropped = [0usize, 7, 15, 29];
    let mut exact =
        ExactIndex::from_source(EmbeddingMatrix::from_embeddings(&vs), Metric::Euclidean);
    let mut hnsw =
        HnswIndex::from_source(EmbeddingMatrix::from_embeddings(&vs), HnswConfig::default());
    let mut lsh = HyperplaneLsh::from_source(
        EmbeddingMatrix::from_embeddings(&vs),
        LshConfig::default(),
        ScanConfig::default(),
    )
    .unwrap();
    for &d in &dropped {
        assert!(exact.delete_row(d) && hnsw.delete_row(d) && lsh.delete_row(d));
        // Double deletion is a no-op, not a panic.
        assert!(!exact.delete_row(d) && !hnsw.delete_row(d) && !lsh.delete_row(d));
    }
    assert_eq!(exact.live_count(), 26);
    assert_eq!(hnsw.live_count(), 26);
    assert_eq!(lsh.live_count(), 26);
    for v in &vs {
        for hits in [
            exact.search_slice(v.as_slice(), 30),
            hnsw.search_slice(v.as_slice(), 30),
            lsh.search_slice(v.as_slice(), 30),
        ] {
            assert!(hits.iter().all(|h| !dropped.contains(&h.index)));
            assert!(hits.len() <= 26);
        }
    }
    // The exact scan over survivors is the ground truth the masked scan
    // must reproduce, modulo the stable original ids.
    let survivors: Vec<usize> = (0..vs.len()).filter(|i| !dropped.contains(i)).collect();
    let shrunk_vs: Vec<Embedding> = survivors.iter().map(|&i| vs[i].clone()).collect();
    let shrunk = ExactIndex::from_source(
        EmbeddingMatrix::from_embeddings(&shrunk_vs),
        Metric::Euclidean,
    );
    for v in &vs {
        let masked = exact.search_slice(v.as_slice(), 5);
        let oracle = shrunk.search_slice(v.as_slice(), 5);
        assert_eq!(masked.len(), oracle.len());
        for (m, o) in masked.iter().zip(&oracle) {
            assert_eq!(m.index, survivors[o.index]);
            assert_eq!(m.distance.to_bits(), o.distance.to_bits());
        }
    }
}

#[test]
fn all_tombstoned_index_returns_empty_never_panics() {
    let vs = vectors(12, 4, 24);
    let q = Embedding(vec![0.1; 4]);
    let mut exact =
        ExactIndex::from_source(EmbeddingMatrix::from_embeddings(&vs), Metric::Euclidean);
    let mut hnsw =
        HnswIndex::from_source(EmbeddingMatrix::from_embeddings(&vs), HnswConfig::default());
    let mut lsh = HyperplaneLsh::from_source(
        EmbeddingMatrix::from_embeddings(&vs),
        LshConfig::default(),
        ScanConfig::default(),
    )
    .unwrap();
    for i in 0..vs.len() {
        exact.delete_row(i);
        hnsw.delete_row(i);
        lsh.delete_row(i);
    }
    assert_eq!(exact.live_count(), 0);
    assert!(exact.search_slice(q.as_slice(), 5).is_empty());
    assert!(hnsw.search_slice(q.as_slice(), 5).is_empty());
    assert!(lsh.search_slice(q.as_slice(), 5).is_empty());
    // The graph survives total deletion: re-inserting works and the new
    // row is findable.
    let id = hnsw.insert_row(q.as_slice()).unwrap();
    assert_eq!(id, vs.len());
    let hits = hnsw.search_slice(q.as_slice(), 3);
    assert_eq!(hits.len(), 1);
    assert_eq!(hits[0].index, id);
}

#[test]
fn k_larger_than_live_count_truncates_cleanly() {
    let vs = vectors(10, 4, 25);
    let q = Embedding(vec![0.3; 4]);
    let mut exact =
        ExactIndex::from_source(EmbeddingMatrix::from_embeddings(&vs), Metric::Euclidean);
    let mut hnsw =
        HnswIndex::from_source(EmbeddingMatrix::from_embeddings(&vs), HnswConfig::default());
    let mut lsh = HyperplaneLsh::from_source(
        EmbeddingMatrix::from_embeddings(&vs),
        LshConfig::default(),
        ScanConfig::default(),
    )
    .unwrap();
    for d in [1usize, 4, 6] {
        exact.delete_row(d);
        hnsw.delete_row(d);
        lsh.delete_row(d);
    }
    assert_eq!(exact.search_slice(q.as_slice(), 100).len(), 7);
    assert_eq!(hnsw.search_slice(q.as_slice(), 100).len(), 7);
    assert!(
        lsh.search_slice(q.as_slice(), 100).len() <= 7,
        "LSH may return fewer (probing)"
    );
    // Out-of-range deletes are rejected, not panics.
    assert!(!exact.delete_row(10) && !hnsw.delete_row(999) && !lsh.delete_row(10));
    assert!(!exact.is_deleted(10) && !hnsw.is_deleted(999));
}

#[test]
fn dimension_mismatches_are_typed_errors() {
    let mut exact = ExactIndex::from_source(EmbeddingMatrix::new(4), Metric::Euclidean);
    assert!(matches!(
        exact.insert_row(&[1.0; 3]),
        Err(ErError::Model(_))
    ));
    assert_eq!(exact.insert_row(&[1.0; 4]).unwrap(), 0);
    let mut lsh = HyperplaneLsh::from_source(
        EmbeddingMatrix::new(2),
        LshConfig::default(),
        ScanConfig::default(),
    )
    .unwrap();
    assert_eq!(lsh.insert_row(&[1.0, 2.0]).unwrap(), 0);
    assert_eq!(
        lsh.search_slice(Embedding(vec![1.0, 2.0]).as_slice(), 1)
            .len(),
        1
    );
}

/// Queries stay legal between mutations: interleave inserts and deletes
/// and keep checking against a freshly built exact oracle.
#[test]
fn interleaved_mutations_keep_queries_consistent() {
    let vs = vectors(30, 5, 27);
    let q = Embedding(vec![0.2; 5]);
    let mut exact = ExactIndex::from_source(EmbeddingMatrix::new(5), Metric::Euclidean);
    let mut live: Vec<usize> = Vec::new();
    for (i, v) in vs.iter().enumerate() {
        exact.insert_row(v.as_slice()).unwrap();
        live.push(i);
        if i % 3 == 2 {
            let victim = live.remove(live.len() / 2);
            assert!(exact.delete_row(victim));
        }
        let hits = exact.search_slice(q.as_slice(), 4);
        let oracle_vs: Vec<Embedding> = live.iter().map(|&j| vs[j].clone()).collect();
        let oracle = ExactIndex::from_source(
            EmbeddingMatrix::from_embeddings(&oracle_vs),
            Metric::Euclidean,
        )
        .search_slice(q.as_slice(), 4);
        assert_eq!(hits.len(), oracle.len());
        for (h, o) in hits.iter().zip(&oracle) {
            assert_eq!(h.index, live[o.index]);
            assert_eq!(h.distance.to_bits(), o.distance.to_bits());
        }
    }
}
