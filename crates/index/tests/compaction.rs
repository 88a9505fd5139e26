//! Compaction coverage (ISSUE 8 satellite): [`MutableIndex::compact`]
//! drops tombstoned rows while leaving live top-k answers bit-identical,
//! for all three backends × both metrics, including quantized Exact
//! configurations; the new→old row mapping preserves live-row order; and
//! degenerate compactions (empty index, everything tombstoned, nothing
//! tombstoned) are panic-free no-ops.
//!
//! HNSW is the one backend where "unchanged answers" needs care: its
//! compaction is a *fresh batch build* over the live rows, so the graph —
//! and therefore approximate answers — is the one a from-scratch build
//! would produce. That stronger determinism claim is pinned directly
//! (adjacency equality against an actual fresh build); top-k equality is
//! pinned at sizes where the search is effectively exhaustive.

use er_core::pq::PqConfig;
use er_core::{Embedding, EmbeddingMatrix, EntityId, KernelTier};
use er_index::{
    ExactIndex, HnswConfig, HnswIndex, HyperplaneLsh, IndexReader, LshConfig, Metric, MutableIndex,
    NnIndex, Quantization, ScanConfig,
};
use rand::Rng;

fn vectors(n: usize, dim: usize, seed: u64) -> Vec<Embedding> {
    let mut r = er_core::rng::rng(seed);
    (0..n)
        .map(|_| Embedding((0..dim).map(|_| r.gen_range(-4.0..4.0)).collect()))
        .collect()
}

fn assert_same_hits(a: &impl NnIndex, b: &impl NnIndex, queries: &[Embedding], k: usize) {
    for q in queries {
        let ha = a.search_slice(q.as_slice(), k);
        let hb = b.search_slice(q.as_slice(), k);
        assert_eq!(ha.len(), hb.len(), "hit count drifted");
        for (x, y) in ha.iter().zip(&hb) {
            assert_eq!(
                x.distance.to_bits(),
                y.distance.to_bits(),
                "distance drifted"
            );
        }
    }
}

/// Distances of the live top-k, compared bit-for-bit across a compaction
/// (row positions shift, so only distances are comparable directly).
fn distances(index: &impl NnIndex, queries: &[Embedding], k: usize) -> Vec<Vec<u32>> {
    queries
        .iter()
        .map(|q| {
            index
                .search_slice(q.as_slice(), k)
                .iter()
                .map(|h| h.distance.to_bits())
                .collect()
        })
        .collect()
}

fn delete_every_third(index: &mut impl MutableIndex, n: usize) -> Vec<usize> {
    let mut deleted = Vec::new();
    for i in (0..n).step_by(3) {
        assert!(index.delete_row(i));
        deleted.push(i);
    }
    deleted
}

#[test]
fn exact_compaction_is_bit_identical_for_both_metrics() {
    let vs = vectors(40, 9, 70);
    let queries = vectors(8, 9, 71);
    for metric in [Metric::Euclidean, Metric::Cosine] {
        let mut index = ExactIndex::from_source(EmbeddingMatrix::from_embeddings(&vs), metric);
        let deleted = delete_every_third(&mut index, vs.len());
        let before = distances(&index, &queries, 7);

        let mapping = index.compact();

        assert_eq!(index.len(), vs.len() - deleted.len(), "tombstones remain");
        assert_eq!(index.live_count(), index.len());
        // The mapping lists exactly the surviving old rows, in order.
        let expected: Vec<u32> = (0..vs.len() as u32)
            .filter(|r| !deleted.contains(&(*r as usize)))
            .collect();
        assert_eq!(mapping, expected);
        assert_eq!(before, distances(&index, &queries, 7), "{metric:?}");
    }
}

fn pq8() -> PqConfig {
    PqConfig {
        subspaces: 4,
        centroids: 16,
        iters: 3,
        seed: 5,
    }
}

#[test]
fn quantized_exact_compaction_is_bit_identical() {
    // Compaction must filter the quantized companion storage (int8 codes,
    // PQ code rows) verbatim — codes are never recomputed, so re-ranked
    // answers cannot drift.
    let vs = vectors(36, 8, 72);
    let queries = vectors(6, 8, 73);
    let configs = [
        ScanConfig {
            tier: KernelTier::Lanes,
            quant: Quantization::Int8 { rerank: 8 },
        },
        ScanConfig {
            tier: KernelTier::Reference,
            quant: Quantization::Pq {
                config: pq8(),
                rerank: 8,
            },
        },
    ];
    for metric in [Metric::Euclidean, Metric::Cosine] {
        for scan in configs {
            let mut index =
                ExactIndex::from_source_scan(EmbeddingMatrix::from_embeddings(&vs), metric, scan)
                    .unwrap();
            delete_every_third(&mut index, vs.len());
            let before = distances(&index, &queries, 6);
            index.compact();
            assert_eq!(index.scan_config(), scan, "scan config lost");
            assert_eq!(
                before,
                distances(&index, &queries, 6),
                "{metric:?} {scan:?}"
            );
            // The compacted index persists and reloads like any other.
            let back = ExactIndex::from_bytes(&index.to_bytes()).unwrap();
            assert_same_hits(&index, &back, &queries, 6);
        }
    }
}

#[test]
fn hnsw_compaction_equals_fresh_batch_build() {
    let vs = vectors(30, 8, 74);
    let queries = vectors(6, 8, 75);
    for metric in [Metric::Euclidean, Metric::Cosine] {
        let config = HnswConfig {
            metric,
            ..HnswConfig::default()
        };
        let mut index =
            HnswIndex::from_source(EmbeddingMatrix::from_embeddings(&vs), config.clone());
        let deleted = delete_every_third(&mut index, vs.len());
        let before = distances(&index, &queries, 5);

        index.compact();

        // The pinned contract: compaction rebuilds the graph exactly as a
        // fresh batch build over the surviving rows (in order) would.
        let live: Vec<Embedding> = vs
            .iter()
            .enumerate()
            .filter(|(i, _)| !deleted.contains(i))
            .map(|(_, v)| v.clone())
            .collect();
        let fresh = HnswIndex::from_source(EmbeddingMatrix::from_embeddings(&live), config);
        assert_eq!(index.adjacency(), fresh.adjacency(), "{metric:?}");
        assert_eq!(index.len(), live.len());
        // At this size the search is effectively exhaustive, so masked
        // pre-compaction answers and rebuilt-graph answers coincide.
        assert_eq!(before, distances(&index, &queries, 5), "{metric:?}");
        assert_same_hits(&index, &fresh, &queries, 5);
    }
}

#[test]
fn lsh_compaction_is_bit_identical_for_both_metrics() {
    let vs = vectors(32, 8, 76);
    let queries = vectors(6, 8, 77);
    for metric in [Metric::Euclidean, Metric::Cosine] {
        let config = LshConfig {
            metric,
            ..LshConfig::default()
        };
        let mut index = HyperplaneLsh::from_source(
            EmbeddingMatrix::from_embeddings(&vs),
            config,
            ScanConfig::default(),
        )
        .unwrap();
        delete_every_third(&mut index, vs.len());
        let before = distances(&index, &queries, 5);
        index.compact();
        // Hyperplanes are kept and signatures filtered verbatim — the
        // candidate sets (hence answers) are exactly the pre-compaction
        // live ones.
        assert_eq!(before, distances(&index, &queries, 5), "{metric:?}");
    }
}

#[test]
fn compacting_with_no_tombstones_is_an_identity_no_op() {
    let vs = vectors(12, 6, 78);
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
    let bytes_before = (exact.to_bytes(), hnsw.to_bytes(), lsh.to_bytes());
    let identity: Vec<u32> = (0..vs.len() as u32).collect();
    assert_eq!(exact.compact(), identity);
    assert_eq!(hnsw.compact(), identity);
    assert_eq!(lsh.compact(), identity);
    // Identity compaction never rebuilds: the bytes (HNSW graph included)
    // are untouched.
    assert_eq!(bytes_before.0, exact.to_bytes());
    assert_eq!(bytes_before.1, hnsw.to_bytes());
    assert_eq!(bytes_before.2, lsh.to_bytes());
}

#[test]
fn empty_and_all_tombstoned_compactions_are_panic_free() {
    let vs = vectors(9, 5, 79);
    // Empty index.
    let mut exact =
        ExactIndex::from_source(EmbeddingMatrix::from_embeddings(&[]), Metric::Euclidean);
    let mut hnsw =
        HnswIndex::from_source(EmbeddingMatrix::from_embeddings(&[]), HnswConfig::default());
    let mut lsh = HyperplaneLsh::from_source(
        EmbeddingMatrix::from_embeddings(&[]),
        LshConfig::default(),
        ScanConfig::default(),
    )
    .unwrap();
    assert!(exact.compact().is_empty());
    assert!(hnsw.compact().is_empty());
    assert!(lsh.compact().is_empty());

    // Everything tombstoned: compaction leaves a valid, searchable,
    // zero-row index.
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
    assert!(exact.compact().is_empty());
    assert!(hnsw.compact().is_empty());
    assert!(lsh.compact().is_empty());
    for q in &vs {
        assert!(exact.search_slice(q.as_slice(), 3).is_empty());
        assert!(hnsw.search_slice(q.as_slice(), 3).is_empty());
        assert!(lsh.search_slice(q.as_slice(), 3).is_empty());
    }
    assert_eq!(exact.len(), 0);
    assert_eq!(hnsw.len(), 0);
    assert_eq!(lsh.len(), 0);
}

#[test]
fn compaction_supports_continued_mutation() {
    // Insert → delete → compact → insert again: row bookkeeping stays
    // coherent across the rebuild (the er-serve write path relies on
    // append positions matching `len()` after a compaction).
    let vs = vectors(20, 6, 80);
    let extra = vectors(4, 6, 81);
    let mut index = ExactIndex::from_source(EmbeddingMatrix::from_embeddings(&vs), Metric::Cosine);
    delete_every_third(&mut index, vs.len());
    index.compact();
    let base = index.len();
    for (i, e) in extra.iter().enumerate() {
        assert_eq!(index.insert_row(e.as_slice()).unwrap(), base + i);
    }
    assert_eq!(index.live_count(), base + extra.len());
    let _ = EntityId(0); // er-core linkage sanity (ids live a layer up)
    let hits = index.search_slice(extra[0].as_slice(), 3);
    assert_eq!(hits.len(), 3);
}
