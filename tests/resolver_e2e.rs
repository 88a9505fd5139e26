//! The PR's acceptance equivalence suite, run end to end on D1 with a
//! pre-trained tiny zoo: incremental HNSW vs batch recall, whole-resolver
//! persistence bit-identity, shard scatter-gather equivalence, and byte
//! determinism across independent runs.

use embeddings4er::prelude::*;
use rand::Rng;

/// Pinned bound for the incremental-vs-batch HNSW equivalence: building
/// the same graph by streaming a shuffled permutation may route
/// differently, but its recall@10 against the exact oracle must stay
/// within this margin of the batch build's recall.
const RECALL_MARGIN: f64 = 0.05;

fn d1_embeddings() -> (EmbeddingMatrix, EmbeddingMatrix) {
    let zoo = ModelZoo::pretrain(None, &ZooConfig::tiny(), 42);
    let model = zoo.get(ModelCode::FT);
    let ds = CleanCleanDataset::generate(DatasetId::D1, 42);
    let mode = SerializationMode::SchemaAgnostic;
    let pipeline = Pipeline::new(model.as_ref(), mode);
    (pipeline.vectorize(&ds.right), pipeline.vectorize(&ds.left))
}

fn shuffled(n: usize, seed: u64) -> Vec<usize> {
    let mut perm: Vec<usize> = (0..n).collect();
    let mut r = rng(seed);
    for i in (1..n).rev() {
        perm.swap(i, r.gen_range(0..i + 1));
    }
    perm
}

/// Fraction of the exact top-k an index recovers, averaged over queries.
fn recall_at_k(hits_per_query: &[Vec<usize>], oracle_per_query: &[Vec<usize>], k: usize) -> f64 {
    let mut found = 0usize;
    let mut total = 0usize;
    for (hits, oracle) in hits_per_query.iter().zip(oracle_per_query) {
        total += oracle.len().min(k);
        found += oracle.iter().take(k).filter(|o| hits.contains(o)).count();
    }
    found as f64 / total as f64
}

#[test]
fn incremental_hnsw_over_a_shuffled_order_stays_within_the_recall_bound() {
    let (corpus, queries) = d1_embeddings();
    let k = 10;
    let config = HnswConfig {
        metric: Metric::Cosine,
        ..HnswConfig::default()
    };

    let exact = ExactIndex::from_source(&corpus, Metric::Cosine);
    let oracle: Vec<Vec<usize>> = queries
        .rows_iter()
        .map(|q| exact.search_slice(q, k).iter().map(|n| n.index).collect())
        .collect();

    // Batch: the one-shot constructor over the frozen matrix.
    let batch = HnswIndex::from_source(&corpus, config.clone());
    let batch_hits: Vec<Vec<usize>> = queries
        .rows_iter()
        .map(|q| batch.search_slice(q, k).iter().map(|n| n.index).collect())
        .collect();

    // Incremental: stream the same rows in a shuffled order through
    // insert_row, then map row positions back to original ids.
    let perm = shuffled(corpus.len(), 7);
    let mut incremental = HnswIndex::from_source(EmbeddingMatrix::new(corpus.dim()), config);
    for &row in &perm {
        incremental.insert_row(corpus.row(row)).unwrap();
    }
    assert_eq!(incremental.len(), corpus.len());
    let inc_hits: Vec<Vec<usize>> = queries
        .rows_iter()
        .map(|q| {
            incremental
                .search_slice(q, k)
                .iter()
                .map(|n| perm[n.index])
                .collect()
        })
        .collect();

    let batch_recall = recall_at_k(&batch_hits, &oracle, k);
    let inc_recall = recall_at_k(&inc_hits, &oracle, k);
    assert!(
        batch_recall > 0.9,
        "batch HNSW recall collapsed: {batch_recall}"
    );
    assert!(
        inc_recall >= batch_recall - RECALL_MARGIN,
        "incremental recall {inc_recall} fell more than {RECALL_MARGIN} below batch {batch_recall}"
    );
}

#[test]
fn n_shard_exact_resolver_answers_bit_identically_to_one_shard() {
    let (corpus, queries) = d1_embeddings();
    let backend = BlockerBackend::Exact(Metric::Cosine);
    let shards = |n: usize| {
        ShardedIndex::new(
            corpus.dim(),
            n,
            backend.clone(),
            ScanConfig::default(),
            CompactionPolicy::default(),
        )
        .unwrap()
    };
    let (single, sharded) = (shards(1), shards(5));
    for (i, row) in corpus.rows_iter().enumerate() {
        single.insert(EntityId(i as u32), row).unwrap();
        sharded.insert(EntityId(i as u32), row).unwrap();
    }
    for q in queries.rows_iter() {
        let a = single.search_ids(q, 10);
        let b = sharded.search_ids(q, 10);
        assert_eq!(a.len(), b.len());
        for (x, y) in a.iter().zip(&b) {
            assert_eq!(x.id, y.id);
            assert_eq!(x.distance.to_bits(), y.distance.to_bits());
        }
    }
}

#[test]
fn resolver_persistence_and_serialization_are_byte_deterministic_on_d1() {
    let zoo = ModelZoo::pretrain(None, &ZooConfig::tiny(), 42);
    let model = zoo.get(ModelCode::FT);
    let ds = CleanCleanDataset::generate(DatasetId::D1, 42);

    let build = || {
        let resolver = Resolver::new(
            model.as_ref(),
            SerializationMode::SchemaAgnostic,
            ServeConfig::new().shards(3),
        )
        .unwrap();
        for e in &ds.right {
            resolver.insert(e).unwrap();
        }
        resolver
    };
    // Two independent runs serialize to the same bytes.
    let resolver = build();
    let bytes = resolver.to_bytes();
    assert_eq!(bytes, build().to_bytes());

    // Save → load answers every D1 query bit-identically.
    let loaded = Resolver::from_bytes(&bytes, model.as_ref()).unwrap();
    assert_eq!(loaded.len(), resolver.len());
    for e in &ds.left {
        let a = resolver.query(e, 10);
        let b = loaded.query(e, 10);
        assert_eq!(a.len(), b.len());
        for (x, y) in a.iter().zip(&b) {
            assert_eq!(x.id, y.id);
            assert_eq!(x.distance.to_bits(), y.distance.to_bits());
        }
    }
    // And the loaded service serializes back to the identical document.
    assert_eq!(loaded.to_bytes(), bytes);
}
