//! Criterion micro-benchmarks behind Figures 12/13: NNS index build and
//! query cost — exact scan vs HNSW vs hyperplane LSH — plus the HNSW
//! parameter ablation (efSearch sweep) called out in DESIGN.md §5, and the
//! end-to-end `Pipeline::block` run.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use embeddings4er::prelude::Pipeline;
use er_blocking::{BlockerBackend, TopKConfig};
use er_core::rng::rng;
use er_core::{EmbeddingMatrix, QueryParams, SerializationMode};
use er_datasets::{CleanCleanDataset, DatasetId};
use er_embed::{ModelCode, ModelZoo, ZooConfig};
use er_index::exact::ExactIndex;
use er_index::hnsw::{HnswConfig, HnswIndex};
use er_index::lsh::{HyperplaneLsh, LshConfig};
use er_index::{IndexReader, Metric, NnIndex};
use rand::Rng;
use std::hint::black_box;

fn random_vectors(n: usize, dim: usize, seed: u64) -> EmbeddingMatrix {
    let mut r = rng(seed);
    let flat = (0..n * dim).map(|_| r.gen_range(-1.0..1.0)).collect();
    EmbeddingMatrix::from_flat(dim, flat).expect("n x dim floats")
}

fn bench_build(c: &mut Criterion) {
    let vectors = random_vectors(800, 64, 3);
    let mut group = c.benchmark_group("fig13_index_build");
    group.sample_size(10);
    group.bench_function("exact", |b| {
        b.iter(|| black_box(ExactIndex::from_matrix(&vectors, Metric::Euclidean)))
    });
    group.bench_function("hnsw", |b| {
        b.iter(|| black_box(HnswIndex::from_matrix(&vectors, HnswConfig::default())));
    });
    group.bench_function("hyperplane_lsh", |b| {
        b.iter(|| black_box(HyperplaneLsh::from_matrix(&vectors, LshConfig::default())));
    });
    group.finish();
}

fn bench_query(c: &mut Criterion) {
    let vectors = random_vectors(1_200, 64, 4);
    let queries = random_vectors(16, 64, 5);
    let exact = ExactIndex::from_matrix(&vectors, Metric::Euclidean);
    let hnsw = HnswIndex::from_matrix(&vectors, HnswConfig::default());
    let lsh = HyperplaneLsh::from_matrix(&vectors, LshConfig::default());

    let mut group = c.benchmark_group("fig12_index_query_k10");
    group.bench_function("exact", |b| {
        b.iter(|| {
            for q in queries.rows_iter() {
                black_box(exact.search_slice(q, 10));
            }
        });
    });
    group.bench_function("hnsw", |b| {
        b.iter(|| {
            for q in queries.rows_iter() {
                black_box(hnsw.search_slice(q, 10));
            }
        });
    });
    group.bench_function("hyperplane_lsh", |b| {
        b.iter(|| {
            for q in queries.rows_iter() {
                black_box(lsh.search_slice(q, 10));
            }
        });
    });
    group.finish();
}

/// Sequential vs scoped-thread batched search over the same HNSW graph:
/// the blocker's query path (one query per left-side entity).
fn bench_batched_search(c: &mut Criterion) {
    let vectors = random_vectors(1_200, 64, 10);
    let queries = random_vectors(128, 64, 11);
    let index = HnswIndex::from_matrix(&vectors, HnswConfig::default());
    let mut group = c.benchmark_group("hnsw_batch_vs_sequential_128q");
    group.bench_function("sequential", |b| {
        b.iter(|| {
            for q in queries.rows_iter() {
                black_box(index.search_slice(q, 10));
            }
        });
    });
    group.bench_function("search_batch", |b| {
        b.iter(|| black_box(index.search_batch_rows(&queries, 10)));
    });
    group.finish();
}

/// HNSW ablation: recall/latency as efSearch grows (the FAISS
/// configuration choice of §4.3). One graph, query-time knob only.
fn bench_hnsw_ablation(c: &mut Criterion) {
    let vectors = random_vectors(1_200, 64, 6);
    let queries = random_vectors(16, 64, 7);
    let index = HnswIndex::from_matrix(&vectors, HnswConfig::default());
    let mut group = c.benchmark_group("hnsw_ablation_ef_search");
    for ef in [16usize, 64, 256] {
        let params = QueryParams::with_ef_search(ef);
        group.bench_with_input(BenchmarkId::from_parameter(ef), &ef, |b, _| {
            b.iter(|| {
                for q in queries.rows_iter() {
                    black_box(index.search_counted(q, 10, &params));
                }
            });
        });
    }
    group.finish();
}

/// Dimensionality ablation: the 300-vs-768-d cost discussion of §6.2.
fn bench_dimension_ablation(c: &mut Criterion) {
    let mut group = c.benchmark_group("dimension_ablation_exact_query");
    for dim in [32usize, 64, 128, 256] {
        let vectors = random_vectors(1_500, dim, 8);
        let queries = random_vectors(16, dim, 9);
        let index = ExactIndex::from_matrix(&vectors, Metric::Euclidean);
        group.bench_with_input(BenchmarkId::from_parameter(dim), &dim, |b, _| {
            b.iter(|| {
                for q in queries.rows_iter() {
                    black_box(index.search_slice(q, 10));
                }
            });
        });
    }
    group.finish();
}

/// End-to-end `Pipeline::block` on D1 — vectorize both sides once into
/// matrices, HNSW top-10 blocking, stage report included.
fn bench_pipeline_block_d1(c: &mut Criterion) {
    let zoo = ModelZoo::pretrain(None, &ZooConfig::tiny(), 42);
    let model = zoo.get(ModelCode::FT);
    let ds = CleanCleanDataset::generate(DatasetId::D1, 42);
    let config = TopKConfig {
        k: 10,
        backend: BlockerBackend::Hnsw(HnswConfig {
            metric: Metric::Cosine,
            ..HnswConfig::default()
        }),
        dirty: false,
        ..TopKConfig::default()
    };
    let pipeline = Pipeline::new(model.as_ref(), SerializationMode::SchemaAgnostic);
    let mut group = c.benchmark_group("pipeline_block_d1_e2e");
    group.sample_size(10);
    group.bench_function("fasttext_hnsw_k10", |b| {
        b.iter(|| black_box(pipeline.block(&ds.left, &ds.right, &config)));
    });
    group.finish();
}

criterion_group!(
    benches,
    bench_build,
    bench_query,
    bench_batched_search,
    bench_hnsw_ablation,
    bench_dimension_ablation,
    bench_pipeline_block_d1
);
criterion_main!(benches);
