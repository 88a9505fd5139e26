//! Criterion micro-benchmarks behind Figures 14/15 and Table 5(b):
//! Unique Mapping Clustering throughput, the threshold sweep, the string
//! similarity features of ZeroER, and the k ∈ {1,5,10} blocking ablation.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use er_core::rng::rng;
use er_core::{EmbeddingMatrix, EntityId, GroundTruth, ScoredPair};
use er_index::exact::ExactIndex;
use er_index::{Metric, NnIndex};
use er_matching::similarity;
use er_matching::{unique_mapping_clustering, ThresholdSweep};
use rand::Rng;
use std::hint::black_box;

fn scored_pairs(n_left: u32, n_right: u32, seed: u64) -> Vec<ScoredPair> {
    let mut r = rng(seed);
    let mut out = Vec::with_capacity((n_left * n_right) as usize);
    for l in 0..n_left {
        for rr in 0..n_right {
            out.push(ScoredPair::new(
                EntityId(l),
                EntityId(rr),
                r.gen_range(0.0..1.0),
            ));
        }
    }
    out
}

fn bench_umc(c: &mut Criterion) {
    let mut group = c.benchmark_group("fig14_umc");
    group.sample_size(20);
    for n in [100u32, 300] {
        let pairs = scored_pairs(n, n, 11);
        group.bench_with_input(BenchmarkId::new("all_pairs", n * n), &pairs, |b, pairs| {
            b.iter(|| black_box(unique_mapping_clustering(pairs, 0.5)))
        });
    }
    group.finish();
}

fn bench_threshold_sweep(c: &mut Criterion) {
    let pairs = scored_pairs(150, 150, 12);
    let gt = GroundTruth::clean_clean((0..150).map(|i| (EntityId(i), EntityId(i))));
    let mut group = c.benchmark_group("fig15_threshold_sweep");
    group.sample_size(10);
    group.bench_function("19_deltas_22k_pairs", |b| {
        b.iter(|| black_box(ThresholdSweep::run(&pairs, &gt)));
    });
    group.finish();
}

fn bench_string_similarities(c: &mut Criterion) {
    let a = "golden palace grill 123 main street springfield italian";
    let b = "goldn palace gril main street 123 springfeild restaurant";
    let mut group = c.benchmark_group("table5b_zeroer_features");
    group.bench_function("jaccard", |bch| {
        bch.iter(|| black_box(similarity::jaccard(a, b)))
    });
    group.bench_function("levenshtein", |bch| {
        bch.iter(|| black_box(similarity::levenshtein_sim(a, b)));
    });
    group.bench_function("jaro_winkler", |bch| {
        bch.iter(|| black_box(similarity::jaro_winkler(a, b)));
    });
    group.bench_function("monge_elkan", |bch| {
        bch.iter(|| black_box(similarity::monge_elkan(a, b)));
    });
    group.bench_function("full_feature_vector", |bch| {
        bch.iter(|| black_box(similarity::feature_vector(a, b)));
    });
    group.finish();
}

/// k ablation: cost of k ∈ {1, 5, 10} blocking queries (the Fig. 3 rows).
fn bench_knn_k_ablation(c: &mut Criterion) {
    let mut r = rng(13);
    let mut random_matrix = |rows: usize| {
        let flat = (0..rows * 64).map(|_| r.gen_range(-1.0f32..1.0)).collect();
        EmbeddingMatrix::from_flat(64, flat).expect("rows x 64 floats")
    };
    let vectors = random_matrix(3_000);
    let queries = random_matrix(16);
    let index = ExactIndex::from_matrix(&vectors, Metric::Euclidean);
    let mut group = c.benchmark_group("knn_k_ablation");
    for k in [1usize, 5, 10] {
        group.bench_with_input(BenchmarkId::from_parameter(k), &k, |b, &k| {
            b.iter(|| {
                for q in queries.rows_iter() {
                    black_box(index.search_slice(q, k));
                }
            });
        });
    }
    group.finish();
}

criterion_group!(
    benches,
    bench_umc,
    bench_threshold_sweep,
    bench_string_similarities,
    bench_knn_k_ablation
);
criterion_main!(benches);
