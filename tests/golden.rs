//! Golden-output ledger: each row folds one public output into a pinned
//! FNV-1a `u64`, so a refactor that promises "same answers, same bytes"
//! is checked against the outputs themselves rather than against a
//! hand-written equivalence test per feature.
//!
//! Rows: the canonical `OperatingPoint::to_json` bytes, the autotuner's
//! chosen point and trial list, blocking candidates with their score bits,
//! and the `Resolver` save bytes after a seeded write stream. The digests
//! are identical in debug and release builds.
//!
//! A constant may only change in a PR that names it and says why. To
//! regenerate the tables, run
//! `GOLDEN_PRINT=1 cargo test --test golden -- --nocapture`.

use embeddings4er::core::binary::fnv1a64;
use embeddings4er::prelude::*;
use rand::Rng;
use std::sync::OnceLock;

const REGENERATE: &str = "GOLDEN_PRINT=1 cargo test --test golden -- --nocapture";

/// Compare a computed table against its pinned twin, or print it for
/// pasting back into this file when `GOLDEN_PRINT` is set.
fn check(table: &str, got: &[(String, u64)], want: &[(&str, u64)]) {
    if std::env::var_os("GOLDEN_PRINT").is_some() {
        println!("const {table}: &[(&str, u64)] = &[");
        for (name, digest) in got {
            println!("    (\"{name}\", {digest:#018x}),");
        }
        println!("];");
        return;
    }
    assert_eq!(
        got.len(),
        want.len(),
        "{table}: row count changed; regenerate with `{REGENERATE}`"
    );
    for ((name, digest), (want_name, want_digest)) in got.iter().zip(want) {
        assert_eq!(name, want_name, "{table}: row order changed");
        assert_eq!(
            digest, want_digest,
            "golden row {table}/{name} moved to {digest:#018x}; regenerate with `{REGENERATE}`"
        );
    }
}

fn zoo() -> &'static ModelZoo {
    static ZOO: OnceLock<ModelZoo> = OnceLock::new();
    ZOO.get_or_init(|| ModelZoo::pretrain(None, &ZooConfig::tiny(), 42))
}

fn fasttext() -> &'static dyn LanguageModel {
    zoo().get(ModelCode::FT).as_ref()
}

/// `(left rows, right rows)` of a dataset under tiny-zoo FastText.
fn embedded(ds: &CleanCleanDataset) -> (EmbeddingMatrix, EmbeddingMatrix) {
    let pipeline = Pipeline::new(fasttext(), SerializationMode::SchemaAgnostic);
    (pipeline.vectorize(&ds.left), pipeline.vectorize(&ds.right))
}

const METRICS: [(&str, Metric); 2] = [("cosine", Metric::Cosine), ("euclidean", Metric::Euclidean)];

const POINT_JSON: &[(&str, u64)] = &[
    ("default", 0x59b129575bd5b3db),
    ("exact_reference", 0x5b246edc1075a631),
    ("exact_lanes", 0x3f60ef6db3293727),
    ("exact_int8", 0x7a395864298324c7),
    ("exact_pq", 0x8a942bd43127e0ab),
    ("hnsw_default_lanes", 0xfbbe86615cc54ac5),
    ("hnsw_custom_reference", 0xd280a24ec5d56bae),
    ("hnsw_custom_lanes", 0x61cd35023a640410),
    ("lsh_default", 0x1b7c1cd8ab3983df),
    ("lsh_custom_euclidean", 0x1efa7c7901b9a744),
    ("exact_euclidean", 0xe6c1f608f83feeec),
    ("hnsw_euclidean", 0x5adbde1bb09dc10e),
    ("dirty", 0x03dac933a268fc00),
    ("goals", 0xada7d572178c8952),
];

#[test]
fn operating_point_json() {
    let point = OperatingPoint::default;
    let (reference, lanes) = (KernelTier::Reference, KernelTier::Lanes);
    let exact = |tier, quant| point().exact().scan(ScanConfig { tier, quant });
    let config = PqConfig {
        subspaces: 8,
        centroids: 16,
        iters: 4,
        seed: 7,
    };
    let (int8, pq) = (
        Quantization::Int8 { rerank: 40 },
        Quantization::Pq { config, rerank: 50 },
    );
    let hnsw = |m, ef_construction, ef_search, seed, tier| {
        point().backend(BlockerBackend::Hnsw(HnswConfig {
            m,
            ef_construction,
            ef_search,
            metric: Metric::Cosine,
            seed,
            tier,
        }))
    };
    let lsh_custom = LshConfig {
        planes: 16,
        tables: 4,
        probes: 1,
        metric: Metric::Euclidean,
        seed: 9,
        tier: reference,
    };
    let points = [
        ("default", point()),
        ("exact_reference", exact(reference, Quantization::None)),
        ("exact_lanes", exact(lanes, Quantization::None)),
        ("exact_int8", exact(lanes, int8)),
        ("exact_pq", exact(reference, pq)),
        ("hnsw_default_lanes", hnsw(16, 100, 64, 42, lanes)),
        ("hnsw_custom_reference", hnsw(8, 40, 24, 7, reference)),
        ("hnsw_custom_lanes", hnsw(8, 40, 24, 7, lanes)),
        (
            "lsh_default",
            point().backend(BlockerBackend::Lsh(LshConfig::default())),
        ),
        (
            "lsh_custom_euclidean",
            point().backend(BlockerBackend::Lsh(lsh_custom)),
        ),
        ("exact_euclidean", point().exact().metric(Metric::Euclidean)),
        ("hnsw_euclidean", point().metric(Metric::Euclidean)),
        ("dirty", point().k(5).dirty(true)),
        (
            "goals",
            OperatingPoint::recall_target(0.95).budget(250_000.0).k(7),
        ),
    ];
    let got: Vec<(String, u64)> = points
        .iter()
        .map(|(name, p)| (name.to_string(), fnv1a64(p.to_json().as_bytes())))
        .collect();
    check("POINT_JSON", &got, POINT_JSON);
}

const AUTOTUNE: &[(&str, u64)] = &[
    ("D1_cosine_chosen", 0x8bfcbc086d793a15),
    ("D1_cosine_trials", 0x5f6bb0102252e111),
    ("D1_euclidean_chosen", 0xbb8498e55b76818e),
    ("D1_euclidean_trials", 0x6be69fc4d11f69dc),
    ("D7_cosine_chosen", 0x8bfcbc086d793a15),
    ("D7_cosine_trials", 0x7e630a5d9fc70fb8),
    ("D7_euclidean_chosen", 0xbb8498e55b76818e),
    ("D7_euclidean_trials", 0x23fa5011ee2716dc),
];

#[test]
fn autotune_chosen_point_and_trials() {
    let mut got = Vec::new();
    for id in [DatasetId::D1, DatasetId::D7] {
        let (queries, rows) = embedded(&CleanCleanDataset::generate(id, 42));
        for (metric_name, metric) in METRICS {
            let goal = OperatingPoint::recall_target(0.9).metric(metric);
            let outcome = autotune(
                &queries,
                &rows,
                &goal,
                &TunerConfig::default(),
                &CostModel::builtin(),
            )
            .expect("tunes");
            let mut trials = Vec::new();
            for t in &outcome.trials {
                trials.extend_from_slice(t.point.to_json().as_bytes());
                trials.extend_from_slice(&t.recall.to_bits().to_le_bytes());
                trials.extend_from_slice(&t.est_ns.to_bits().to_le_bytes());
            }
            let row = format!("{id:?}_{metric_name}");
            got.push((
                format!("{row}_chosen"),
                fnv1a64(outcome.chosen.to_json().as_bytes()),
            ));
            got.push((format!("{row}_trials"), fnv1a64(&trials)));
        }
    }
    check("AUTOTUNE", &got, AUTOTUNE);
}

const BLOCKING: &[(&str, u64)] = &[
    ("exact_reference_cosine", 0x966fe44fbe0bc3f5),
    ("exact_lanes_cosine", 0x966fe44fbe0bc3f5),
    ("exact_int8_cosine", 0x966fe44fbe0bc3f5),
    ("hnsw_default_cosine", 0x966fe44fbe0bc3f5),
    ("lsh_default_cosine", 0x48bdf33f4fb89bd7),
    ("exact_reference_euclidean", 0x2787ea4959e3c28d),
    ("exact_lanes_euclidean", 0x2787ea4959e3c28d),
    ("exact_int8_euclidean", 0x2787ea4959e3c28d),
    ("hnsw_default_euclidean", 0x2787ea4959e3c28d),
    ("lsh_default_euclidean", 0xaded4cd6417f4b92),
];

#[test]
fn blocking_candidates_and_scores_on_d1() {
    let ds = CleanCleanDataset::generate(DatasetId::D1, 42);
    let (left, right) = embedded(&ds);
    let left_ids: Vec<EntityId> = ds.left.iter().map(|e| e.id).collect();
    let right_ids: Vec<EntityId> = ds.right.iter().map(|e| e.id).collect();
    let mut got = Vec::new();
    for (metric_name, metric) in METRICS {
        let exact = |tier, quant| {
            OperatingPoint::new(10)
                .backend(BlockerBackend::Exact(metric))
                .scan(ScanConfig { tier, quant })
        };
        let configs = [
            (
                "exact_reference",
                exact(KernelTier::Reference, Quantization::None),
            ),
            ("exact_lanes", exact(KernelTier::Lanes, Quantization::None)),
            (
                "exact_int8",
                exact(KernelTier::Lanes, Quantization::Int8 { rerank: 40 }),
            ),
            (
                "hnsw_default",
                OperatingPoint::new(10).backend(BlockerBackend::Hnsw(HnswConfig {
                    metric,
                    ..HnswConfig::default()
                })),
            ),
            (
                "lsh_default",
                OperatingPoint::new(10).backend(BlockerBackend::Lsh(LshConfig {
                    metric,
                    ..LshConfig::default()
                })),
            ),
        ];
        for (name, config) in configs {
            let scored =
                top_k_blocking_scored_matrix(&left_ids, &left, &right_ids, &right, &config);
            let mut bytes = Vec::new();
            for p in &scored {
                bytes.extend_from_slice(&p.left.0.to_le_bytes());
                bytes.extend_from_slice(&p.right.0.to_le_bytes());
                bytes.extend_from_slice(&p.score.to_bits().to_le_bytes());
            }
            got.push((format!("{name}_{metric_name}"), fnv1a64(&bytes)));
        }
    }
    check("BLOCKING", &got, BLOCKING);
}

const RESOLVER_BYTES: &[(&str, u64)] = &[
    ("serve_default", 0x5fb02231590c68a9),
    ("exact_lanes", 0x92939d51900ee242),
];

/// Insert every D1 record (right side at its ids, left side offset past
/// them), then a seeded mix of upserts and deletes heavy enough to cross
/// the default compaction threshold on every shard.
fn write_stream(resolver: &Resolver<'_>) {
    let ds = CleanCleanDataset::generate(DatasetId::D1, 42);
    let offset = ds.right.len() as u32;
    let mut all: Vec<Entity> = ds.right.clone();
    all.extend(
        ds.left
            .iter()
            .map(|e| Entity::new(EntityId(e.id.0 + offset), e.attributes.clone())),
    );
    for e in &all {
        assert!(resolver.insert(e).expect("insert"));
    }
    let mut r = rng(7);
    for _ in 0..240 {
        let id = EntityId(r.gen_range(0..all.len() as u32));
        if r.gen_range(0..3) == 0 {
            resolver.delete(id).expect("delete");
        } else {
            let donor = &all[r.gen_range(0..all.len())];
            let entity = Entity::new(id, donor.attributes.clone());
            resolver.upsert(&entity).expect("upsert");
        }
    }
}

#[test]
fn resolver_bytes_after_a_seeded_write_stream() {
    let configs = [
        ("serve_default", ServeConfig::new()),
        (
            "exact_lanes",
            ServeConfig::new()
                .backend(BlockerBackend::Exact(Metric::Cosine))
                .scan(ScanConfig::with_tier(KernelTier::Lanes)),
        ),
    ];
    let mut got = Vec::new();
    for (name, config) in configs {
        let resolver = Resolver::new(fasttext(), SerializationMode::SchemaAgnostic, config)
            .expect("valid config");
        write_stream(&resolver);
        got.push((name.to_string(), fnv1a64(&resolver.to_bytes())));
    }
    check("RESOLVER_BYTES", &got, RESOLVER_BYTES);
}
