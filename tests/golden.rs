//! Golden-output ledger: each row folds one public output into a pinned
//! FNV-1a `u64`, so a refactor that promises "same answers, same bytes"
//! is checked against the outputs themselves rather than against a
//! hand-written equivalence test per feature.
//!
//! Rows: every tiny-zoo model's embedding bits on D1, on a probe list and
//! on a char-boundary probe list, the canonical `OperatingPoint::to_json`
//! bytes, the autotuner's chosen point and trial list, blocking candidates
//! with their score bits, `search_counted` eval counts per query, the
//! HNSW beam (links, hits, evals) with and without tombstones, UMC and
//! Kiraly threshold sweeps (Clean-Clean and Dirty ER) with their match and
//! metric bits, the PQ index container bytes on D1, and the
//! `Resolver` save bytes (four backend/scan layouts) and per-shard journal
//! bytes after a seeded write stream. The digests are identical in debug
//! and release builds.
//!
//! A constant may only change in a PR that names it and says why. To
//! regenerate the tables, run
//! `GOLDEN_PRINT=1 cargo test --test golden -- --nocapture`.

use embeddings4er::core::binary::fnv1a64;
use embeddings4er::index::AnyIndex;
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

const EMBEDDINGS: &[(&str, u64)] = &[
    ("WC_d1", 0x392421ccf563c782),
    ("WC_probes", 0xe8e91a6adeb134e6),
    ("WC_unicode", 0xbc1ef9414b31dde6),
    ("GE_d1", 0x8d2031be9dd33251),
    ("GE_probes", 0x4985bde8113d603c),
    ("GE_unicode", 0xd9ed0ec11415053c),
    ("FT_d1", 0x9b4f76eb1ae092ab),
    ("FT_probes", 0x7a25ef5f8ec18d99),
    ("FT_unicode", 0x4f3465f6cada00b2),
    ("BT_d1", 0x4c7584f58975b67f),
    ("BT_probes", 0xa90f3cde10023a25),
    ("BT_unicode", 0xd93009275b43ce25),
];

/// Typo'd tokens (FastText's subword-only path), all-OOV text and the
/// empty string (the zero vector every model shares).
const PROBES: [&str; 5] = [
    "restaurnat downtwon",
    "golden restaurant goldne restaurnat",
    "zzqx vvkjw",
    "",
    ".,;",
];

/// Char-boundary probes for the n-gram hasher: multibyte and CJK tokens,
/// one- and two-char tokens, digit runs, in-vocabulary words beside a
/// multibyte OOV one (so WC/GE pool something), plus one 300-char token
/// (built in [`unicode_probes`]) far longer than any n-gram.
const UNICODE_PROBES: [&str; 5] = [
    "Café Zürich naïve",
    "東京 ñandú",
    "a b cd",
    "7 2mp 1080",
    "golden café restaurant",
];

fn unicode_probes() -> impl Iterator<Item = String> {
    let long = "zürich".repeat(50);
    UNICODE_PROBES.iter().map(|p| p.to_string()).chain([long])
}

fn embedding_bits(model: &AnyModel, texts: impl Iterator<Item = String>) -> u64 {
    let mut bytes = Vec::new();
    for text in texts {
        for x in model.embed(&text).as_slice() {
            bytes.extend_from_slice(&x.to_bits().to_le_bytes());
        }
    }
    fnv1a64(&bytes)
}

#[test]
fn embeddings_of_every_tiny_zoo_model() {
    let ds = CleanCleanDataset::generate(DatasetId::D1, 42);
    let mode = SerializationMode::SchemaAgnostic;
    let mut got = Vec::new();
    for model in zoo().models() {
        let records = ds.left.iter().chain(&ds.right).map(|e| e.serialize(&mode));
        let code = model.code();
        got.push((format!("{code}_d1"), embedding_bits(model, records)));
        let probes = PROBES.iter().map(|p| p.to_string());
        got.push((format!("{code}_probes"), embedding_bits(model, probes)));
        got.push((
            format!("{code}_unicode"),
            embedding_bits(model, unicode_probes()),
        ));
    }
    check("EMBEDDINGS", &got, EMBEDDINGS);
}

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
    ("goals", 0xbde44dce4437b6ee),
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
        ("goals", OperatingPoint::recall_target(0.95).k(7)),
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
    ("D3_cosine_chosen", 0x394254edbb3bd575),
    ("D3_cosine_trials", 0x22bf5d028161d343),
    ("D3_euclidean_chosen", 0xbb8498e55b76818e),
    ("D3_euclidean_trials", 0x1b9cc95f4b5926ae),
    ("D7_cosine_chosen", 0x8bfcbc086d793a15),
    ("D7_cosine_trials", 0x7e630a5d9fc70fb8),
    ("D7_euclidean_chosen", 0xbb8498e55b76818e),
    ("D7_euclidean_trials", 0x23fa5011ee2716dc),
];

/// The tuner's recall-0.9 goal on D1, D3 and D7 for both metrics. Every
/// Euclidean goal picks Exact `Lanes` with an int8 scan (re-rank 40); D3
/// is the one cosine goal that picks it too, the other two stay f32.
#[test]
fn autotune_chosen_point_and_trials() {
    let mut got = Vec::new();
    for id in [DatasetId::D1, DatasetId::D3, DatasetId::D7] {
        let (queries, rows) = embedded(&CleanCleanDataset::generate(id, 42));
        for (metric_name, metric) in METRICS {
            let goal = OperatingPoint::recall_target(0.9).metric(metric);
            let outcome = autotune(&queries, &rows, &goal).expect("tunes");
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

const AUTOTUNE_SCALED: &[(&str, u64)] = &[
    ("cosine_chosen", 0x9ed68e62242cc467),
    ("cosine_trials", 0xa6560ed461388f8e),
    ("euclidean_chosen", 0xcb7fadeb3b686150),
    ("euclidean_trials", 0x95d2983d38e68355),
];

/// The tuner on a seeded 600-row 48-d collection, more than its 256-row
/// sample, so every HNSW and LSH estimate is extrapolated from the
/// sample to the full collection. Both metrics fold the chosen point and
/// each trial's point, recall, estimated evaluations and estimated ns.
#[test]
fn autotune_extrapolates_past_its_sample() {
    let mut r = rng(91);
    let rows: Vec<Embedding> = (0..600)
        .map(|_| Embedding((0..48).map(|_| r.gen_range(-1.0..1.0)).collect()))
        .collect();
    let mut r = rng(92);
    let queries: Vec<Embedding> = (0..64)
        .map(|_| Embedding((0..48).map(|_| r.gen_range(-1.0..1.0)).collect()))
        .collect();
    let (rows, queries) = (
        EmbeddingMatrix::from_embeddings(&rows),
        EmbeddingMatrix::from_embeddings(&queries),
    );
    let mut got = Vec::new();
    for (metric_name, metric) in METRICS {
        let goal = OperatingPoint::recall_target(0.9).metric(metric);
        let outcome = autotune(&queries, &rows, &goal).expect("tunes");
        assert_eq!(outcome.sample_rows, 256);
        let mut trials = Vec::new();
        for t in &outcome.trials {
            trials.extend_from_slice(t.point.to_json().as_bytes());
            trials.extend_from_slice(&t.recall.to_bits().to_le_bytes());
            trials.extend_from_slice(&t.est_evals.to_bits().to_le_bytes());
            trials.extend_from_slice(&t.est_ns.to_bits().to_le_bytes());
        }
        got.push((
            format!("{metric_name}_chosen"),
            fnv1a64(outcome.chosen.to_json().as_bytes()),
        ));
        got.push((format!("{metric_name}_trials"), fnv1a64(&trials)));
    }
    check("AUTOTUNE_SCALED", &got, AUTOTUNE_SCALED);
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

/// The five D1 blocking points the `BLOCKING` and `EVALS` rows pin:
/// Exact at three scan tiers, HNSW and LSH at their defaults.
fn d1_points(metric: Metric) -> [(&'static str, OperatingPoint); 5] {
    let exact = |tier, quant| {
        OperatingPoint::new(10)
            .backend(BlockerBackend::Exact(metric))
            .scan(ScanConfig { tier, quant })
    };
    [
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
    ]
}

fn ids(entities: &[Entity]) -> Vec<EntityId> {
    entities.iter().map(|e| e.id).collect()
}

fn scored_pair_bytes(bytes: &mut Vec<u8>, pairs: &[ScoredPair]) {
    for p in pairs {
        bytes.extend_from_slice(&p.left.0.to_le_bytes());
        bytes.extend_from_slice(&p.right.0.to_le_bytes());
        bytes.extend_from_slice(&p.score.to_bits().to_le_bytes());
    }
}

#[test]
fn blocking_candidates_and_scores_on_d1() {
    let ds = CleanCleanDataset::generate(DatasetId::D1, 42);
    let (left, right) = embedded(&ds);
    let (left_ids, right_ids) = (ids(&ds.left), ids(&ds.right));
    let mut got = Vec::new();
    for (metric_name, metric) in METRICS {
        for (name, config) in d1_points(metric) {
            let scored =
                top_k_blocking_scored_matrix(&left_ids, &left, &right_ids, &right, &config);
            let mut bytes = Vec::new();
            scored_pair_bytes(&mut bytes, &scored);
            got.push((format!("{name}_{metric_name}"), fnv1a64(&bytes)));
        }
    }
    check("BLOCKING", &got, BLOCKING);
}

const EVALS: &[(&str, u64)] = &[
    ("exact_reference_cosine", 0x14fcb095695551a5),
    ("exact_lanes_cosine", 0x14fcb095695551a5),
    ("exact_int8_cosine", 0x5269a77b82c41125),
    ("hnsw_default_cosine", 0x17adf1f2e65a7fa5),
    ("lsh_default_cosine", 0xca874fdaaf487066),
    ("exact_reference_euclidean", 0x14fcb095695551a5),
    ("exact_lanes_euclidean", 0x14fcb095695551a5),
    ("exact_int8_euclidean", 0x5269a77b82c41125),
    ("hnsw_default_euclidean", 0x8273675375a44199),
    ("lsh_default_euclidean", 0xca874fdaaf487066),
];

/// Per-query distance-evaluation counts of `search_counted` for every left
/// record of D1 against the right-hand index built from each blocking
/// point, so the default query parameters are the point's own.
#[test]
fn search_counted_evals_on_d1() {
    let (left, right) = embedded(&CleanCleanDataset::generate(DatasetId::D1, 42));
    let mut got = Vec::new();
    for (metric_name, metric) in METRICS {
        for (name, config) in d1_points(metric) {
            let index = AnyIndex::build(&right, &config.backend, config.scan).expect("builds");
            let mut bytes = Vec::new();
            for i in 0..left.len() {
                let (_, evals) =
                    index.search_counted(left.row(i), config.k, &QueryParams::default());
                bytes.extend_from_slice(&evals.to_le_bytes());
            }
            got.push((format!("{name}_{metric_name}"), fnv1a64(&bytes)));
        }
    }
    check("EVALS", &got, EVALS);
}

const HNSW_BEAM: &[(&str, u64)] = &[("with_and_without_tombstones", 0x0b581c0b805dfd78)];

/// The HNSW beam over a seeded 12-d fixture, with and without tombstones,
/// both metrics: the link structure, then per query the eval count and
/// every hit's row and distance bits of four `(k, ef_search)` settings.
/// The beam must route through tombstoned nodes (construction links
/// through them, queries pass them) while never returning them, so a
/// change to how the mask is applied moves the adjacency after the
/// post-delete inserts or the eval counts.
#[test]
fn hnsw_beam_with_and_without_tombstones() {
    let mut r = rng(81);
    let rows: Vec<Embedding> = (0..420)
        .map(|_| Embedding((0..12).map(|_| r.gen_range(-1.0..1.0)).collect()))
        .collect();
    let mut r = rng(82);
    let queries: Vec<Embedding> = (0..40)
        .map(|_| Embedding((0..12).map(|_| r.gen_range(-1.0..1.0)).collect()))
        .collect();
    let mut bytes: Vec<u8> = Vec::new();
    for metric in [Metric::Euclidean, Metric::Cosine] {
        for tombstones in [false, true] {
            let config = HnswConfig {
                m: 8,
                ef_construction: 40,
                metric,
                ..HnswConfig::default()
            };
            let seed_rows = EmbeddingMatrix::from_embeddings(&rows[..300]);
            let mut index = HnswIndex::from_source(seed_rows, config);
            if tombstones {
                for dead in (0..300).step_by(4) {
                    assert!(index.delete_row(dead));
                }
            }
            // Inserts continue after the deletes: construction links
            // through tombstoned nodes.
            for (i, row) in rows[300..].iter().enumerate() {
                index.insert_row(row.as_slice()).unwrap();
                if tombstones && i % 4 == 1 {
                    assert!(index.delete_row(300 + i));
                }
            }
            assert_eq!(index.len(), 420);
            assert_eq!(index.live_count(), if tombstones { 315 } else { 420 });
            for layers in index.adjacency() {
                bytes.extend((layers.len() as u32).to_le_bytes());
                for links in layers {
                    bytes.extend((links.len() as u32).to_le_bytes());
                    links.iter().for_each(|l| bytes.extend(l.to_le_bytes()));
                }
            }
            for q in &queries {
                for (k, params) in [
                    (1, QueryParams::with_ef_search(1)),
                    (10, QueryParams::default()),
                    (10, QueryParams::with_ef_search(8)),
                    (25, QueryParams::with_ef_search(100)),
                ] {
                    let (hits, evals) = index.search_counted(q.as_slice(), k, &params);
                    assert!(hits.iter().all(|h| !index.is_deleted(h.index)));
                    bytes.extend(evals.to_le_bytes());
                    for h in hits {
                        bytes.extend((h.index as u32).to_le_bytes());
                        bytes.extend(h.distance.to_bits().to_le_bytes());
                    }
                }
            }
        }
    }
    let got = [("with_and_without_tombstones".to_string(), fnv1a64(&bytes))];
    check("HNSW_BEAM", &got, HNSW_BEAM);
}

const SWEEP: &[(&str, u64)] = &[
    ("umc_cosine", 0x5e89b3ca9dcf019e),
    ("kiraly_cosine", 0x8c0834c6bc79b7f2),
    ("umc_euclidean", 0xbffc43050fe7b83c),
    ("kiraly_euclidean", 0x5dbf15399be144b0),
    ("umc_dirty_cosine", 0x7303c427cbb4f91e),
    ("kiraly_dirty_cosine", 0x85bad2799323b8ea),
];

/// Fold a threshold sweep: per point, the δ bits, every match's ids and
/// score bits, and the precision/recall/F1 bits.
fn sweep_bits(sweep: &ThresholdSweep) -> u64 {
    let mut bytes = Vec::new();
    for point in &sweep.points {
        bytes.extend_from_slice(&point.delta.to_bits().to_le_bytes());
        scored_pair_bytes(&mut bytes, &point.matches);
        let m = &point.metrics;
        for x in [m.precision, m.recall, m.f1] {
            bytes.extend_from_slice(&x.to_bits().to_le_bytes());
        }
    }
    fnv1a64(&bytes)
}

/// UMC and Kiraly swept over the paper grid on D1's exact-`Reference`
/// candidates, for both metrics, plus a Dirty-ER case: D1's two sides as
/// one collection (right ids shifted past the left ones) blocked against
/// itself without order normalisation, self-pairs dropped, so mirrored
/// `(a, b)` / `(b, a)` candidates reach the clusterer and the dirty
/// ground truth's order-free scoring.
#[test]
fn threshold_sweeps_on_d1_candidates() {
    let ds = CleanCleanDataset::generate(DatasetId::D1, 42);
    let (left, right) = embedded(&ds);
    let (left_ids, right_ids) = (ids(&ds.left), ids(&ds.right));
    let deltas = ThresholdSweep::paper_deltas();
    let clusterers = [
        ("umc", Clusterer::UniqueMapping),
        ("kiraly", Clusterer::Kiraly),
    ];
    let reference = |metric| {
        OperatingPoint::new(10)
            .backend(BlockerBackend::Exact(metric))
            .scan(ScanConfig::with_tier(KernelTier::Reference))
    };
    let mut got = Vec::new();
    for (metric_name, metric) in METRICS {
        let scored =
            top_k_blocking_scored_matrix(&left_ids, &left, &right_ids, &right, &reference(metric));
        for (name, clusterer) in clusterers {
            let sweep = ThresholdSweep::run_with(&scored, &ds.ground_truth, clusterer, &deltas);
            got.push((format!("{name}_{metric_name}"), sweep_bits(&sweep)));
        }
    }
    let offset = ds.left.len() as u32;
    let shift = |id: EntityId| EntityId(id.0 + offset);
    let mut all = ds.left.clone();
    all.extend(
        ds.right
            .iter()
            .map(|e| Entity::new(shift(e.id), e.attributes.clone())),
    );
    let all_ids = ids(&all);
    let matrix = Pipeline::new(fasttext(), SerializationMode::SchemaAgnostic).vectorize(&all);
    let scored: Vec<ScoredPair> = top_k_blocking_scored_matrix(
        &all_ids,
        &matrix,
        &all_ids,
        &matrix,
        &reference(Metric::Cosine),
    )
    .into_iter()
    .filter(|p| p.left != p.right)
    .collect();
    let gt = GroundTruth::dirty(ds.ground_truth.iter().map(|(l, r)| (l, shift(r))));
    for (name, clusterer) in clusterers {
        let sweep = ThresholdSweep::run_with(&scored, &gt, clusterer, &deltas);
        let matches = &sweep.points[0].matches;
        assert!(
            matches
                .iter()
                .any(|p| matches.iter().any(|q| q.id_pair() == (p.right, p.left))),
            "{name}: the dirty row must accept mirrored matches"
        );
        got.push((format!("{name}_dirty_cosine"), sweep_bits(&sweep)));
    }
    check("SWEEP", &got, SWEEP);
}

const INDEX_BYTES: &[(&str, u64)] = &[
    ("exact_pq_cosine", 0x3f492313003cc055),
    ("exact_pq_euclidean", 0x88e21dc4e22b1da7),
];

/// PQ needs a trained codebook, so it cannot be served from an empty
/// resolver; its container is pinned over D1's right-hand matrix instead.
#[test]
fn pq_index_bytes_on_d1() {
    let (_, right) = embedded(&CleanCleanDataset::generate(DatasetId::D1, 42));
    let scan = ScanConfig {
        tier: KernelTier::Lanes,
        quant: Quantization::Pq {
            config: PqConfig::default(),
            rerank: 50,
        },
    };
    let mut got = Vec::new();
    for (metric_name, metric) in METRICS {
        let index = ExactIndex::from_source_scan(&right, metric, scan).expect("PQ trains on D1");
        got.push((
            format!("exact_pq_{metric_name}"),
            fnv1a64(&index.to_bytes()),
        ));
    }
    check("INDEX_BYTES", &got, INDEX_BYTES);
}

const RESOLVER_BYTES: &[(&str, u64)] = &[
    ("serve_default", 0xc698a4ebf9cdd936),
    ("exact_lanes", 0xad57a0c88c79ced2),
    ("lsh_default", 0x783aba9d62aef7fa),
    ("exact_int8", 0xf595702c136e4c75),
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
        (
            "lsh_default",
            ServeConfig::new().backend(BlockerBackend::Lsh(LshConfig::default())),
        ),
        (
            "exact_int8",
            ServeConfig::new()
                .backend(BlockerBackend::Exact(Metric::Cosine))
                .scan(ScanConfig {
                    tier: KernelTier::Lanes,
                    quant: Quantization::Int8 { rerank: 40 },
                }),
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

const JOURNAL_BYTES: &[(&str, u64)] = &[
    ("shard_0", 0x6932b34ce0f256ec),
    ("shard_1", 0xdec63fbbb4f9b520),
    ("shard_2", 0x1540f2be1da40c03),
    ("shard_3", 0x0b39df17189192c4),
];

/// Each shard's JRNL file after the same write stream on a durable
/// resolver — the stream crosses automatic compaction, which must leave
/// the journal untouched.
#[test]
fn journal_bytes_after_a_seeded_write_stream() {
    let dir = std::env::temp_dir().join(format!("er-golden-journal-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    let resolver = Resolver::open(
        &dir,
        fasttext(),
        SerializationMode::SchemaAgnostic,
        ServeConfig::new(),
    )
    .expect("fresh durable resolver");
    write_stream(&resolver);
    let got: Vec<(String, u64)> = (0..resolver.shard_sizes().len())
        .map(|i| {
            let bytes = std::fs::read(dir.join(format!("shard-{i}.jrnl"))).expect("journal");
            (format!("shard_{i}"), fnv1a64(&bytes))
        })
        .collect();
    drop(resolver);
    let _ = std::fs::remove_dir_all(&dir);
    check("JOURNAL_BYTES", &got, JOURNAL_BYTES);
}
