//! Service-level contract of the `er-serve` Resolver: streaming
//! mutations with queries legal in between, shard/merge equivalence, and
//! whole-service persistence.

use er_core::{Embedding, Entity, EntityId, ErError, SerializationMode};
use er_embed::{LanguageModel, ModelCode};
use er_index::{BlockerBackend, ExactIndex, HnswConfig, LshConfig, Metric, NnIndex, ScanConfig};
use er_serve::{CompactionPolicy, Resolver, ServeConfig, ShardedIndex};
use rand::Rng;
use std::time::Duration;

/// A deterministic toy model: hashes character trigrams into a fixed-dim
/// vector. Cheap enough for service tests, faithful enough that similar
/// strings land near each other.
struct TrigramModel {
    dim: usize,
}

impl LanguageModel for TrigramModel {
    fn code(&self) -> ModelCode {
        ModelCode::FT
    }

    fn dim(&self) -> usize {
        self.dim
    }

    fn init_time(&self) -> Duration {
        Duration::ZERO
    }

    fn fingerprint(&self) -> u64 {
        0x7269_6772_616d
    }

    fn embed(&self, text: &str) -> Embedding {
        let mut v = vec![0.0f32; self.dim];
        let chars: Vec<char> = text.chars().collect();
        for w in chars.windows(3) {
            let mut h: u64 = 0xcbf2_9ce4_8422_2325;
            for &c in w {
                h ^= c as u64;
                h = h.wrapping_mul(0x0000_0100_0000_01b3);
            }
            v[(h % self.dim as u64) as usize] += if h & 1 == 0 { 1.0 } else { -1.0 };
        }
        Embedding(v)
    }
}

fn entity(id: u32, name: &str) -> Entity {
    Entity::new(EntityId(id), vec![("name".into(), name.into())])
}

fn random_rows(n: usize, dim: usize, seed: u64) -> Vec<Vec<f32>> {
    let mut r = er_core::rng::rng(seed);
    (0..n)
        .map(|_| (0..dim).map(|_| r.gen_range(-1.0..1.0)).collect())
        .collect()
}

fn exact_shards(dim: usize, shards: usize, metric: Metric) -> ShardedIndex {
    ShardedIndex::new(
        dim,
        shards,
        BlockerBackend::Exact(metric),
        ScanConfig::default(),
        CompactionPolicy::default(),
    )
    .unwrap()
}

#[test]
fn streaming_insert_then_query_finds_the_record() {
    let model = TrigramModel { dim: 24 };
    let resolver = Resolver::new(
        &model,
        SerializationMode::SchemaAgnostic,
        ServeConfig::new(),
    )
    .unwrap();
    assert!(resolver.is_empty());
    assert!(resolver.query_text("anything", 5).is_empty());

    for (id, name) in [
        (1, "golden palace hotel athens"),
        (2, "hotel golden palace, athens"),
        (3, "blue lagoon resort crete"),
    ] {
        assert!(resolver.insert(&entity(id, name)).unwrap());
    }
    assert_eq!(resolver.len(), 3);
    // Re-inserting a live id is a no-op, not a replace.
    assert!(!resolver.insert(&entity(1, "something else")).unwrap());
    assert_eq!(resolver.len(), 3);

    let hits = resolver.query(&entity(99, "golden palace hotel athens"), 2);
    assert_eq!(hits.len(), 2);
    assert_eq!(hits[0].id, EntityId(1), "exact text matches itself first");
    assert!(hits[0].distance <= hits[1].distance);
    assert_eq!(hits[1].id, EntityId(2), "near-duplicate ranks second");
}

#[test]
fn delete_and_upsert_between_queries() {
    let model = TrigramModel { dim: 24 };
    let resolver = Resolver::new(
        &model,
        SerializationMode::SchemaAgnostic,
        ServeConfig::new().shards(3),
    )
    .unwrap();
    for id in 0..20u32 {
        resolver
            .insert(&entity(id, &format!("record number {id}")))
            .unwrap();
    }
    assert_eq!(resolver.len(), 20);
    assert!(resolver.contains(EntityId(7)));

    // Delete: the id disappears from results immediately.
    assert!(resolver.delete(EntityId(7)).unwrap());
    assert!(
        !resolver.delete(EntityId(7)).unwrap(),
        "double delete is a no-op"
    );
    assert!(!resolver.contains(EntityId(7)));
    assert_eq!(resolver.len(), 19);
    let hits = resolver.query(&entity(99, "record number 7"), 19);
    assert!(hits.iter().all(|h| h.id != EntityId(7)));
    assert_eq!(hits.len(), 19);

    // Upsert: replaces in place; the old vector stops matching.
    assert!(resolver
        .upsert(&entity(3, "completely different text"))
        .unwrap());
    assert_eq!(resolver.len(), 19);
    let hits = resolver.query(&entity(99, "completely different text"), 1);
    assert_eq!(hits[0].id, EntityId(3));
    // Upsert of a fresh id inserts.
    assert!(!resolver.upsert(&entity(7, "record number 7")).unwrap());
    assert_eq!(resolver.len(), 20);

    // k > live count truncates; k = 0 is empty.
    assert_eq!(resolver.query_text("record", 500).len(), 20);
    assert!(resolver.query_text("record", 0).is_empty());
}

/// The shard/merge contract at the vector level: an N-shard exact search
/// returns the bit-identical hit list of one exact index over the same
/// rows, for both metrics, regardless of shard count.
#[test]
fn scatter_gather_exact_is_bit_identical_to_single_index() {
    let dim = 8;
    let rows = random_rows(60, dim, 41);
    let queries = random_rows(10, dim, 42);
    for metric in [Metric::Euclidean, Metric::Cosine] {
        // Ids 0..n inserted in order: the oracle's row index == the id.
        let mut oracle_matrix = er_core::EmbeddingMatrix::new(dim);
        for row in &rows {
            oracle_matrix.push(row);
        }
        let oracle = ExactIndex::from_source(oracle_matrix, metric);
        for shards in [1usize, 2, 5] {
            let sharded = exact_shards(dim, shards, metric);
            for (i, row) in rows.iter().enumerate() {
                assert!(sharded.insert(EntityId(i as u32), row).unwrap());
            }
            assert_eq!(sharded.len(), rows.len());
            for q in &queries {
                let expect = oracle.search_slice(q, 7);
                let got = sharded.search_ids(q, 7);
                assert_eq!(got.len(), expect.len());
                for (g, e) in got.iter().zip(&expect) {
                    assert_eq!(g.id.0 as usize, e.index, "{shards} shards, {metric:?}");
                    assert_eq!(g.distance.to_bits(), e.distance.to_bits());
                }
            }
        }
    }
}

/// The same contract on shards big enough to be searched on scoped
/// threads. `search_snapshots` fans out only when every worker's predicted
/// scan — live rows × dim × `SCAN_NS_PER_ELEMENT` (0.25 ns) — beats the
/// 47 µs spawn+join: at 64-d that is > 47 000 / (64 × 0.25) ≈ 2 938 live
/// rows per shard. 8 000 rows over 2 shards put ≈ 4 000 (≈ 64 µs
/// predicted) on each, so on a machine with ≥ 2 cores this runs the
/// threaded branch that every smaller test here skips. The second case
/// keeps one shard above the gate and cuts the other to 500 rows
/// (8 µs), so the smallest chunk sends the query back inline.
#[test]
fn shards_above_the_fan_out_gate_answer_like_one_exact_index() {
    use er_core::KernelTier;

    const GATE_ROWS: usize = 2_938;
    let dim = 64;
    let rows = random_rows(8_000, dim, 43);
    let queries = random_rows(12, dim, 44);
    let lanes = |shards: usize, metric: Metric| {
        ShardedIndex::new(
            dim,
            shards,
            BlockerBackend::Exact(metric),
            ScanConfig::with_tier(KernelTier::Lanes),
            CompactionPolicy::default(),
        )
        .unwrap()
    };
    // Routing is a pure function of the id, so a probe index tells which
    // ids land on shard 0.
    let probe = lanes(2, Metric::Cosine);
    for (i, row) in rows.iter().enumerate() {
        probe.insert(EntityId(i as u32), row).unwrap();
    }
    let on_shard_0 = probe.snapshots()[0].clone();
    let all: Vec<usize> = (0..rows.len()).collect();
    let mut mixed: Vec<usize> = all
        .iter()
        .copied()
        .filter(|&i| on_shard_0.contains(EntityId(i as u32)))
        .collect();
    mixed.extend(
        all.iter()
            .copied()
            .filter(|&i| !on_shard_0.contains(EntityId(i as u32)))
            .take(500),
    );

    for (ids, both_above) in [(all, true), (mixed, false)] {
        for metric in [Metric::Euclidean, Metric::Cosine] {
            let (single, sharded) = (lanes(1, metric), lanes(2, metric));
            for &i in &ids {
                single.insert(EntityId(i as u32), &rows[i]).unwrap();
                sharded.insert(EntityId(i as u32), &rows[i]).unwrap();
            }
            let sizes = sharded.shard_sizes();
            assert!(sizes[0] > GATE_ROWS, "{sizes:?}");
            assert_eq!(sizes[1] > GATE_ROWS, both_above, "{sizes:?}");
            for q in &queries {
                let expect = single.search_ids(q, 10);
                let got = sharded.search_ids(q, 10);
                assert_eq!(got.len(), 10);
                for (g, e) in got.iter().zip(&expect) {
                    assert_eq!(g.id, e.id, "{sizes:?}, {metric:?}");
                    assert_eq!(g.distance.to_bits(), e.distance.to_bits());
                }
            }
        }
    }
}

#[test]
fn sharding_routes_deterministically_and_covers_all_shards() {
    let sharded = exact_shards(4, 5, Metric::Euclidean);
    let mut seen = [false; 5];
    for id in 0..200u32 {
        let s = sharded.shard_of(EntityId(id));
        assert!(s < 5);
        assert_eq!(s, sharded.shard_of(EntityId(id)), "routing is pure");
        seen[s] = true;
    }
    assert!(seen.iter().all(|&s| s), "200 ids should touch every shard");
}

#[test]
fn resolver_round_trips_through_bytes_and_files() {
    let model = TrigramModel { dim: 24 };
    for backend in [
        BlockerBackend::Exact(Metric::Cosine),
        BlockerBackend::Hnsw(HnswConfig {
            metric: Metric::Cosine,
            ..HnswConfig::default()
        }),
        BlockerBackend::Lsh(LshConfig::default()),
    ] {
        let resolver = Resolver::new(
            &model,
            SerializationMode::SchemaAgnostic,
            ServeConfig::new().shards(3).backend(backend),
        )
        .unwrap();
        for id in 0..30u32 {
            resolver
                .insert(&entity(id, &format!("streamed record {id}")))
                .unwrap();
        }
        resolver.delete(EntityId(4)).unwrap();
        resolver
            .upsert(&entity(11, "revised record eleven"))
            .unwrap();

        let bytes = resolver.to_bytes();
        let back = Resolver::from_bytes(&bytes, &model).unwrap();
        assert_eq!(back.len(), resolver.len());
        assert_eq!(back.mode(), resolver.mode());
        for probe in [
            "streamed record 17",
            "revised record eleven",
            "nothing alike",
        ] {
            let a = resolver.query_text(probe, 8);
            let b = back.query_text(probe, 8);
            assert_eq!(a, b, "loaded resolver answers bit-identically");
        }
        // Serialization is deterministic, and mutation streams continue
        // identically on both sides of a round trip.
        assert_eq!(bytes, back.to_bytes());
        let back = back;
        resolver.insert(&entity(77, "post-reload insert")).unwrap();
        back.insert(&entity(77, "post-reload insert")).unwrap();
        assert_eq!(resolver.to_bytes(), back.to_bytes());
    }

    // File round trip.
    let dir = std::env::temp_dir().join("er_serve_service_test");
    std::fs::create_dir_all(&dir).unwrap();
    let path = dir.join("resolver.erbf");
    let resolver = Resolver::new(
        &model,
        SerializationMode::SchemaAgnostic,
        ServeConfig::new(),
    )
    .unwrap();
    resolver.insert(&entity(1, "only record")).unwrap();
    resolver.save(&path).unwrap();
    let back = Resolver::load(&path, &model).unwrap();
    assert_eq!(
        back.query_text("only record", 1),
        resolver.query_text("only record", 1)
    );
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn loading_rejects_wrong_models_and_corrupt_bytes() {
    let model = TrigramModel { dim: 24 };
    let resolver = Resolver::new(
        &model,
        SerializationMode::SchemaAgnostic,
        ServeConfig::new(),
    )
    .unwrap();
    resolver.insert(&entity(1, "a record")).unwrap();
    let bytes = resolver.to_bytes();

    // A model with a different dimension is a typed Model error.
    let wrong = TrigramModel { dim: 16 };
    assert!(matches!(
        Resolver::from_bytes(&bytes, &wrong),
        Err(ErError::Model(_))
    ));
    // Truncations and flipped bits are typed Corrupt errors.
    for cut in [0, 10, bytes.len() / 2, bytes.len() - 1] {
        assert!(matches!(
            Resolver::from_bytes(&bytes[..cut], &model),
            Err(ErError::Corrupt(_))
        ));
    }
    let mut flipped = bytes.clone();
    let mid = flipped.len() / 2;
    flipped[mid] ^= 0x10;
    assert!(matches!(
        Resolver::from_bytes(&flipped, &model),
        Err(ErError::Corrupt(_))
    ));
    // An index container is not a resolver container.
    let solo = er_core::EmbeddingMatrix::from_flat(4, vec![0.0; 4]).unwrap();
    let solo = ExactIndex::from_source(solo, Metric::Euclidean).to_bytes();
    assert!(matches!(
        Resolver::from_bytes(&solo, &model),
        Err(ErError::Corrupt(_))
    ));
}

#[test]
fn all_deleted_shards_return_empty_not_panic() {
    let model = TrigramModel { dim: 24 };
    let resolver = Resolver::new(
        &model,
        SerializationMode::SchemaAgnostic,
        ServeConfig::new().shards(4),
    )
    .unwrap();
    for id in 0..12u32 {
        resolver.insert(&entity(id, &format!("r{id}"))).unwrap();
    }
    for id in 0..12u32 {
        assert!(resolver.delete(EntityId(id)).unwrap());
    }
    assert!(resolver.is_empty());
    assert!(resolver.query_text("r3", 5).is_empty());
    // The service keeps working after total deletion.
    assert!(resolver.insert(&entity(100, "fresh start")).unwrap());
    let hits = resolver.query_text("fresh start", 5);
    assert_eq!(hits.len(), 1);
    assert_eq!(hits[0].id, EntityId(100));
}

/// SchemaBased serialization modes survive persistence (the mode string
/// is part of the container).
#[test]
fn schema_based_mode_round_trips() {
    let model = TrigramModel { dim: 24 };
    let mode = SerializationMode::SchemaBased("title".into());
    let resolver = Resolver::new(&model, mode.clone(), ServeConfig::new()).unwrap();
    let e = Entity::new(
        EntityId(5),
        vec![
            ("title".into(), "the load-bearing attribute".into()),
            ("junk".into(), "ignored by this mode".into()),
        ],
    );
    resolver.insert(&e).unwrap();
    let back = Resolver::from_bytes(&resolver.to_bytes(), &model).unwrap();
    assert_eq!(back.mode(), &mode);
    assert_eq!(
        back.query_text("the load-bearing attribute", 1),
        resolver.query_text("the load-bearing attribute", 1)
    );
}

// ---------------------------------------------------------------------------
// Quantized scans in the streaming service (PR 7): int8 tracks streaming
// inserts per-row, PQ is rejected up front, and the quantized service
// persists through the same ERBF container.
// ---------------------------------------------------------------------------

#[test]
fn int8_service_with_full_rerank_matches_the_f32_service_bitwise() {
    use er_core::pq::PqConfig;
    use er_core::KernelTier;
    use er_index::{Quantization, ScanConfig};

    let model = TrigramModel { dim: 24 };
    let names = [
        "golden palace hotel athens",
        "hotel golden palace, athens",
        "blue lagoon resort crete",
        "lagoon blue resort, crete",
        "white tower suites thessaloniki",
        "acropolis view rooms",
    ];
    // Same tier on both sides: the int8 pass only *selects* candidates,
    // and with the re-rank budget covering every row the selection is
    // total, so the exact re-rank must reproduce the f32 scan bitwise.
    let tier = KernelTier::Lanes;
    let plain = Resolver::new(
        &model,
        SerializationMode::SchemaAgnostic,
        ServeConfig::new()
            .shards(2)
            .backend(BlockerBackend::Exact(Metric::Cosine))
            .scan(ScanConfig::with_tier(tier)),
    )
    .unwrap();
    let quantized = Resolver::new(
        &model,
        SerializationMode::SchemaAgnostic,
        ServeConfig::new()
            .shards(2)
            .backend(BlockerBackend::Exact(Metric::Cosine))
            .scan(ScanConfig {
                tier,
                quant: Quantization::Int8 { rerank: 100 },
            }),
    )
    .unwrap();
    for (i, name) in names.iter().enumerate() {
        plain.insert(&entity(i as u32, name)).unwrap();
        quantized.insert(&entity(i as u32, name)).unwrap();
    }
    // Mutations keep the int8 companion storage in sync.
    plain.delete(EntityId(2)).unwrap();
    quantized.delete(EntityId(2)).unwrap();
    plain.upsert(&entity(3, "renamed lagoon resort")).unwrap();
    quantized
        .upsert(&entity(3, "renamed lagoon resort"))
        .unwrap();

    for probe in ["golden palace", "resort crete", "acropolis"] {
        let a = plain.query_text(probe, 4);
        let b = quantized.query_text(probe, 4);
        assert_eq!(a.len(), b.len());
        for (x, y) in a.iter().zip(&b) {
            assert_eq!(x.id, y.id, "probe {probe:?}: candidate diverged");
            assert_eq!(
                x.distance.to_bits(),
                y.distance.to_bits(),
                "probe {probe:?}: re-ranked distance is not the f32 distance"
            );
        }
    }

    // The quantized service round-trips through bytes like any other.
    let bytes = quantized.to_bytes();
    let back = Resolver::from_bytes(&bytes, &model).unwrap();
    assert_eq!(back.len(), quantized.len());
    for probe in ["golden palace", "resort crete"] {
        let a = quantized.query_text(probe, 3);
        let b = back.query_text(probe, 3);
        assert_eq!(a.len(), b.len());
        for (x, y) in a.iter().zip(&b) {
            assert_eq!(x.id, y.id);
            assert_eq!(x.distance.to_bits(), y.distance.to_bits());
        }
    }
    assert_eq!(back.to_bytes(), bytes);

    // PQ needs a trained codebook; the empty streaming service refuses it
    // with a typed error instead of training on nothing.
    let err = Resolver::new(
        &model,
        SerializationMode::SchemaAgnostic,
        ServeConfig::new()
            .backend(BlockerBackend::Exact(Metric::Cosine))
            .scan(ScanConfig {
                tier: KernelTier::Reference,
                quant: Quantization::Pq {
                    config: PqConfig::default(),
                    rerank: 10,
                },
            }),
    );
    assert!(matches!(err, Err(ErError::Model(_))));
}

/// A container whose shards disagree with META (another row width) or
/// with each other (another backend, or another kernel tier) is corrupt:
/// loading it `Ok` would hand queries to kernels whose length check is
/// only a `debug_assert`, or serve one layout under two tiers.
#[test]
fn shards_that_disagree_with_meta_or_with_each_other_are_corrupt() {
    use er_core::binary::{self, kind, BinReader, BinWriter};
    const META: u32 = 1;
    const SHARDS: u32 = 2;
    const MODEL: u32 = 3;
    // The (META, SHARDS, MODEL) section bodies of a two-shard save.
    let save = |dim: usize, backend: BlockerBackend, scan: ScanConfig| -> [Vec<u8>; 3] {
        let model = TrigramModel { dim };
        let config = ServeConfig::new().shards(2).backend(backend).scan(scan);
        let resolver = Resolver::new(&model, SerializationMode::SchemaAgnostic, config).unwrap();
        for id in 0..8u32 {
            resolver
                .insert(&entity(id, &format!("hostile record {id}")))
                .unwrap();
        }
        let bytes = resolver.to_bytes();
        let sections = binary::read_container(&bytes, kind::RESOLVER)
            .unwrap()
            .sections;
        let tags: Vec<u32> = sections.iter().map(|&(tag, _)| tag).collect();
        assert_eq!(tags, [META, SHARDS, MODEL]);
        let bodies: Vec<Vec<u8>> = sections.iter().map(|&(_, body)| body.to_vec()).collect();
        bodies.try_into().unwrap()
    };
    let model = TrigramModel { dim: 48 };
    let exact = BlockerBackend::Exact(Metric::Cosine);
    let reference = ScanConfig::default();
    let [meta, exact_shards, identity] = save(48, exact.clone(), reference);
    // Spliced saves keep the 48-d save's MODEL section, so only the
    // shards can disagree.
    let container = |meta: &[u8], shards: &[u8]| {
        binary::write_container(
            kind::RESOLVER,
            0,
            &[
                (META, meta.to_vec()),
                (SHARDS, shards.to_vec()),
                (MODEL, identity.clone()),
            ],
        )
    };
    assert!(Resolver::from_bytes(&container(&meta, &exact_shards), &model).is_ok());

    // 48-d META over the shards of an 8-d save.
    let [_, narrow_shards, _] = save(8, exact, reference);
    assert!(matches!(
        Resolver::from_bytes(&container(&meta, &narrow_shards), &model),
        Err(ErError::Corrupt(_))
    ));

    // Shard 0 of one save beside shard 1 of another.
    let spliced = |first: &[u8], second: &[u8]| {
        let mut mixed = BinWriter::new();
        for (i, body) in [first, second].into_iter().enumerate() {
            let mut r = BinReader::new(body);
            for _ in 0..i {
                r.get_u32_vec().unwrap();
                r.get_bytes().unwrap();
            }
            mixed.put_u32_slice(&r.get_u32_vec().unwrap());
            mixed.put_bytes(r.get_bytes().unwrap());
        }
        container(&meta, &mixed.into_bytes())
    };
    // Another backend, then the same HNSW backend on another tier.
    let [_, hnsw_shards, _] = save(48, BlockerBackend::default(), reference);
    let lanes = ScanConfig::with_tier(er_core::KernelTier::Lanes);
    let [_, hnsw_lanes_shards, _] = save(48, BlockerBackend::default(), lanes);
    for (first, second) in [
        (&exact_shards, &hnsw_shards),
        (&hnsw_shards, &hnsw_lanes_shards),
    ] {
        assert!(matches!(
            Resolver::from_bytes(&spliced(first, second), &model),
            Err(ErError::Corrupt(_))
        ));
    }
}

/// Degenerate backend configs reach the serving path as typed
/// `ErError::Config`s from the one validating constructor — not as the
/// `assert!`s inside `HnswIndex::from_source` / `HyperplaneLsh::from_source`
/// that used to abort the process. One case per rule, on all three entry
/// points that build shards.
#[test]
fn degenerate_backend_configs_are_typed_errors_not_panics() {
    let hnsw = |config: HnswConfig| BlockerBackend::Hnsw(config);
    let lsh = |config: LshConfig| BlockerBackend::Lsh(config);
    let degenerate = [
        hnsw(HnswConfig {
            m: 1,
            ..HnswConfig::default()
        }),
        hnsw(HnswConfig {
            ef_construction: 0,
            ..HnswConfig::default()
        }),
        hnsw(HnswConfig {
            ef_search: 0,
            ..HnswConfig::default()
        }),
        lsh(LshConfig {
            planes: 0,
            ..LshConfig::default()
        }),
        lsh(LshConfig {
            planes: 65,
            ..LshConfig::default()
        }),
        lsh(LshConfig {
            tables: 0,
            ..LshConfig::default()
        }),
    ];
    let model = TrigramModel { dim: 8 };
    let mode = SerializationMode::SchemaAgnostic;
    let dir = std::env::temp_dir().join(format!("er-serve-degenerate-{}", std::process::id()));
    for backend in degenerate {
        let label = format!("{backend:?}");
        let config = ServeConfig::new().backend(backend.clone());
        assert!(
            matches!(
                Resolver::new(&model, mode.clone(), config.clone()),
                Err(ErError::Config(_))
            ),
            "Resolver::new: {label}"
        );
        assert!(
            matches!(
                Resolver::open(&dir, &model, mode.clone(), config),
                Err(ErError::Config(_))
            ),
            "Resolver::open: {label}"
        );
        assert!(
            matches!(
                ShardedIndex::new(
                    8,
                    2,
                    backend,
                    ScanConfig::default(),
                    CompactionPolicy::default()
                ),
                Err(ErError::Config(_))
            ),
            "ShardedIndex::new: {label}"
        );
    }
    // Quantization on an approximate backend is the same typed error:
    // HNSW and LSH rank full f32 rows.
    let int8 = ScanConfig {
        quant: er_index::Quantization::Int8 { rerank: 8 },
        ..ScanConfig::default()
    };
    for backend in [BlockerBackend::default(), lsh(LshConfig::default())] {
        let config = ServeConfig::new().backend(backend).scan(int8);
        assert!(matches!(
            Resolver::new(&model, mode.clone(), config),
            Err(ErError::Config(_))
        ));
    }
    let _ = std::fs::remove_dir_all(&dir);
}

/// The scan's kernel tier ranks on every backend: HNSW and LSH shards
/// built with `ScanConfig::with_tier(Lanes)` hold that tier, persist it
/// (every shard container reports that scan after `to_bytes`), and a
/// durable directory reopens only under the scan it was created with.
#[test]
fn hnsw_and_lsh_shards_rank_on_the_scan_tier() {
    use er_core::binary::{self, kind, BinReader};
    use er_core::KernelTier;
    use er_index::AnyIndex;
    let model = TrigramModel { dim: 8 };
    let mode = SerializationMode::SchemaAgnostic;
    let lanes = ScanConfig::with_tier(KernelTier::Lanes);
    for backend in [
        BlockerBackend::default(),
        BlockerBackend::Lsh(LshConfig::default()),
    ] {
        let label = format!("{backend:?}");
        assert!(
            ShardedIndex::new(8, 2, backend.clone(), lanes, CompactionPolicy::default()).is_ok(),
            "ShardedIndex::new: {label}"
        );
        let config = ServeConfig::new().shards(2).backend(backend).scan(lanes);
        let resolver = Resolver::new(&model, mode.clone(), config.clone()).unwrap();
        for id in 0..10u32 {
            resolver
                .insert(&entity(id, &format!("tiered record {id}")))
                .unwrap();
        }
        let bytes = resolver.to_bytes();
        let sections = binary::read_container(&bytes, kind::RESOLVER)
            .unwrap()
            .sections;
        let mut shards = BinReader::new(sections[1].1);
        for shard in 0..2 {
            shards.get_u32_vec().unwrap();
            let index = AnyIndex::from_bytes(shards.get_bytes().unwrap()).unwrap();
            assert_eq!(index.config().1, lanes, "{label}: shard {shard}");
        }
        let back = Resolver::from_bytes(&bytes, &model).unwrap();
        assert_eq!(back.to_bytes(), bytes, "{label}");

        let dir = std::env::temp_dir().join(format!("er-serve-tiered-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        drop(Resolver::open(&dir, &model, mode.clone(), config.clone()).unwrap());
        assert!(Resolver::open(&dir, &model, mode.clone(), config.clone()).is_ok());
        let reference = config.scan(ScanConfig::default());
        assert!(
            matches!(
                Resolver::open(&dir, &model, mode.clone(), reference),
                Err(ErError::Config(_))
            ),
            "Resolver::open under the Reference scan: {label}"
        );
        let _ = std::fs::remove_dir_all(&dir);
    }
}

/// `bytes` re-sealed after `edit` changed its sections: damage that only
/// the decoders behind the checksum can see.
fn resealed(bytes: &[u8], edit: impl FnOnce(&mut Vec<(u32, Vec<u8>)>)) -> Vec<u8> {
    use er_core::binary::{self, kind};
    let container = binary::read_container(bytes, kind::RESOLVER).unwrap();
    let mut sections: Vec<(u32, Vec<u8>)> = container
        .sections
        .iter()
        .map(|&(tag, body)| (tag, body.to_vec()))
        .collect();
    edit(&mut sections);
    binary::write_container(kind::RESOLVER, container.epoch, &sections)
}

/// Length fields the checksum does not vouch for (`section_count` in the
/// header) or that a re-sealed file carries (META's shard count) used to
/// size allocations unchecked and abort the process; a trailing byte in a
/// section used to load silently. All are typed `Corrupt` errors.
#[test]
fn length_bombs_and_trailing_bytes_in_a_save_are_corrupt() {
    let model = TrigramModel { dim: 16 };
    let config = ServeConfig::new()
        .shards(2)
        .backend(BlockerBackend::Exact(Metric::Cosine));
    let resolver = Resolver::new(&model, SerializationMode::SchemaAgnostic, config).unwrap();
    for id in 0..6u32 {
        resolver
            .insert(&entity(id, &format!("record {id}")))
            .unwrap();
    }
    let bytes = resolver.to_bytes();
    let corrupt = |bytes: &[u8]| {
        matches!(
            Resolver::from_bytes(bytes, &model),
            Err(ErError::Corrupt(_))
        )
    };
    assert!(Resolver::from_bytes(&resealed(&bytes, |_| {}), &model).is_ok());

    let mut count_bomb = bytes.clone();
    count_bomb[11] ^= 0x80;
    assert!(corrupt(&count_bomb), "section_count bomb");
    let shard_bomb = resealed(&bytes, |s| {
        s[0].1[8..16].copy_from_slice(&(1u64 << 40).to_le_bytes());
    });
    assert!(corrupt(&shard_bomb), "shard_count bomb");
    for section in 0..3 {
        let long = resealed(&bytes, |s| s[section].1.push(0));
        assert!(corrupt(&long), "trailing byte in section {section}");
    }
    let duplicated = resealed(&bytes, |s| s.push(s[2].clone()));
    assert!(corrupt(&duplicated), "duplicated MODEL section");
}

/// The model is checked before the shards are decoded: a save whose shard
/// bytes are garbage (re-sealed, so the outer checksum holds) is a `Model`
/// error under the wrong model and `Corrupt` only under the right one.
#[test]
fn the_model_is_checked_before_the_shards_are_decoded() {
    let model = TrigramModel { dim: 24 };
    let resolver = Resolver::new(
        &model,
        SerializationMode::SchemaAgnostic,
        ServeConfig::new().shards(2),
    )
    .unwrap();
    for id in 0..6u32 {
        resolver
            .insert(&entity(id, &format!("record {id}")))
            .unwrap();
    }
    let garbage = resealed(&resolver.to_bytes(), |s| s[1].1 = vec![0xab; 64]);
    let wrong = TrigramModel { dim: 16 };
    let err = Resolver::from_bytes(&garbage, &wrong);
    assert!(matches!(err, Err(ErError::Model(_))), "{:?}", err.err());
    let err = Resolver::from_bytes(&garbage, &model);
    assert!(matches!(err, Err(ErError::Corrupt(_))), "{:?}", err.err());
}

/// A huge `k` is capped by the live rows instead of sizing a buffer: the
/// answer equals the `k = live` answer on every backend, through the
/// index and through the resolver.
#[test]
fn huge_k_answers_like_k_equal_to_the_live_rows() {
    use er_core::{EmbeddingMatrix, Quantization};
    use er_index::{AnyIndex, IndexReader, MutableIndex};
    let int8 = ScanConfig {
        quant: Quantization::Int8 { rerank: 1 << 40 },
        ..ScanConfig::default()
    };
    let setups = [
        (BlockerBackend::Exact(Metric::Cosine), ScanConfig::default()),
        (BlockerBackend::Exact(Metric::Euclidean), int8),
        (BlockerBackend::default(), ScanConfig::default()),
        (
            BlockerBackend::Lsh(LshConfig::default()),
            ScanConfig::default(),
        ),
    ];
    let rows = random_rows(30, 8, 5);
    let flat = rows.concat();
    for (backend, scan) in setups {
        let matrix = EmbeddingMatrix::from_flat(8, flat.clone()).unwrap();
        let mut index = AnyIndex::build(matrix, &backend, scan).unwrap();
        index.delete_row(4);
        let live = index.live_count();
        for q in &rows[..5] {
            let want = index.search_slice(q, live);
            for k in [1 << 40, usize::MAX] {
                assert_eq!(index.search_slice(q, k), want, "{backend:?} k = {k}");
            }
        }

        let model = TrigramModel { dim: 16 };
        let config = ServeConfig::new().shards(3).backend(backend).scan(scan);
        let resolver = Resolver::new(&model, SerializationMode::SchemaAgnostic, config).unwrap();
        for id in 0..20u32 {
            resolver
                .insert(&entity(id, &format!("record {id}")))
                .unwrap();
        }
        resolver.delete(EntityId(7)).unwrap();
        let probe = entity(99, "record 1");
        let want = resolver.query(&probe, resolver.len());
        for k in [1 << 40, usize::MAX] {
            assert_eq!(resolver.query(&probe, k), want);
        }
    }
}

/// A NaN or ±∞ row is a typed `Model` error at the write path, before
/// anything is journaled or published: the index, its journals and every
/// later answer are as if the write never happened. Through the resolver
/// too, whose writes take the same path.
#[test]
fn non_finite_rows_are_rejected_before_the_journal() {
    let dir = std::env::temp_dir().join(format!("er-serve-non-finite-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    let model = TrigramModel { dim: 2 };
    let config = ServeConfig::new()
        .shards(2)
        .backend(BlockerBackend::Exact(Metric::Euclidean));
    let resolver = Resolver::open(&dir, &model, SerializationMode::SchemaAgnostic, config).unwrap();
    let index = resolver.index();
    // The motivating probe: a NaN row written first used to sit on top of
    // its shard's heap and push the true neighbours out.
    let first = index.insert(EntityId(7), &[f32::NAN, 0.0]);
    assert!(matches!(first, Err(ErError::Model(_))), "{first:?}");
    for i in 0..5u32 {
        assert!(index.insert(EntityId(i), &[i as f32, 0.0]).unwrap());
    }
    let before = (index.len(), index.stats());
    let journaled: Vec<u64> = before.1.iter().map(|s| s.journal_len).collect();
    assert_eq!(journaled.iter().sum::<u64>(), 5);
    let want = index.search_ids(&[3.9, 0.0], 2);
    let ids: Vec<EntityId> = want.iter().map(|h| h.id).collect();
    assert_eq!(ids, [EntityId(4), EntityId(3)]);

    for bad in [f32::NAN, f32::INFINITY, f32::NEG_INFINITY] {
        for row in [[bad, 0.0], [0.0, bad]] {
            for id in [EntityId(2), EntityId(9)] {
                let insert = index.insert(id, &row);
                assert!(matches!(insert, Err(ErError::Model(_))), "{insert:?}");
                let upsert = index.upsert(id, &row);
                assert!(matches!(upsert, Err(ErError::Model(_))), "{upsert:?}");
            }
        }
    }
    assert_eq!((index.len(), index.stats()), before);
    assert_eq!(index.search_ids(&[3.9, 0.0], 2), want);
    drop(resolver);

    // Nothing reached the journals: a reopen replays exactly the five rows.
    let config = ServeConfig::new()
        .shards(2)
        .backend(BlockerBackend::Exact(Metric::Euclidean));
    let reopened = Resolver::open(&dir, &model, SerializationMode::SchemaAgnostic, config).unwrap();
    assert_eq!(reopened.len(), 5);
    assert_eq!(reopened.index().search_ids(&[3.9, 0.0], 2), want);
    let _ = std::fs::remove_dir_all(&dir);
}
