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
/// with each other (another backend) is corrupt: loading it `Ok` would
/// hand queries to kernels whose length check is only a `debug_assert`.
#[test]
fn shards_that_disagree_with_meta_or_with_each_other_are_corrupt() {
    use er_core::binary::{self, kind, BinReader, BinWriter};
    const META: u32 = 1;
    const SHARDS: u32 = 2;
    // The (META, SHARDS) section bodies of a two-shard save.
    let save = |dim: usize, backend: BlockerBackend| -> (Vec<u8>, Vec<u8>) {
        let model = TrigramModel { dim };
        let config = ServeConfig::new().shards(2).backend(backend);
        let resolver = Resolver::new(&model, SerializationMode::SchemaAgnostic, config).unwrap();
        for id in 0..8u32 {
            resolver
                .insert(&entity(id, &format!("hostile record {id}")))
                .unwrap();
        }
        let bytes = resolver.to_bytes();
        let (_, sections) = binary::read_container_epoch(&bytes, kind::RESOLVER).unwrap();
        let body = |tag, name| binary::section(&sections, tag, name).unwrap().to_vec();
        (body(META, "meta"), body(SHARDS, "shards"))
    };
    let container = |meta: &[u8], shards: &[u8]| {
        binary::write_container_epoch(
            kind::RESOLVER,
            0,
            &[(META, meta.to_vec()), (SHARDS, shards.to_vec())],
        )
    };
    let model = TrigramModel { dim: 48 };
    let exact = BlockerBackend::Exact(Metric::Cosine);
    let (meta, exact_shards) = save(48, exact.clone());
    assert!(Resolver::from_bytes(&container(&meta, &exact_shards), &model).is_ok());

    // 48-d META over the shards of an 8-d save.
    let (_, narrow_shards) = save(8, exact);
    assert!(matches!(
        Resolver::from_bytes(&container(&meta, &narrow_shards), &model),
        Err(ErError::Corrupt(_))
    ));

    // Shard 0 of the exact save beside shard 1 of an HNSW save.
    let (_, hnsw_shards) = save(48, BlockerBackend::default());
    let mut mixed = BinWriter::new();
    for (i, body) in [&exact_shards, &hnsw_shards].into_iter().enumerate() {
        let mut r = BinReader::new(body);
        for _ in 0..i {
            r.get_u32_vec().unwrap();
            r.get_bytes().unwrap();
        }
        mixed.put_u32_slice(&r.get_u32_vec().unwrap());
        mixed.put_bytes(r.get_bytes().unwrap());
    }
    assert!(matches!(
        Resolver::from_bytes(&container(&meta, &mixed.into_bytes()), &model),
        Err(ErError::Corrupt(_))
    ));
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
    // A scan — quantization or a kernel tier — on an approximate backend
    // is the same typed error: HNSW and LSH carry their tier in their own
    // config, so the scan would be silently ignored.
    for scan in [
        ScanConfig {
            quant: er_index::Quantization::Int8 { rerank: 8 },
            ..ScanConfig::default()
        },
        ScanConfig::with_tier(er_core::KernelTier::Lanes),
    ] {
        assert!(matches!(
            Resolver::new(&model, mode.clone(), ServeConfig::new().scan(scan)),
            Err(ErError::Config(_))
        ));
    }
    let _ = std::fs::remove_dir_all(&dir);
}
