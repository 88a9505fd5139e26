//! Persistence-format coverage (ISSUE 6 satellite): property-based
//! round-trips — save → load → bit-identical top-k for all three backends
//! × both metrics — plus corrupted-header and truncated-file loads
//! returning typed [`ErError::Corrupt`] instead of panicking.

use er_core::{Embedding, EmbeddingMatrix, ErError};
use er_index::{
    ExactIndex, HnswConfig, HnswIndex, HyperplaneLsh, IndexReader, LshConfig, Metric, MutableIndex,
    NnIndex,
};
use proptest::prelude::*;
use rand::Rng;

fn vectors(n: usize, dim: usize, seed: u64) -> Vec<Embedding> {
    let mut r = er_core::rng::rng(seed);
    (0..n)
        .map(|_| Embedding((0..dim).map(|_| r.gen_range(-4.0..4.0)).collect()))
        .collect()
}

fn assert_same_hits(a: &impl NnIndex, b: &impl NnIndex, queries: &[Embedding], k: usize) {
    for q in queries {
        let (ha, hb) = (
            a.search_slice(q.as_slice(), k),
            b.search_slice(q.as_slice(), k),
        );
        assert_eq!(ha.len(), hb.len());
        for (x, y) in ha.iter().zip(&hb) {
            assert_eq!(x.index, y.index);
            assert_eq!(
                x.distance.to_bits(),
                y.distance.to_bits(),
                "distance drifted"
            );
        }
    }
}

proptest! {
    fn exact_round_trip_bit_identical(
        n in 0..40usize,
        dim in 1..12usize,
        seed in 0..100_000u64,
        metric_pick in 0..2usize,
        del_stride in 0..5usize,
    ) {
        let metric = [Metric::Euclidean, Metric::Cosine][metric_pick];
        let vs = vectors(n, dim, seed);
        let mut index = ExactIndex::from_source(EmbeddingMatrix::from_embeddings(&vs), metric);
        if del_stride > 0 {
            for i in (0..n).step_by(del_stride) {
                index.delete_row(i);
            }
        }
        let back = ExactIndex::from_bytes(&index.to_bytes()).unwrap();
        assert_eq!(back.metric(), metric);
        assert_eq!(back.live_count(), index.live_count());
        assert_same_hits(&index, &back, &vs, 6);
    }

    fn hnsw_round_trip_bit_identical(
        n in 0..30usize,
        dim in 1..10usize,
        seed in 0..100_000u64,
        metric_pick in 0..2usize,
    ) {
        let metric = [Metric::Euclidean, Metric::Cosine][metric_pick];
        let config = HnswConfig { metric, ..HnswConfig::default() };
        let vs = vectors(n, dim, seed);
        let mut index = HnswIndex::from_source(EmbeddingMatrix::from_embeddings(&vs), config);
        if n > 2 {
            index.delete_row(n / 2);
        }
        let back = HnswIndex::from_bytes(&index.to_bytes()).unwrap();
        assert_eq!(index.adjacency(), back.adjacency());
        assert_same_hits(&index, &back, &vs, 5);
    }

    fn lsh_round_trip_bit_identical(
        n in 0..30usize,
        dim in 1..10usize,
        seed in 0..100_000u64,
        metric_pick in 0..2usize,
    ) {
        let metric = [Metric::Euclidean, Metric::Cosine][metric_pick];
        let config = LshConfig { metric, ..LshConfig::default() };
        let vs = vectors(n, dim, seed);
        let mut index = HyperplaneLsh::from_source(EmbeddingMatrix::from_embeddings(&vs), config, ScanConfig::default()).unwrap();
        if n > 2 {
            index.delete_row(0);
        }
        let back = HyperplaneLsh::from_bytes(&index.to_bytes()).unwrap();
        assert_eq!(index.signatures(), back.signatures());
        assert_same_hits(&index, &back, &vs, 5);
    }

    /// Every truncation of a valid file fails with a typed Corrupt error —
    /// the loader never panics and never fabricates a partial index.
    fn truncated_files_fail_typed(cut_frac in 0.0f64..1.0) {
        let vs = vectors(12, 4, 99);
        let files = [
            ExactIndex::from_source(EmbeddingMatrix::from_embeddings(&vs), Metric::Euclidean).to_bytes(),
            HnswIndex::from_source(EmbeddingMatrix::from_embeddings(&vs), HnswConfig::default()).to_bytes(),
            HyperplaneLsh::from_source(EmbeddingMatrix::from_embeddings(&vs), LshConfig::default(), ScanConfig::default()).unwrap().to_bytes(),
        ];
        for bytes in &files {
            let cut = ((bytes.len() as f64) * cut_frac) as usize;
            if cut >= bytes.len() {
                continue;
            }
            let short = &bytes[..cut];
            assert!(matches!(ExactIndex::from_bytes(short), Err(ErError::Corrupt(_))));
            assert!(matches!(HnswIndex::from_bytes(short), Err(ErError::Corrupt(_))));
            assert!(matches!(HyperplaneLsh::from_bytes(short), Err(ErError::Corrupt(_))));
        }
    }

    /// A single flipped bit anywhere — header or payload — is caught.
    fn flipped_bit_fails_typed(pos_frac in 0.0f64..1.0, bit in 0..8u32) {
        let vs = vectors(10, 4, 7);
        let mut bytes = HnswIndex::from_source(EmbeddingMatrix::from_embeddings(&vs), HnswConfig::default()).to_bytes();
        let pos = ((bytes.len() as f64) * pos_frac) as usize % bytes.len();
        bytes[pos] ^= 1 << bit;
        assert!(matches!(HnswIndex::from_bytes(&bytes), Err(ErError::Corrupt(_))));
    }
}

/// The bytes survive a trip through the filesystem: an index container is
/// written with `std::fs` and loaded back with `from_bytes`.
#[test]
fn save_and_load_round_trip_through_the_filesystem() {
    let dir = std::env::temp_dir().join(format!("er_index_persist_{}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    let vs = vectors(20, 6, 31);
    let queries = vectors(5, 6, 32);
    let through_disk = |name: &str, bytes: Vec<u8>| {
        let path = dir.join(name);
        std::fs::write(&path, bytes).unwrap();
        std::fs::read(&path).unwrap()
    };

    let exact = ExactIndex::from_source(EmbeddingMatrix::from_embeddings(&vs), Metric::Cosine);
    let bytes = through_disk("exact.erbf", exact.to_bytes());
    assert_same_hits(
        &exact,
        &ExactIndex::from_bytes(&bytes).unwrap(),
        &queries,
        5,
    );

    let hnsw = HnswIndex::from_source(EmbeddingMatrix::from_embeddings(&vs), HnswConfig::default());
    let bytes = through_disk("hnsw.erbf", hnsw.to_bytes());
    assert_same_hits(&hnsw, &HnswIndex::from_bytes(&bytes).unwrap(), &queries, 5);

    let lsh = HyperplaneLsh::from_source(
        EmbeddingMatrix::from_embeddings(&vs),
        LshConfig::default(),
        ScanConfig::default(),
    )
    .unwrap();
    let bytes = through_disk("lsh.erbf", lsh.to_bytes());
    assert_same_hits(
        &lsh,
        &HyperplaneLsh::from_bytes(&bytes).unwrap(),
        &queries,
        5,
    );
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn corrupted_headers_fail_typed() {
    let vs = vectors(8, 4, 33);
    let good = ExactIndex::from_source(EmbeddingMatrix::from_embeddings(&vs), Metric::Euclidean)
        .to_bytes();
    // Bad magic.
    let mut bad = good.clone();
    bad[0..4].copy_from_slice(b"NOPE");
    assert!(matches!(
        ExactIndex::from_bytes(&bad),
        Err(ErError::Corrupt(_))
    ));
    // Future version.
    let mut bad = good.clone();
    bad[4] = 0xFF;
    assert!(matches!(
        ExactIndex::from_bytes(&bad),
        Err(ErError::Corrupt(_))
    ));
    // Lying payload length.
    let mut bad = good.clone();
    bad[12] ^= 0x01;
    assert!(matches!(
        ExactIndex::from_bytes(&bad),
        Err(ErError::Corrupt(_))
    ));
    // Wrong kind: an exact file refused by the other two loaders.
    assert!(matches!(
        HnswIndex::from_bytes(&good),
        Err(ErError::Corrupt(_))
    ));
    assert!(matches!(
        HyperplaneLsh::from_bytes(&good),
        Err(ErError::Corrupt(_))
    ));
    // Empty and header-only files.
    assert!(matches!(
        ExactIndex::from_bytes(&[]),
        Err(ErError::Corrupt(_))
    ));
    assert!(matches!(
        ExactIndex::from_bytes(&good[..28]),
        Err(ErError::Corrupt(_))
    ));
}

/// Serialization itself is byte-deterministic: the same index serializes
/// to the same bytes across independent builds.
#[test]
fn serialization_is_byte_deterministic() {
    let vs = vectors(15, 5, 34);
    assert_eq!(
        HnswIndex::from_source(EmbeddingMatrix::from_embeddings(&vs), HnswConfig::default())
            .to_bytes(),
        HnswIndex::from_source(EmbeddingMatrix::from_embeddings(&vs), HnswConfig::default())
            .to_bytes()
    );
    assert_eq!(
        HyperplaneLsh::from_source(
            EmbeddingMatrix::from_embeddings(&vs),
            LshConfig::default(),
            ScanConfig::default()
        )
        .unwrap()
        .to_bytes(),
        HyperplaneLsh::from_source(
            EmbeddingMatrix::from_embeddings(&vs),
            LshConfig::default(),
            ScanConfig::default()
        )
        .unwrap()
        .to_bytes()
    );
    assert_eq!(
        ExactIndex::from_source(EmbeddingMatrix::from_embeddings(&vs), Metric::Euclidean)
            .to_bytes(),
        ExactIndex::from_source(EmbeddingMatrix::from_embeddings(&vs), Metric::Euclidean)
            .to_bytes()
    );
}

// ---------------------------------------------------------------------------
// Quantized scans and kernel tiers through the ERBF container (PR 7): the
// scan config, the int8 codes and the PQ codebook all persist as their own
// checksummed sections; corruption anywhere surfaces as a typed error.
// ---------------------------------------------------------------------------

use er_core::pq::PqConfig;
use er_core::KernelTier;
use er_index::{Quantization, ScanConfig};

fn pq8() -> PqConfig {
    PqConfig {
        subspaces: 4,
        centroids: 16,
        iters: 3,
        seed: 5,
    }
}

/// Every scan configuration worth persisting, over an 8-d corpus.
fn scan_configs() -> Vec<ScanConfig> {
    let mut out = Vec::new();
    for tier in [KernelTier::Reference, KernelTier::Lanes] {
        for quant in [
            Quantization::None,
            Quantization::Int8 { rerank: 12 },
            Quantization::Pq {
                config: pq8(),
                rerank: 12,
            },
        ] {
            out.push(ScanConfig { tier, quant });
        }
    }
    out
}

#[test]
fn quantized_and_tiered_indices_round_trip_bit_identically() {
    let vs = vectors(30, 8, 41);
    let queries = vectors(6, 8, 42);
    for metric in [Metric::Euclidean, Metric::Cosine] {
        for scan in scan_configs() {
            let mut index =
                ExactIndex::from_source_scan(EmbeddingMatrix::from_embeddings(&vs), metric, scan)
                    .unwrap();
            index.delete_row(3);
            index.delete_row(17);
            let back = ExactIndex::from_bytes(&index.to_bytes()).unwrap();
            assert_eq!(back.scan_config(), scan, "scan config lost in transit");
            assert_eq!(back.live_count(), index.live_count());
            assert_same_hits(&index, &back, &queries, 5);
            // Byte determinism extends to the new sections.
            assert_eq!(index.to_bytes(), back.to_bytes());
        }
    }
}

/// HNSW and LSH built on a kernel tier keep it: `AnyIndex::config`
/// reports the scan they were built with before and after a round trip,
/// the loaded index answers bit-identically, and quantization on either
/// backend is refused.
#[test]
fn graph_and_lsh_indices_keep_their_build_tier_through_bytes() {
    use er_index::{AnyIndex, BlockerBackend};
    let vs = EmbeddingMatrix::from_embeddings(&vectors(30, 8, 43));
    let queries = vectors(6, 8, 44);
    for backend in [
        BlockerBackend::Hnsw(HnswConfig::default()),
        BlockerBackend::Lsh(LshConfig::default()),
    ] {
        for tier in [KernelTier::Reference, KernelTier::Lanes] {
            let scan = ScanConfig::with_tier(tier);
            let mut index = AnyIndex::build(&vs, &backend, scan).unwrap();
            index.delete_row(5);
            assert_eq!(index.config(), (backend.clone(), scan));
            let back = AnyIndex::from_bytes(&index.to_bytes()).unwrap();
            assert_eq!(
                back.config(),
                (backend.clone(), scan),
                "tier lost in transit"
            );
            assert_same_hits(&index, &back, &queries, 5);
            assert_eq!(index.to_bytes(), back.to_bytes());
        }
        let int8 = ScanConfig {
            tier: KernelTier::Reference,
            quant: Quantization::Int8 { rerank: 12 },
        };
        assert!(matches!(
            AnyIndex::build(&vs, &backend, int8),
            Err(ErError::Config(_))
        ));
    }
}

#[test]
fn k_larger_than_rows_is_fine_in_every_scan_config() {
    let vs = vectors(7, 8, 43);
    for scan in scan_configs() {
        let index = ExactIndex::from_source_scan(
            EmbeddingMatrix::from_embeddings(&vs),
            Metric::Cosine,
            scan,
        )
        .unwrap();
        let hits = index.search_slice(vs[0].as_slice(), 50);
        assert_eq!(hits.len(), 7, "{scan:?}");
        assert!(index.search_slice(vs[0].as_slice(), 0).is_empty());
    }
}

proptest! {
    /// A flipped bit anywhere in a quantized file — including inside the
    /// QUANT / CODEBOOK / PQ_CODES sections — fails typed, never panics.
    fn flipped_bit_in_quantized_sections_fails_typed(
        pos_frac in 0.0f64..1.0,
        bit in 0..8u32,
        pick in 0..2usize,
    ) {
        let vs = vectors(12, 8, 44);
        let scan = [
            ScanConfig { tier: KernelTier::Lanes, quant: Quantization::Int8 { rerank: 6 } },
            ScanConfig { tier: KernelTier::Reference, quant: Quantization::Pq { config: pq8(), rerank: 6 } },
        ][pick];
        let mut bytes = ExactIndex::from_source_scan(EmbeddingMatrix::from_embeddings(&vs), Metric::Cosine, scan)
            .unwrap()
            .to_bytes();
        let pos = ((bytes.len() as f64) * pos_frac) as usize % bytes.len();
        bytes[pos] ^= 1 << bit;
        assert!(matches!(
            ExactIndex::from_bytes(&bytes),
            Err(ErError::Corrupt(_))
        ));
    }

    /// Truncating a quantized file anywhere fails typed.
    fn truncated_quantized_file_fails_typed(cut_frac in 0.0f64..1.0) {
        let vs = vectors(12, 8, 45);
        let scan = ScanConfig {
            tier: KernelTier::Lanes,
            quant: Quantization::Pq { config: pq8(), rerank: 6 },
        };
        let bytes = ExactIndex::from_source_scan(EmbeddingMatrix::from_embeddings(&vs), Metric::Cosine, scan)
            .unwrap()
            .to_bytes();
        let cut = ((bytes.len() as f64) * cut_frac) as usize;
        if cut < bytes.len() {
            assert!(matches!(
                ExactIndex::from_bytes(&bytes[..cut]),
                Err(ErError::Corrupt(_))
            ));
        }
    }
}

#[test]
fn quantized_round_trip_after_streaming_inserts() {
    // Inserts keep the quantized companion storage in sync; the persisted
    // file must reflect the post-insert state exactly.
    let vs = vectors(10, 8, 46);
    let extra = vectors(5, 8, 47);
    let scan = ScanConfig {
        tier: KernelTier::Lanes,
        quant: Quantization::Int8 { rerank: 8 },
    };
    let mut index =
        ExactIndex::from_source_scan(EmbeddingMatrix::from_embeddings(&vs), Metric::Cosine, scan)
            .unwrap();
    for e in &extra {
        index.insert_row(e.as_slice()).unwrap();
    }
    index.delete_row(2);
    let back = ExactIndex::from_bytes(&index.to_bytes()).unwrap();
    assert_eq!(back.len(), 15);
    assert_eq!(back.live_count(), 14);
    let queries = vectors(4, 8, 48);
    assert_same_hits(&index, &back, &queries, 6);
    assert_eq!(index.to_bytes(), back.to_bytes());
}

/// `bytes` re-sealed after `edit` changed its sections: damage that only
/// the decoders behind the checksum can see.
fn resealed(bytes: &[u8], edit: impl FnOnce(&mut Vec<(u32, Vec<u8>)>)) -> Vec<u8> {
    use er_core::binary;
    let kind = binary::peek_kind(bytes).unwrap();
    let container = binary::read_container(bytes, kind).unwrap();
    let mut sections: Vec<(u32, Vec<u8>)> = container
        .sections
        .iter()
        .map(|&(tag, body)| (tag, body.to_vec()))
        .collect();
    edit(&mut sections);
    binary::write_container(kind, container.epoch, &sections)
}

/// A `section_count` the checksum does not cover, an LSH table count in a
/// re-sealed META, and one trailing byte in any section: each used to
/// abort the process or load silently, and is a typed `Corrupt` error.
#[test]
fn length_bombs_and_trailing_bytes_in_index_files_are_corrupt() {
    use er_index::AnyIndex;
    let vs = EmbeddingMatrix::from_embeddings(&vectors(12, 8, 51));
    let exact = |quant| {
        ExactIndex::from_source_scan(
            vs.clone(),
            Metric::Cosine,
            ScanConfig {
                tier: KernelTier::Lanes,
                quant,
            },
        )
        .unwrap()
        .to_bytes()
    };
    let files = [
        exact(Quantization::None),
        exact(Quantization::Int8 { rerank: 6 }),
        exact(Quantization::Pq {
            config: pq8(),
            rerank: 6,
        }),
        HnswIndex::from_source(vs.clone(), HnswConfig::default()).to_bytes(),
        HyperplaneLsh::from_source(vs.clone(), LshConfig::default(), ScanConfig::default())
            .unwrap()
            .to_bytes(),
    ];
    let corrupt = |bytes: &[u8]| matches!(AnyIndex::from_bytes(bytes), Err(ErError::Corrupt(_)));
    for file in &files {
        assert!(AnyIndex::from_bytes(&resealed(file, |_| {})).is_ok());
        let mut count_bomb = file.clone();
        count_bomb[11] ^= 0x80;
        assert!(corrupt(&count_bomb), "section_count bomb");
        let sections =
            er_core::binary::read_container(file, er_core::binary::peek_kind(file).unwrap())
                .unwrap()
                .sections
                .len();
        for section in 0..sections {
            let long = resealed(file, |s| s[section].1.push(0));
            assert!(corrupt(&long), "trailing byte in section {section}");
        }
        let duplicated = resealed(file, |s| s.push(s[1].clone()));
        assert!(corrupt(&duplicated), "duplicated META section");
    }
    // LSH META: planes, then tables.
    let tables_bomb = resealed(&files[4], |s| {
        s[1].1[8..16].copy_from_slice(&(1u64 << 40).to_le_bytes());
    });
    assert!(corrupt(&tables_bomb), "LSH tables bomb");
}
