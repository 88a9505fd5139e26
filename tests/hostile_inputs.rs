//! Hostile inputs against the served query path. Every served query —
//! `Resolver::query_embedding`, `ShardedIndex::search_ids` and
//! `search_snapshots` on a pinned manifest — follows one rule: a query of
//! another width than the stored rows, or with a NaN or ±∞ component,
//! returns no hits, and so do `k = 0` and an empty index. The table runs
//! each hostile query under `catch_unwind` against every scan path a shard
//! can take (Exact on the `Reference` and `Lanes` tiers, HNSW, LSH) on one
//! and on two shards, so a kernel that panics on a short row or answers
//! from a truncated dot product fails here by name.
//!
//! Run it in release too: in debug the kernels' length `debug_assert`s
//! fire first, and only release shows what the unchecked kernels do.

use embeddings4er::prelude::*;
use er_serve::search_snapshots;
use std::ops::RangeInclusive;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::time::Duration;

const DIM: usize = 4;
const ROWS: u32 = 24;

/// A model that only fixes the resolver's width: every row and query in
/// this table is a raw vector, so nothing is ever embedded.
struct Width;

impl LanguageModel for Width {
    fn code(&self) -> ModelCode {
        ModelCode::FT
    }

    fn dim(&self) -> usize {
        DIM
    }

    fn init_time(&self) -> Duration {
        Duration::ZERO
    }

    fn fingerprint(&self) -> u64 {
        0x0077_6964_7468
    }

    fn embed(&self, _text: &str) -> Embedding {
        Embedding(vec![0.0; DIM])
    }
}

/// Every scan path a served shard can take.
fn layouts() -> Vec<(&'static str, BlockerBackend, ScanConfig)> {
    let exact = BlockerBackend::Exact(Metric::Cosine);
    vec![
        (
            "Exact-Reference",
            exact.clone(),
            ScanConfig::with_tier(KernelTier::Reference),
        ),
        (
            "Exact-Lanes",
            exact,
            ScanConfig::with_tier(KernelTier::Lanes),
        ),
        (
            "HNSW",
            BlockerBackend::Hnsw(HnswConfig::default()),
            ScanConfig::default(),
        ),
        (
            "LSH",
            BlockerBackend::Lsh(LshConfig::default()),
            ScanConfig::default(),
        ),
    ]
}

/// A finite row per id, no component zero (ids 11 apart repeat).
fn row(id: u32) -> Vec<f32> {
    (0..DIM)
        .map(|c| ((id as usize * 7 + c * 3) % 11) as f32 - 4.5)
        .collect()
}

/// Every query the rule turns away, by name.
fn hostile_queries() -> Vec<(&'static str, Vec<f32>)> {
    let with = |i: usize, x: f32| {
        let mut q = row(3);
        q[i] = x;
        q
    };
    vec![
        ("NaN", with(1, f32::NAN)),
        ("+inf", with(0, f32::INFINITY)),
        ("-inf", with(DIM - 1, f32::NEG_INFINITY)),
        ("too narrow", row(3)[..DIM - 1].to_vec()),
        ("too wide", row(3).repeat(3)),
        ("empty", Vec::new()),
    ]
}

/// The answers of the three served entry points to one query.
fn served(resolver: &Resolver, query: &[f32], k: usize) -> [(&'static str, Vec<Hit>); 3] {
    let index = resolver.index();
    [
        (
            "Resolver::query_embedding",
            resolver.query_embedding(&Embedding(query.to_vec()), k),
        ),
        ("ShardedIndex::search_ids", index.search_ids(query, k)),
        (
            "search_snapshots",
            search_snapshots(&index.snapshots(), query, k),
        ),
    ]
}

/// Run `query` through every entry point under `catch_unwind` and require
/// a hit count in `want` from each, all at finite distances.
fn expect_hits(
    resolver: &Resolver,
    case: &str,
    query: &[f32],
    k: usize,
    want: RangeInclusive<usize>,
) {
    let answers = catch_unwind(AssertUnwindSafe(|| served(resolver, query, k)))
        .unwrap_or_else(|_| panic!("{case}: a served query panicked"));
    for (entry, hits) in answers {
        assert!(want.contains(&hits.len()), "{case} via {entry}: {hits:?}");
        assert!(
            hits.iter().all(|h| h.distance.is_finite()),
            "{case} via {entry}: non-finite distance in {hits:?}"
        );
    }
}

fn resolver<'m>(
    model: &'m Width,
    backend: &BlockerBackend,
    scan: ScanConfig,
    shards: usize,
) -> Resolver<'m> {
    let config = ServeConfig::new()
        .shards(shards)
        .backend(backend.clone())
        .scan(scan);
    Resolver::new(model, SerializationMode::SchemaAgnostic, config).expect("valid layout")
}

#[test]
fn hostile_queries_get_no_hits_on_every_layout() {
    let model = Width;
    for (name, backend, scan) in layouts() {
        for shards in [1, 2] {
            let case = format!("{name} × {shards} shard(s)");
            let resolver = resolver(&model, &backend, scan, shards);
            // An empty index answers nothing, hostile or not.
            expect_hits(&resolver, &format!("{case}, empty"), &row(3), 5, 0..=0);
            for (what, query) in hostile_queries() {
                let case = format!("{case}, empty index, {what} query");
                expect_hits(&resolver, &case, &query, 5, 0..=0);
            }

            for id in 0..ROWS {
                assert!(resolver.index().insert(EntityId(id), &row(id)).unwrap());
            }
            if shards == 2 {
                assert!(resolver.shard_sizes().iter().all(|&n| n > 0), "{case}");
            }
            // The control: a well-formed query is answered (LSH may gather
            // fewer than k candidates), so the empty answers below are the
            // rule and not a broken index.
            expect_hits(&resolver, &format!("{case}, valid"), &row(3), 5, 1..=5);
            expect_hits(&resolver, &format!("{case}, k = 0"), &row(3), 0, 0..=0);
            for (what, query) in hostile_queries() {
                let case = format!("{case}, {what} query");
                expect_hits(&resolver, &case, &query, 5, 0..=0);
            }
        }
    }
}
