//! Hostile inputs against every search entry and every row admission.
//! Every index answers by one query rule, checked at its search entry: a
//! query of another width than the stored rows, or with a NaN or ±∞
//! component, returns no hits, and so do `k = 0` and an index with no live
//! rows. Rows have the mirror rule: an index's width is fixed when it is
//! built, and a row of another width, or with a NaN or ±∞ component, is
//! an `ErError::Model` that changes nothing. The served entries
//! (`Resolver::query_embedding`, `ShardedIndex::search_ids`,
//! `search_snapshots` on a pinned manifest, `SegmentSnapshot::search`) and
//! the index-level ones (`search_slice`, `search_counted`,
//! `search_batch_rows`, `top_k_blocking_scored_matrix`) all reach it. The
//! tables run each hostile query under `catch_unwind` against every scan
//! path an index can take (Exact on the `Reference` and `Lanes` tiers,
//! HNSW, LSH), served on one and on two shards, so a kernel that panics on
//! a short row or answers from a truncated dot product fails here by name.
//!
//! Run it in release too: in debug the kernels' length `debug_assert`s
//! fire first, and only release shows what the unchecked kernels do.

use embeddings4er::prelude::*;
use er_index::AnyIndex;
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

/// Every scan path an index can take.
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

/// The answers of the served entry points to one query. A single
/// snapshot is searched on the shard that stores `row(3)`, so the valid
/// control finds at least that row there.
fn served(resolver: &Resolver, query: &[f32], k: usize) -> [(&'static str, Vec<Hit>); 4] {
    let index = resolver.index();
    let manifest = index.snapshots();
    [
        (
            "Resolver::query_embedding",
            resolver.query_embedding(&Embedding(query.to_vec()), k),
        ),
        ("ShardedIndex::search_ids", index.search_ids(query, k)),
        ("search_snapshots", search_snapshots(&manifest, query, k)),
        (
            "SegmentSnapshot::search",
            manifest[index.shard_of(EntityId(3))].search(query, k),
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

/// An index of `backend` over `rows(0..ROWS)` (none when `filled` is
/// false), typed as the blocker and the shards hold it.
fn index(backend: &BlockerBackend, scan: ScanConfig, filled: bool) -> AnyIndex {
    let n = if filled { ROWS } else { 0 };
    let rows = EmbeddingMatrix::from_flat(DIM, (0..n).flat_map(row).collect()).unwrap();
    AnyIndex::build(rows, backend, scan).expect("valid layout")
}

/// The answers of the single-query index entries to one query.
fn index_level(index: &AnyIndex, query: &[f32], k: usize) -> [(&'static str, Vec<Neighbor>); 2] {
    [
        ("search_slice", index.search_slice(query, k)),
        (
            "search_counted",
            index.search_counted(query, k, &QueryParams::default()).0,
        ),
    ]
}

/// Run `query` through every single-query index entry under
/// `catch_unwind` and require a hit count in `want` from each, all live
/// rows at finite distances.
fn expect_neighbors(
    index: &AnyIndex,
    case: &str,
    query: &[f32],
    k: usize,
    want: RangeInclusive<usize>,
) {
    let answers = catch_unwind(AssertUnwindSafe(|| index_level(index, query, k)))
        .unwrap_or_else(|_| panic!("{case}: an index search panicked"));
    for (entry, hits) in answers {
        assert!(want.contains(&hits.len()), "{case} via {entry}: {hits:?}");
        assert!(
            hits.iter()
                .all(|h| h.distance.is_finite() && h.index < ROWS as usize),
            "{case} via {entry}: {hits:?}"
        );
    }
}

#[test]
fn hostile_queries_get_no_hits_from_any_index_entry() {
    for (name, backend, scan) in layouts() {
        let empty = index(&backend, scan, false);
        expect_neighbors(&empty, &format!("{name}, empty"), &row(3), 5, 0..=0);
        for (what, query) in hostile_queries() {
            let case = format!("{name}, empty index, {what} query");
            expect_neighbors(&empty, &case, &query, 5, 0..=0);
        }

        let index = index(&backend, scan, true);
        expect_neighbors(&index, &format!("{name}, valid"), &row(3), 5, 1..=5);
        expect_neighbors(&index, &format!("{name}, k = 0"), &row(3), 0, 0..=0);
        for (what, query) in hostile_queries() {
            let case = format!("{name}, {what} query");
            expect_neighbors(&index, &case, &query, 5, 0..=0);
        }
    }
}

#[test]
fn search_batch_rows_turns_away_only_the_hostile_rows() {
    // Valid rows at even slots, one non-finite row between each pair.
    let mut queries = EmbeddingMatrix::new(DIM);
    let hostile: Vec<(&str, Vec<f32>)> = hostile_queries()
        .into_iter()
        .filter(|(_, q)| q.len() == DIM)
        .collect();
    for (i, (_, q)) in hostile.iter().enumerate() {
        queries.push(&row(i as u32 + 1));
        queries.push(q);
    }
    queries.push(&row(9));
    let wide = EmbeddingMatrix::from_flat(3 * DIM, row(3).repeat(3).repeat(2)).unwrap();
    for (name, backend, scan) in layouts() {
        let index = index(&backend, scan, true);
        let batch = |queries: &EmbeddingMatrix, k| {
            catch_unwind(AssertUnwindSafe(|| index.search_batch_rows(queries, k)))
                .unwrap_or_else(|_| panic!("{name}: search_batch_rows panicked"))
        };
        let answers = batch(&queries, 5);
        assert_eq!(answers.len(), queries.len(), "{name}");
        for (slot, hits) in answers.iter().enumerate() {
            let case = match slot % 2 {
                0 => "valid",
                _ => hostile[slot / 2].0,
            };
            let want = if slot % 2 == 0 { 1..=5 } else { 0..=0 };
            assert!(
                want.contains(&hits.len()),
                "{name}, slot {slot} ({case}): {hits:?}"
            );
            assert!(
                hits.iter().all(|h| h.distance.is_finite()),
                "{name}, slot {slot} ({case}): {hits:?}"
            );
        }
        assert!(
            batch(&queries, 0).iter().all(Vec::is_empty),
            "{name}, k = 0"
        );
        let answers = batch(&wide, 5);
        assert_eq!(answers.len(), 2, "{name}");
        assert!(
            answers.iter().all(Vec::is_empty),
            "{name}, too wide: {answers:?}"
        );
    }
}

#[test]
fn blocking_a_wider_left_side_pairs_nothing() {
    let right = EmbeddingMatrix::from_flat(DIM, (0..ROWS).flat_map(row).collect()).unwrap();
    let right_ids: Vec<EntityId> = (0..ROWS).map(EntityId).collect();
    let left =
        EmbeddingMatrix::from_flat(3 * DIM, (0..3).flat_map(|id| row(id).repeat(3)).collect())
            .unwrap();
    let left_ids: Vec<EntityId> = (0..3).map(EntityId).collect();
    for (name, backend, scan) in layouts() {
        let point = OperatingPoint::new(5).backend(backend).scan(scan);
        let pairs = catch_unwind(AssertUnwindSafe(|| {
            top_k_blocking_scored_matrix(&left_ids, &left, &right_ids, &right, &point)
        }))
        .unwrap_or_else(|_| panic!("{name}: blocking a 12-d left side panicked"));
        assert!(pairs.is_empty(), "{name}: {pairs:?}");
    }
}

/// Every row the write path turns away, by name.
fn hostile_rows() -> Vec<(&'static str, Vec<f32>)> {
    let with = |i: usize, x: f32| {
        let mut r = row(5);
        r[i] = x;
        r
    };
    vec![
        ("NaN", with(2, f32::NAN)),
        ("+inf", with(0, f32::INFINITY)),
        ("-inf", with(DIM - 1, f32::NEG_INFINITY)),
        ("3-d", row(5)[..DIM - 1].to_vec()),
        ("5-d", [row(5), vec![1.0]].concat()),
        ("empty", Vec::new()),
    ]
}

/// `ShardedIndex::new` over the layout with the default compaction
/// policy, under `catch_unwind`.
fn sharded(
    dim: usize,
    shards: usize,
    backend: &BlockerBackend,
    scan: ScanConfig,
    case: &str,
) -> Result<ShardedIndex> {
    let build = || ShardedIndex::new(dim, shards, backend.clone(), scan, Default::default());
    catch_unwind(AssertUnwindSafe(build))
        .unwrap_or_else(|_| panic!("{case}: ShardedIndex::new panicked"))
}

#[test]
fn hostile_rows_are_typed_errors_that_change_nothing() {
    for (name, backend, scan) in layouts() {
        for shards in [1, 2] {
            let case = format!("{name} × {shards} shard(s)");
            // A width is fixed at construction: no index is born without one.
            let zero = sharded(0, shards, &backend, scan, &case).map(|_| ());
            assert!(
                matches!(zero, Err(ErError::Model(_))),
                "{case}, dim 0: {zero:?}"
            );

            let index = sharded(DIM, shards, &backend, scan, &case).expect("valid layout");
            for id in 0..ROWS {
                assert!(index.insert(EntityId(id), &row(id)).unwrap());
            }
            let before = (index.len(), index.stats());
            for (what, bad) in hostile_rows() {
                // A live id and an absent one: neither replaces nor adds.
                for id in [EntityId(3), EntityId(ROWS + 7)] {
                    let writes = catch_unwind(AssertUnwindSafe(|| {
                        [
                            ("insert", index.insert(id, &bad)),
                            ("upsert", index.upsert(id, &bad)),
                        ]
                    }))
                    .unwrap_or_else(|_| panic!("{case}, {what} row: a write panicked"));
                    for (entry, out) in writes {
                        assert!(
                            matches!(out, Err(ErError::Model(_))),
                            "{case}, {what} row via {entry} of {id:?}: {out:?}"
                        );
                    }
                }
                assert_eq!((index.len(), index.stats()), before, "{case}, {what} row");
            }
        }
    }
}

#[test]
fn an_index_built_over_no_width_admits_no_row() {
    for (name, backend, scan) in layouts() {
        let mut index = AnyIndex::build(EmbeddingMatrix::new(0), &backend, scan).expect("builds");
        for row in [&[1.0, 2.0][..], &[]] {
            let out = catch_unwind(AssertUnwindSafe(|| index.insert_row(row)))
                .unwrap_or_else(|_| panic!("{name}: insert_row of {row:?} panicked"));
            assert!(
                matches!(out, Err(ErError::Model(_))),
                "{name}, {row:?}: {out:?}"
            );
            assert!(index.is_empty(), "{name}, {row:?}");
        }
    }
}
