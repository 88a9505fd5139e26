//! Concurrency stress for the snapshot-swap serving core (ISSUE 8): N
//! scoped reader threads query while one writer inserts, deletes, upserts
//! and compacts. The pinned invariants:
//!
//! 1. **Committed states only** — every snapshot a reader observes carries
//!    a `(version, live-id-set)` pair the writer actually committed; a
//!    half-applied op or a torn live set is a failure.
//! 2. **Monotonicity** — successive loads of one shard never go backwards
//!    in version.
//! 3. **Pinned-snapshot repeatability** — re-running a query against a
//!    pinned snapshot set returns bit-identical hits regardless of
//!    concurrent churn (snapshots are immutable once published).
//! 4. **Quiescent equivalence** — after the churn, scatter-gather search
//!    is bit-identical to a serially rebuilt index over the same live
//!    records (neither concurrency nor compaction history affects
//!    answers).
//!
//! The heavy run is wall-clock-bounded by op count and gated to release
//! builds (the CI `serve-durability` job); a small smoke version runs
//! everywhere.

use er_core::binary::fnv1a64;
use er_core::EntityId;
use er_index::{BlockerBackend, Metric, ScanConfig};
use er_serve::{search_snapshots, CompactionPolicy, ShardedIndex};
use rand::prelude::*;
use std::collections::HashMap;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Mutex;
use std::time::Instant;

const SHARDS: usize = 4;

/// The row stored for `(id, generation)` — deterministic, so the writer,
/// the replayed oracle, and the serial rebuild all agree bit-for-bit.
fn row_for(id: u32, generation: u32, dim: usize) -> Vec<f32> {
    let mut r = er_core::rng::rng(((id as u64) << 32) | generation as u64);
    (0..dim).map(|_| r.gen_range(-1.0..1.0)).collect()
}

fn live_set_hash(ids: &[EntityId]) -> u64 {
    let mut bytes = Vec::with_capacity(ids.len() * 4);
    for id in ids {
        bytes.extend_from_slice(&id.0.to_le_bytes());
    }
    fnv1a64(&bytes)
}

/// One observation a reader made: which shard, which version, and the
/// hash of the live-id set it saw.
type Observation = (usize, u64, u64);

fn run_churn(ops: usize, readers: usize, dim: usize) {
    let index = ShardedIndex::new(
        dim,
        SHARDS,
        BlockerBackend::Exact(Metric::Cosine),
        ScanConfig::default(),
        CompactionPolicy {
            max_deleted_fraction: 0.3,
            min_stored: 32,
        },
    )
    .unwrap();

    // version → live-set hash, per shard. The writer records every state
    // it commits; readers validate their observations against it after
    // the churn (a reader may observe a state moments before the writer
    // records it, so validation is deferred, not inline).
    let committed: Vec<Mutex<HashMap<u64, u64>>> =
        (0..SHARDS).map(|_| Mutex::new(HashMap::new())).collect();
    for shard in &committed {
        shard.lock().unwrap().insert(0, live_set_hash(&[]));
    }
    let done = AtomicBool::new(false);
    let observations: Mutex<Vec<Observation>> = Mutex::new(Vec::new());
    // Live (id, generation) at quiescence, filled in by the writer.
    let final_state: Mutex<HashMap<u32, u32>> = Mutex::new(HashMap::new());

    let started = Instant::now();
    std::thread::scope(|scope| {
        // The writer: seeded churn of inserts/deletes/upserts with
        // periodic manual compactions.
        scope.spawn(|| {
            let mut rng = er_core::rng::rng(97);
            let mut generation: HashMap<u32, u32> = HashMap::new();
            // Writer-side mirror of each shard's committed (version, live
            // set) — the sole mutator can track this exactly. Versions
            // advance once per *effective* op; no-ops never publish.
            let mut versions = vec![0u64; SHARDS];
            let mut shard_live: Vec<Vec<EntityId>> = vec![Vec::new(); SHARDS];
            let mut live: HashMap<u32, u32> = HashMap::new();
            let record = |shard: usize, versions: &mut Vec<u64>, ids: &[EntityId]| {
                versions[shard] += 1;
                let mut sorted = ids.to_vec();
                sorted.sort_unstable_by_key(|id| id.0);
                committed[shard]
                    .lock()
                    .unwrap()
                    .insert(versions[shard], live_set_hash(&sorted));
            };
            for op in 0..ops {
                let id = rng.gen_range(0..200u32);
                let shard = index.shard_of(EntityId(id));
                match op % 7 {
                    // Mostly inserts, some deletes, some upserts.
                    0..=3 => {
                        let gen = *generation.entry(id).or_insert(0);
                        if index.insert(EntityId(id), &row_for(id, gen, dim)).unwrap() {
                            live.insert(id, gen);
                            shard_live[shard].push(EntityId(id));
                            record(shard, &mut versions, &shard_live[shard]);
                        }
                    }
                    4 | 5 => {
                        if index.delete(EntityId(id)).unwrap() {
                            live.remove(&id);
                            shard_live[shard].retain(|e| e.0 != id);
                            record(shard, &mut versions, &shard_live[shard]);
                        }
                    }
                    _ => {
                        let gen = generation.entry(id).or_insert(0);
                        *gen += 1;
                        index.upsert(EntityId(id), &row_for(id, *gen, dim)).unwrap();
                        if live.insert(id, *gen).is_none() {
                            shard_live[shard].push(EntityId(id));
                        }
                        record(shard, &mut versions, &shard_live[shard]);
                    }
                }
                if op % 97 == 96 {
                    // Manual compaction of one shard, interleaved with the
                    // churn. Effective (publishes a version) only when
                    // tombstones exist — the sole mutator can check that
                    // race-free.
                    let target = op % SHARDS;
                    if index.stats()[target].tombstoned > 0 {
                        index.compact_shard(target).unwrap();
                        record(target, &mut versions, &shard_live[target]);
                    }
                }
            }
            *final_state.lock().unwrap() = live;
            done.store(true, Ordering::Release);
        });

        for reader in 0..readers {
            let observations = &observations;
            let done = &done;
            let index = &index;
            scope.spawn(move || {
                let mut rng = er_core::rng::rng(1000 + reader as u64);
                let mut local: Vec<Observation> = Vec::new();
                let mut last_version = [0u64; SHARDS];
                let mut passes = 0usize;
                // At least one pass even if the writer already finished
                // (release builds can drain the op budget in microseconds).
                while passes == 0 || !done.load(Ordering::Acquire) {
                    passes += 1;
                    let snaps = index.snapshots();
                    for (shard, snap) in snaps.iter().enumerate() {
                        assert!(
                            snap.version() >= last_version[shard],
                            "shard {shard} went backwards: {} after {}",
                            snap.version(),
                            last_version[shard]
                        );
                        last_version[shard] = snap.version();
                        let ids = snap.live_ids();
                        assert_eq!(snap.live_count(), ids.len(), "tombstone bookkeeping tore");
                        local.push((shard, snap.version(), live_set_hash(&ids)));
                    }
                    // Pinned-snapshot repeatability under churn.
                    let query: Vec<f32> = (0..dim).map(|_| rng.gen_range(-1.0f32..1.0)).collect();
                    let first = search_snapshots(&snaps, &query, 5);
                    let second = search_snapshots(&snaps, &query, 5);
                    assert_eq!(first.len(), second.len());
                    for (a, b) in first.iter().zip(&second) {
                        assert_eq!(a.id, b.id);
                        assert_eq!(a.distance.to_bits(), b.distance.to_bits());
                    }
                    for hit in &first {
                        assert!(hit.distance.is_finite());
                    }
                }
                observations.lock().unwrap().extend(local);
            });
        }
    });

    // Deferred validation: every state any reader observed must be one
    // the writer committed.
    let observations = observations.into_inner().unwrap();
    assert!(!observations.is_empty());
    for (shard, version, hash) in &observations {
        let map = committed[*shard].lock().unwrap();
        let expected = map.get(version).unwrap_or_else(|| {
            panic!("shard {shard} exposed version {version}, which was never committed")
        });
        assert_eq!(
            expected, hash,
            "shard {shard} version {version}: observed live set differs from \
             the committed one"
        );
    }

    // Quiescent equivalence: scatter-gather over the churned (and
    // compacted) index is bit-identical to a serially rebuilt one holding
    // the same final records — neither the concurrency nor the compaction
    // history changes exact answers.
    let serial = ShardedIndex::new(
        dim,
        SHARDS,
        BlockerBackend::Exact(Metric::Cosine),
        ScanConfig::default(),
        CompactionPolicy::never(),
    )
    .unwrap();
    let final_state = final_state.into_inner().unwrap();
    let mut final_ids: Vec<u32> = final_state.keys().copied().collect();
    final_ids.sort_unstable();
    for &id in &final_ids {
        serial
            .insert(EntityId(id), &row_for(id, final_state[&id], dim))
            .unwrap();
    }
    let mut rng = er_core::rng::rng(7777);
    for _ in 0..20 {
        let query: Vec<f32> = (0..dim).map(|_| rng.gen_range(-1.0f32..1.0)).collect();
        let churned = index.search_ids(&query, 10);
        let clean = serial.search_ids(&query, 10);
        assert_eq!(churned.len(), clean.len());
        for (a, b) in churned.iter().zip(&clean) {
            assert_eq!(a.id, b.id, "hit order diverged from the serial oracle");
            assert_eq!(
                a.distance.to_bits(),
                b.distance.to_bits(),
                "distance drifted from the serial oracle"
            );
        }
    }

    let elapsed = started.elapsed();
    assert!(
        elapsed.as_secs() < 120,
        "stress run exceeded its wall-clock bound: {elapsed:?}"
    );
}

#[test]
fn concurrent_readers_observe_only_committed_snapshots_smoke() {
    run_churn(400, 2, 8);
}

#[test]
#[cfg_attr(
    debug_assertions,
    ignore = "heavy: run in release (CI serve-durability job)"
)]
fn concurrent_readers_observe_only_committed_snapshots_heavy() {
    run_churn(6000, 4, 16);
}
