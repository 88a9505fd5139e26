//! Concurrency stress for the serving core's one published manifest: N
//! scoped reader threads query while one writer inserts, deletes and
//! upserts, its deletes and upserts crossing the compaction threshold as
//! they go (the heavy run requires every shard to compact at least once
//! under the readers). The pinned invariants:
//!
//! 1. **Committed prefixes only** — every manifest a reader pins names its
//!    `seq`, and its per-shard live-id sets must equal the state the writer
//!    committed after exactly `seq` effective ops. A half-applied op, or a
//!    torn cross-shard set (one shard's later write without another
//!    shard's earlier one), is a failure.
//! 2. **Monotonicity** — successive pins by one reader never go backwards
//!    in `seq`.
//! 3. **Real time** — a pin's `seq` lies inside the reader's invoke/return
//!    window, read from the writer's commit counter: `lo ≤ seq ≤ hi + 1`,
//!    where the `+ 1` is the op the writer has published but not yet
//!    counted.
//! 4. **Pinned-manifest repeatability** — re-running a query against a
//!    pinned manifest returns bit-identical hits regardless of concurrent
//!    churn (snapshots are immutable once published).
//! 5. **Quiescent equivalence** — after the churn, scatter-gather search
//!    is bit-identical to a serially rebuilt index over the same live
//!    records (neither concurrency nor compaction history affects
//!    answers).
//!
//! Together, 1–3 check linearizability of the read path directly: the
//! writer's commit log names the one state each `seq` may show.
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
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
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

/// The hash of every shard's live-id set, in shard order.
type LiveSets = [u64; SHARDS];

/// One pin a reader made: its manifest's `seq` and the live sets it saw.
type Observation = (u64, LiveSets);

/// One count per shard.
type ShardCounts = [usize; SHARDS];

/// Run the churn and check invariants 1–5; returns how many automatic
/// compactions each shard ran (a write after which the shard's tombstoned
/// count fell).
fn run_churn(ops: usize, readers: usize, dim: usize) -> ShardCounts {
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

    // The writer's commit log: entry `n` is every shard's live set after
    // its `n`-th effective op (entry 0 is the empty index). Readers
    // validate their observations against it after the churn (a reader
    // may pin a state moments before the writer logs it, so validation is
    // deferred, not inline).
    let history: Mutex<Vec<LiveSets>> = Mutex::new(vec![[live_set_hash(&[]); SHARDS]]);
    // Effective ops the writer has published *and* logged. It publishes op
    // `n + 1` only after storing `n` here.
    let counted = AtomicU64::new(0);
    let done = AtomicBool::new(false);
    let observations: Mutex<Vec<Observation>> = Mutex::new(Vec::new());
    // Live (id, generation) at quiescence, filled in by the writer.
    let final_state: Mutex<HashMap<u32, u32>> = Mutex::new(HashMap::new());
    let compactions: Mutex<ShardCounts> = Mutex::new([0; SHARDS]);

    let started = Instant::now();
    std::thread::scope(|scope| {
        // The writer: seeded churn of inserts/deletes/upserts.
        scope.spawn(|| {
            let mut rng = er_core::rng::rng(97);
            let mut generation: HashMap<u32, u32> = HashMap::new();
            // Writer-side mirror of each shard's live set — the sole
            // mutator can track this exactly. Only *effective* ops commit;
            // no-ops publish nothing.
            let mut shard_live: Vec<Vec<EntityId>> = vec![Vec::new(); SHARDS];
            let mut sets = [live_set_hash(&[]); SHARDS];
            let mut live: HashMap<u32, u32> = HashMap::new();
            let mut tombstoned: ShardCounts = [0; SHARDS];
            let mut compacted: ShardCounts = [0; SHARDS];
            let mut commit = |shard: usize, ids: &[EntityId]| {
                let mut sorted = ids.to_vec();
                sorted.sort_unstable_by_key(|id| id.0);
                sets[shard] = live_set_hash(&sorted);
                let mut log = history.lock().unwrap();
                log.push(sets);
                let n = log.len() as u64 - 1;
                assert_eq!(
                    index.snapshots().seq(),
                    n,
                    "the manifest's seq must count exactly the effective ops"
                );
                counted.store(n, Ordering::SeqCst);
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
                            commit(shard, &shard_live[shard]);
                        }
                    }
                    4 | 5 => {
                        if index.delete(EntityId(id)).unwrap() {
                            live.remove(&id);
                            shard_live[shard].retain(|e| e.0 != id);
                            commit(shard, &shard_live[shard]);
                        }
                    }
                    _ => {
                        let gen = generation.entry(id).or_insert(0);
                        *gen += 1;
                        index.upsert(EntityId(id), &row_for(id, *gen, dim)).unwrap();
                        if live.insert(id, *gen).is_none() {
                            shard_live[shard].push(EntityId(id));
                        }
                        commit(shard, &shard_live[shard]);
                    }
                }
                // Only a compaction lowers a shard's tombstone count.
                let now = index.stats()[shard].tombstoned;
                if now < tombstoned[shard] {
                    compacted[shard] += 1;
                }
                tombstoned[shard] = now;
            }
            *final_state.lock().unwrap() = live;
            *compactions.lock().unwrap() = compacted;
            done.store(true, Ordering::Release);
        });

        for reader in 0..readers {
            let observations = &observations;
            let counted = &counted;
            let done = &done;
            let index = &index;
            scope.spawn(move || {
                let mut rng = er_core::rng::rng(1000 + reader as u64);
                let mut local: Vec<Observation> = Vec::new();
                let mut last_seq = 0u64;
                let mut passes = 0usize;
                // At least one pass even if the writer already finished
                // (release builds can drain the op budget in microseconds).
                while passes == 0 || !done.load(Ordering::Acquire) {
                    passes += 1;
                    let lo = counted.load(Ordering::SeqCst);
                    let manifest = index.snapshots();
                    let hi = counted.load(Ordering::SeqCst);
                    let seq = manifest.seq();
                    assert!(
                        lo <= seq && seq <= hi + 1,
                        "pinned seq {seq} outside the pin's window [{lo}, {}]",
                        hi + 1
                    );
                    assert!(
                        seq >= last_seq,
                        "seq went backwards: {seq} after {last_seq}"
                    );
                    last_seq = seq;
                    let mut sets = [0u64; SHARDS];
                    for (set, snap) in sets.iter_mut().zip(manifest.iter()) {
                        let ids = snap.live_ids();
                        assert_eq!(snap.live_count(), ids.len(), "tombstone bookkeeping tore");
                        *set = live_set_hash(&ids);
                    }
                    local.push((seq, sets));
                    // Pinned-manifest repeatability under churn.
                    let query: Vec<f32> = (0..dim).map(|_| rng.gen_range(-1.0f32..1.0)).collect();
                    let first = search_snapshots(&manifest, &query, 5);
                    let second = search_snapshots(&manifest, &query, 5);
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

    // Deferred validation: every manifest any reader pinned must show
    // exactly the committed prefix its `seq` names.
    let observations = observations.into_inner().unwrap();
    let history = history.into_inner().unwrap();
    assert!(!observations.is_empty());
    for (seq, sets) in &observations {
        let expected = history
            .get(*seq as usize)
            .unwrap_or_else(|| panic!("a reader pinned seq {seq}, which was never committed"));
        for shard in 0..SHARDS {
            assert_eq!(
                expected[shard], sets[shard],
                "seq {seq}: shard {shard}'s observed live set is not the one \
                 committed at that point of the write order"
            );
        }
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
    compactions.into_inner().unwrap()
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
    let compactions = run_churn(6000, 4, 16);
    assert!(
        compactions.iter().all(|&n| n > 0),
        "every shard must compact under concurrent readers: {compactions:?}"
    );
}
