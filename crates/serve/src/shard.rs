//! Hash-sharded vector storage with one published manifest and
//! scatter-gather top-k queries.
//!
//! [`ShardedIndex`] fronts N independent [`er_index::MutableIndex`]
//! backends. Records are routed to a shard by an FNV-1a hash of their
//! [`EntityId`] (stable across runs and across save/load).
//!
//! **One manifest**: the index publishes every shard's committed
//! [`SegmentSnapshot`] together, in one [`Manifest`] behind one mutex. A
//! reader pins all shards with that one lock and one `Arc` clone, held
//! only for the clone. Each shard's writer owns a *standby* snapshot behind
//! its own mutex, the other side of a left-right pair with the shard's
//! manifest slot, kept in step through a backlog of journal records so
//! that a write costs O(row) rather than a shard clone. Every mutation is
//! one [`JournalRecord`]: the writer catches the standby up, probes for
//! no-ops, appends the record to the write-ahead journal (if attached),
//! applies it to the standby, then swaps the standby into its manifest
//! slot and bumps the manifest's `seq` under the publish lock. A query
//! therefore sees exactly a committed prefix of the index-wide write
//! order: never a half-applied write, and never one shard's later write
//! without another shard's earlier one. Readers never block writers. Lock order is always
//! writer → published, so the paths cannot deadlock.
//!
//! **Merge contract**: hits are globally ordered by
//! `(distance.total_cmp, EntityId)`, imposed once, on the gathered
//! per-shard lists (per-shard backends tie-break on *row* position, which
//! need not agree with id order). An N-shard exact search therefore
//! returns the bit-identical hit list a single exact index over the same
//! records would — sharding never changes exact results, only distributes
//! them (pinned by the equivalence suite).

use crate::snapshot::{CompactionPolicy, SegmentSnapshot, ShardStats};
use crate::wal::JournalWriter;
use crate::Hit;
use er_core::binary::fnv1a64;
use er_core::journal::JournalRecord;
use er_core::par::{self, SCAN_NS_PER_ELEMENT};
use er_core::{EmbeddingMatrix, EntityId, ErError, Result};
use er_index::{AnyIndex, BlockerBackend, ScanConfig};
use std::ops::Deref;
use std::sync::{Arc, Mutex};

/// One committed state of the whole index: every shard's snapshot after
/// the first `seq` effective writes of the index-wide write order. Derefs
/// to the per-shard snapshots, in shard order.
#[derive(Debug, Clone)]
pub struct Manifest {
    seq: u64,
    shards: Box<[Arc<SegmentSnapshot>]>,
}

impl Manifest {
    /// How many effective writes, index-wide, this manifest includes — the
    /// committed state a reader can name. No-ops publish nothing and do
    /// not count.
    pub fn seq(&self) -> u64 {
        self.seq
    }
}

impl Deref for Manifest {
    type Target = [Arc<SegmentSnapshot>];

    fn deref(&self) -> &[Arc<SegmentSnapshot>] {
        &self.shards
    }
}

/// One shard's writer: the standby snapshot, the records it is missing
/// (published but not yet applied here), and the write-ahead journal.
#[derive(Debug)]
struct WriterState {
    standby: Arc<SegmentSnapshot>,
    /// Records published since the standby was last caught up. At most one
    /// publish behind, so this holds at most the record of one commit —
    /// drained at the start of the next.
    backlog: Vec<JournalRecord>,
    journal: Option<JournalWriter>,
    journal_len: u64,
}

impl WriterState {
    /// Bring the standby up to date with the published side by applying
    /// the backlog. `Arc::make_mut` clones the payload only when a
    /// straggler reader still holds a manifest from before the last
    /// publish of this shard.
    fn catch_up(&mut self, policy: &CompactionPolicy) -> Result<()> {
        if self.backlog.is_empty() {
            return Ok(());
        }
        let backlog = std::mem::take(&mut self.backlog);
        let standby = Arc::make_mut(&mut self.standby);
        for rec in &backlog {
            standby.apply(rec, policy)?;
        }
        Ok(())
    }
}

/// Scatter-gather top-k over an explicit set of per-shard snapshots: search
/// every shard for its top `k`, then sort the gathered hits by
/// `(distance.total_cmp, id)` and keep the first `k`. Ids are unique
/// across shards, so that order is total.
///
/// The shards are searched through [`er_core::par::fill_chunks`]: on scoped
/// threads only when every worker's shards are predicted to cost more than
/// a thread spawn (live rows × dim × [`SCAN_NS_PER_ELEMENT`]), otherwise
/// inline on the caller's thread. Small shards therefore skip the spawn;
/// the answer is the same either way.
///
/// **Query rule**: every shard answers by its index's query rule, checked
/// at the index's search entry (`er_index::IndexReader::search_counted`):
/// a query whose width differs from the shard's rows, or with a NaN or ±∞
/// component, gets no hits from it, and neither does `k = 0` — the
/// read-side mirror of the write path's row check.
///
/// Public so callers holding a pinned [`Manifest`] (from
/// [`ShardedIndex::snapshots`]) can re-run queries against exactly that
/// committed state, regardless of concurrent writes.
pub fn search_snapshots(snaps: &[Arc<SegmentSnapshot>], query: &[f32], k: usize) -> Vec<Hit> {
    let mut per_shard: Vec<Vec<Hit>> = vec![Vec::new(); snaps.len()];
    par::fill_chunks(
        &mut per_shard,
        1,
        |shards| {
            let rows: usize = snaps[shards].iter().map(|s| s.live_count()).sum();
            (rows * query.len()) as f64 * SCAN_NS_PER_ELEMENT
        },
        |shards, slots| {
            for (snap, slot) in snaps[shards].iter().zip(slots) {
                *slot = snap.search(query, k);
            }
        },
    );
    let mut merged = per_shard.concat();
    merged.sort_unstable_by(|a, b| {
        a.distance
            .total_cmp(&b.distance)
            .then_with(|| a.id.0.cmp(&b.id.0))
    });
    merged.truncate(k);
    merged
}

/// N hash-routed shards behind one published [`Manifest`].
///
/// The vector-level half of the `er-serve` Resolver: callers hand it
/// `(EntityId, row)` pairs; embedding happens a layer up. All mutation
/// methods take `&self` — each shard serializes its own writes internally
/// while readers proceed lock-free on the published manifest.
#[derive(Debug)]
pub struct ShardedIndex {
    /// The committed manifest. Readers hold this lock only long enough to
    /// clone the `Arc`; a writer only long enough to swap one slot.
    published: Mutex<Arc<Manifest>>,
    /// One writer per shard, each behind its own lock: writes to different
    /// shards prepare in parallel and meet only at the publish.
    writers: Box<[Mutex<WriterState>]>,
    dim: usize,
    policy: CompactionPolicy,
}

impl ShardedIndex {
    /// `shards` empty indices of the given backend over `dim`-component
    /// vectors. Errors for zero shards or `dim == 0` ([`ErError::Model`]:
    /// an index's width is fixed when it is built) or a backend /
    /// scan config no index can honour (see [`AnyIndex::build`]: degenerate
    /// HNSW/LSH parameters and quantization on a non-Exact backend are
    /// [`ErError::Config`]; PQ, which cannot train on an empty shard, is
    /// [`ErError::Model`]). Every shard is built from the same backend
    /// config — including the seed, which is safe because shards hold
    /// disjoint records, so no cross-shard draw ever compares two streams.
    pub fn new(
        dim: usize,
        shards: usize,
        backend: BlockerBackend,
        scan: ScanConfig,
        policy: CompactionPolicy,
    ) -> Result<ShardedIndex> {
        if shards == 0 {
            return Err(ErError::Model("need at least one shard".into()));
        }
        if dim == 0 {
            return Err(ErError::Model("need at least one vector component".into()));
        }
        let snapshots = (0..shards)
            .map(|_| {
                let index = AnyIndex::build(EmbeddingMatrix::new(dim), &backend, scan)?;
                SegmentSnapshot::from_parts(index, Vec::new())
            })
            .collect::<Result<Vec<_>>>()?;
        Ok(ShardedIndex::from_snapshots(snapshots, dim, policy))
    }

    /// Rebuild from per-shard snapshots (at least one, every one over
    /// `dim`-wide rows) — the load path. They are published as manifest 0,
    /// each shared with its shard's writer as the standby until the first
    /// write diverges them.
    pub(crate) fn from_snapshots(
        snapshots: Vec<SegmentSnapshot>,
        dim: usize,
        policy: CompactionPolicy,
    ) -> ShardedIndex {
        debug_assert!(!snapshots.is_empty());
        debug_assert!(snapshots.iter().all(|s| s.index.matrix().dim() == dim));
        let shards: Box<[Arc<SegmentSnapshot>]> = snapshots.into_iter().map(Arc::new).collect();
        let writers = shards
            .iter()
            .map(|snap| {
                Mutex::new(WriterState {
                    standby: Arc::clone(snap),
                    backlog: Vec::new(),
                    journal: None,
                    journal_len: 0,
                })
            })
            .collect();
        ShardedIndex {
            published: Mutex::new(Arc::new(Manifest { seq: 0, shards })),
            writers,
            dim,
            policy,
        }
    }

    /// Which shard an id lives on: FNV-1a over the id's little-endian
    /// bytes, mod shard count. Pure and stable — the routing survives
    /// save/load and is the same on every machine.
    pub fn shard_of(&self, id: EntityId) -> usize {
        (fnv1a64(&id.0.to_le_bytes()) % self.writers.len() as u64) as usize
    }

    pub(crate) fn shard_count(&self) -> usize {
        self.writers.len()
    }

    /// Live rows per shard (the observability hook the bench reports).
    pub fn shard_sizes(&self) -> Vec<usize> {
        self.snapshots().iter().map(|s| s.live_count()).collect()
    }

    /// Live records across all shards.
    pub fn len(&self) -> usize {
        self.snapshots().iter().map(|s| s.live_count()).sum()
    }

    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Per-shard stats: live/tombstoned counts, deleted fraction, and
    /// journal length since the last checkpoint.
    pub fn stats(&self) -> Vec<ShardStats> {
        let manifest = self.snapshots();
        manifest
            .iter()
            .zip(self.writers.iter())
            .map(|(snap, writer)| {
                let journal_len = writer
                    .lock()
                    .expect("shard writer lock poisoned")
                    .journal_len;
                let stored = snap.stored();
                let live = snap.live_count();
                let tombstoned = stored - live;
                ShardStats {
                    live,
                    tombstoned,
                    deleted_fraction: if stored == 0 {
                        0.0
                    } else {
                        tombstoned as f32 / stored as f32
                    },
                    journal_len,
                }
            })
            .collect()
    }

    pub(crate) fn dim(&self) -> usize {
        self.dim
    }

    /// The compaction policy applied after tombstoning ops.
    pub(crate) fn compaction_policy(&self) -> CompactionPolicy {
        self.policy
    }

    /// Whether `id` is currently live (in the committed manifest).
    pub(crate) fn contains(&self, id: EntityId) -> bool {
        self.snapshots()[self.shard_of(id)].contains(id)
    }

    /// The write-path guard: a row of the index's dimension with only
    /// finite components, checked before anything is journaled or
    /// published (one NaN row would otherwise sit in every later answer).
    /// A caller's row fails as `ErError::Model`, a replayed journal row as
    /// `ErError::Corrupt`: `fail` picks the variant.
    fn check_row(&self, row: &[f32], fail: fn(String) -> ErError) -> Result<()> {
        if row.len() != self.dim {
            return Err(fail(format!(
                "er-serve: record has {} components, index stores {}-dim vectors",
                row.len(),
                self.dim
            )));
        }
        if let Some(bad) = row.iter().position(|x| !x.is_finite()) {
            return Err(fail(format!(
                "er-serve: record component {bad} is {}, vectors must be finite",
                row[bad]
            )));
        }
        Ok(())
    }

    /// The single mutation path: catch the shard's standby up, probe for
    /// no-ops (which are neither journaled nor published), journal the
    /// record if the shard has a journal, apply it to the standby, and
    /// publish it. Replay runs before its shard's journal is attached, so
    /// a replayed record (already on disk) is never journaled twice.
    /// Compaction is never a record of its own: `SegmentSnapshot::apply`
    /// runs it after the delete or upsert that crosses the policy's
    /// threshold, on the live path and in replay alike.
    fn write(&self, shard: usize, rec: JournalRecord) -> Result<bool> {
        let mut w = self.writers[shard]
            .lock()
            .expect("shard writer lock poisoned");
        w.catch_up(&self.policy)?;
        // No-op probe on the caught-up standby: an insert of a live id or
        // a delete of an absent one changes no state, so it must not reach
        // the journal (replay would then diverge from the live no-op) or
        // publish a new manifest.
        match &rec {
            JournalRecord::Insert { id, .. } if w.standby.contains(EntityId(*id)) => {
                return Ok(false)
            }
            JournalRecord::Delete { id } if !w.standby.contains(EntityId(*id)) => return Ok(false),
            _ => {}
        }
        if let Some(j) = w.journal.as_mut() {
            j.append(&rec)?;
            w.journal_len += 1;
        }
        let out = Arc::make_mut(&mut w.standby).apply(&rec, &self.policy)?;
        {
            let mut published = self.published.lock().expect("manifest lock poisoned");
            // In place unless a reader holds the current manifest: that
            // reader keeps its copy, and this publish makes a new one.
            let manifest = Arc::make_mut(&mut published);
            std::mem::swap(&mut manifest.shards[shard], &mut w.standby);
            manifest.seq += 1;
        }
        w.backlog.push(rec);
        Ok(out)
    }

    /// Insert a new record. Returns `Ok(false)` (and stores, journals,
    /// and publishes nothing) if the id is already live — use
    /// [`ShardedIndex::upsert`] to replace.
    pub fn insert(&self, id: EntityId, row: &[f32]) -> Result<bool> {
        self.check_row(row, ErError::Model)?;
        let rec = JournalRecord::Insert {
            id: id.0,
            row: row.to_vec(),
        };
        self.write(self.shard_of(id), rec)
    }

    /// Insert, replacing any live record with the same id (the old row is
    /// tombstoned first). Returns whether a record was replaced.
    pub fn upsert(&self, id: EntityId, row: &[f32]) -> Result<bool> {
        self.check_row(row, ErError::Model)?;
        let rec = JournalRecord::Upsert {
            id: id.0,
            row: row.to_vec(),
        };
        self.write(self.shard_of(id), rec)
    }

    /// Tombstone a record. Returns `Ok(false)` when the id is not live.
    /// (Errors are I/O failures appending to the write-ahead journal.)
    pub fn delete(&self, id: EntityId) -> Result<bool> {
        self.write(self.shard_of(id), JournalRecord::Delete { id: id.0 })
    }

    /// The committed manifest: every shard's snapshot at one point of the
    /// index-wide write order, pinned with one `Arc` clone and immutable
    /// for as long as the caller holds it — use [`search_snapshots`] on it
    /// for repeatable queries.
    pub fn snapshots(&self) -> Arc<Manifest> {
        Arc::clone(&self.published.lock().expect("manifest lock poisoned"))
    }

    /// Checkpoint: under every shard's writer lock (taken in index order),
    /// hand the committed manifest to `write` (which persists it), then
    /// reset all journals to `epoch_next`. The writer locks pair the save
    /// with the journal reset, so writes are blocked for the duration;
    /// readers are not.
    pub(crate) fn checkpoint_with<F>(&self, epoch_next: u64, write: F) -> Result<()>
    where
        F: FnOnce(&[Arc<SegmentSnapshot>]) -> Result<()>,
    {
        let mut writers: Vec<_> = self
            .writers
            .iter()
            .map(|w| w.lock().expect("shard writer lock poisoned"))
            .collect();
        write(&self.snapshots())?;
        for (i, w) in writers.iter_mut().enumerate() {
            if let Some(j) = w.journal.as_mut() {
                j.reset(i as u32, epoch_next)?;
                w.journal_len = 0;
            }
        }
        Ok(())
    }

    /// Re-apply journal records to `shard` — the recovery path, run before
    /// the shard's journal is attached, so nothing is journaled twice.
    /// Records are route-checked against the shard they claim to belong
    /// to, and their rows pass the write path's
    /// [`check_row`](Self::check_row).
    pub(crate) fn replay(&self, shard: usize, records: Vec<JournalRecord>) -> Result<()> {
        debug_assert!(
            self.writers[shard]
                .lock()
                .is_ok_and(|w| w.journal.is_none()),
            "replay runs before the shard's journal is attached"
        );
        for rec in records {
            if let JournalRecord::Insert { row, .. } | JournalRecord::Upsert { row, .. } = &rec {
                self.check_row(row, ErError::Corrupt)?;
            }
            let id = EntityId(rec.id());
            if self.shard_of(id) != shard {
                return Err(ErError::Corrupt(format!(
                    "journal for shard {shard} holds a record for entity id {} \
                     which routes to shard {}",
                    id.0,
                    self.shard_of(id)
                )));
            }
            self.write(shard, rec)?;
        }
        Ok(())
    }

    /// Attach (or replace) the write-ahead journal of `shard`.
    /// `journal_len` is the number of records already committed in the
    /// file (non-zero when resuming after recovery).
    pub(crate) fn attach_journal(&self, shard: usize, journal: JournalWriter, journal_len: u64) {
        let mut w = self.writers[shard]
            .lock()
            .expect("shard writer lock poisoned");
        w.journal = Some(journal);
        w.journal_len = journal_len;
    }

    /// Scatter-gather top-k over the committed manifest: see
    /// [`search_snapshots`] for the query rule (a wrong-width or non-finite
    /// query returns no hits). Each query pins the manifest once at the
    /// start, so concurrent writes cannot tear it.
    pub fn search_ids(&self, query: &[f32], k: usize) -> Vec<Hit> {
        search_snapshots(&self.snapshots(), query, k)
    }
}
