//! Hash-sharded vector storage with snapshot-swap concurrency and
//! scatter-gather top-k queries.
//!
//! [`ShardedIndex`] fronts N independent [`er_index::MutableIndex`]
//! backends. Records are routed to a shard by an FNV-1a hash of their
//! [`EntityId`] (stable across runs and across save/load).
//!
//! **Snapshot-swap**: each shard keeps two [`SegmentSnapshot`]s — a
//! *published* side that readers clone an `Arc` of (the only reader lock is
//! the clone itself) and a *standby* side owned by the writer. A mutation
//! catches the standby up from the op backlog, probes for no-ops, appends
//! to the write-ahead journal (if attached), applies to the standby, and
//! swaps the sides. Readers never block writers and never observe a
//! half-applied op; a query runs against whatever snapshot was committed
//! when it started. Lock order is always writer → published, so the paths
//! cannot deadlock.
//!
//! **Merge contract**: hits are globally ordered by
//! `(distance.total_cmp, EntityId)`. Each shard's list is put into that
//! order before merging (per-shard backends tie-break on *row* position,
//! which need not agree with id order), so an N-shard exact search returns
//! the bit-identical hit list a single exact index over the same records
//! would — sharding never changes exact results, only distributes them
//! (pinned by the equivalence suite).

use crate::snapshot::{CompactionPolicy, SegmentSnapshot, ShardStats, WriteOp};
use crate::wal::JournalWriter;
use crate::Hit;
use er_core::binary::fnv1a64;
use er_core::journal::JournalRecord;
use er_core::par::{self, SCAN_NS_PER_ELEMENT};
use er_core::{EmbeddingMatrix, EntityId, ErError, Result};
use er_index::{AnyIndex, BlockerBackend, Metric, Neighbor, NnIndex, Ranked, ScanConfig};
use std::cmp::Reverse;
use std::collections::BinaryHeap;
use std::sync::{Arc, Mutex};

/// The writer's half of a shard: the standby snapshot, the ops it is
/// missing (applied to the published side but not yet here), and the
/// write-ahead journal.
#[derive(Debug)]
struct WriterState {
    standby: Arc<SegmentSnapshot>,
    /// Ops applied to the published side since the standby was last caught
    /// up. At most one publish behind, so this holds at most the ops of
    /// one commit — drained at the start of the next.
    backlog: Vec<WriteOp>,
    journal: Option<JournalWriter>,
    journal_len: u64,
}

/// One shard of the serving core: a published snapshot readers clone
/// lock-free, and a writer side that mutates a standby copy and swaps it
/// in. See the module docs for the concurrency contract.
#[derive(Debug)]
pub(crate) struct Shard {
    /// The committed snapshot. Readers hold this lock only long enough to
    /// clone the `Arc`; the writer only long enough to swap two pointers.
    published: Mutex<Arc<SegmentSnapshot>>,
    writer: Mutex<WriterState>,
}

impl Shard {
    /// An empty shard. Every shard is built from the same backend config —
    /// including the seed, which is safe because shards hold disjoint
    /// records, so no cross-shard draw ever compares two streams.
    fn new(backend: &BlockerBackend, dim: usize, scan: ScanConfig) -> Result<Shard> {
        Ok(Shard::from_snapshot(SegmentSnapshot::from_index(
            AnyIndex::build(EmbeddingMatrix::new(dim), backend, scan)?,
        )))
    }

    pub(crate) fn from_snapshot(snapshot: SegmentSnapshot) -> Shard {
        let arc = Arc::new(snapshot);
        Shard {
            published: Mutex::new(Arc::clone(&arc)),
            writer: Mutex::new(WriterState {
                standby: arc,
                backlog: Vec::new(),
                journal: None,
                journal_len: 0,
            }),
        }
    }

    /// The committed snapshot — the reader entry point. The returned `Arc`
    /// stays valid (and immutable) for as long as the caller holds it,
    /// regardless of concurrent writes.
    pub(crate) fn load(&self) -> Arc<SegmentSnapshot> {
        Arc::clone(
            &self
                .published
                .lock()
                .expect("shard published lock poisoned"),
        )
    }

    /// Bring the standby up to date with the published side by applying
    /// the backlog. `Arc::make_mut` clones the payload only when a
    /// straggler reader still holds the snapshot from two publishes ago.
    fn catch_up(w: &mut WriterState, policy: &CompactionPolicy) -> Result<()> {
        if w.backlog.is_empty() {
            return Ok(());
        }
        let backlog = std::mem::take(&mut w.backlog);
        let standby = Arc::make_mut(&mut w.standby);
        for op in &backlog {
            standby.apply(op, policy)?;
        }
        Ok(())
    }

    /// The single mutation path: catch up, probe for no-ops (which are
    /// neither journaled nor published), journal, apply to the standby,
    /// swap the sides. `journal: false` is used for replay (the record is
    /// already on disk).
    pub(crate) fn write(
        &self,
        op: WriteOp,
        policy: &CompactionPolicy,
        journal: bool,
    ) -> Result<bool> {
        let mut w = self.writer.lock().expect("shard writer lock poisoned");
        Shard::catch_up(&mut w, policy)?;
        // No-op probe on the caught-up standby: an insert of a live id, a
        // delete of an absent one, or a compaction with nothing to reclaim
        // changes no state, so it must not reach the journal (replay would
        // then diverge from the live no-op) or publish a new version.
        match &op {
            WriteOp::Record(JournalRecord::Insert { id, .. })
                if w.standby.contains(EntityId(*id)) =>
            {
                return Ok(false)
            }
            WriteOp::Record(JournalRecord::Delete { id }) if !w.standby.contains(EntityId(*id)) => {
                return Ok(false)
            }
            WriteOp::Compact if w.standby.stored() == w.standby.live_count() => return Ok(true),
            _ => {}
        }
        // A compaction is never journaled: it is logically invisible —
        // recovery re-derives any *automatic* compaction deterministically
        // inside `SegmentSnapshot::apply`, and a crash merely loses a
        // manual one (an optimization, never data).
        if let (true, WriteOp::Record(rec), Some(j)) = (journal, &op, w.journal.as_mut()) {
            j.append(rec)?;
            w.journal_len += 1;
        }
        let out = Arc::make_mut(&mut w.standby).apply(&op, policy)?;
        {
            let mut slot = self
                .published
                .lock()
                .expect("shard published lock poisoned");
            std::mem::swap(&mut *slot, &mut w.standby);
        }
        w.backlog.push(op);
        Ok(out)
    }

    pub(crate) fn stats(&self) -> ShardStats {
        let snap = self.load();
        let journal_len = self
            .writer
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
    }

    /// Attach (or replace) the shard's write-ahead journal. `journal_len`
    /// is the number of records already committed in the file (non-zero
    /// when resuming after recovery).
    pub(crate) fn set_journal(&self, journal: JournalWriter, journal_len: u64) {
        let mut w = self.writer.lock().expect("shard writer lock poisoned");
        w.journal = Some(journal);
        w.journal_len = journal_len;
    }
}

/// Scatter-gather top-k over an explicit set of per-shard snapshots: search
/// every shard, then k-way merge the per-shard sorted lists with a
/// `BinaryHeap` that preserves the `(distance, id)` total order.
///
/// The shards are searched through [`er_core::par::fill_chunks`]: on scoped
/// threads only when every worker's shards are predicted to cost more than
/// a thread spawn (live rows × dim × [`SCAN_NS_PER_ELEMENT`]), otherwise
/// inline on the caller's thread. Small shards therefore skip the spawn;
/// the answer is the same either way.
///
/// Public so callers holding a pinned snapshot set (from
/// [`ShardedIndex::snapshots`]) can re-run queries against exactly that
/// committed state, regardless of concurrent writes.
pub fn search_snapshots(snaps: &[Arc<SegmentSnapshot>], query: &[f32], k: usize) -> Vec<Hit> {
    if k == 0 {
        return Vec::new();
    }
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
    // Each heap entry is the current head of one shard's sorted list,
    // ordered by the global `(distance, id)` contract (an id lives on
    // exactly one shard, so the trailing position never decides).
    let head = |shard: usize, pos: usize| {
        per_shard[shard].get(pos).map(|hit| {
            Reverse(Ranked {
                dist: hit.distance,
                id: (hit.id, shard, pos),
            })
        })
    };
    let mut heap: BinaryHeap<_> = (0..per_shard.len()).filter_map(|s| head(s, 0)).collect();
    let mut merged = Vec::with_capacity(k.min(per_shard.iter().map(Vec::len).sum()));
    while merged.len() < k {
        let Some(Reverse(Ranked { dist, id })) = heap.pop() else {
            break;
        };
        let (entity, shard, pos) = id;
        merged.push(Hit::new(entity, dist));
        heap.extend(head(shard, pos + 1));
    }
    merged
}

/// N hash-routed shards behind one `NnIndex`-shaped query surface.
///
/// The vector-level half of the `er-serve` Resolver: callers hand it
/// `(EntityId, row)` pairs; embedding happens a layer up. All mutation
/// methods take `&self` — each shard serializes its own writes internally
/// while readers proceed lock-free on published snapshots.
#[derive(Debug)]
pub struct ShardedIndex {
    shards: Vec<Shard>,
    backend: BlockerBackend,
    dim: usize,
    policy: CompactionPolicy,
}

impl ShardedIndex {
    /// `shards` empty indices of the given backend over `dim`-component
    /// vectors. Errors for zero shards ([`ErError::Model`]) or a backend /
    /// scan config no index can honour (see [`AnyIndex::build`]: degenerate
    /// HNSW/LSH parameters and quantization on a non-Exact backend are
    /// [`ErError::Config`]; PQ, which cannot train on an empty shard, is
    /// [`ErError::Model`]).
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
        let shards = (0..shards)
            .map(|_| Shard::new(&backend, dim, scan))
            .collect::<Result<Vec<_>>>()?;
        Ok(ShardedIndex {
            shards,
            backend,
            dim,
            policy,
        })
    }

    /// Rebuild from per-shard snapshots — the load path.
    pub(crate) fn from_snapshots(
        snapshots: Vec<SegmentSnapshot>,
        dim: usize,
        policy: CompactionPolicy,
    ) -> Result<ShardedIndex> {
        let backend = snapshots
            .first()
            .map(|s| s.index.backend())
            .ok_or_else(|| ErError::Corrupt("sharded index with zero shards".into()))?;
        Ok(ShardedIndex {
            shards: snapshots.into_iter().map(Shard::from_snapshot).collect(),
            backend,
            dim,
            policy,
        })
    }

    /// Which shard an id lives on: FNV-1a over the id's little-endian
    /// bytes, mod shard count. Pure and stable — the routing survives
    /// save/load and is the same on every machine.
    pub fn shard_of(&self, id: EntityId) -> usize {
        (fnv1a64(&id.0.to_le_bytes()) % self.shards.len() as u64) as usize
    }

    pub fn shard_count(&self) -> usize {
        self.shards.len()
    }

    /// Live rows per shard (the observability hook the bench reports).
    pub fn shard_sizes(&self) -> Vec<usize> {
        self.shards.iter().map(|s| s.load().live_count()).collect()
    }

    /// Per-shard stats: live/tombstoned counts, deleted fraction, and
    /// journal length since the last checkpoint.
    pub fn stats(&self) -> Vec<ShardStats> {
        self.shards.iter().map(|s| s.stats()).collect()
    }

    /// Hash-skew factor: the largest shard's live count over the mean
    /// (1.0 = perfectly balanced; `1.0` for an empty index). FNV-1a keeps
    /// this near 1 for uniformly drawn ids; a factor much above ~2 with
    /// many records signals adversarial or degenerate id patterns.
    pub fn skew(&self) -> f32 {
        let sizes = self.shard_sizes();
        let total: usize = sizes.iter().sum();
        if total == 0 {
            return 1.0;
        }
        let mean = total as f32 / sizes.len() as f32;
        let max = sizes.iter().copied().max().unwrap_or(0) as f32;
        max / mean
    }

    pub fn backend(&self) -> &BlockerBackend {
        &self.backend
    }

    pub fn dim(&self) -> usize {
        self.dim
    }

    /// The compaction policy applied after tombstoning ops.
    pub fn compaction_policy(&self) -> CompactionPolicy {
        self.policy
    }

    /// Whether `id` is currently live (in the latest committed snapshot of
    /// its shard).
    pub fn contains(&self, id: EntityId) -> bool {
        self.shards[self.shard_of(id)].load().contains(id)
    }

    fn check_dim(&self, row: &[f32]) -> Result<()> {
        if self.dim != 0 && row.len() != self.dim {
            return Err(ErError::Model(format!(
                "er-serve: record has {} components, index stores {}-dim vectors",
                row.len(),
                self.dim
            )));
        }
        Ok(())
    }

    /// Insert a new record. Returns `Ok(false)` (and stores, journals,
    /// and publishes nothing) if the id is already live — use
    /// [`ShardedIndex::upsert`] to replace.
    pub fn insert(&self, id: EntityId, row: &[f32]) -> Result<bool> {
        self.check_dim(row)?;
        self.shards[self.shard_of(id)].write(
            WriteOp::Record(JournalRecord::Insert {
                id: id.0,
                row: row.to_vec(),
            }),
            &self.policy,
            true,
        )
    }

    /// Insert, replacing any live record with the same id (the old row is
    /// tombstoned first). Returns whether a record was replaced.
    pub fn upsert(&self, id: EntityId, row: &[f32]) -> Result<bool> {
        self.check_dim(row)?;
        self.shards[self.shard_of(id)].write(
            WriteOp::Record(JournalRecord::Upsert {
                id: id.0,
                row: row.to_vec(),
            }),
            &self.policy,
            true,
        )
    }

    /// Tombstone a record. Returns `Ok(false)` when the id is not live.
    /// (Errors are I/O failures appending to the write-ahead journal.)
    pub fn delete(&self, id: EntityId) -> Result<bool> {
        self.shards[self.shard_of(id)].write(
            WriteOp::Record(JournalRecord::Delete { id: id.0 }),
            &self.policy,
            true,
        )
    }

    /// Manually compact every shard, dropping tombstoned rows. Live top-k
    /// answers are unchanged. Not journaled: a compaction lost to a crash
    /// costs storage, never data, and automatic compactions are re-derived
    /// deterministically during replay.
    pub fn compact(&self) -> Result<()> {
        for shard in 0..self.shards.len() {
            self.compact_shard(shard)?;
        }
        Ok(())
    }

    /// Manually compact one shard (see [`ShardedIndex::compact`]).
    pub fn compact_shard(&self, shard: usize) -> Result<()> {
        self.shards[shard].write(WriteOp::Compact, &self.policy, false)?;
        Ok(())
    }

    /// The latest committed snapshot of every shard. Not mutually
    /// consistent across shards (each may advance independently), but each
    /// is individually immutable — pin the set and use
    /// [`search_snapshots`] for repeatable queries.
    pub fn snapshots(&self) -> Vec<Arc<SegmentSnapshot>> {
        self.shards.iter().map(|s| s.load()).collect()
    }

    /// A mutually consistent snapshot set: all shard writers are held
    /// while the published sides are read, so no shard can advance
    /// in between.
    pub(crate) fn consistent_snapshots(&self) -> Vec<Arc<SegmentSnapshot>> {
        let _writers: Vec<_> = self
            .shards
            .iter()
            .map(|s| s.writer.lock().expect("shard writer lock poisoned"))
            .collect();
        self.shards.iter().map(|s| s.load()).collect()
    }

    /// Checkpoint: under every shard's writer lock (taken in index order),
    /// hand the mutually consistent snapshot set to `write` (which
    /// persists it), then reset all journals to `epoch_next`. Writes are
    /// blocked for the duration; readers are not.
    pub(crate) fn checkpoint_with<F>(&self, epoch_next: u64, write: F) -> Result<()>
    where
        F: FnOnce(&[Arc<SegmentSnapshot>]) -> Result<()>,
    {
        let mut writers: Vec<_> = self
            .shards
            .iter()
            .map(|s| s.writer.lock().expect("shard writer lock poisoned"))
            .collect();
        let snaps: Vec<Arc<SegmentSnapshot>> = self.shards.iter().map(|s| s.load()).collect();
        write(&snaps)?;
        for (i, w) in writers.iter_mut().enumerate() {
            if let Some(j) = w.journal.as_mut() {
                j.reset(i as u32, epoch_next)?;
                w.journal_len = 0;
            }
        }
        Ok(())
    }

    /// Re-apply journal records to `shard` without re-journaling them —
    /// the recovery path. Records route-checked against the shard they
    /// claim to belong to.
    pub(crate) fn replay(&self, shard: usize, records: Vec<JournalRecord>) -> Result<()> {
        for rec in records {
            let id = EntityId(rec.id());
            if self.shard_of(id) != shard {
                return Err(ErError::Corrupt(format!(
                    "journal for shard {shard} holds a record for entity id {} \
                     which routes to shard {}",
                    id.0,
                    self.shard_of(id)
                )));
            }
            self.shards[shard].write(WriteOp::Record(rec), &self.policy, false)?;
        }
        Ok(())
    }

    /// Attach a write-ahead journal to `shard`. See [`Shard::set_journal`].
    pub(crate) fn attach_journal(&self, shard: usize, journal: JournalWriter, journal_len: u64) {
        self.shards[shard].set_journal(journal, journal_len);
    }
}

/// The `NnIndex`-shaped query surface: `Neighbor.index` carries the
/// **entity id** (`EntityId.0 as usize`), not a row position — sharding
/// has no global row space. `len()` counts live records.
impl NnIndex for ShardedIndex {
    fn len(&self) -> usize {
        self.shards.iter().map(|s| s.load().live_count()).sum()
    }

    fn metric(&self) -> Metric {
        self.backend.metric()
    }

    fn search_slice(&self, query: &[f32], k: usize) -> Vec<Neighbor> {
        self.search_ids(query, k)
            .into_iter()
            .map(|h| Neighbor::new(h.id.0 as usize, h.distance))
            .collect()
    }
}

impl ShardedIndex {
    /// Scatter-gather top-k over the latest committed snapshots: see
    /// [`search_snapshots`]. Each query pins the snapshot set once at the
    /// start, so concurrent writes cannot tear it.
    pub fn search_ids(&self, query: &[f32], k: usize) -> Vec<Hit> {
        if k == 0 {
            return Vec::new();
        }
        let snaps = self.snapshots();
        search_snapshots(&snaps, query, k)
    }
}
