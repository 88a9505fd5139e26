//! The immutable unit of the serving core.
//!
//! A [`SegmentSnapshot`] is one shard's complete, self-consistent state:
//! the index (with its tombstone bitmap) and the row ↔ id maps. Snapshots
//! are **immutable once published** — readers reach them through the
//! index's one published [`crate::Manifest`] and search them lock-free for
//! as long as they hold it, while each shard's writer mutates its own
//! *standby* copy (via `Arc::make_mut`, which only physically clones when
//! a straggler reader still holds that copy in an older manifest) and
//! swaps it into the manifest. Every mutation is therefore an atomic
//! all-or-nothing transition: no torn reads, ever.
//!
//! The same `apply_*` functions run on the live write path and during
//! journal replay, and the auto-compaction check runs *inside* them — so a
//! recovered shard re-derives the bit-identical physical state (including
//! HNSW graph layout) that the pre-crash writer built, as long as the
//! [`CompactionPolicy`] persisted alongside the save is used.

use crate::Hit;
use er_core::journal::JournalRecord;
use er_core::{EntityId, ErError, Result};
use er_index::{AnyIndex, IndexReader, MutableIndex, NnIndex};
use std::collections::HashMap;

/// When a shard compacts automatically. The check runs after every delete
/// or upsert (the only ops that create tombstones), inside the
/// deterministic apply path shared by live writes and journal replay.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct CompactionPolicy {
    /// Compact once `tombstoned / stored` exceeds this fraction.
    pub max_deleted_fraction: f32,
    /// Never compact shards storing fewer rows than this — tiny shards
    /// rebuild often and reclaim almost nothing.
    pub min_stored: usize,
}

impl Default for CompactionPolicy {
    fn default() -> Self {
        CompactionPolicy {
            max_deleted_fraction: 0.3,
            min_stored: 64,
        }
    }
}

impl CompactionPolicy {
    /// A policy that never triggers — the pre-snapshot behaviour
    /// (tombstones accumulate until a manual
    /// [`crate::ShardedIndex::compact_shard`]).
    pub fn never() -> CompactionPolicy {
        CompactionPolicy {
            max_deleted_fraction: f32::INFINITY,
            min_stored: usize::MAX,
        }
    }

    /// Whether a shard with `stored` rows of which `live` are not
    /// tombstoned should compact now.
    pub(crate) fn should_compact(&self, live: usize, stored: usize) -> bool {
        stored >= self.min_stored
            && stored > 0
            && (stored - live) as f32 / stored as f32 > self.max_deleted_fraction
    }
}

/// Per-shard observability: the numbers the compaction policy and the
/// (future) rebalancer act on. Returned by `ShardedIndex::stats`.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ShardStats {
    /// Live (searchable) records.
    pub live: usize,
    /// Tombstoned rows still occupying storage.
    pub tombstoned: usize,
    /// `tombstoned / (live + tombstoned)`, 0 for an empty shard.
    pub deleted_fraction: f32,
    /// Records appended to the shard's write-ahead journal since the last
    /// checkpoint (0 when the shard does not journal).
    pub journal_len: u64,
}

/// One mutation, as routed to a shard: a journalable record (carried as
/// the [`JournalRecord`] itself, so the journaled write path and replay
/// hand the same value around without re-packing the row) or a manual
/// compaction. The writer applies ops to its standby side and keeps them
/// in a backlog to catch the other side up after the publish.
#[derive(Debug, Clone)]
pub(crate) enum WriteOp {
    Record(JournalRecord),
    /// Manual compaction. Not journaled: logically invisible (same live
    /// records, same answers), so recovery simply skips it.
    Compact,
}

/// One shard's immutable, searchable state. See the module docs.
#[derive(Debug, Clone)]
pub struct SegmentSnapshot {
    pub(crate) index: AnyIndex,
    /// Row → the entity id inserted at that row (including tombstoned
    /// rows; rebuilt on compaction).
    pub(crate) ids: Vec<EntityId>,
    /// Live entity id → its row.
    pub(crate) rows: HashMap<EntityId, usize>,
}

impl SegmentSnapshot {
    pub(crate) fn from_index(index: AnyIndex) -> SegmentSnapshot {
        SegmentSnapshot {
            index,
            ids: Vec::new(),
            rows: HashMap::new(),
        }
    }

    /// Rebuild the live-id map from the insertion history + tombstones —
    /// the load path. Fails if the history disagrees with the index (two
    /// live rows claiming one id, or a row count mismatch).
    pub(crate) fn from_parts(index: AnyIndex, ids: Vec<EntityId>) -> Result<SegmentSnapshot> {
        if ids.len() != index.len() {
            return Err(ErError::Corrupt(format!(
                "shard id history covers {} rows, index stores {}",
                ids.len(),
                index.len()
            )));
        }
        let mut rows = HashMap::new();
        for (row, &id) in ids.iter().enumerate() {
            if !index.is_deleted(row) && rows.insert(id, row).is_some() {
                return Err(ErError::Corrupt(format!(
                    "shard holds two live rows for entity id {}",
                    id.0
                )));
            }
        }
        Ok(SegmentSnapshot { index, ids, rows })
    }

    /// Live (searchable) records in this snapshot.
    pub fn live_count(&self) -> usize {
        self.index.live_count()
    }

    /// Stored rows, tombstones included.
    pub(crate) fn stored(&self) -> usize {
        self.index.len()
    }

    /// Whether `id` is live in this snapshot.
    pub fn contains(&self, id: EntityId) -> bool {
        self.rows.contains_key(&id)
    }

    /// The underlying index (read-only).
    pub(crate) fn index(&self) -> &AnyIndex {
        &self.index
    }

    /// The live entity ids in this snapshot, sorted ascending. An
    /// observability hook — and the stress suite's witness that every
    /// observed snapshot is a committed state.
    pub fn live_ids(&self) -> Vec<EntityId> {
        let mut ids: Vec<EntityId> = self.rows.keys().copied().collect();
        ids.sort_unstable_by_key(|id| id.0);
        ids
    }

    /// Top-k over this snapshot's live records, ordered by the global
    /// `(distance, id)` merge contract. The index's query rule applies: a
    /// query of another width than the rows, or with a NaN or ±∞
    /// component, gets no hits.
    pub fn search(&self, query: &[f32], k: usize) -> Vec<Hit> {
        let mut hits: Vec<Hit> = self
            .index
            .search_slice(query, k)
            .into_iter()
            .map(|n| Hit {
                id: self.ids[n.index],
                distance: n.distance,
            })
            .collect();
        // Re-order by (distance, id): backends tie-break equal distances
        // on row position, which need not agree with id order — the merge
        // contract requires id order.
        hits.sort_by(|a, b| {
            a.distance
                .total_cmp(&b.distance)
                .then_with(|| a.id.0.cmp(&b.id.0))
        });
        hits
    }

    /// Apply one op. This is the **only** mutation path — live writes and
    /// journal replay both funnel through it, so the two produce
    /// bit-identical states. Returns what the op's public API reports
    /// (insert: stored; upsert: replaced; delete: existed).
    pub(crate) fn apply(&mut self, op: &WriteOp, policy: &CompactionPolicy) -> Result<bool> {
        match op {
            WriteOp::Record(JournalRecord::Insert { id, row }) => {
                let id = EntityId(*id);
                if self.rows.contains_key(&id) {
                    return Ok(false);
                }
                let row_idx = self.index.insert_row(row)?;
                debug_assert_eq!(row_idx, self.ids.len());
                self.ids.push(id);
                self.rows.insert(id, row_idx);
                Ok(true)
            }
            WriteOp::Record(JournalRecord::Upsert { id, row }) => {
                let id = EntityId(*id);
                let replaced = match self.rows.remove(&id) {
                    Some(old_row) => {
                        self.index.delete_row(old_row);
                        true
                    }
                    None => false,
                };
                let row_idx = self.index.insert_row(row)?;
                self.ids.push(id);
                self.rows.insert(id, row_idx);
                if replaced {
                    self.maybe_compact(policy);
                }
                Ok(replaced)
            }
            WriteOp::Record(JournalRecord::Delete { id }) => {
                let existed = match self.rows.remove(&EntityId(*id)) {
                    Some(row) => self.index.delete_row(row),
                    None => false,
                };
                if existed {
                    self.maybe_compact(policy);
                }
                Ok(existed)
            }
            WriteOp::Compact => {
                self.compact();
                Ok(true)
            }
        }
    }

    fn maybe_compact(&mut self, policy: &CompactionPolicy) {
        if policy.should_compact(self.index.live_count(), self.index.len()) {
            self.compact();
        }
    }

    /// Rebuild without tombstoned rows. The index-level
    /// [`MutableIndex::compact`] preserves live-row order and returns the
    /// new→old mapping, which rebuilds the id history; live top-k answers
    /// are unchanged (bit-identical for exact/LSH, fresh-batch-build
    /// semantics for HNSW).
    pub(crate) fn compact(&mut self) {
        let mapping = self.index.compact();
        let ids: Vec<EntityId> = mapping.iter().map(|&old| self.ids[old as usize]).collect();
        let rows = ids.iter().enumerate().map(|(row, &id)| (id, row)).collect();
        self.ids = ids;
        self.rows = rows;
    }
}
