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
//! Each mutation is one [`JournalRecord`], and one function,
//! `SegmentSnapshot::apply`, applies it on the live write path and during
//! journal replay alike. The compaction check runs *inside* it, so a
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
    /// A policy that never triggers: tombstoned rows stay stored (and
    /// masked out of every answer) for the life of the shard.
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
    /// Rebuild the live-id map from the insertion history + tombstones:
    /// the load path, and (an empty index, no history) a new shard. Fails
    /// if the history disagrees with the index (two live rows claiming one
    /// id, or a row count mismatch).
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

    /// Top-k over this snapshot's live records, nearest first, in the
    /// backend's own order: equal distances tie-break on row position, not
    /// on id ([`crate::search_snapshots`] imposes the `(distance, id)`
    /// order across shards). The index's query rule applies: a query of
    /// another width than the rows, or with a NaN or ±∞ component, gets no
    /// hits.
    pub fn search(&self, query: &[f32], k: usize) -> Vec<Hit> {
        self.index
            .search_slice(query, k)
            .into_iter()
            .map(|n| Hit::new(self.ids[n.index], n.distance))
            .collect()
    }

    /// Apply one journal record. This is the **only** mutation path —
    /// live writes and journal replay both funnel through it, so the two
    /// produce bit-identical states. Returns what the record's public API
    /// reports (insert: stored; upsert: replaced; delete: existed).
    pub(crate) fn apply(&mut self, rec: &JournalRecord, policy: &CompactionPolicy) -> Result<bool> {
        match rec {
            JournalRecord::Insert { id, row } => {
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
            JournalRecord::Upsert { id, row } => {
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
            JournalRecord::Delete { id } => {
                let existed = match self.rows.remove(&EntityId(*id)) {
                    Some(row) => self.index.delete_row(row),
                    None => false,
                };
                if existed {
                    self.maybe_compact(policy);
                }
                Ok(existed)
            }
        }
    }

    /// Rebuild without tombstoned rows once `policy` says so. The
    /// index-level [`MutableIndex::compact`] preserves live-row order and
    /// returns the new→old mapping, which rebuilds the id history; live
    /// top-k answers are unchanged (bit-identical for exact/LSH,
    /// fresh-batch-build semantics for HNSW).
    fn maybe_compact(&mut self, policy: &CompactionPolicy) {
        if !policy.should_compact(self.index.live_count(), self.index.len()) {
            return;
        }
        let mapping = self.index.compact();
        let ids: Vec<EntityId> = mapping.iter().map(|&old| self.ids[old as usize]).collect();
        let rows = ids.iter().enumerate().map(|(row, &id)| (id, row)).collect();
        self.ids = ids;
        self.rows = rows;
    }
}
