//! er-serve — entity resolution as a long-running service (ROADMAP open
//! item 3: the serving arc of the north-star production system).
//!
//! Every other crate in the workspace runs the paper's *batch*
//! experiments: embed a frozen collection, build an index once, block,
//! match. This crate turns the same machinery into a service that
//! survives records arriving, changing and disappearing while queries
//! run:
//!
//! * [`Resolver`] — the service type: streaming [`Resolver::insert`] /
//!   [`Resolver::upsert`] / [`Resolver::delete`] of [`er_core::Entity`]
//!   records (all `&self` — mutations and queries may run concurrently),
//!   with top-k queries legal at any point. Embedding runs through the
//!   same `LanguageModel` + serialization mode the batch pipeline uses,
//!   so a record embeds bit-identically on both paths.
//! * [`ShardedIndex`] — the vector-level half: N hash-routed shards
//!   (FNV-1a over the entity id) of any `er_index` backend, queried
//!   scatter-gather: the per-shard top-k lists are gathered and sorted
//!   once by `(distance, id)`. An N-shard exact search is bit-identical
//!   to a single exact index over the same records.
//! * One published manifest — the index publishes every shard's immutable
//!   [`SegmentSnapshot`] together in one [`Manifest`], which a query pins
//!   with one `Arc` clone; each shard's writer mutates a standby copy and
//!   swaps it into the manifest, so queries never block writes and see
//!   exactly a committed prefix of the index-wide write order
//!   (`crate::shard` has the full contract).
//! * Durability — [`Resolver::open`] binds the service to a directory:
//!   every committed mutation is appended to a per-shard write-ahead
//!   journal (`er_core::journal` layout) before it is applied, and
//!   [`Resolver::checkpoint`] folds the journals into an atomic
//!   epoch-stamped ERBF save. Crash recovery replays exactly the
//!   committed journal prefix, under the layout the save records — a
//!   caller asking for another one gets an `ErError::Config`.
//!   [`Resolver::save`] / [`Resolver::load`] remain as journal-free
//!   point-in-time exports.
//! * Configuration — [`ServeConfig`] is serving layout (shard count,
//!   compaction policy) around the same `BlockerBackend` and `ScanConfig`
//!   values an `er_core::OperatingPoint` holds.
//! * Compaction — tombstoned rows are reclaimed automatically once a
//!   shard crosses its [`CompactionPolicy`] threshold, inside the one
//!   apply path live writes and journal replay share, with live top-k
//!   answers unchanged; [`ShardStats`] reports live/tombstoned/journal
//!   depth per shard.
//!
//! Incremental index mutation itself (HNSW streaming insertion that is
//! bit-identical to batch construction, tombstone-masked search,
//! order-preserving `compact`) lives in `er_index::MutableIndex`; this
//! crate composes it with routing, merging, journaling, and the
//! entity/embedding layer.

pub mod resolver;
pub mod shard;
pub mod snapshot;
mod wal;

pub use resolver::{Resolver, ServeConfig};
// The backend-erased index moved down beside its constructor
// (`er_index::AnyIndex::build`); re-exported under its serving name.
pub use er_index::AnyIndex;
pub use shard::{search_snapshots, Manifest, ShardedIndex};
pub use snapshot::{CompactionPolicy, SegmentSnapshot, ShardStats};

use er_core::EntityId;

/// One query hit: a live record's id and its distance from the query
/// under the backend's metric (lower is closer). The service-level twin
/// of `er_index::Neighbor`, which carries a row position instead — a
/// sharded service has no global row space, so hits are keyed by id.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Hit {
    pub id: EntityId,
    pub distance: f32,
}

impl Hit {
    pub fn new(id: EntityId, distance: f32) -> Hit {
        Hit { id, distance }
    }
}
