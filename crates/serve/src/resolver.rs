//! The [`Resolver`]: entity resolution as a long-running service.
//!
//! A `Resolver` owns a [`ShardedIndex`] and a reference to one language
//! model + serialization mode (the same pair `embeddings4er::Pipeline`
//! vectorizes with, so an entity embeds bit-identically whether it flows
//! through the batch pipeline or the streaming service). Mutations —
//! [`Resolver::insert`], [`Resolver::upsert`], [`Resolver::delete`] — take
//! `&self` and are legal at any point, including while other threads
//! query: each shard publishes immutable snapshots that queries pin at
//! their start (see `crate::snapshot`).
//!
//! Persistence comes in two flavours:
//!
//! - **Export**: [`Resolver::save`]/[`Resolver::load`] write/read one
//!   `kind::RESOLVER` ERBF container — a point-in-time copy with no
//!   durability obligations.
//! - **Durable**: [`Resolver::open`] binds the resolver to a directory
//!   holding the ERBF save plus one write-ahead journal per shard
//!   (`shard-<i>.jrnl`). Every committed mutation is journaled before it
//!   is applied; on reopen, the journal tail newer than the save is
//!   replayed, so a crash loses at most a torn (uncommitted) record.
//!   [`Resolver::checkpoint`] folds the journals into a fresh save and
//!   advances the epoch.
//!
//! **Epoch rule**: the save's epoch counts completed checkpoints; each
//! journal's header names the epoch it extends. On open, a journal at the
//! save's epoch is replayed; one at an older epoch is stale (crash
//! between the save rename and the journal reset) and is discarded; one
//! at a *newer* epoch means the save file itself is stale — a corruption
//! error, never silent data loss.

use crate::shard::ShardedIndex;
use crate::snapshot::{CompactionPolicy, SegmentSnapshot, ShardStats};
use crate::wal::JournalWriter;
use crate::Hit;
use er_core::binary::{self, kind, BinReader, BinWriter};
use er_core::journal::parse_journal;
use er_core::{Embedding, Entity, EntityId, ErError, Result, SerializationMode};
use er_embed::LanguageModel;
use er_index::{AnyIndex, BlockerBackend, ScanConfig};
use std::path::{Path, PathBuf};
use std::sync::{Arc, Mutex};

mod tag {
    pub const META: u32 = 1;
    pub const SHARDS: u32 = 2;
}

/// File names inside a durable resolver directory.
const SAVE_FILE: &str = "resolver.erbf";
const SAVE_TMP: &str = "resolver.erbf.tmp";

fn journal_file(dir: &Path, shard: usize) -> PathBuf {
    dir.join(format!("shard-{shard}.jrnl"))
}

/// How a [`Resolver`] is laid out: shard count, index backend, and the
/// compaction policy.
#[derive(Debug, Clone)]
pub struct ServeConfig {
    /// Number of hash shards (each an independent index).
    pub shards: usize,
    /// Index backend every shard runs; all shards share the config —
    /// including the seed, which is safe because shards hold disjoint
    /// records.
    pub backend: BlockerBackend,
    /// Kernel tier / quantization for Exact-backend shards. Int8 is
    /// per-row (shard-invariant) and tracks streaming inserts; PQ is
    /// rejected at construction — it needs a trained codebook and the
    /// service starts empty.
    pub scan: ScanConfig,
    /// When shards compact automatically (after deletes/upserts push the
    /// tombstone fraction past the threshold). Persisted with the save so
    /// journal replay re-derives the identical physical state.
    pub compaction: CompactionPolicy,
}

impl ServeConfig {
    /// Start from the defaults (4 shards, HNSW/cosine — the blocker's
    /// default backend — and the default compaction policy).
    pub fn new() -> ServeConfig {
        ServeConfig::default()
    }

    pub fn shards(mut self, shards: usize) -> ServeConfig {
        self.shards = shards;
        self
    }

    pub fn backend(mut self, backend: BlockerBackend) -> ServeConfig {
        self.backend = backend;
        self
    }

    /// Choose the Exact backend's kernel tier / quantization.
    pub fn scan(mut self, scan: ScanConfig) -> ServeConfig {
        self.scan = scan;
        self
    }

    /// Choose when shards compact automatically
    /// ([`CompactionPolicy::never`] restores accumulate-until-manual).
    pub fn compaction(mut self, compaction: CompactionPolicy) -> ServeConfig {
        self.compaction = compaction;
        self
    }

    /// Derive a serving config from a unified [`er_core::OperatingPoint`]
    /// — the single-source-of-truth path: the point's backend and scan
    /// feed both this config and any `TopKConfig` derived from the same
    /// point, so the two can never silently disagree. Shard count and
    /// compaction policy keep their defaults (chain the builder:
    /// `ServeConfig::from_point(&op)?.shards(8)`). Validates the point
    /// (typed [`ErError::Config`] on contradictions).
    pub fn from_point(point: &er_core::OperatingPoint) -> Result<ServeConfig> {
        let blocking = er_blocking::TopKConfig::from_point(point)?;
        Ok(ServeConfig::default()
            .backend(blocking.backend)
            .scan(blocking.scan))
    }
}

/// Reconcile a blocking config and a serving config that are supposed to
/// describe the same run into one [`er_core::OperatingPoint`] — the fix
/// for the config-duplication footgun where `TopKConfig.scan` and
/// `ServeConfig.scan` (or the two backends) silently disagreed. Agreement
/// is judged on the unified form: both configs are lifted and must render
/// the identical canonical JSON (k is taken from the blocking side — the
/// serving side has no k). On disagreement this returns a typed
/// [`ErError::Config`] naming both forms instead of letting one config
/// win silently.
pub fn unified_operating_point(
    blocking: &er_blocking::TopKConfig,
    serve: &ServeConfig,
) -> Result<er_core::OperatingPoint> {
    let from_blocking = er_core::OperatingPoint::from(blocking);
    let serve_as_blocking = er_blocking::TopKConfig {
        k: blocking.k,
        backend: serve.backend.clone(),
        dirty: blocking.dirty,
        scan: serve.scan,
    };
    let from_serve = er_core::OperatingPoint::from(&serve_as_blocking);
    if from_blocking.to_json() != from_serve.to_json() {
        return Err(ErError::Config(format!(
            "blocking and serving configs disagree: blocking resolves to \
             {} but serving to {}",
            from_blocking.to_json(),
            from_serve.to_json()
        )));
    }
    Ok(from_blocking)
}

impl Default for ServeConfig {
    fn default() -> Self {
        ServeConfig {
            shards: 4,
            backend: BlockerBackend::default(),
            scan: ScanConfig::default(),
            compaction: CompactionPolicy::default(),
        }
    }
}

fn mode_to_writer(w: &mut BinWriter, mode: &SerializationMode) {
    match mode {
        SerializationMode::SchemaAgnostic => w.put_u8(0),
        SerializationMode::SchemaBased(attr) => {
            w.put_u8(1);
            w.put_str(attr);
        }
    }
}

fn mode_from_reader(r: &mut BinReader) -> Result<SerializationMode> {
    match r.get_u8()? {
        0 => Ok(SerializationMode::SchemaAgnostic),
        1 => Ok(SerializationMode::SchemaBased(r.get_str()?)),
        other => Err(ErError::Corrupt(format!(
            "unknown serialization mode code {other}"
        ))),
    }
}

/// A streaming entity-resolution service over hash-sharded indices.
pub struct Resolver<'m> {
    model: &'m dyn LanguageModel,
    mode: SerializationMode,
    index: ShardedIndex,
    /// Completed checkpoints (0 until the first [`Resolver::checkpoint`]).
    epoch: Mutex<u64>,
    /// Set by [`Resolver::open`]; `None` for in-memory / export-only use.
    dir: Option<PathBuf>,
}

impl<'m> Resolver<'m> {
    /// An empty in-memory resolver: `config.shards` empty indices sized to
    /// the model's embedding dimension. Errors (see [`ShardedIndex::new`])
    /// for zero shards, a degenerate backend config, quantization on a
    /// non-Exact backend, or PQ quantization (needs a trained codebook,
    /// the service starts empty).
    pub fn new(
        model: &'m dyn LanguageModel,
        mode: SerializationMode,
        config: ServeConfig,
    ) -> Result<Resolver<'m>> {
        Ok(Resolver {
            model,
            mode,
            index: ShardedIndex::new(
                model.dim(),
                config.shards,
                config.backend,
                config.scan,
                config.compaction,
            )?,
            epoch: Mutex::new(0),
            dir: None,
        })
    }

    /// [`Resolver::new`] from a unified [`er_core::OperatingPoint`] —
    /// e.g. the point an `er-tune` autotune run chose. Equivalent to
    /// `Resolver::new(model, mode, ServeConfig::from_point(&point)?)`.
    pub fn with_point(
        model: &'m dyn LanguageModel,
        mode: SerializationMode,
        point: &er_core::OperatingPoint,
    ) -> Result<Resolver<'m>> {
        Resolver::new(model, mode, ServeConfig::from_point(point)?)
    }

    /// Open (or create) a **durable** resolver in `dir`.
    ///
    /// If `dir` holds a save, it is loaded and `mode`/`config` are
    /// ignored — the saved layout (mode, shard count, backend, compaction
    /// policy) is authoritative, which is what makes journal replay
    /// deterministic. Then each shard's journal is examined: records newer
    /// than the save are replayed, torn tails are truncated, stale
    /// journals (older epoch) are discarded, and appends resume where the
    /// committed history ends.
    pub fn open(
        dir: impl AsRef<Path>,
        model: &'m dyn LanguageModel,
        mode: SerializationMode,
        config: ServeConfig,
    ) -> Result<Resolver<'m>> {
        let dir = dir.as_ref();
        std::fs::create_dir_all(dir)?;
        let save_path = dir.join(SAVE_FILE);
        let mut resolver = if save_path.exists() {
            Resolver::from_bytes(&std::fs::read(&save_path)?, model)?
        } else {
            Resolver::new(model, mode, config)?
        };
        resolver.dir = Some(dir.to_path_buf());
        resolver.recover_journals()?;
        Ok(resolver)
    }

    /// Replay + reattach every shard journal against the current epoch.
    fn recover_journals(&self) -> Result<()> {
        let dir = self.dir.as_ref().expect("recover_journals needs a dir");
        let epoch = *self.epoch.lock().expect("resolver epoch lock poisoned");
        for i in 0..self.index.shard_count() {
            let path = journal_file(dir, i);
            let mut resume: Option<(u64, u64)> = None;
            if path.exists() {
                let bytes = std::fs::read(&path)?;
                let parsed = parse_journal(&bytes)?;
                if let Some(header) = &parsed.header {
                    if header.shard != i as u32 {
                        return Err(ErError::Corrupt(format!(
                            "journal {} carries shard id {}, expected {i}",
                            path.display(),
                            header.shard
                        )));
                    }
                    if header.epoch > epoch {
                        return Err(ErError::Corrupt(format!(
                            "journal for shard {i} is at epoch {} but the save is at \
                             epoch {epoch} — the save file is stale",
                            header.epoch
                        )));
                    }
                    if header.epoch == epoch {
                        resume = Some((parsed.committed_bytes as u64, parsed.records.len() as u64));
                        self.index.replay(i, parsed.records)?;
                    }
                    // Older epoch: a crash hit between the save rename and
                    // the journal reset. Its records are already in the
                    // save — discard by rewriting below.
                }
                // No header: a crash tore the first write — rewrite.
            }
            let (writer, len) = match resume {
                Some((committed_bytes, len)) => {
                    (JournalWriter::resume(&path, committed_bytes)?, len)
                }
                None => (JournalWriter::create(&path, i as u32, epoch)?, 0),
            };
            self.index.attach_journal(i, writer, len);
        }
        Ok(())
    }

    /// Fold the journals into a fresh save and advance the epoch: write
    /// the ERBF atomically (temp file + rename), *then* reset every
    /// journal — a crash in between leaves stale journals that the next
    /// [`Resolver::open`] discards. Writes are blocked for the duration;
    /// queries are not. Errors for non-durable resolvers.
    pub fn checkpoint(&self) -> Result<()> {
        let dir = self.dir.as_ref().ok_or_else(|| {
            ErError::Model(
                "er-serve: checkpoint needs a durable resolver — open it with Resolver::open"
                    .into(),
            )
        })?;
        let mut epoch = self.epoch.lock().expect("resolver epoch lock poisoned");
        let next = *epoch + 1;
        self.index.checkpoint_with(next, |snaps| {
            let bytes = self.serialize_snapshots(snaps, next);
            let tmp = dir.join(SAVE_TMP);
            std::fs::write(&tmp, bytes)?;
            std::fs::rename(&tmp, dir.join(SAVE_FILE))?;
            Ok(())
        })?;
        *epoch = next;
        Ok(())
    }

    /// Completed checkpoints (0 for a fresh or export-loaded resolver).
    pub fn epoch(&self) -> u64 {
        *self.epoch.lock().expect("resolver epoch lock poisoned")
    }

    /// The durable directory, when opened via [`Resolver::open`].
    pub fn durable_dir(&self) -> Option<&Path> {
        self.dir.as_deref()
    }

    /// Embed an entity exactly as the batch pipeline would: serialize
    /// under the resolver's mode, then run the model.
    pub fn embed(&self, entity: &Entity) -> Embedding {
        self.model.embed(&entity.serialize(&self.mode))
    }

    /// Insert a new record. `Ok(false)` (nothing stored) if the entity's
    /// id is already live — use [`Resolver::upsert`] to replace.
    pub fn insert(&self, entity: &Entity) -> Result<bool> {
        // Skip the embedding work when the id is already live.
        if self.index.contains(entity.id) {
            return Ok(false);
        }
        let embedding = self.embed(entity);
        self.index.insert(entity.id, embedding.as_slice())
    }

    /// Insert, replacing any live record with the same id. Returns
    /// whether a record was replaced.
    pub fn upsert(&self, entity: &Entity) -> Result<bool> {
        let embedding = self.embed(entity);
        self.index.upsert(entity.id, embedding.as_slice())
    }

    /// Tombstone a record. `Ok(false)` when the id is not live. (Errors
    /// are I/O failures appending to the write-ahead journal.)
    pub fn delete(&self, id: EntityId) -> Result<bool> {
        self.index.delete(id)
    }

    /// Manually compact every shard (see [`ShardedIndex::compact`]).
    pub fn compact(&self) -> Result<()> {
        self.index.compact()
    }

    /// The `k` nearest live records to `entity` (which need not be
    /// stored): embed, scatter across shards, gather-merge.
    pub fn query(&self, entity: &Entity, k: usize) -> Vec<Hit> {
        self.query_embedding(&self.embed(entity), k)
    }

    /// Query with a raw sentence (embedded under the resolver's model).
    pub fn query_text(&self, text: &str, k: usize) -> Vec<Hit> {
        self.query_embedding(&self.model.embed(text), k)
    }

    /// Query with a precomputed embedding.
    pub fn query_embedding(&self, embedding: &Embedding, k: usize) -> Vec<Hit> {
        self.index.search_ids(embedding.as_slice(), k)
    }

    /// Live records across all shards.
    pub fn len(&self) -> usize {
        self.index.shard_sizes().iter().sum()
    }

    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Live records per shard.
    pub fn shard_sizes(&self) -> Vec<usize> {
        self.index.shard_sizes()
    }

    /// Per-shard stats: live/tombstoned counts, deleted fraction, journal
    /// length since the last checkpoint.
    pub fn stats(&self) -> Vec<ShardStats> {
        self.index.stats()
    }

    /// Whether `id` is currently live.
    pub fn contains(&self, id: EntityId) -> bool {
        self.index.contains(id)
    }

    /// The underlying sharded index (vector-level API, shard statistics).
    pub fn index(&self) -> &ShardedIndex {
        &self.index
    }

    pub fn mode(&self) -> &SerializationMode {
        &self.mode
    }

    fn serialize_snapshots(&self, snaps: &[Arc<SegmentSnapshot>], epoch: u64) -> Vec<u8> {
        let mut meta = BinWriter::new();
        meta.put_usize(self.index.dim());
        meta.put_usize(snaps.len());
        mode_to_writer(&mut meta, &self.mode);
        let policy = self.index.compaction_policy();
        meta.put_f32(policy.max_deleted_fraction);
        meta.put_usize(policy.min_stored);
        let mut shards = BinWriter::new();
        for snap in snaps {
            let ids: Vec<u32> = snap.ids.iter().map(|id| id.0).collect();
            shards.put_u32_slice(&ids);
            shards.put_bytes(&snap.index.to_bytes());
        }
        binary::write_container_epoch(
            kind::RESOLVER,
            epoch,
            &[
                (tag::META, meta.into_bytes()),
                (tag::SHARDS, shards.into_bytes()),
            ],
        )
    }

    /// Serialize into one `kind::RESOLVER` container: serving metadata +
    /// every shard's id history and nested index container, stamped with
    /// the current epoch. The shard set is taken under all writer locks,
    /// so the bytes are a mutually consistent point-in-time copy —
    /// deterministic for a given mutation history.
    pub fn to_bytes(&self) -> Vec<u8> {
        let snaps = self.index.consistent_snapshots();
        self.serialize_snapshots(&snaps, self.epoch())
    }

    /// Write [`Resolver::to_bytes`] to a file — a point-in-time **export**
    /// with no journal side effects (journals keep accumulating; use
    /// [`Resolver::checkpoint`] for the durable flow).
    pub fn save(&self, path: impl AsRef<Path>) -> Result<()> {
        Ok(std::fs::write(path, self.to_bytes())?)
    }

    /// Inverse of [`Resolver::to_bytes`]. The model is not part of the
    /// bytes (the zoo cache persists models); it must match the saved
    /// embedding dimension.
    pub fn from_bytes(bytes: &[u8], model: &'m dyn LanguageModel) -> Result<Resolver<'m>> {
        let (epoch, sections) = binary::read_container_epoch(bytes, kind::RESOLVER)?;
        let mut meta = BinReader::new(binary::section(&sections, tag::META, "meta")?);
        let dim = meta.get_usize()?;
        let shard_count = meta.get_usize()?;
        let mode = mode_from_reader(&mut meta)?;
        let policy = CompactionPolicy {
            max_deleted_fraction: meta.get_f32()?,
            min_stored: meta.get_usize()?,
        };
        if shard_count == 0 {
            return Err(ErError::Corrupt("resolver with zero shards".into()));
        }
        if model.dim() != dim {
            return Err(ErError::Model(format!(
                "resolver was saved over {dim}-d embeddings, model {} emits {}-d",
                model.code(),
                model.dim()
            )));
        }
        let mut shards_reader = BinReader::new(binary::section(&sections, tag::SHARDS, "shards")?);
        let mut snapshots = Vec::with_capacity(shard_count);
        for _ in 0..shard_count {
            let ids: Vec<EntityId> = shards_reader
                .get_u32_vec()?
                .into_iter()
                .map(EntityId)
                .collect();
            let index = AnyIndex::from_bytes(shards_reader.get_bytes()?)?;
            snapshots.push(SegmentSnapshot::from_parts(index, ids)?);
        }
        if shards_reader.remaining() != 0 {
            return Err(ErError::Corrupt(format!(
                "{} trailing bytes after the last shard",
                shards_reader.remaining()
            )));
        }
        Ok(Resolver {
            model,
            mode,
            index: ShardedIndex::from_snapshots(snapshots, dim, policy)?,
            epoch: Mutex::new(epoch),
            dir: None,
        })
    }

    /// Load from a file written by [`Resolver::save`] (an export — for
    /// the durable flow, use [`Resolver::open`] on the directory).
    pub fn load(path: impl AsRef<Path>, model: &'m dyn LanguageModel) -> Result<Resolver<'m>> {
        Resolver::from_bytes(&std::fs::read(path)?, model)
    }
}
