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
use er_index::{AnyIndex, BlockerBackend, NnIndex, ScanConfig};
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

/// How a [`Resolver`] is laid out: shard count, index backend, Exact scan
/// and compaction policy. The backend and scan are the same two values an
/// [`er_core::OperatingPoint`] holds, so serving a point is
/// `ServeConfig::new().backend(p.backend.clone()).scan(p.scan)`.
#[derive(Debug, Clone, PartialEq)]
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

/// A shard index's row width, and its scan when it is an Exact index (the
/// approximate backends carry their tier in their config).
fn shard_shape(index: &AnyIndex) -> (usize, ScanConfig) {
    match index {
        AnyIndex::Exact(i) => (i.matrix().dim(), i.scan_config()),
        AnyIndex::Hnsw(i) => (i.matrix().dim(), ScanConfig::default()),
        AnyIndex::Lsh(i) => (i.matrix().dim(), ScanConfig::default()),
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

    /// Open (or create) a **durable** resolver in `dir`.
    ///
    /// If `dir` holds a save, it is loaded, and its layout (mode, shard
    /// count, backend, Exact scan, compaction policy) must equal `mode` and
    /// `config` — journal replay is only deterministic under the layout
    /// that wrote the journals, so a disagreeing caller gets a typed
    /// [`ErError::Config`] naming both. Then each shard's journal is
    /// examined: records newer than the save are replayed, torn tails are
    /// truncated, stale journals (older epoch) are discarded, and appends
    /// resume where the committed history ends.
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
            let saved = Resolver::from_bytes(&std::fs::read(&save_path)?, model)?;
            let layout = saved.layout();
            if saved.mode != mode || layout != config {
                return Err(ErError::Config(format!(
                    "{} was saved as {:?} under {layout:?}, not {mode:?} under {config:?}",
                    dir.display(),
                    saved.mode
                )));
            }
            saved
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

    /// The layout this resolver runs — what [`Resolver::open`] holds a
    /// caller's config to when a save exists.
    fn layout(&self) -> ServeConfig {
        let snaps = self.index.snapshots();
        ServeConfig {
            shards: snaps.len(),
            backend: self.index.backend().clone(),
            scan: shard_shape(snaps[0].index()).1,
            compaction: self.index.compaction_policy(),
        }
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
        let mut snapshots: Vec<SegmentSnapshot> = Vec::with_capacity(shard_count);
        for i in 0..shard_count {
            let ids: Vec<EntityId> = shards_reader
                .get_u32_vec()?
                .into_iter()
                .map(EntityId)
                .collect();
            let index = AnyIndex::from_bytes(shards_reader.get_bytes()?)?;
            // Every shard must hold META's row width (kernels only
            // debug-assert lengths) and share shard 0's backend.
            let rows_dim = shard_shape(&index).0;
            if !index.is_empty() && rows_dim != dim {
                return Err(ErError::Corrupt(format!(
                    "shard {i} stores {rows_dim}-d rows, the resolver {dim}-d"
                )));
            }
            if let Some(first) = snapshots.first() {
                if index.backend() != first.index.backend() {
                    return Err(ErError::Corrupt(format!(
                        "shard {i} runs {:?}, shard 0 {:?}",
                        index.backend(),
                        first.index.backend()
                    )));
                }
            }
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

#[cfg(test)]
mod tests {
    use super::*;
    use er_core::pq::PqConfig;
    use er_core::{HnswConfig, KernelTier, LshConfig, Metric, Quantization};
    use er_embed::{ModelCode, ModelZoo, ZooConfig};

    #[test]
    fn the_saved_layout_rebuilds_every_config_new_accepts() {
        let zoo = ModelZoo::pretrain(None, &ZooConfig::tiny(), 42);
        let model = zoo.get(ModelCode::FT).as_ref();
        let lanes = KernelTier::Lanes;
        let backends = [
            BlockerBackend::Exact(Metric::Cosine),
            BlockerBackend::Exact(Metric::Euclidean),
            BlockerBackend::default(),
            BlockerBackend::Hnsw(HnswConfig {
                m: 4,
                ef_search: 8,
                tier: lanes,
                ..HnswConfig::default()
            }),
            BlockerBackend::Lsh(LshConfig::default()),
            BlockerBackend::Lsh(LshConfig {
                tables: 3,
                metric: Metric::Euclidean,
                tier: lanes,
                ..LshConfig::default()
            }),
        ];
        let pq = PqConfig::default();
        let scans = [
            ScanConfig::default(),
            ScanConfig::with_tier(lanes),
            ScanConfig {
                tier: lanes,
                quant: Quantization::Int8 { rerank: 5 },
            },
            ScanConfig {
                tier: lanes,
                quant: Quantization::Pq {
                    config: pq,
                    rerank: 5,
                },
            },
        ];
        let mut accepted = 0;
        for backend in &backends {
            for scan in scans {
                for compaction in [CompactionPolicy::default(), CompactionPolicy::never()] {
                    for shards in [1, 3] {
                        let config = ServeConfig {
                            shards,
                            backend: backend.clone(),
                            scan,
                            compaction,
                        };
                        let mode = SerializationMode::SchemaAgnostic;
                        let Ok(resolver) = Resolver::new(model, mode, config.clone()) else {
                            continue;
                        };
                        for id in 0..12u32 {
                            let text = format!("record {id}");
                            resolver
                                .insert(&Entity::new(EntityId(id), vec![("t".into(), text)]))
                                .unwrap();
                        }
                        resolver.delete(EntityId(3)).unwrap();
                        let back = Resolver::from_bytes(&resolver.to_bytes(), model).unwrap();
                        assert_eq!(back.layout(), config);
                        accepted += 1;
                    }
                }
            }
        }
        // Every backend on its default scan, plus the Exact backends'
        // Lanes and Int8 scans (PQ cannot train on an empty shard).
        assert_eq!(accepted, (6 + 2 * 2) * 2 * 2);
    }
}
