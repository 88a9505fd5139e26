//! Crash-recovery contract of the durable Resolver (ISSUE 8): a reopened
//! service holds **exactly the committed prefix** of its history —
//! kill-at-any-point is simulated by truncating the write-ahead journal at
//! every byte boundary — and corruption (flipped bits in journal or save)
//! surfaces as typed [`ErError::Corrupt`], never as garbage state or a
//! panic. Epoch rules are pinned: stale journals are discarded, journals
//! newer than the save refuse to load, and journal replay re-derives
//! automatic compactions deterministically.

use er_core::KernelTier;
use er_core::{Embedding, Entity, EntityId, ErError, SerializationMode};
use er_embed::{LanguageModel, ModelCode};
use er_index::{BlockerBackend, Metric, ScanConfig};
use er_serve::{CompactionPolicy, Resolver, ServeConfig};
use std::path::{Path, PathBuf};
use std::time::Duration;

/// The same deterministic toy model the service tests use: character
/// trigrams hashed into a fixed-dim vector.
struct TrigramModel {
    dim: usize,
}

impl LanguageModel for TrigramModel {
    fn code(&self) -> ModelCode {
        ModelCode::FT
    }

    fn dim(&self) -> usize {
        self.dim
    }

    fn init_time(&self) -> Duration {
        Duration::ZERO
    }

    fn embed(&self, text: &str) -> Embedding {
        let mut v = vec![0.0f32; self.dim];
        let chars: Vec<char> = text.chars().collect();
        for w in chars.windows(3) {
            let mut h: u64 = 0xcbf2_9ce4_8422_2325;
            for &c in w {
                h ^= c as u64;
                h = h.wrapping_mul(0x0000_0100_0000_01b3);
            }
            v[(h % self.dim as u64) as usize] += if h & 1 == 0 { 1.0 } else { -1.0 };
        }
        Embedding(v)
    }
}

fn entity(id: u32, name: &str) -> Entity {
    Entity::new(EntityId(id), vec![("name".into(), name.into())])
}

fn fresh_dir(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("er_serve_recovery_{tag}_{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    dir
}

fn single_shard_exact() -> ServeConfig {
    ServeConfig::new()
        .shards(1)
        .backend(BlockerBackend::Exact(Metric::Cosine))
}

/// The mixed mutation history the prefix tests replay: every op is
/// effective (no-ops are never journaled, so an ineffective op would not
/// produce a journal record).
fn apply_op(resolver: &Resolver, op: usize) {
    match op {
        0..=5 => {
            assert!(resolver
                .insert(&entity(op as u32, &format!("record number {op} payload")))
                .unwrap());
        }
        6 => {
            assert!(resolver
                .upsert(&entity(2, "record number two, revised edition"))
                .unwrap());
        }
        7 => {
            assert!(resolver.delete(EntityId(4)).unwrap());
        }
        _ => unreachable!(),
    }
}
const OPS: usize = 8;

#[test]
fn reopen_without_checkpoint_replays_the_whole_journal() {
    let model = TrigramModel { dim: 16 };
    let dir = fresh_dir("replay_all");
    let bytes_live;
    {
        let resolver = Resolver::open(
            &dir,
            &model,
            SerializationMode::SchemaAgnostic,
            ServeConfig::new().shards(3),
        )
        .unwrap();
        for op in 0..OPS {
            apply_op(&resolver, op);
        }
        assert_eq!(resolver.epoch(), 0, "no checkpoint ran");
        bytes_live = resolver.to_bytes();
    }
    let resolver = Resolver::open(
        &dir,
        &model,
        SerializationMode::SchemaAgnostic,
        ServeConfig::new().shards(3),
    )
    .unwrap();
    assert_eq!(resolver.len(), 5, "6 inserts, 1 upsert (replace), 1 delete");
    assert!(!resolver.contains(EntityId(4)), "the delete survived");
    assert_eq!(
        resolver.to_bytes(),
        bytes_live,
        "replayed state is bit-identical to the pre-crash state"
    );
    std::fs::remove_dir_all(&dir).unwrap();
}

#[test]
fn checkpoint_advances_epoch_resets_journals_and_survives_reopen() {
    let model = TrigramModel { dim: 16 };
    let dir = fresh_dir("checkpoint");
    {
        let resolver = Resolver::open(
            &dir,
            &model,
            SerializationMode::SchemaAgnostic,
            ServeConfig::new().shards(2),
        )
        .unwrap();
        for op in 0..6 {
            apply_op(&resolver, op);
        }
        let journaled: u64 = resolver.stats().iter().map(|s| s.journal_len).sum();
        assert_eq!(journaled, 6);
        resolver.checkpoint().unwrap();
        assert_eq!(resolver.epoch(), 1);
        let journaled: u64 = resolver.stats().iter().map(|s| s.journal_len).sum();
        assert_eq!(journaled, 0, "checkpoint folds journals into the save");
        // Post-checkpoint mutations land in the fresh epoch-1 journals.
        apply_op(&resolver, 6);
        apply_op(&resolver, 7);
        let journaled: u64 = resolver.stats().iter().map(|s| s.journal_len).sum();
        assert_eq!(journaled, 2);
    }
    let resolver = Resolver::open(
        &dir,
        &model,
        SerializationMode::SchemaAgnostic,
        ServeConfig::new().shards(2),
    )
    .unwrap();
    assert_eq!(resolver.epoch(), 1, "epoch restored from the save");
    assert_eq!(resolver.len(), 5);
    assert!(!resolver.contains(EntityId(4)));
    assert!(resolver.contains(EntityId(2)));
    std::fs::remove_dir_all(&dir).unwrap();
}

/// Build the reference history once: after each op, record the journal
/// length in bytes (the commit boundary) and the resolver's serialized
/// state. Returns (journal bytes, boundaries, expected state per prefix).
fn committed_history(model: &TrigramModel) -> (Vec<u8>, Vec<u64>, Vec<Vec<u8>>) {
    let dir = fresh_dir("history");
    let journal_path = dir.join("shard-0.jrnl");
    let mut boundaries = Vec::with_capacity(OPS);
    let mut expected = Vec::with_capacity(OPS + 1);
    let journal;
    {
        let resolver = Resolver::open(
            &dir,
            model,
            SerializationMode::SchemaAgnostic,
            single_shard_exact(),
        )
        .unwrap();
        expected.push(resolver.to_bytes());
        for op in 0..OPS {
            apply_op(&resolver, op);
            boundaries.push(std::fs::metadata(&journal_path).unwrap().len());
            expected.push(resolver.to_bytes());
        }
        journal = std::fs::read(&journal_path).unwrap();
    }
    std::fs::remove_dir_all(&dir).unwrap();
    (journal, boundaries, expected)
}

fn open_with_journal<'m>(
    dir: &Path,
    model: &'m TrigramModel,
    journal: &[u8],
) -> er_core::Result<Resolver<'m>> {
    let _ = std::fs::remove_dir_all(dir);
    std::fs::create_dir_all(dir).unwrap();
    std::fs::write(dir.join("shard-0.jrnl"), journal).unwrap();
    Resolver::open(
        dir,
        model,
        SerializationMode::SchemaAgnostic,
        single_shard_exact(),
    )
}

#[test]
fn truncating_the_journal_anywhere_recovers_the_committed_prefix() {
    let model = TrigramModel { dim: 16 };
    let (journal, boundaries, expected) = committed_history(&model);
    let dir = fresh_dir("truncate");
    // Kill-at-any-point: cut the journal at every byte boundary. The
    // reopened state must be byte-identical to the state after the last
    // op whose record fits entirely below the cut — nothing more, nothing
    // less, and never an error (a torn tail is not corruption).
    for cut in 0..=journal.len() {
        let resolver = open_with_journal(&dir, &model, &journal[..cut])
            .unwrap_or_else(|e| panic!("cut at {cut}: torn tails must recover, got {e}"));
        let prefix_ops = boundaries.iter().filter(|&&b| b <= cut as u64).count();
        assert_eq!(
            resolver.to_bytes(),
            expected[prefix_ops],
            "cut at byte {cut} must recover exactly {prefix_ops} committed ops"
        );
    }
    std::fs::remove_dir_all(&dir).unwrap();
}

#[test]
fn flipping_any_journal_bit_is_corrupt_or_a_committed_prefix() {
    let model = TrigramModel { dim: 16 };
    let (journal, _, expected) = committed_history(&model);
    let dir = fresh_dir("flip");
    // A flipped bit must either be detected (typed Corrupt) or be
    // indistinguishable from a torn tail — in which case the recovered
    // state must still be one of the committed prefixes. Garbage states
    // and panics are the two forbidden outcomes.
    for pos in 0..journal.len() {
        for bit in [0, 3, 7] {
            let mut bytes = journal.clone();
            bytes[pos] ^= 1 << bit;
            match open_with_journal(&dir, &model, &bytes) {
                Err(ErError::Corrupt(_)) => {}
                Err(e) => panic!("flip at {pos}/{bit}: expected Corrupt, got {e}"),
                Ok(resolver) => {
                    let state = resolver.to_bytes();
                    assert!(
                        expected.contains(&state),
                        "flip at byte {pos} bit {bit} recovered a state that was \
                         never committed"
                    );
                }
            }
        }
    }
    std::fs::remove_dir_all(&dir).unwrap();
}

#[test]
fn flipping_save_file_bits_is_corrupt_never_garbage() {
    let model = TrigramModel { dim: 16 };
    let dir = fresh_dir("flip_save");
    {
        let resolver = Resolver::open(
            &dir,
            &model,
            SerializationMode::SchemaAgnostic,
            single_shard_exact(),
        )
        .unwrap();
        for op in 0..OPS {
            apply_op(&resolver, op);
        }
        resolver.checkpoint().unwrap();
    }
    let save_path = dir.join("resolver.erbf");
    let save = std::fs::read(&save_path).unwrap();
    for pos in (0..save.len()).step_by(7) {
        let mut bytes = save.clone();
        bytes[pos] ^= 0x10;
        std::fs::write(&save_path, &bytes).unwrap();
        match Resolver::open(
            &dir,
            &model,
            SerializationMode::SchemaAgnostic,
            single_shard_exact(),
        ) {
            Err(ErError::Corrupt(_)) => {}
            Err(e) => panic!("save flip at {pos}: expected Corrupt, got {e}"),
            Ok(_) => panic!("save flip at {pos} loaded silently"),
        }
    }
    std::fs::remove_dir_all(&dir).unwrap();
}

#[test]
fn stale_journal_from_before_the_checkpoint_is_discarded() {
    let model = TrigramModel { dim: 16 };
    let dir = fresh_dir("stale");
    let journal_path = dir.join("shard-0.jrnl");
    let at_checkpoint;
    let pre_checkpoint_journal;
    {
        let resolver = Resolver::open(
            &dir,
            &model,
            SerializationMode::SchemaAgnostic,
            single_shard_exact(),
        )
        .unwrap();
        for op in 0..6 {
            apply_op(&resolver, op);
        }
        pre_checkpoint_journal = std::fs::read(&journal_path).unwrap();
        resolver.checkpoint().unwrap();
        at_checkpoint = resolver.to_bytes();
    }
    // Simulate a crash between the save rename and the journal reset: the
    // epoch-0 journal is still on disk next to the epoch-1 save. Its
    // records are already folded into the save, so recovery must discard
    // it (replaying would double-apply) and keep exactly the save state.
    std::fs::write(&journal_path, &pre_checkpoint_journal).unwrap();
    let resolver = Resolver::open(
        &dir,
        &model,
        SerializationMode::SchemaAgnostic,
        single_shard_exact(),
    )
    .unwrap();
    assert_eq!(resolver.epoch(), 1);
    assert_eq!(resolver.to_bytes(), at_checkpoint);
    let journaled: u64 = resolver.stats().iter().map(|s| s.journal_len).sum();
    assert_eq!(journaled, 0, "the stale journal was rewritten, not resumed");
    std::fs::remove_dir_all(&dir).unwrap();
}

#[test]
fn journal_newer_than_the_save_refuses_to_load() {
    let model = TrigramModel { dim: 16 };
    let dir = fresh_dir("newer");
    {
        let resolver = Resolver::open(
            &dir,
            &model,
            SerializationMode::SchemaAgnostic,
            single_shard_exact(),
        )
        .unwrap();
        for op in 0..6 {
            apply_op(&resolver, op);
        }
        resolver.checkpoint().unwrap();
        apply_op(&resolver, 6);
    }
    // Losing the save while an epoch-1 journal exists means losing
    // checkpointed data — recovery must refuse loudly, not silently
    // restart from the journal alone.
    std::fs::remove_file(dir.join("resolver.erbf")).unwrap();
    match Resolver::open(
        &dir,
        &model,
        SerializationMode::SchemaAgnostic,
        single_shard_exact(),
    ) {
        Err(ErError::Corrupt(msg)) => {
            assert!(msg.contains("stale"), "unexpected message: {msg}");
        }
        other => panic!("expected Corrupt, got {:?}", other.map(|r| r.len())),
    }
    std::fs::remove_dir_all(&dir).unwrap();
}

#[test]
fn replay_rederives_automatic_compaction_bit_identically() {
    let model = TrigramModel { dim: 16 };
    let dir = fresh_dir("autocompact");
    let policy = CompactionPolicy {
        max_deleted_fraction: 0.25,
        min_stored: 16,
    };
    let config = single_shard_exact().compaction(policy);
    let bytes_live;
    {
        let resolver = Resolver::open(
            &dir,
            &model,
            SerializationMode::SchemaAgnostic,
            config.clone(),
        )
        .unwrap();
        for id in 0..40u32 {
            assert!(resolver
                .insert(&entity(id, &format!("auto compact record {id}")))
                .unwrap());
        }
        for id in 0..14u32 {
            assert!(resolver.delete(EntityId(id)).unwrap());
        }
        let stats = &resolver.stats()[0];
        assert!(
            stats.deleted_fraction <= policy.max_deleted_fraction,
            "auto-compaction kept the tombstone fraction below threshold, \
             got {}",
            stats.deleted_fraction
        );
        assert_eq!(resolver.len(), 26);
        bytes_live = resolver.to_bytes();
    }
    // No checkpoint ran: recovery replays all 54 records, re-deriving the
    // same automatic compactions at the same points. The physical state
    // (row layout after compaction) must match bit-for-bit.
    let resolver = Resolver::open(&dir, &model, SerializationMode::SchemaAgnostic, config).unwrap();
    assert_eq!(resolver.to_bytes(), bytes_live);
    std::fs::remove_dir_all(&dir).unwrap();
}

#[test]
fn reopening_under_a_different_layout_is_a_config_error() {
    // Journal replay is only deterministic under the layout that wrote the
    // journals, so a caller asking for another one is told, not ignored.
    let model = TrigramModel { dim: 16 };
    let dir = fresh_dir("layout");
    let mode = SerializationMode::SchemaAgnostic;
    let saved = ServeConfig::new().shards(2);
    {
        let resolver = Resolver::open(&dir, &model, mode.clone(), saved.clone()).unwrap();
        for op in 0..6 {
            apply_op(&resolver, op);
        }
        resolver.checkpoint().unwrap();
    }
    let exact_lanes = saved
        .clone()
        .backend(BlockerBackend::Exact(Metric::Cosine))
        .scan(ScanConfig::with_tier(KernelTier::Lanes));
    let schema_based = SerializationMode::SchemaBased("name".into());
    for (what, mode, config) in [
        ("backend", mode.clone(), exact_lanes),
        ("shards", mode.clone(), saved.clone().shards(3)),
        (
            "compaction",
            mode.clone(),
            saved.clone().compaction(CompactionPolicy::never()),
        ),
        ("mode", schema_based, saved.clone()),
    ] {
        match Resolver::open(&dir, &model, mode, config) {
            Err(ErError::Config(_)) => {}
            other => panic!("{what}: expected Config, got {:?}", other.map(|r| r.len())),
        }
    }
    // The creating layout still reopens, with every record.
    let resolver = Resolver::open(&dir, &model, mode, saved).unwrap();
    assert_eq!(resolver.len(), 6);
    std::fs::remove_dir_all(&dir).unwrap();
}
