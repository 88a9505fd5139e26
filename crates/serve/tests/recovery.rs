//! Crash-recovery contract of the durable Resolver (ISSUE 8): a reopened
//! service holds **exactly the committed prefix** of its history —
//! kill-at-any-point is simulated by truncating the write-ahead journal at
//! every byte boundary — and corruption (flipped bits in journal or save)
//! surfaces as typed [`ErError::Corrupt`], never as garbage state or a
//! panic. Epoch rules are pinned: stale journals are discarded, journals
//! newer than the save refuse to load, and journal replay re-derives
//! automatic compactions deterministically. A replayed row that is not
//! finite or not of the index's width is [`ErError::Corrupt`]. A directory
//! reopened under another model than the one that wrote it is an
//! [`ErError::Model`].

use er_core::binary::{self, kind};
use er_core::journal::{header_to_bytes, record_to_bytes, JournalRecord};
use er_core::KernelTier;
use er_core::{Embedding, Entity, EntityId, ErError, SerializationMode};
use er_embed::{LanguageModel, ModelCode, ModelZoo, ZooConfig};
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

    fn fingerprint(&self) -> u64 {
        0x7269_6772_616d
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
fn a_journal_row_that_is_not_finite_or_of_the_wrong_width_is_corrupt() {
    let model = TrigramModel { dim: 16 };
    let dir = fresh_dir("bad_rows");
    let journal = |second_row: Vec<f32>| {
        let mut bytes = header_to_bytes(0, 0).to_vec();
        for (id, row) in [(0, vec![0.5; 16]), (1, second_row)] {
            bytes.extend(record_to_bytes(&JournalRecord::Insert { id, row }));
        }
        bytes
    };
    let with = |bad: f32| {
        let mut row = vec![0.5; 16];
        row[7] = bad;
        row
    };
    let control = open_with_journal(&dir, &model, &journal(vec![0.25; 16])).map(|r| r.len());
    assert_eq!(
        control,
        Ok(2),
        "the crafted journal replays when its rows are sound"
    );
    for (what, row) in [
        ("NaN", with(f32::NAN)),
        ("+inf", with(f32::INFINITY)),
        ("-inf", with(f32::NEG_INFINITY)),
        ("15 components", vec![0.5; 15]),
        ("17 components", vec![0.5; 17]),
    ] {
        match open_with_journal(&dir, &model, &journal(row)) {
            Err(ErError::Corrupt(_)) => {}
            other => panic!("{what}: expected Corrupt, got {:?}", other.map(|r| r.len())),
        }
    }
    std::fs::remove_dir_all(&dir).unwrap();
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
    // Every bit of the header — including `section_count`, which the
    // checksum does not cover — then a strided sweep over the payload.
    let header_bits = (0..binary::HEADER_LEN * 8).map(|bit| (bit / 8, 1u8 << (bit % 8)));
    let strided = (0..save.len()).step_by(7).map(|pos| (pos, 0x10));
    for (pos, mask) in header_bits.chain(strided) {
        let mut bytes = save.clone();
        bytes[pos] ^= mask;
        std::fs::write(&save_path, &bytes).unwrap();
        match Resolver::open(
            &dir,
            &model,
            SerializationMode::SchemaAgnostic,
            single_shard_exact(),
        ) {
            Err(ErError::Corrupt(_)) => {}
            Err(e) => panic!("save flip {mask:#04x} at {pos}: expected Corrupt, got {e}"),
            Ok(_) => panic!("save flip {mask:#04x} at {pos} loaded silently"),
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

#[test]
fn reopening_under_a_different_model_is_a_model_error() {
    // WC, GE and FT are all 48-d: only the saved fingerprint tells a
    // FastText save from a GloVe one.
    let config = ZooConfig::tiny();
    let zoo = ModelZoo::pretrain(None, &config, 42);
    let (ft, ge) = (
        zoo.get(ModelCode::FT).as_ref(),
        zoo.get(ModelCode::GE).as_ref(),
    );
    let mode = SerializationMode::SchemaAgnostic;
    let (saved, crashed) = (fresh_dir("model_saved"), fresh_dir("model_crashed"));
    for (dir, checkpoint) in [(&saved, true), (&crashed, false)] {
        let resolver = Resolver::open(dir, ft, mode.clone(), ServeConfig::new()).unwrap();
        for op in 0..6 {
            apply_op(&resolver, op);
        }
        if checkpoint {
            resolver.checkpoint().unwrap();
        }
        // Without a checkpoint, a crash leaves the epoch-0 save beside the
        // journals.
    }
    let bytes = std::fs::read(saved.join("resolver.erbf")).unwrap();
    assert!(matches!(
        Resolver::from_bytes(&bytes, ge),
        Err(ErError::Model(_))
    ));
    for dir in [&saved, &crashed] {
        match Resolver::open(dir, ge, mode.clone(), ServeConfig::new()) {
            Err(ErError::Model(msg)) => {
                assert!(msg.contains("FT") && msg.contains("GE"), "{msg}")
            }
            other => panic!("expected Model, got {:?}", other.map(|r| r.len())),
        }
    }

    // A save without the MODEL section names no model and opens under none.
    let container = binary::read_container(&bytes, kind::RESOLVER).unwrap();
    let without_model: Vec<(u32, Vec<u8>)> = container.sections[..2]
        .iter()
        .map(|&(tag, body)| (tag, body.to_vec()))
        .collect();
    let unnamed = binary::write_container(kind::RESOLVER, container.epoch, &without_model);
    for model in [ge, ft] {
        assert!(matches!(
            Resolver::from_bytes(&unnamed, model),
            Err(ErError::Corrupt(_))
        ));
    }

    // A zoo re-pretrained from the same seed is the same model.
    let again = ModelZoo::pretrain(None, &config, 42);
    for dir in [&saved, &crashed] {
        let ft = again.get(ModelCode::FT).as_ref();
        let resolver = Resolver::open(dir, ft, mode.clone(), ServeConfig::new()).unwrap();
        assert_eq!(resolver.len(), 6);
        std::fs::remove_dir_all(dir).unwrap();
    }
}
