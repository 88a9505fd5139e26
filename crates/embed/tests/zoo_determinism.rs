//! The zoo's determinism contract: same seed ⇒ bit-identical weights across
//! independent pretrains, save/load round-trips of the ERBF cache are
//! bit-exact for every model, and a damaged cache — or one whose sections
//! are not the WC, GE, FT, BT roster — is retrained rather than trusted.

use er_core::binary::{self, kind, BinReader, BinWriter};
use er_core::ErError;
use er_embed::{LanguageModel, ModelZoo, ZooConfig};

#[test]
fn same_seed_pretrains_are_bit_identical() {
    let config = ZooConfig::tiny();
    let a = ModelZoo::pretrain(None, &config, 42);
    let b = ModelZoo::pretrain(None, &config, 42);
    assert_eq!(a.fingerprint(), b.fingerprint());

    let probe = "golden restaurant 555 downtown plaza";
    for (ma, mb) in a.models().iter().zip(b.models()) {
        assert_eq!(ma.code(), mb.code());
        assert_eq!(
            ma.embed(probe),
            mb.embed(probe),
            "{} diverged across pretrains",
            ma.code()
        );
    }
}

#[test]
fn different_seeds_diverge() {
    let config = ZooConfig::tiny();
    let a = ModelZoo::pretrain(None, &config, 42);
    let b = ModelZoo::pretrain(None, &config, 43);
    assert_ne!(a.fingerprint(), b.fingerprint());
}

#[test]
fn save_load_round_trip_is_bit_exact() {
    let config = ZooConfig::tiny();
    let zoo = ModelZoo::pretrain(None, &config, 42);

    let dir = std::env::temp_dir().join(format!("er-zoo-roundtrip-{}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    let path = dir.join("zoo.erbf");
    zoo.save(&path).unwrap();
    let loaded = ModelZoo::load(&path).unwrap();
    let resaved = dir.join("resaved.erbf");
    loaded.save(&resaved).unwrap();
    let same_bytes = std::fs::read(&path).unwrap() == std::fs::read(&resaved).unwrap();
    std::fs::remove_dir_all(&dir).ok();

    assert!(same_bytes, "re-saving a loaded zoo is byte-identical");
    assert_eq!(zoo.fingerprint(), loaded.fingerprint());
    assert_eq!(zoo.seed(), loaded.seed());
    assert_eq!(zoo.scale(), loaded.scale());
    let probe = "digital kamera 4711 battery";
    for (ma, mb) in zoo.models().iter().zip(loaded.models()) {
        assert_eq!(
            ma.fingerprint(),
            mb.fingerprint(),
            "{} fingerprint",
            ma.code()
        );
        assert_eq!(ma.init_time(), mb.init_time(), "{} init time", ma.code());
        assert_eq!(
            ma.embed(probe),
            mb.embed(probe),
            "{} changed after save/load",
            ma.code()
        );
    }
}

#[test]
fn cached_pretrain_reuses_weights_on_disk() {
    let config = ZooConfig::tiny();
    let dir = std::env::temp_dir().join(format!("er-zoo-cache-{}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();

    let first = ModelZoo::pretrain(Some(&dir), &config, 42);
    let cache = dir.join(format!("{}.erbf", config.cache_stem(42)));
    assert!(cache.is_file(), "pretrain must write its cache");
    let second = ModelZoo::pretrain(Some(&dir), &config, 42);
    assert_eq!(first.fingerprint(), second.fingerprint());

    // A flipped bit is caught; pretrain warns, retrains, and rewrites a
    // cache that loads again.
    let mut bytes = std::fs::read(&cache).unwrap();
    let middle = bytes.len() / 2;
    bytes[middle] ^= 0x10;
    std::fs::write(&cache, &bytes).unwrap();
    assert!(ModelZoo::load(&cache).is_err());
    let third = ModelZoo::pretrain(Some(&dir), &config, 42);
    let reloaded = ModelZoo::load(&cache).map(|zoo| zoo.fingerprint());
    std::fs::remove_dir_all(&dir).ok();

    assert_eq!(third.fingerprint(), first.fingerprint());
    assert_eq!(reloaded.ok(), Some(first.fingerprint()));
}

/// `bytes` re-sealed under a valid checksum with the model sections of
/// `slots` (0 = WC … 3 = BT), in that order, and the header's init times
/// following them: a well-formed container whose roster is wrong.
fn reroster(bytes: &[u8], slots: &[usize]) -> Vec<u8> {
    let container = binary::read_container(bytes, kind::MODEL).unwrap();
    let (head_tag, head) = container.sections[0];
    let mut r = BinReader::new(head);
    let scale = r.get_str().unwrap();
    let seed = r.get_u64().unwrap();
    let init_ns = r.get_u64s(container.sections.len() - 1).unwrap();
    let mut w = BinWriter::new();
    w.put_str(&scale);
    w.put_u64(seed);
    w.put_u64_slice(&slots.iter().map(|&s| init_ns[s]).collect::<Vec<_>>());
    let mut sections = vec![(head_tag, w.into_bytes())];
    for &s in slots {
        let (tag, body) = container.sections[s + 1];
        sections.push((tag, body.to_vec()));
    }
    binary::write_container(kind::MODEL, container.epoch, &sections)
}

#[test]
fn caches_off_the_roster_are_corrupt_and_retrained() {
    let config = ZooConfig::tiny();
    let dir = std::env::temp_dir().join(format!("er-zoo-roster-{}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    let first = ModelZoo::pretrain(Some(&dir), &config, 42);
    let cache = dir.join(format!("{}.erbf", config.cache_stem(42)));
    let bytes = std::fs::read(&cache).unwrap();

    let mut outcomes = Vec::new();
    for (what, slots) in [
        ("without BT", &[0, 1, 2][..]),
        ("WC and GE swapped", &[1, 0, 2, 3][..]),
    ] {
        std::fs::write(&cache, reroster(&bytes, slots)).unwrap();
        let loaded = ModelZoo::load(&cache).map(|zoo| zoo.fingerprint());
        let retrained = ModelZoo::pretrain(Some(&dir), &config, 42).fingerprint();
        let rewritten = ModelZoo::load(&cache).map(|zoo| zoo.fingerprint());
        outcomes.push((what, loaded, retrained, rewritten));
    }
    std::fs::remove_dir_all(&dir).ok();

    for (what, loaded, retrained, rewritten) in outcomes {
        assert!(
            matches!(loaded, Err(ErError::Corrupt(_))),
            "{what}: must be Corrupt at load, got {loaded:?}"
        );
        assert_eq!(retrained, first.fingerprint(), "{what}: pretrain retrains");
        assert_eq!(
            rewritten,
            Ok(first.fingerprint()),
            "{what}: pretrain rewrites a cache that loads"
        );
    }
}
