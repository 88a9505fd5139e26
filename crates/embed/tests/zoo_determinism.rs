//! The zoo's determinism contract: same seed ⇒ bit-identical weights across
//! independent pretrains, save/load round-trips of the ERBF cache are
//! bit-exact for every model, and a damaged cache is retrained rather than
//! trusted.

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
