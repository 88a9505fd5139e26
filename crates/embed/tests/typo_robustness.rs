//! The mechanical contrast behind the paper's Fig. 3: FastText keeps a
//! typo'd token near its clean form through subword buckets, while GloVe's
//! global dictionary drops OOV tokens to the zero vector — so on every
//! injected-typo pair, FastText's cosine must be strictly higher.

use er_core::rng::rng;
use er_embed::{AnyModel, LanguageModel, ModelCode, ModelZoo, ZooConfig};
use er_text::corpus::inject_typo;
use rand::Rng;

const PAIRS: usize = 10;

/// Pick trained vocabulary words and typo them until the typo is OOV.
fn typo_pairs(ft: &AnyModel, n: usize) -> Vec<(String, String)> {
    let zoo_vocab = match ft {
        AnyModel::Static(m) if ft.code() == ModelCode::FT => m.vocab(),
        _ => panic!("expected the FastText model"),
    };
    let mut r = rng(0xE4);
    let mut pairs = Vec::new();
    for id in 0..zoo_vocab.len() as u32 {
        if pairs.len() == n {
            break;
        }
        let word = zoo_vocab.token(id).to_string();
        // Long-enough alphabetic words give typos that stay recognizably
        // "the same word" to a subword model.
        if word.chars().count() < 6 || !word.chars().all(|c| c.is_ascii_lowercase()) {
            continue;
        }
        for _attempt in 0..20 {
            let pos_seed: u64 = r.gen_range(0..u64::MAX);
            let typo = inject_typo(&word, &mut rng(pos_seed));
            if typo != word && !ft.knows_token(&typo) {
                pairs.push((word, typo));
                break;
            }
        }
    }
    pairs
}

#[test]
fn fasttext_beats_glove_on_every_typo_pair() {
    let zoo = ModelZoo::pretrain(None, &ZooConfig::tiny(), 42);
    let ft = zoo.get(ModelCode::FT);
    let ge = zoo.get(ModelCode::GE);

    let pairs = typo_pairs(ft, PAIRS);
    assert_eq!(
        pairs.len(),
        PAIRS,
        "corpus vocabulary too small to draw {PAIRS} typo pairs"
    );

    for (word, typo) in &pairs {
        let ft_cos = ft.embed(word).cosine(&ft.embed(typo));
        let ge_cos = ge.embed(word).cosine(&ge.embed(typo));
        // GloVe has no subword fallback: the OOV typo embeds to zeros and
        // its cosine collapses to 0.0 exactly.
        assert_eq!(ge_cos, 0.0, "GloVe should zero out the OOV typo {typo:?}");
        assert!(
            ft_cos > ge_cos,
            "FastText must beat GloVe on ({word:?}, {typo:?}): ft={ft_cos} ge={ge_cos}"
        );
        assert!(
            ft_cos > 0.3,
            "FastText should keep {typo:?} near {word:?}, got cosine {ft_cos}"
        );
    }
}
