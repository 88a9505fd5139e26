//! Whitespace + punctuation word tokenizer (shared by all static models
//! and the mean-pooling sentence embedder).

use crate::normalize::normalize;

/// The reserved masking token for MLM pre-training (DESIGN.md row 7).
///
/// It contains `[`/`]`, which [`normalize`] strips, so [`tokenize`] can
/// never emit it from real text — the MLM objective's mask can't collide
/// with a genuine corpus token. Vocabularies that support dynamic models
/// append it as a special entry (`er_embed::Vocab::with_special`).
pub const MASK_TOKEN: &str = "[mask]";

/// The words of an already-[`normalize`]d string, borrowed from it — the
/// one split rule behind [`tokenize`].
pub fn tokens(normalized: &str) -> impl Iterator<Item = &str> {
    normalized.split(' ').filter(|t| !t.is_empty())
}

/// Tokenize into normalized lowercase words.
pub fn tokenize(text: &str) -> Vec<String> {
    tokens(&normalize(text)).map(String::from).collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn splits_on_punctuation_and_whitespace() {
        assert_eq!(
            tokenize("Sony DSC-W55 (7.2MP)"),
            vec!["sony", "dsc", "w55", "7", "2mp"]
        );
    }

    #[test]
    fn empty_and_punctuation_only_inputs_yield_no_tokens() {
        assert!(tokenize("").is_empty());
        assert!(tokenize(" .,;:!? ").is_empty());
    }

    #[test]
    fn mask_token_cannot_be_produced_by_tokenization() {
        // Even text that literally contains the mask token tokenizes to the
        // bare word — the bracketed reserved form is unreachable.
        let tokens = tokenize("a [mask] b [MASK]");
        assert_eq!(tokens, vec!["a", "mask", "b", "mask"]);
        assert!(tokens.iter().all(|t| t != MASK_TOKEN));
    }
}
