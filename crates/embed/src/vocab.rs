//! Token vocabulary shared by the static models.
//!
//! Ids are assigned by descending corpus frequency with a lexicographic
//! tiebreak, so vocabulary construction is deterministic for a fixed
//! corpus regardless of hash-map iteration order.

use er_core::binary::{BinReader, BinWriter};
use er_core::Result;
use er_text::Corpus;
use std::collections::HashMap;

#[derive(Debug, Clone, PartialEq)]
pub struct Vocab {
    tokens: Vec<String>,
    counts: Vec<u32>,
    index: HashMap<String, u32>,
}

impl Vocab {
    /// Build from a corpus, keeping tokens seen at least `min_count` times.
    pub(crate) fn build(corpus: &Corpus, min_count: u32) -> Vocab {
        let mut freq: HashMap<&str, u32> = HashMap::new();
        for sentence in corpus.sentences() {
            for token in sentence {
                *freq.entry(token.as_str()).or_default() += 1;
            }
        }
        let mut ranked: Vec<(&str, u32)> =
            freq.into_iter().filter(|&(_, c)| c >= min_count).collect();
        ranked.sort_by(|a, b| b.1.cmp(&a.1).then_with(|| a.0.cmp(b.0)));

        Vocab::from_parts(
            ranked.iter().map(|(t, _)| t.to_string()).collect(),
            ranked.iter().map(|&(_, c)| c).collect(),
        )
    }

    fn from_parts(tokens: Vec<String>, counts: Vec<u32>) -> Vocab {
        let index = tokens
            .iter()
            .enumerate()
            .map(|(i, t)| (t.clone(), i as u32))
            .collect();
        Vocab {
            tokens,
            counts,
            index,
        }
    }

    /// Append a reserved special token (e.g. `er_text::MASK_TOKEN`) with
    /// count 0, after all frequency-ranked entries so every real token
    /// keeps its id. No-op if the token is already present. Special tokens
    /// are saved like any other entry.
    pub(crate) fn with_special(mut self, token: &str) -> Vocab {
        if self.index.contains_key(token) {
            return self;
        }
        self.index
            .insert(token.to_string(), self.tokens.len() as u32);
        self.tokens.push(token.to_string());
        self.counts.push(0);
        self
    }

    pub(crate) fn id(&self, token: &str) -> Option<u32> {
        self.index.get(token).copied()
    }

    pub fn token(&self, id: u32) -> &str {
        &self.tokens[id as usize]
    }

    pub(crate) fn counts(&self) -> &[u32] {
        &self.counts
    }

    pub fn len(&self) -> usize {
        self.tokens.len()
    }

    pub fn is_empty(&self) -> bool {
        self.tokens.is_empty()
    }

    /// Map a sentence to ids, silently dropping OOV tokens (the static
    /// models' training view of the corpus).
    pub(crate) fn encode(&self, sentence: &[String]) -> Vec<u32> {
        sentence.iter().filter_map(|t| self.id(t)).collect()
    }

    /// The string table in id order, then the counts.
    pub(crate) fn to_writer(&self, w: &mut BinWriter) {
        w.put_usize(self.tokens.len());
        for token in &self.tokens {
            w.put_str(token);
        }
        w.put_u32_slice(&self.counts);
    }

    /// Inverse of [`Vocab::to_writer`]; the token count is bounded by the
    /// bytes present (each token has an 8-byte length prefix), so a hostile
    /// count fails as `ErError::Corrupt`.
    pub(crate) fn from_reader(r: &mut BinReader) -> Result<Vocab> {
        let len = r.get_len(8)?;
        let tokens = (0..len).map(|_| r.get_str()).collect::<Result<Vec<_>>>()?;
        let counts = r.get_u32s(len)?;
        Ok(Vocab::from_parts(tokens, counts))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn corpus_of(lines: &[&str]) -> Corpus {
        let mut c = Corpus::new();
        for l in lines {
            c.push_text(l);
        }
        c
    }

    #[test]
    fn ranks_by_frequency_then_lexicographically() {
        let c = corpus_of(&["b a b", "a b c", "b a"]);
        let v = Vocab::build(&c, 1);
        // b:4, a:3, c:1
        assert_eq!(v.token(0), "b");
        assert_eq!(v.token(1), "a");
        assert_eq!(v.token(2), "c");
        assert_eq!(v.counts()[0], 4);
    }

    #[test]
    fn min_count_filters_rare_tokens() {
        let c = corpus_of(&["a a b"]);
        let v = Vocab::build(&c, 2);
        assert_eq!(v.len(), 1);
        assert_eq!(v.id("a"), Some(0));
        assert_eq!(v.id("b"), None);
    }

    #[test]
    fn encode_drops_oov() {
        let c = corpus_of(&["a b"]);
        let v = Vocab::build(&c, 1);
        let ids = v.encode(&["a".into(), "zzz".into(), "b".into()]);
        assert_eq!(ids.len(), 2);
    }

    #[test]
    fn special_token_appends_after_ranked_entries() {
        let c = corpus_of(&["a a b"]);
        let v = Vocab::build(&c, 1);
        let (a_id, b_id) = (v.id("a").unwrap(), v.id("b").unwrap());
        let v = v.with_special(er_text::MASK_TOKEN);
        assert_eq!(v.id("a"), Some(a_id), "real token ids must not shift");
        assert_eq!(v.id("b"), Some(b_id));
        let mask_id = v.id(er_text::MASK_TOKEN).unwrap();
        assert_eq!(mask_id as usize, v.len() - 1);
        assert_eq!(v.counts()[mask_id as usize], 0);
        // Idempotent.
        let again = v.clone().with_special(er_text::MASK_TOKEN);
        assert_eq!(v, again);
    }
}
