//! Deterministic English-like training corpus for the model zoo.
//!
//! The original study pre-trains on web-scale corpora; offline we substitute
//! a generated corpus that preserves the *distributional* properties the
//! paper's findings rest on (DESIGN.md §1, row 1):
//!
//! * a Zipfian rank-frequency vocabulary mixing real English lexicon words
//!   (names, places, cuisines, product/bibliography terms) with pronounceable
//!   pseudo-words, numbers, phone numbers and alphanumeric codes — the same
//!   token classes ER records contain;
//! * record-shaped sentences (entity mention + location + numeric fields);
//! * injected typos (character edits) at a low rate, so corpora contain the
//!   near-duplicate surface forms FastText's subwords exploit and GloVe's
//!   global dictionary misses.
//!
//! Everything is drawn from the caller's seeded RNG: the same seed yields
//! the same corpus byte-for-byte, which zoo determinism depends on.

use crate::tokenize::tokenize;
use rand::prelude::*;

/// A tokenized corpus: a flat list of sentences.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct Corpus {
    sentences: Vec<Vec<String>>,
}

impl Corpus {
    pub fn new() -> Self {
        Corpus::default()
    }

    pub fn sentences(&self) -> &[Vec<String>] {
        &self.sentences
    }

    /// Tokenize raw text and append it as one sentence (no-op when the text
    /// normalizes to nothing).
    pub fn push_text(&mut self, text: &str) {
        let tokens = tokenize(text);
        if !tokens.is_empty() {
            self.sentences.push(tokens);
        }
    }

    pub(crate) fn push_sentence(&mut self, tokens: Vec<String>) {
        if !tokens.is_empty() {
            self.sentences.push(tokens);
        }
    }
}

/// Real English lexicon: the token classes of the paper's ER domains
/// (restaurants, products, bibliographic records, movies, person names).
const LEXICON: &[&str] = &[
    // glue
    "the",
    "of",
    "and",
    "in",
    "at",
    "on",
    "with",
    "for",
    "by",
    "from",
    "near",
    // first names
    "james",
    "mary",
    "john",
    "patricia",
    "robert",
    "jennifer",
    "michael",
    "linda",
    "david",
    "barbara",
    "william",
    "jessica",
    "richard",
    "susan",
    "joseph",
    "sarah",
    "thomas",
    "karen",
    "charles",
    "nancy",
    "taylor",
    "morgan",
    // surnames
    "smith",
    "johnson",
    "williams",
    "brown",
    "jones",
    "garcia",
    "miller",
    "davis",
    "rodriguez",
    "martinez",
    "hernandez",
    "lopez",
    "gonzalez",
    "wilson",
    "anderson",
    "dover",
    "hill",
    // places / streets
    "main",
    "street",
    "avenue",
    "road",
    "park",
    "east",
    "west",
    "north",
    "south",
    "new",
    "union",
    "lake",
    "river",
    "forest",
    "spring",
    "downtown",
    "city",
    "plaza",
    "square",
    "boulevard",
    // restaurants / cuisines
    "restaurant",
    "grill",
    "cafe",
    "bistro",
    "kitchen",
    "palace",
    "garden",
    "golden",
    "royal",
    "italian",
    "mexican",
    "french",
    "chinese",
    "thai",
    "indian",
    "pizza",
    "sushi",
    "steak",
    // products
    "digital",
    "camera",
    "lens",
    "zoom",
    "battery",
    "charger",
    "wireless",
    "speaker",
    "stereo",
    "laptop",
    "screen",
    "memory",
    "silver",
    "black",
    "compact",
    "deluxe",
    "edition",
    "series",
    "model",
    "pack",
    // bibliographic
    "system",
    "database",
    "query",
    "distributed",
    "parallel",
    "index",
    "journal",
    "proceedings",
    "analysis",
    "learning",
    "network",
    "data",
    "entity",
    "resolution",
    "matching",
    "embedding",
    // movies
    "story",
    "night",
    "dark",
    "star",
    "return",
    "last",
    "first",
    "king",
    "world",
    "love",
];

/// Syllable inventory for pronounceable pseudo-words (the synthetic-corpus
/// analogue of out-of-lexicon web vocabulary).
const ONSETS: &[&str] = &[
    "b", "d", "f", "g", "h", "j", "k", "l", "m", "n", "p", "r", "s", "t", "v", "w", "z", "st",
    "sk", "pr", "tr", "kr", "dr", "gl", "zh", "sh",
];
const VOWELS: &[&str] = &["a", "e", "i", "o", "u", "ai", "ei", "ou", "ur", "or"];
const CODAS: &[&str] = &[
    "", "", "n", "m", "k", "l", "r", "s", "t", "x", "nt", "sk", "rm",
];

fn pseudo_word(rng: &mut impl RngCore, syllables: usize) -> String {
    let mut w = String::new();
    for _ in 0..syllables {
        w.push_str(ONSETS.choose(rng).expect("non-empty"));
        w.push_str(VOWELS.choose(rng).expect("non-empty"));
        w.push_str(CODAS.choose(rng).expect("non-empty"));
    }
    w
}

/// One character edit: insert, delete, replace or transpose (the edit model
/// Febrl-style generators use; applied here at the corpus level). Words
/// shorter than 4 characters are returned unchanged.
///
/// Positions are drawn per-operation so *boundary* characters are fair
/// game: insert anywhere in `0..=len`, delete/replace anywhere in
/// `0..len`. Transposition stays interior (`1..len-1`) — swapping across a
/// word boundary is not a single-word edit. (An earlier version drew one
/// interior position for every operation, which systematically spared the
/// first and last characters — and with them FastText's boundary `<w` /
/// `w>` n-grams.)
pub fn inject_typo(word: &str, rng: &mut impl RngCore) -> String {
    let chars: Vec<char> = word.chars().collect();
    if chars.len() < 4 {
        return word.to_string();
    }
    let mut out = chars.clone();
    match rng.gen_range(0..4u32) {
        0 => {
            let pos = rng.gen_range(0..=chars.len());
            out.insert(pos, (b'a' + rng.gen_range(0..26u8)) as char);
        }
        1 => {
            let pos = rng.gen_range(0..chars.len());
            out.remove(pos);
        }
        2 => {
            let pos = rng.gen_range(0..chars.len());
            out[pos] = (b'a' + rng.gen_range(0..26u8)) as char;
        }
        _ => {
            let pos = rng.gen_range(1..chars.len() - 1);
            out.swap(pos, pos - 1);
        }
    }
    out.into_iter().collect()
}

/// Zipfian sampler over ranked items: p(rank) ∝ 1 / (rank + 2)^s.
struct Zipf {
    cumulative: Vec<f64>,
}

impl Zipf {
    fn new(n: usize, s: f64) -> Self {
        let mut cumulative = Vec::with_capacity(n);
        let mut total = 0.0;
        for rank in 0..n {
            total += 1.0 / (rank as f64 + 2.0).powf(s);
            cumulative.push(total);
        }
        Zipf { cumulative }
    }

    fn sample(&self, rng: &mut impl RngCore) -> usize {
        let total = *self.cumulative.last().expect("non-empty");
        let target = rng.gen_range(0.0..total);
        self.cumulative.partition_point(|&c| c <= target)
    }
}

/// Generate a deterministic corpus of `docs` record-like documents.
///
/// Scale: each document is 3–7 sentences of 4–13 tokens, so token count
/// grows linearly in `docs` (~40 tokens per document). Vocabulary grows
/// sublinearly: the lexicon is fixed and the pseudo-word pool is capped at
/// `400 + 12·docs` ranked entries.
pub fn synthetic_corpus(docs: usize, rng: &mut impl RngCore) -> Corpus {
    // Ranked vocabulary: interleave lexicon and pseudo-words so both real
    // and synthetic tokens appear at head and tail ranks.
    let pseudo_count = 400 + docs * 12 - LEXICON.len().min(400);
    let mut ranked: Vec<String> = Vec::with_capacity(LEXICON.len() + pseudo_count);
    let mut lex = LEXICON.iter();
    for i in 0..(LEXICON.len() + pseudo_count) {
        if i % 3 == 0 {
            if let Some(&w) = lex.next() {
                ranked.push(w.to_string());
                continue;
            }
        }
        let syllables = 1 + rng.gen_range(0..3u32) as usize;
        ranked.push(pseudo_word(rng, syllables));
    }
    let zipf = Zipf::new(ranked.len(), 1.05);

    let mut corpus = Corpus::new();
    for _ in 0..docs {
        let sentences = rng.gen_range(3..=7u32);
        for _ in 0..sentences {
            let len = rng.gen_range(4..=13u32);
            let mut sentence = Vec::with_capacity(len as usize);
            for _ in 0..len {
                let roll: f64 = rng.gen_range(0.0..1.0);
                let token = if roll < 0.04 {
                    // Street number / year / price-like integer.
                    rng.gen_range(1..10_000u32).to_string()
                } else if roll < 0.06 {
                    // Phone number.
                    format!("{:010}", rng.gen_range(2_000_000_000u64..9_999_999_999))
                } else if roll < 0.08 {
                    // Alphanumeric model code, e.g. "nb8234".
                    let a = (b'a' + rng.gen_range(0..26u8)) as char;
                    let b = (b'a' + rng.gen_range(0..26u8)) as char;
                    format!("{a}{b}{}", rng.gen_range(100..10_000u32))
                } else {
                    let word = &ranked[zipf.sample(rng)];
                    if rng.gen_bool(0.03) {
                        inject_typo(word, rng)
                    } else {
                        word.clone()
                    }
                };
                sentence.push(token);
            }
            corpus.push_sentence(sentence);
        }
    }
    corpus
}

#[cfg(test)]
mod tests {
    use super::*;
    use er_core::rng::rng;
    use std::collections::HashMap;

    #[test]
    fn same_seed_same_corpus() {
        let a = synthetic_corpus(30, &mut rng(9));
        let b = synthetic_corpus(30, &mut rng(9));
        assert_eq!(a, b);
        let c = synthetic_corpus(30, &mut rng(10));
        assert_ne!(a, c);
    }

    #[test]
    fn scale_tracks_docs() {
        let small = synthetic_corpus(10, &mut rng(1));
        let large = synthetic_corpus(100, &mut rng(1));
        let tokens = |c: &Corpus| c.sentences().iter().map(Vec::len).sum::<usize>();
        assert!(tokens(&large) > 5 * tokens(&small));
        assert!(!small.sentences().is_empty());
    }

    #[test]
    fn frequencies_are_zipf_like() {
        let corpus = synthetic_corpus(150, &mut rng(2));
        let mut counts: HashMap<&str, usize> = HashMap::new();
        for s in corpus.sentences() {
            for t in s {
                *counts.entry(t).or_default() += 1;
            }
        }
        let mut freqs: Vec<usize> = counts.values().copied().collect();
        freqs.sort_unstable_by(|a, b| b.cmp(a));
        // Head tokens dominate; the median token is rare.
        let median = freqs[freqs.len() / 2];
        assert!(freqs[0] > 20 * median, "head {} median {median}", freqs[0]);
        // And a long tail of near-singletons exists (typos + tail ranks).
        let singletons = freqs.iter().filter(|&&f| f == 1).count();
        assert!(
            singletons * 5 > freqs.len(),
            "tail too short: {singletons}/{}",
            freqs.len()
        );
    }

    #[test]
    fn typos_produce_out_of_lexicon_variants() {
        let mut r = rng(3);
        let t = inject_typo("restaurant", &mut r);
        assert_ne!(t, "restaurant");
        assert!(!t.is_empty());
        // Short words are left alone (typo would destroy them entirely).
        assert_eq!(inject_typo("the", &mut r), "the");
    }

    #[test]
    fn typos_reach_word_boundaries() {
        // The Febrl-style edit model must be able to touch the first and
        // last characters (insert/delete/replace); the interior-only bug
        // could never change either boundary character.
        let mut r = rng(4);
        let word = "restaurant";
        let (mut front, mut back, mut longer, mut shorter) = (false, false, false, false);
        for _ in 0..500 {
            let t = inject_typo(word, &mut r);
            let tc: Vec<char> = t.chars().collect();
            if tc.first() != Some(&'r') {
                front = true;
            }
            if tc.last() != Some(&'t') {
                back = true;
            }
            longer |= tc.len() > word.len();
            shorter |= tc.len() < word.len();
        }
        assert!(front, "no edit ever touched the first character");
        assert!(back, "no edit ever touched the last character");
        assert!(longer && shorter, "insert/delete did not both occur");
    }

    #[test]
    fn push_text_tokenizes_and_skips_empty() {
        let mut c = Corpus::new();
        c.push_text("Golden Palace, Grill!");
        c.push_text("  ...  ");
        assert_eq!(c.sentences().len(), 1);
        assert_eq!(c.sentences()[0], vec!["golden", "palace", "grill"]);
    }
}
