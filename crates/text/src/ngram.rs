//! Character n-gram extraction with the hashing trick (FastText's subword
//! machinery, Bojanowski et al. 2017). Words are padded with `<`/`>` so
//! prefixes and suffixes hash differently from word-internal grams.

const FNV_OFFSET: u64 = 0xcbf2_9ce4_8422_2325;
const FNV_PRIME: u64 = 0x0000_0100_0000_01b3;

/// FNV-1a 64-bit — the workspace's stable, dependency-free hash. Used for
/// n-gram bucketing and cache keys; must never change across releases or
/// saved models would silently re-bucket.
pub fn fnv1a(bytes: &[u8]) -> u64 {
    fnv1a_extend(FNV_OFFSET, bytes)
}

/// Continue an FNV-1a hash `h` over `bytes`: hashing a string in pieces
/// equals hashing it whole.
fn fnv1a_extend(mut h: u64, bytes: &[u8]) -> u64 {
    for &b in bytes {
        h ^= b as u64;
        h = h.wrapping_mul(FNV_PRIME);
    }
    h
}

/// Whether `[nmin, nmax]` is a non-empty range of positive gram lengths.
/// A degenerate range yields no grams rather than panicking.
fn valid_range(nmin: usize, nmax: usize) -> bool {
    nmin >= 1 && nmin <= nmax
}

/// Call `f` with the bucket id (`fnv1a(gram) % buckets`) of every padded
/// char n-gram of `word` (padded as `<word>`) with n in `[nmin, nmax]`, n
/// outer and start position inner — FastText's float sums depend on that
/// order. The whole padded word is one of them when its length falls in
/// the range. Each gram's UTF-8 bytes are hashed in place over the padded
/// word's char boundaries, so nothing is allocated.
///
/// `nmin == 0`, `nmin > nmax` or `buckets == 0` yields no grams.
pub fn for_each_hashed_ngram(
    word: &str,
    nmin: usize,
    nmax: usize,
    buckets: usize,
    mut f: impl FnMut(u32),
) {
    if !valid_range(nmin, nmax) || buckets == 0 {
        return;
    }
    // Byte offsets into the padded word `<word>`: '<' is byte 0, so word
    // byte `j` is padded byte `j + 1`, '>' is byte `len + 1` and the end is
    // `len + 2`. A gram is the bytes between two char boundaries.
    let len = word.len();
    // The char starting at padded byte `p` is as long as its UTF-8 lead
    // byte has leading ones (none for ASCII).
    let next_boundary = |p: usize| {
        if p == 0 || p > len {
            return p + 1;
        }
        p + (word.as_bytes()[p - 1].leading_ones() as usize).max(1)
    };
    for n in nmin..=nmax {
        // The first n-gram is `lo..hi`; none when the padded word has fewer
        // than `n` chars, and then none for any larger `n` either.
        let (mut lo, mut hi) = (0, 0);
        for _ in 0..n {
            if hi == len + 2 {
                return;
            }
            hi = next_boundary(hi);
        }
        loop {
            let mut h = FNV_OFFSET;
            if lo == 0 {
                h = fnv1a_extend(h, b"<");
            }
            h = fnv1a_extend(h, &word.as_bytes()[lo.max(1) - 1..hi.min(len + 1) - 1]);
            let last = hi == len + 2;
            if last {
                h = fnv1a_extend(h, b">");
            }
            f((h % buckets as u64) as u32);
            if last {
                break;
            }
            lo = next_boundary(lo);
            hi = next_boundary(hi);
        }
    }
}

/// Hashed bucket ids of the word's n-grams, collected from
/// [`for_each_hashed_ngram`]; a degenerate config yields none.
pub fn hashed_ngrams(word: &str, nmin: usize, nmax: usize, buckets: usize) -> Vec<u32> {
    let mut ids = Vec::new();
    for_each_hashed_ngram(word, nmin, nmax, buckets, |id| ids.push(id));
    ids
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    /// All padded char n-grams of `word` with n in `[nmin, nmax]`, n outer
    /// and start position inner: the readable definition
    /// [`for_each_hashed_ngram`] is tested against. `nmin == 0` or
    /// `nmin > nmax` yields no grams.
    fn char_ngrams(word: &str, nmin: usize, nmax: usize) -> Vec<String> {
        if !valid_range(nmin, nmax) {
            return Vec::new();
        }
        let padded: Vec<char> = std::iter::once('<')
            .chain(word.chars())
            .chain(std::iter::once('>'))
            .collect();
        let mut grams = Vec::new();
        for n in nmin..=nmax {
            if padded.len() < n {
                break;
            }
            for start in 0..=(padded.len() - n) {
                grams.push(padded[start..start + n].iter().collect());
            }
        }
        grams
    }

    /// The definition: [`char_ngrams`] hashed one `String` at a time.
    fn oracle(word: &str, nmin: usize, nmax: usize, buckets: usize) -> Vec<u32> {
        char_ngrams(word, nmin, nmax)
            .iter()
            .map(|g| (fnv1a(g.as_bytes()) % buckets as u64) as u32)
            .collect()
    }

    #[test]
    fn streamed_hashes_match_the_char_ngrams_oracle() {
        let long = "reproduction";
        let words = ["", "a", "é", "東京", "🦀", long, "zürich", "ab"];
        assert!(long.chars().count() > 9 + 2, "one word outgrows every nmax");
        for word in words {
            for (nmin, nmax) in [(1, 1), (3, 5), (3, 6), (2, 9)] {
                for buckets in [1, 64, 2_000_003] {
                    let mut got = Vec::new();
                    for_each_hashed_ngram(word, nmin, nmax, buckets, |id| got.push(id));
                    let want = oracle(word, nmin, nmax, buckets);
                    assert_eq!(got, want, "{word:?} n = {nmin}..={nmax} / {buckets}");
                    assert_eq!(hashed_ngrams(word, nmin, nmax, buckets), want);
                }
            }
        }
    }

    proptest! {
        fn streamed_hashes_match_the_oracle_on_any_word(
            word in any_string(24),
            nmin in 1..=4usize,
            span in 0..=5usize,
            buckets in 1..=5_000usize,
        ) {
            let nmax = nmin + span;
            assert_eq!(
                hashed_ngrams(&word, nmin, nmax, buckets),
                oracle(&word, nmin, nmax, buckets),
                "{word:?} n = {nmin}..={nmax} / {buckets}"
            );
        }
    }

    #[test]
    fn degenerate_configs_yield_no_grams() {
        for (nmin, nmax, buckets) in [(0, 3, 64), (0, 0, 64), (4, 3, 64), (3, 5, 0), (0, 0, 0)] {
            assert!(hashed_ngrams("restaurant", nmin, nmax, buckets).is_empty());
            for_each_hashed_ngram("restaurant", nmin, nmax, buckets, |_| {
                panic!("degenerate config {nmin}..={nmax} / {buckets} emitted a gram")
            });
        }
        assert!(char_ngrams("restaurant", 0, 3).is_empty());
        assert!(char_ngrams("restaurant", 4, 3).is_empty());
    }

    #[test]
    fn extracts_padded_ngrams() {
        let grams = char_ngrams("cat", 3, 4);
        assert_eq!(grams, vec!["<ca", "cat", "at>", "<cat", "cat>"]);
    }

    #[test]
    fn short_words_still_produce_grams() {
        assert_eq!(char_ngrams("a", 3, 5), vec!["<a>"]);
        assert!(!char_ngrams("é", 3, 5).is_empty());
    }

    #[test]
    fn hashing_is_stable() {
        // Golden values: changing fnv1a would re-bucket every saved model.
        assert_eq!(fnv1a(b""), 0xcbf2_9ce4_8422_2325);
        assert_eq!(fnv1a(b"<ca"), fnv1a(b"<ca"));
        assert_ne!(fnv1a(b"<ca"), fnv1a(b"ca>"));
    }

    #[test]
    fn buckets_are_in_range() {
        for id in hashed_ngrams("reproduction", 3, 5, 64) {
            assert!(id < 64);
        }
    }

    #[test]
    fn typod_word_shares_most_ngrams() {
        // The mechanical property behind FastText's typo robustness (Fig. 3).
        let a: std::collections::BTreeSet<_> =
            char_ngrams("restaurant", 3, 5).into_iter().collect();
        let b: std::collections::BTreeSet<_> =
            char_ngrams("restaurnat", 3, 5).into_iter().collect();
        let shared = a.intersection(&b).count();
        assert!(
            shared * 2 > a.len(),
            "typo kept fewer than half the n-grams"
        );
    }
}
