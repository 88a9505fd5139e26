//! `er-text` — the text substrate of the reproduction (DESIGN.md inventory
//! row 2): unicode normalization, the word tokenizer every static model
//! shares, the char-n-gram extractor behind FastText's hashing trick, and
//! the deterministic synthetic corpus the zoo pre-trains on.

pub mod corpus;
pub mod ngram;
mod normalize;
mod tokenize;

pub use corpus::Corpus;
pub use normalize::normalize;
pub use tokenize::{tokenize, tokens, MASK_TOKEN};
