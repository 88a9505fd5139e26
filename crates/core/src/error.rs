//! Workspace error type: coarse categories, rich messages.

use std::fmt;

#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ErError {
    /// Filesystem / IO failures (model cache, result files).
    Io(String),
    /// Malformed JSON text (the `er_core::json` reader).
    Parse(String),
    /// Model or caller misuse (dimension mismatch, a non-finite row).
    Model(String),
    /// Binary persistence integrity failure (bad magic/version/checksum,
    /// truncated payload) — see `er_core::binary`.
    Corrupt(String),
    /// Invalid or self-contradictory configuration (an `OperatingPoint`
    /// that fails validation, or two explicit configs that disagree about
    /// the same knob) — see `er_core::operating_point`.
    Config(String),
}

pub type Result<T> = std::result::Result<T, ErError>;

impl ErError {
    /// An [`ErError::Corrupt`] carrying `what` — the one constructor every
    /// decoder reports damaged bytes through.
    pub fn corrupt(what: impl fmt::Display) -> ErError {
        ErError::Corrupt(what.to_string())
    }
}

impl fmt::Display for ErError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ErError::Io(msg) => write!(f, "io error: {msg}"),
            ErError::Parse(msg) => write!(f, "parse error: {msg}"),
            ErError::Model(msg) => write!(f, "model error: {msg}"),
            ErError::Corrupt(msg) => write!(f, "corrupt data: {msg}"),
            ErError::Config(msg) => write!(f, "config error: {msg}"),
        }
    }
}

impl std::error::Error for ErError {}

impl From<std::io::Error> for ErError {
    fn from(e: std::io::Error) -> Self {
        ErError::Io(e.to_string())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn display_includes_category_and_message() {
        let e = ErError::Parse("unexpected token at 12".into());
        assert_eq!(e.to_string(), "parse error: unexpected token at 12");
    }
}
