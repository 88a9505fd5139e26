//! er-datasets — dataset generators (DESIGN.md inventory rows 22–24:
//! Febrl-style Dirty-ER, Clean-Clean D1–D10 analogues, DSM labeled pairs).
//!
//! Ships the dataset identifiers with their domain/size profiles and the
//! deterministic Clean-Clean generators (row 23). The Febrl-style Dirty-ER
//! generator (row 22) and the DSM labeled-pair sets (row 24) land with the
//! scalability and supervised-matching PRs.

pub mod clean_clean;

pub use clean_clean::{CleanCleanDataset, DatasetProfile};

use std::fmt;

/// The four entity domains of the paper's Table 2(a) datasets.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Domain {
    Restaurants,
    Products,
    Bibliographic,
    Movies,
}

/// The ten Clean-Clean dataset analogues (paper Table 2a). Profiles mirror
/// the real datasets' domain and noise character; sizes are scaled down.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum DatasetId {
    D1,
    D2,
    D3,
    D4,
    D5,
    D6,
    D7,
    D8,
    D9,
    D10,
}

impl DatasetId {
    pub const ALL: [DatasetId; 10] = [
        DatasetId::D1,
        DatasetId::D2,
        DatasetId::D3,
        DatasetId::D4,
        DatasetId::D5,
        DatasetId::D6,
        DatasetId::D7,
        DatasetId::D8,
        DatasetId::D9,
        DatasetId::D10,
    ];

    pub(crate) fn domain(&self) -> Domain {
        match self {
            DatasetId::D1 => Domain::Restaurants,
            DatasetId::D2 | DatasetId::D3 | DatasetId::D10 => Domain::Products,
            DatasetId::D4 | DatasetId::D5 | DatasetId::D9 => Domain::Bibliographic,
            DatasetId::D6 | DatasetId::D7 | DatasetId::D8 => Domain::Movies,
        }
    }

    /// Whether the profile is extra noisy/sparse (the paper's hard cases).
    pub fn noisy(&self) -> bool {
        matches!(self, DatasetId::D3 | DatasetId::D10)
    }
}

impl fmt::Display for DatasetId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "D{}", *self as u8 + 1)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn ids_display_like_the_paper() {
        assert_eq!(DatasetId::D1.to_string(), "D1");
        assert_eq!(DatasetId::D10.to_string(), "D10");
        assert_eq!(DatasetId::ALL.len(), 10);
    }

    #[test]
    fn profiles_cover_all_domains() {
        for domain in [
            Domain::Restaurants,
            Domain::Products,
            Domain::Bibliographic,
            Domain::Movies,
        ] {
            assert!(
                DatasetId::ALL.iter().any(|d| d.domain() == domain),
                "{domain:?} missing"
            );
        }
        assert!(DatasetId::D10.noisy());
        assert!(!DatasetId::D4.noisy());
    }
}
