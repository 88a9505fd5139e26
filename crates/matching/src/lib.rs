//! er-matching — unsupervised matching on the scored-candidate contract
//! (DESIGN.md inventory rows 14–15).
//!
//! Every matcher consumes the `Vec<ScoredPair>` the blocker produced —
//! the similarity threaded out of the index, bit-identical to
//! [`similarity::cosine`] for cosine backends — and never re-scores a
//! pair. [`unique_mapping_clustering`] is the paper's default (§4.3);
//! [`Clusterer`] adds the Kiraly stable-marriage approximation, one of
//! the three clusterers of the paper's Fig. 2 generality check; and
//! [`ThresholdSweep`] drives either across the δ grid of Fig. 15.

pub mod clusterers;
pub mod kiraly;
pub mod similarity;
pub mod threshold;
pub mod umc;

pub use clusterers::Clusterer;
pub use kiraly::kiraly_clustering;
pub use threshold::{SweepPoint, ThresholdSweep};
pub use umc::unique_mapping_clustering;
