//! Scan configuration: which f32 kernel tier ranks the rows — on every
//! backend, the one tier setting of the workspace — and whether a
//! quantized (int8 / PQ) first pass replaces the full-precision scan of
//! the exact brute-force backend (the only backend that takes one).
//!
//! Historically these types lived in `er_index::exact`; they moved down
//! into er-core with the [`crate::OperatingPoint`] redesign so one config
//! crate-layer owns every knob. `er_index::{ScanConfig, Quantization}`
//! re-export them, so existing imports keep compiling.

use crate::kernels::KernelTier;
use crate::pq::PqConfig;

/// Which storage the brute-force scan ranks rows with.
#[derive(Debug, Clone, Copy, PartialEq, Default)]
pub enum Quantization {
    /// Rank with the full f32 rows — the exact scan.
    #[default]
    None,
    /// Rank with int8 codes (4× less traffic), then re-rank the best
    /// `rerank.max(k)` candidates with the exact f32 kernels.
    Int8 {
        /// Candidates re-ranked exactly; clamped up to `k` at query time.
        rerank: usize,
    },
    /// Rank with product-quantization ADC tables (`subspaces` bytes per
    /// row), then re-rank the best `rerank.max(k)` candidates exactly.
    Pq {
        config: PqConfig,
        /// Candidates re-ranked exactly; clamped up to `k` at query time.
        rerank: usize,
    },
}

/// Full scan configuration: the f32 kernel tier plus the optional
/// quantized first pass. The default (`Reference`, no quantization) is the
/// pre-tier behavior, bit for bit.
#[derive(Debug, Clone, Copy, PartialEq, Default)]
pub struct ScanConfig {
    /// The kernel tier every distance of the index runs on: the Exact
    /// scan and re-rank, every HNSW graph distance, LSH signature dots and
    /// re-ranking. An index persists the tier it was built with.
    pub tier: KernelTier,
    pub quant: Quantization,
}

impl ScanConfig {
    /// Rank on the given kernel tier, with no quantization.
    pub fn with_tier(tier: KernelTier) -> ScanConfig {
        ScanConfig {
            tier,
            quant: Quantization::None,
        }
    }
}
