//! er-tune — query-cost model + parameter autotuner (ROADMAP item 4).
//!
//! The paper hand-picks blocking parameters globally; this crate chooses
//! them per dataset. The tuner measures, the cost model prices:
//!
//! * [`autotune()`] — sample the collection, sweep
//!   `(backend, M, ef_search, tables, probes, tier, quant)`, and measure
//!   each trial once: one `search_counted` pass over the sampled queries
//!   gives both its ground-truth-free recall proxy and its mean
//!   distance-evaluation count. It returns the cheapest
//!   [`er_core::OperatingPoint`] meeting the recall target;
//!   [`measure_point`] is the measured twin the acceptance tests compare
//!   against.
//! * [`CostModel`] — the only place a trial is priced: exact scans
//!   analytically (`rows × ns_per_row(dim, tier, quant)`), HNSW from
//!   evaluation counts measured at anchor beam widths
//!   ([`HnswCostModel`]), LSH from the measured candidate count, each
//!   extrapolated from the sample to the full collection. Each is
//!   validated against measured `search_counted` evaluations within 25%
//!   in `tests/cost_accuracy.rs`.
//! * The calibration table — frozen ns-per-row cells per (tier, kernel
//!   op, dim), a compiled-in constant whose every cell exists by its
//!   type; they were measured once on a 12k-row scan and golden
//!   `AUTOTUNE` pins them.
//!
//! The output type is `er_core::OperatingPoint` — the unified config the
//! blocker (`top_k_blocking_scored_matrix`) and the pipeline
//! (`Pipeline::resolve_tuned`) take as is, and whose `backend` and `scan`
//! an `er_serve::ServeConfig` holds.

pub mod autotune;
mod calibrate;
pub mod cost;

pub use autotune::{autotune, measure_point, Trial, TuneOutcome};
pub use cost::{CostEstimate, CostModel, HnswCostModel};
