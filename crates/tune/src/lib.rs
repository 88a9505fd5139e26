//! er-tune — query-cost model + parameter autotuner (ROADMAP item 4).
//!
//! The paper hand-picks blocking parameters globally; this crate chooses
//! them per dataset. Three pieces:
//!
//! * `Calibration` — frozen ns-per-row scan cells per (tier, metric,
//!   dim), compiled in (`Calibration::builtin`); they were measured
//!   once on a 12k-row scan and golden `AUTOTUNE` pins them.
//! * [`CostModel`] — per-backend query-cost estimators: exact scans
//!   analytically (`rows × ns_per_row(dim, tier, quant)`), HNSW from
//!   measured distance-evaluation counts at anchor beam widths
//!   ([`HnswCostModel`]), LSH from expected bucket occupancy. Each is
//!   validated against measured `search_counted` evaluations within 25%
//!   in `tests/cost_accuracy.rs`.
//! * [`autotune()`] — sample the collection, sweep
//!   `(backend, M, ef_search, tables, probes, tier, quant)` with
//!   ground-truth-free recall proxies, and return the cheapest
//!   [`er_core::OperatingPoint`] meeting the recall target;
//!   [`measure_point`] is the measured twin the acceptance tests compare
//!   against.
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
