//! `bench_e2e` — one end-to-end + per-layer performance ledger for the
//! embeddings4er workspace. See `README.md` in this crate for the
//! workloads, the metric definitions and the method; `BENCHMARK.json` at
//! the repository root names what later PRs are judged by.
//!
//! Everything is measured from outside, through the public API of the
//! facade and the layer crates: no library file carries a timer for this.

pub mod alloc;
pub mod gen;
pub mod layers;
pub mod lifecycle;
pub mod oracle;
pub mod report;
pub mod run;
pub mod spec;
pub mod stats;
pub mod trace;
