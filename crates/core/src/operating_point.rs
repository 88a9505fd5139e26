//! The unified operating point: every retrieval knob of the workspace —
//! `k`, metric, backend choice and its parameters, scan tier/quantization,
//! Dirty-ER mode — composed into **one** config type, plus the tuning
//! goals (`recall_target`, `budget_ns`) the `er-tune` autotuner optimizes
//! against.
//!
//! Before this type, the same run was configured through five structs
//! (`TopKConfig`, `ScanConfig`, `HnswConfig`, `LshConfig`, `ServeConfig`)
//! that could silently disagree — e.g. a `ServeConfig.scan` quantized while
//! the blocker's `TopKConfig.scan` was not. An [`OperatingPoint`] is the
//! single source of truth: `er-blocking`, the `Pipeline` facade and the
//! `er-serve` `Resolver` all accept one directly (`From` impls derive the
//! legacy structs), and [`OperatingPoint::validate`] rejects
//! self-contradictory settings with a typed [`ErError::Config`].
//!
//! Query-time parameters (HNSW beam width, LSH probes/tables) are carried
//! separately in [`QueryParams`] so the tuner can sweep them against one
//! built index without rebuilding — see `er_index::IndexReader`'s
//! `search_counted`.

use crate::error::{ErError, Result};
use crate::json::Json;
use crate::kernels::KernelTier;
use crate::metric::Metric;
use crate::scan::{Quantization, ScanConfig};

/// HNSW graph parameters, decoupled from `er_index::HnswConfig` (which
/// additionally carries the metric and tier — here those are fields of the
/// enclosing [`OperatingPoint`], stated exactly once).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct HnswParams {
    /// Max links per node on layers ≥ 1 (layer 0 allows `2·m`).
    pub m: usize,
    /// Beam width while inserting.
    pub ef_construction: usize,
    /// Beam width while querying (raised to `k` when `k` is larger).
    /// A *runtime* parameter: sweeping it never rebuilds the graph.
    pub ef_search: usize,
    /// Seed for the level-sampling stream.
    pub seed: u64,
}

impl Default for HnswParams {
    fn default() -> Self {
        HnswParams {
            m: 16,
            ef_construction: 100,
            ef_search: 64,
            seed: 42,
        }
    }
}

/// Hyperplane-LSH parameters, decoupled from `er_index::LshConfig` the
/// same way as [`HnswParams`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct LshParams {
    /// Hyperplanes (signature bits) per table, at most 64.
    pub planes: usize,
    /// Independent tables; more tables ⇒ higher recall. A *runtime*
    /// parameter when querying an index built with at least this many
    /// tables: table `t`'s hyperplane stream is independent of the table
    /// count, so probing the first `tables` of a wider index is
    /// bit-identical to an index built with exactly `tables`.
    pub tables: usize,
    /// Extra buckets probed per table by flipping the lowest-margin bits.
    /// A *runtime* parameter: probing never rebuilds the tables.
    pub probes: usize,
    /// Seed for the hyperplane streams.
    pub seed: u64,
}

impl Default for LshParams {
    fn default() -> Self {
        LshParams {
            planes: 12,
            tables: 8,
            probes: 2,
            seed: 42,
        }
    }
}

/// Which index backend serves the queries, with its parameters. The
/// metric and scan tier live on the enclosing [`OperatingPoint`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum BackendParams {
    /// Brute-force scan — exact, O(rows) per query.
    Exact,
    /// HNSW graph (the scalable default).
    #[default]
    Hnsw,
    /// HNSW with explicit parameters.
    HnswWith(HnswParams),
    /// Hyperplane LSH with default parameters.
    Lsh,
    /// Hyperplane LSH with explicit parameters.
    LshWith(LshParams),
}

impl BackendParams {
    /// Resolved HNSW parameters (defaults for the parameterless variant);
    /// `None` for non-HNSW backends.
    pub fn hnsw(&self) -> Option<HnswParams> {
        match self {
            BackendParams::Hnsw => Some(HnswParams::default()),
            BackendParams::HnswWith(p) => Some(*p),
            _ => None,
        }
    }

    /// Resolved LSH parameters; `None` for non-LSH backends.
    pub fn lsh(&self) -> Option<LshParams> {
        match self {
            BackendParams::Lsh => Some(LshParams::default()),
            BackendParams::LshWith(p) => Some(*p),
            _ => None,
        }
    }

    /// Short stable name, used by [`OperatingPoint::to_json`] and reports.
    pub fn name(&self) -> &'static str {
        match self {
            BackendParams::Exact => "exact",
            BackendParams::Hnsw | BackendParams::HnswWith(_) => "hnsw",
            BackendParams::Lsh | BackendParams::LshWith(_) => "lsh",
        }
    }

    /// The backend rules, stated once for every path that builds an index
    /// — [`OperatingPoint::validate`] and `er_index::AnyIndex::build` both
    /// call this, so a degenerate config is the same typed
    /// [`ErError::Config`] whether it arrives as a point or as a legacy
    /// config struct: quantized scans only rank on `Exact`, HNSW needs
    /// `m >= 2` and non-zero beams, LSH signatures are `u64` bitmasks over
    /// at least one table.
    pub fn validate(&self, quant: &Quantization) -> Result<()> {
        let fail = |msg: String| Err(ErError::Config(msg));
        if !matches!(quant, Quantization::None) && !matches!(self, BackendParams::Exact) {
            return fail(format!(
                "backend config: quantized scans only apply to the Exact \
                 backend, not {}",
                self.name()
            ));
        }
        if let Some(p) = self.hnsw() {
            if p.m < 2 {
                return fail(format!("backend config: HNSW needs m >= 2, got {}", p.m));
            }
            if p.ef_construction == 0 || p.ef_search == 0 {
                return fail("backend config: HNSW beam widths must be >= 1".to_string());
            }
        }
        if let Some(p) = self.lsh() {
            if !(1..=64).contains(&p.planes) {
                return fail(format!(
                    "backend config: LSH signatures are u64 bitmasks, \
                     need 1 <= planes <= 64, got {}",
                    p.planes
                ));
            }
            if p.tables == 0 {
                return fail("backend config: LSH needs at least one table".to_string());
            }
        }
        Ok(())
    }
}

/// Runtime query-parameter overrides — the knobs that change a search
/// without changing the index: HNSW beam width, LSH probes, and the LSH
/// table prefix. `None` means "use the value the index was built with".
/// `QueryParams::default()` (all `None`) is the pre-redesign behavior,
/// bit for bit.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct QueryParams {
    /// HNSW: beam width on layer 0 (raised to `k` when `k` is larger).
    pub ef_search: Option<usize>,
    /// LSH: extra buckets probed per table.
    pub probes: Option<usize>,
    /// LSH: probe only the first `tables` tables (clamped to the built
    /// count). Bit-identical to an index built with exactly that many.
    pub tables: Option<usize>,
}

impl QueryParams {
    pub fn with_ef_search(ef_search: usize) -> QueryParams {
        QueryParams {
            ef_search: Some(ef_search),
            ..QueryParams::default()
        }
    }

    pub fn with_probes(probes: usize) -> QueryParams {
        QueryParams {
            probes: Some(probes),
            ..QueryParams::default()
        }
    }
}

/// One retrieval configuration for the whole stack — see the module docs.
///
/// Build one with the builder (`OperatingPoint::recall_target(0.95)
/// .budget(500_000.0).k(10)`) or field-by-field; validate with
/// [`OperatingPoint::validate`] before handing it to a backend.
#[derive(Debug, Clone, PartialEq)]
pub struct OperatingPoint {
    /// Neighbours kept per query entity.
    pub k: usize,
    /// The distance every backend minimizes and every score derives from.
    pub metric: Metric,
    pub backend: BackendParams,
    /// Kernel tier + quantization. The tier applies to *every* backend;
    /// quantization only to `Exact` (validation rejects the rest).
    pub scan: ScanConfig,
    /// Dirty ER: both sides are the same collection.
    pub dirty: bool,
    /// Tuning goal: the fraction of the exact-scan top-k the chosen
    /// configuration must retrieve (`None`: no constraint).
    pub recall_target: Option<f32>,
    /// Tuning goal: estimated per-query budget in nanoseconds (`None`: no
    /// budget — the tuner picks the cheapest point meeting the recall
    /// target).
    pub budget_ns: Option<f64>,
}

impl Default for OperatingPoint {
    /// Mirrors the blocker's historical defaults: `k = 10`, HNSW under
    /// cosine, Reference kernels, no quantization, Clean-Clean.
    fn default() -> Self {
        OperatingPoint {
            k: 10,
            metric: Metric::Cosine,
            backend: BackendParams::Hnsw,
            scan: ScanConfig::default(),
            dirty: false,
            recall_target: None,
            budget_ns: None,
        }
    }
}

impl OperatingPoint {
    /// Start a builder from a recall target — the autotuner's entry point:
    /// `OperatingPoint::recall_target(0.95).budget(250_000.0)`.
    pub fn recall_target(target: f32) -> OperatingPoint {
        OperatingPoint {
            recall_target: Some(target),
            ..OperatingPoint::default()
        }
    }

    /// Per-query cost budget in estimated nanoseconds.
    pub fn budget(mut self, budget_ns: f64) -> OperatingPoint {
        self.budget_ns = Some(budget_ns);
        self
    }

    pub fn k(mut self, k: usize) -> OperatingPoint {
        self.k = k;
        self
    }

    pub fn metric(mut self, metric: Metric) -> OperatingPoint {
        self.metric = metric;
        self
    }

    /// Use the exact brute-force backend.
    pub fn exact(mut self) -> OperatingPoint {
        self.backend = BackendParams::Exact;
        self
    }

    /// Use the HNSW backend with explicit parameters.
    pub fn hnsw(mut self, params: HnswParams) -> OperatingPoint {
        self.backend = BackendParams::HnswWith(params);
        self
    }

    /// Use the LSH backend with explicit parameters.
    pub fn lsh(mut self, params: LshParams) -> OperatingPoint {
        self.backend = BackendParams::LshWith(params);
        self
    }

    pub fn scan(mut self, scan: ScanConfig) -> OperatingPoint {
        self.scan = scan;
        self
    }

    pub fn tier(mut self, tier: KernelTier) -> OperatingPoint {
        self.scan.tier = tier;
        self
    }

    pub fn dirty(mut self, dirty: bool) -> OperatingPoint {
        self.dirty = dirty;
        self
    }

    /// The runtime query-parameter slice of this point — what a search
    /// against an already-built index needs to honor it.
    pub fn query_params(&self) -> QueryParams {
        QueryParams {
            ef_search: self.backend.hnsw().map(|p| p.ef_search),
            probes: self.backend.lsh().map(|p| p.probes),
            tables: self.backend.lsh().map(|p| p.tables),
        }
    }

    /// Reject self-contradictory settings with a typed
    /// [`ErError::Config`]: the backend rules of
    /// [`BackendParams::validate`] plus the tuning goals' ranges.
    pub fn validate(&self) -> Result<()> {
        let fail = |msg: String| Err(ErError::Config(msg));
        self.backend.validate(&self.scan.quant)?;
        if let Some(t) = self.recall_target {
            if !(t > 0.0 && t <= 1.0) {
                return fail(format!(
                    "operating point: recall target must be in (0, 1], got {t}"
                ));
            }
        }
        if let Some(b) = self.budget_ns {
            if b.is_nan() || b <= 0.0 {
                return fail(format!(
                    "operating point: budget must be positive nanoseconds, got {b}"
                ));
            }
        }
        Ok(())
    }

    /// Canonical JSON rendering — stable field order, so two points are
    /// equal iff their JSON is byte-identical (the autotuner-determinism
    /// contract is pinned on this).
    pub fn to_json(&self) -> String {
        let metric = match self.metric {
            Metric::Euclidean => "euclidean",
            Metric::Cosine => "cosine",
        };
        let quant = match self.scan.quant {
            Quantization::None => Json::from_str_value("none"),
            Quantization::Int8 { rerank } => Json::Obj(vec![
                ("kind".into(), Json::from_str_value("int8")),
                ("rerank".into(), Json::from_usize(rerank)),
            ]),
            Quantization::Pq { config, rerank } => Json::Obj(vec![
                ("kind".into(), Json::from_str_value("pq")),
                ("subspaces".into(), Json::from_usize(config.subspaces)),
                ("centroids".into(), Json::from_usize(config.centroids)),
                ("rerank".into(), Json::from_usize(rerank)),
            ]),
        };
        let mut fields = vec![
            ("k".into(), Json::from_usize(self.k)),
            ("metric".into(), Json::from_str_value(metric)),
            ("backend".into(), Json::from_str_value(self.backend.name())),
        ];
        if let Some(p) = self.backend.hnsw() {
            fields.push((
                "hnsw".into(),
                Json::Obj(vec![
                    ("m".into(), Json::from_usize(p.m)),
                    (
                        "ef_construction".into(),
                        Json::from_usize(p.ef_construction),
                    ),
                    ("ef_search".into(), Json::from_usize(p.ef_search)),
                    ("seed".into(), Json::from_u64(p.seed)),
                ]),
            ));
        }
        if let Some(p) = self.backend.lsh() {
            fields.push((
                "lsh".into(),
                Json::Obj(vec![
                    ("planes".into(), Json::from_usize(p.planes)),
                    ("tables".into(), Json::from_usize(p.tables)),
                    ("probes".into(), Json::from_usize(p.probes)),
                    ("seed".into(), Json::from_u64(p.seed)),
                ]),
            ));
        }
        fields.push((
            "scan".into(),
            Json::Obj(vec![
                ("tier".into(), Json::from_str_value(self.scan.tier.name())),
                ("quant".into(), quant),
            ]),
        ));
        fields.push(("dirty".into(), Json::Bool(self.dirty)));
        if let Some(t) = self.recall_target {
            fields.push(("recall_target".into(), Json::from_f32(t)));
        }
        if let Some(b) = self.budget_ns {
            fields.push(("budget_ns".into(), Json::from_f32(b as f32)));
        }
        Json::Obj(fields).to_string()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn builder_composes_goals_and_knobs() {
        let op = OperatingPoint::recall_target(0.95)
            .budget(250_000.0)
            .k(5)
            .metric(Metric::Euclidean)
            .lsh(LshParams {
                tables: 4,
                ..LshParams::default()
            })
            .dirty(true);
        assert_eq!(op.k, 5);
        assert_eq!(op.metric, Metric::Euclidean);
        assert_eq!(op.recall_target, Some(0.95));
        assert_eq!(op.budget_ns, Some(250_000.0));
        assert!(op.dirty);
        assert_eq!(op.backend.lsh().unwrap().tables, 4);
        assert!(op.validate().is_ok());
    }

    #[test]
    fn default_mirrors_the_blocker_defaults() {
        let op = OperatingPoint::default();
        assert_eq!(op.k, 10);
        assert_eq!(op.metric, Metric::Cosine);
        assert_eq!(op.backend.hnsw(), Some(HnswParams::default()));
        assert_eq!(op.scan, ScanConfig::default());
        assert!(!op.dirty);
        assert!(op.validate().is_ok());
    }

    #[test]
    fn quantization_on_approximate_backends_is_a_config_error() {
        let op = OperatingPoint::default().scan(ScanConfig {
            tier: KernelTier::Reference,
            quant: Quantization::Int8 { rerank: 32 },
        });
        let err = op.validate().unwrap_err();
        assert!(matches!(err, ErError::Config(_)), "{err}");
        // The same scan on the Exact backend is fine.
        assert!(op.exact().validate().is_ok());
    }

    #[test]
    fn degenerate_parameters_are_rejected() {
        let bad_m = OperatingPoint::default().hnsw(HnswParams {
            m: 1,
            ..HnswParams::default()
        });
        assert!(matches!(bad_m.validate(), Err(ErError::Config(_))));
        let bad_planes = OperatingPoint::default().lsh(LshParams {
            planes: 65,
            ..LshParams::default()
        });
        assert!(matches!(bad_planes.validate(), Err(ErError::Config(_))));
        let bad_target = OperatingPoint::recall_target(1.5);
        assert!(matches!(bad_target.validate(), Err(ErError::Config(_))));
        let bad_budget = OperatingPoint::default().budget(0.0);
        assert!(matches!(bad_budget.validate(), Err(ErError::Config(_))));
    }

    #[test]
    fn query_params_surface_only_the_active_backend() {
        let hnsw = OperatingPoint::default().hnsw(HnswParams {
            ef_search: 32,
            ..HnswParams::default()
        });
        assert_eq!(
            hnsw.query_params(),
            QueryParams {
                ef_search: Some(32),
                probes: None,
                tables: None
            }
        );
        let lsh = OperatingPoint::default().lsh(LshParams {
            probes: 3,
            tables: 6,
            ..LshParams::default()
        });
        assert_eq!(
            lsh.query_params(),
            QueryParams {
                ef_search: None,
                probes: Some(3),
                tables: Some(6)
            }
        );
        assert_eq!(
            OperatingPoint::default().exact().query_params(),
            QueryParams::default()
        );
    }

    #[test]
    fn json_is_canonical_and_distinguishes_points() {
        let a = OperatingPoint::recall_target(0.9);
        let b = OperatingPoint::recall_target(0.9);
        assert_eq!(a.to_json(), b.to_json());
        let c = a.clone().k(7);
        assert_ne!(a.to_json(), c.to_json());
        // Round-trips through the workspace JSON parser.
        let parsed = Json::parse(&a.to_json()).unwrap();
        assert_eq!(parsed.expect("backend").unwrap().as_str().unwrap(), "hnsw");
        assert_eq!(parsed.expect("k").unwrap().as_usize().unwrap(), 10);
    }
}
