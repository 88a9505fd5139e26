//! The unified operating point: every retrieval knob of the workspace —
//! `k`, the backend with its parameters and metric, the Exact scan's
//! tier/quantization, Dirty-ER mode — composed into **one** config type,
//! plus the tuning goal (`recall_target`) the `er-tune` autotuner
//! optimizes against.
//!
//! There is one vocabulary: [`BlockerBackend`] with its [`HnswConfig`] /
//! [`LshConfig`] is what the indices are built and persisted with, and an
//! [`OperatingPoint`] holds it directly. `er-blocking`, the `Pipeline`
//! facade, the `er-serve` `ServeConfig` and `er-tune` all take these
//! values as they are — nothing translates between config types.
//!
//! Each field means one thing: `scan.tier` is the kernel tier every
//! backend ranks with (an HNSW or LSH index keeps it as its own field and
//! persists it), while `scan.quant` configures the Exact scan only.
//! [`BlockerBackend::validate`] states the backend rules once, including
//! "quantization only on Exact", and [`OperatingPoint::validate`] rejects
//! self-contradictory settings with a typed [`ErError::Config`].
//!
//! Query-time parameters (HNSW beam width, LSH probes/tables) are carried
//! separately in [`QueryParams`] so the tuner can sweep them against one
//! built index without rebuilding — see `er_index::IndexReader`'s
//! `search_counted`.

use crate::error::{ErError, Result};
use crate::json::Json;
use crate::metric::Metric;
use crate::scan::{Quantization, ScanConfig};

/// HNSW graph parameters (the paper sweeps `ef_search` in its FAISS
/// configuration ablation).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct HnswConfig {
    /// Max links per node on layers ≥ 1 (layer 0 allows `2·m`).
    pub m: usize,
    /// Beam width while inserting.
    pub ef_construction: usize,
    /// Beam width while querying (raised to `k` when `k` is larger).
    /// A *runtime* parameter: sweeping it never rebuilds the graph.
    pub ef_search: usize,
    pub metric: Metric,
    /// Seed for the level-sampling stream.
    pub seed: u64,
}

impl Default for HnswConfig {
    fn default() -> Self {
        HnswConfig {
            m: 16,
            ef_construction: 100,
            ef_search: 64,
            metric: Metric::Euclidean,
            seed: 42,
        }
    }
}

/// Hyperplane-LSH parameters.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct LshConfig {
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
    /// Metric used for the exact re-ranking of gathered candidates.
    pub metric: Metric,
    /// Seed for the hyperplane streams.
    pub seed: u64,
}

impl Default for LshConfig {
    fn default() -> Self {
        LshConfig {
            planes: 12,
            tables: 8,
            probes: 2,
            // Hyperplane sketches approximate angles, so cosine is the
            // native re-ranking metric.
            metric: Metric::Cosine,
            seed: 42,
        }
    }
}

/// Which index serves the k-NN queries, with its parameters and metric.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum BlockerBackend {
    /// Brute-force scan under the given metric — exact, O(rows) per query.
    Exact(Metric),
    /// HNSW graph (the scalable default).
    Hnsw(HnswConfig),
    /// Hyperplane LSH with multi-table probing.
    Lsh(LshConfig),
}

impl Default for BlockerBackend {
    /// HNSW under cosine — the paper's blocking setting over raw
    /// embeddings, on the scalable index.
    fn default() -> Self {
        BlockerBackend::Hnsw(HnswConfig {
            metric: Metric::Cosine,
            ..HnswConfig::default()
        })
    }
}

impl BlockerBackend {
    /// The metric the backend's index is built with.
    pub fn metric(&self) -> Metric {
        match self {
            BlockerBackend::Exact(metric) => *metric,
            BlockerBackend::Hnsw(config) => config.metric,
            BlockerBackend::Lsh(config) => config.metric,
        }
    }

    /// Short stable name, used by [`OperatingPoint::to_json`] and reports.
    pub(crate) fn name(&self) -> &'static str {
        match self {
            BlockerBackend::Exact(_) => "exact",
            BlockerBackend::Hnsw(_) => "hnsw",
            BlockerBackend::Lsh(_) => "lsh",
        }
    }

    /// The backend rules, stated once for every path that builds or loads
    /// an index — [`OperatingPoint::validate`], the `er_index` constructors
    /// and the `er_index::persist` loaders all call this: `scan.tier` ranks
    /// on every backend, but quantization only configures `Exact`; HNSW
    /// needs `m >= 2` and non-zero beams; LSH signatures are `u64`
    /// bitmasks over at least one table.
    pub fn validate(&self, scan: &ScanConfig) -> Result<()> {
        let fail = |msg: String| Err(ErError::Config(format!("backend config: {msg}")));
        match self {
            BlockerBackend::Exact(_) => Ok(()),
            _ if scan.quant != Quantization::None => fail(format!(
                "quantization only applies to the Exact backend; {} ranks full f32 rows",
                self.name()
            )),
            BlockerBackend::Hnsw(c) if c.m < 2 => fail(format!("HNSW needs m >= 2, got {}", c.m)),
            BlockerBackend::Hnsw(c) if c.ef_construction == 0 || c.ef_search == 0 => {
                fail("HNSW beam widths must be >= 1".to_string())
            }
            BlockerBackend::Lsh(c) if !(1..=64).contains(&c.planes) => fail(format!(
                "LSH signatures are u64 bitmasks, need 1 <= planes <= 64, got {}",
                c.planes
            )),
            BlockerBackend::Lsh(c) if c.tables == 0 => {
                fail("LSH needs at least one table".to_string())
            }
            _ => Ok(()),
        }
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
}

/// One retrieval configuration for the whole stack — see the module docs.
///
/// Build one with the builder (`OperatingPoint::new(10).backend(..)`, or
/// `OperatingPoint::recall_target(0.95)` as a tuning goal) or
/// field-by-field; validate with [`OperatingPoint::validate`]
/// before handing it to a backend.
#[derive(Debug, Clone, PartialEq)]
pub struct OperatingPoint {
    /// Neighbours kept per query entity (the paper sweeps k ∈ {1, 5, 10}).
    pub k: usize,
    /// The index backend with its parameters; its metric is the distance
    /// every backend minimizes and every score derives from.
    pub backend: BlockerBackend,
    /// The kernel tier every backend ranks with, and the quantization of
    /// the *Exact* scan (HNSW/LSH refuse any).
    pub scan: ScanConfig,
    /// Dirty ER: both sides are the same collection, so pairs are
    /// order-normalized and self-pairs dropped.
    pub dirty: bool,
    /// Tuning goal: the fraction of the exact-scan top-k the chosen
    /// configuration must retrieve (`None`: no constraint).
    pub recall_target: Option<f32>,
}

impl Default for OperatingPoint {
    /// Mirrors the blocker's historical defaults: `k = 10`, HNSW under
    /// cosine, Reference kernels, no quantization, Clean-Clean.
    fn default() -> Self {
        OperatingPoint {
            k: 10,
            backend: BlockerBackend::default(),
            scan: ScanConfig::default(),
            dirty: false,
            recall_target: None,
        }
    }
}

impl OperatingPoint {
    /// Start a builder with the given `k` and the default backend
    /// (HNSW/cosine): `OperatingPoint::new(10).backend(..).dirty(true)`.
    pub fn new(k: usize) -> OperatingPoint {
        OperatingPoint {
            k,
            ..OperatingPoint::default()
        }
    }

    /// Start a builder from a recall target — the autotuner's entry point:
    /// `OperatingPoint::recall_target(0.95).metric(Metric::Cosine)`.
    pub fn recall_target(target: f32) -> OperatingPoint {
        OperatingPoint {
            recall_target: Some(target),
            ..OperatingPoint::default()
        }
    }

    pub fn k(mut self, k: usize) -> OperatingPoint {
        self.k = k;
        self
    }

    /// Set the metric of the current backend.
    pub fn metric(mut self, metric: Metric) -> OperatingPoint {
        match &mut self.backend {
            BlockerBackend::Exact(m) => *m = metric,
            BlockerBackend::Hnsw(c) => c.metric = metric,
            BlockerBackend::Lsh(c) => c.metric = metric,
        }
        self
    }

    /// Use the exact brute-force backend under the current metric.
    pub fn exact(mut self) -> OperatingPoint {
        self.backend = BlockerBackend::Exact(self.backend.metric());
        self
    }

    /// Choose the index backend.
    pub fn backend(mut self, backend: BlockerBackend) -> OperatingPoint {
        self.backend = backend;
        self
    }

    /// Choose the kernel tier (every backend) and quantization (Exact only).
    pub fn scan(mut self, scan: ScanConfig) -> OperatingPoint {
        self.scan = scan;
        self
    }

    /// Mark both sides as the same collection (Dirty ER).
    pub fn dirty(mut self, dirty: bool) -> OperatingPoint {
        self.dirty = dirty;
        self
    }

    /// Reject self-contradictory settings with a typed
    /// [`ErError::Config`]: the backend rules of
    /// [`BlockerBackend::validate`] plus the recall target's range.
    pub fn validate(&self) -> Result<()> {
        self.backend.validate(&self.scan)?;
        match self.recall_target {
            Some(t) if !(t > 0.0 && t <= 1.0) => Err(ErError::Config(format!(
                "operating point: recall target must be in (0, 1], got {t}"
            ))),
            _ => Ok(()),
        }
    }

    /// Canonical JSON rendering — stable field order, so two points are
    /// equal iff their JSON is byte-identical (the autotuner-determinism
    /// contract is pinned on this). `scan.tier` is the tier that ranks, on
    /// every backend.
    pub fn to_json(&self) -> String {
        let metric = match self.backend.metric() {
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
        match &self.backend {
            BlockerBackend::Exact(_) => {}
            BlockerBackend::Hnsw(c) => fields.push((
                "hnsw".into(),
                Json::Obj(vec![
                    ("m".into(), Json::from_usize(c.m)),
                    (
                        "ef_construction".into(),
                        Json::from_usize(c.ef_construction),
                    ),
                    ("ef_search".into(), Json::from_usize(c.ef_search)),
                    ("seed".into(), Json::from_u64(c.seed)),
                ]),
            )),
            BlockerBackend::Lsh(c) => fields.push((
                "lsh".into(),
                Json::Obj(vec![
                    ("planes".into(), Json::from_usize(c.planes)),
                    ("tables".into(), Json::from_usize(c.tables)),
                    ("probes".into(), Json::from_usize(c.probes)),
                    ("seed".into(), Json::from_u64(c.seed)),
                ]),
            )),
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
        Json::Obj(fields).to_string()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::kernels::KernelTier;

    fn lsh_tables(tables: usize) -> BlockerBackend {
        BlockerBackend::Lsh(LshConfig {
            tables,
            ..LshConfig::default()
        })
    }

    #[test]
    fn builder_composes_goals_and_knobs() {
        let op = OperatingPoint::recall_target(0.95)
            .k(5)
            .backend(lsh_tables(4))
            .metric(Metric::Euclidean)
            .dirty(true);
        assert_eq!(op.k, 5);
        assert_eq!(op.backend.metric(), Metric::Euclidean);
        assert_eq!(op.recall_target, Some(0.95));
        assert!(op.dirty);
        assert!(matches!(&op.backend, BlockerBackend::Lsh(c) if c.tables == 4));
        assert!(op.validate().is_ok());
        // `exact()` keeps the metric the backend carried.
        assert_eq!(op.exact().backend, BlockerBackend::Exact(Metric::Euclidean));
    }

    #[test]
    fn default_mirrors_the_blocker_defaults() {
        let op = OperatingPoint::default();
        assert_eq!(op, OperatingPoint::new(10));
        assert_eq!(op.backend.metric(), Metric::Cosine);
        assert!(matches!(&op.backend, BlockerBackend::Hnsw(c) if c.m == 16 && c.ef_search == 64));
        assert_eq!(op.scan, ScanConfig::default());
        assert!(!op.dirty);
        assert!(op.validate().is_ok());
    }

    #[test]
    fn quantization_on_approximate_backends_is_a_config_error() {
        let int8 = ScanConfig {
            tier: KernelTier::Reference,
            quant: Quantization::Int8 { rerank: 32 },
        };
        for backend in [BlockerBackend::default(), lsh_tables(8)] {
            let op = OperatingPoint::default().backend(backend).scan(int8);
            let err = op.validate().unwrap_err();
            assert!(matches!(err, ErError::Config(_)), "{err}");
            // The same scan on the Exact backend is fine.
            assert!(op.exact().validate().is_ok());
        }
    }

    #[test]
    fn the_scan_tier_ranks_on_every_backend() {
        let lanes = ScanConfig::with_tier(KernelTier::Lanes);
        for backend in [BlockerBackend::default(), lsh_tables(8)] {
            let op = OperatingPoint::default().backend(backend).scan(lanes);
            assert!(op.validate().is_ok());
            let json = Json::parse(&op.to_json()).unwrap();
            let tier = json.expect("scan").unwrap().expect("tier").unwrap();
            assert_eq!(tier.as_str().unwrap(), "lanes");
        }
    }

    #[test]
    fn degenerate_parameters_are_rejected() {
        let bad_m = OperatingPoint::default().backend(BlockerBackend::Hnsw(HnswConfig {
            m: 1,
            ..HnswConfig::default()
        }));
        assert!(matches!(bad_m.validate(), Err(ErError::Config(_))));
        let bad_planes = OperatingPoint::default().backend(BlockerBackend::Lsh(LshConfig {
            planes: 65,
            ..LshConfig::default()
        }));
        assert!(matches!(bad_planes.validate(), Err(ErError::Config(_))));
        let no_tables = OperatingPoint::default().backend(lsh_tables(0));
        assert!(matches!(no_tables.validate(), Err(ErError::Config(_))));
        let bad_target = OperatingPoint::recall_target(1.5);
        assert!(matches!(bad_target.validate(), Err(ErError::Config(_))));
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
