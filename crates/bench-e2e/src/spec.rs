//! The six workloads. Every workload runs the *whole* lifecycle —
//! records → vectorize → block → match, then insert → query → write →
//! checkpoint → crash → recover — so every end-to-end metric is a real
//! measurement on every workload; the workloads differ in which part is
//! large (and therefore which layer dominates) and which is the small
//! companion.

use er_blocking::BlockerBackend;
use er_core::{KernelTier, Metric, ScanConfig};
use er_embed::{ModelCode, ZooConfig};
use er_serve::ServeConfig;

/// Shard count is fixed, not derived from `nproc`, so numbers compare
/// across machines.
pub const SHARDS: usize = 2;
/// Neighbours per query, everywhere.
pub const K: usize = 10;
/// The pre-trained models are a fixed artifact of the program; only data
/// and op sequences derive from `--seed`.
pub const MODEL_SEED: u64 = 42;
/// Query answers checked against the brute-force model per repetition.
pub const SAMPLED_ANSWERS: usize = 200;
/// Probe queries compared before and after the crash-reopen.
pub const DURABILITY_PROBES: usize = 200;

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Scale {
    /// The sizes recorded in `BASELINE.json`.
    Full,
    /// ≈ 1/50 sizes and the tiny zoo: the `cargo test` smoke run.
    Smoke,
}

impl Scale {
    pub fn parse(s: &str) -> Option<Scale> {
        match s {
            "full" => Some(Scale::Full),
            "smoke" => Some(Scale::Smoke),
            _ => None,
        }
    }

    pub fn name(self) -> &'static str {
        match self {
            Scale::Full => "full",
            Scale::Smoke => "smoke",
        }
    }

    pub fn zoo(self) -> ZooConfig {
        match self {
            Scale::Full => ZooConfig::fast(),
            Scale::Smoke => ZooConfig::tiny(),
        }
    }
}

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Backend {
    /// `Exact(Cosine)` on the `Lanes` kernel tier.
    ExactLanes,
    /// `ServeConfig::new()`'s default: HNSW cosine, m=16, efC=100, ef=64.
    HnswDefault,
}

impl Backend {
    pub fn serve_config(self) -> ServeConfig {
        let base = ServeConfig::new().shards(SHARDS);
        match self {
            Backend::ExactLanes => base
                .backend(BlockerBackend::Exact(Metric::Cosine))
                .scan(ScanConfig::with_tier(KernelTier::Lanes)),
            Backend::HnswDefault => base,
        }
    }

    /// The kernel tier the backend's distances run on — the brute-force
    /// model must use the same one to compare bit for bit.
    pub fn tier(self) -> KernelTier {
        match self {
            Backend::ExactLanes => KernelTier::Lanes,
            Backend::HnswDefault => KernelTier::Reference,
        }
    }

    pub fn is_exact(self) -> bool {
        self == Backend::ExactLanes
    }
}

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Source {
    /// Tiled D1–D10 entities through `Resolver::{insert,upsert,query}`.
    Entities,
    /// Seeded 64-centre mixture rows through `ShardedIndex::insert` /
    /// `Resolver::query_embedding`.
    Vectors,
}

#[derive(Debug, Clone)]
pub struct Spec {
    pub name: &'static str,
    pub why: &'static str,
    pub model: ModelCode,
    /// Target `(left, right)` sizes of the batch collections (whole
    /// tiles, so the actual sizes are slightly larger).
    pub batch: (usize, usize),
    /// `Pipeline::resolve` calls per repetition (their median is the
    /// repetition's wall): 1 where the resolve is the large half, 3 where
    /// it is the ~0.1 s companion and a single call is mostly jitter.
    pub resolves: usize,
    pub backend: Backend,
    pub source: Source,
    /// Records in the store before the measured stream.
    pub preload: usize,
    /// Ops per repetition, by kind.
    pub queries: usize,
    pub inserts: usize,
    pub upserts: usize,
    pub deletes: usize,
    /// Un-checkpointed writes between the checkpoint and the crash.
    pub tail: usize,
}

impl Spec {
    pub fn writes(&self) -> usize {
        self.inserts + self.upserts + self.deletes
    }

    pub fn ops(&self) -> usize {
        self.queries + self.writes()
    }
}

// Sizing notes (2-core reference box, see BASELINE.json):
// * every repetition has > 1 000 queries and > 1 000 writes, so each p99
//   has at least ten samples beyond it;
// * preloads put ≈ 1.5·2ⁿ rows on each shard — midway between two
//   capacity doublings of the row buffer — so `resident_bytes_per_row`
//   does not jump when a seed moves a few rows across shards.
const FULL: [Spec; 6] = [
    Spec {
        name: "batch_scan",
        why: "FT Clean-Clean 12k x 12k resolve: the N x M kernel scan + top-k is >70% of wall, embed ~12%; small serve companion",
        model: ModelCode::FT,
        batch: (12_000, 12_000),
        resolves: 1,
        backend: Backend::ExactLanes,
        source: Source::Entities,
        preload: 3000,
        queries: 1200,
        inserts: 400,
        upserts: 400,
        deletes: 400,
        tail: 600,
    },
    Spec {
        name: "batch_embed",
        why: "same pipeline with the BT transformer at 3k x 3k: vectorization is ~80% of wall, scan ~10%; the weights of batch_scan reversed",
        model: ModelCode::BT,
        batch: (3000, 3000),
        resolves: 1,
        backend: Backend::ExactLanes,
        source: Source::Entities,
        preload: 3000,
        queries: 1200,
        inserts: 400,
        upserts: 400,
        deletes: 400,
        tail: 600,
    },
    Spec {
        name: "serve_read_small",
        why: "read-mostly queries over 3k entities that fit L2: per-query fixed cost (embed, pin, per-shard thread spawn, merge) dominates the scan",
        model: ModelCode::FT,
        batch: (2000, 2000),
        resolves: 3,
        backend: Backend::ExactLanes,
        source: Source::Entities,
        preload: 3000,
        queries: 6000,
        inserts: 400,
        upserts: 400,
        deletes: 400,
        tail: 600,
    },
    Spec {
        name: "serve_read_large",
        why: "50k synthetic 48-d rows (9.6 MB per copy, beyond L2): the scan dominates each query, fixed costs are noise",
        model: ModelCode::FT,
        batch: (2000, 2000),
        resolves: 3,
        backend: Backend::ExactLanes,
        source: Source::Vectors,
        preload: 50_000,
        queries: 1200,
        inserts: 400,
        upserts: 400,
        deletes: 400,
        tail: 600,
    },
    Spec {
        name: "serve_hnsw_mixed",
        why: "default backend (HNSW) over 6k rows, 80% reads / 20% writes: graph traversal and incremental graph insert instead of scan and append",
        model: ModelCode::FT,
        batch: (2000, 2000),
        resolves: 3,
        backend: Backend::HnswDefault,
        source: Source::Vectors,
        preload: 6000,
        queries: 4800,
        inserts: 600,
        upserts: 300,
        deletes: 300,
        tail: 300,
    },
    Spec {
        name: "serve_durable_churn",
        why: "50% writes over 3k entities: embed, journal append, double apply, >=3 threshold compactions per shard per repetition, checkpoint, journal replay",
        model: ModelCode::FT,
        batch: (2000, 2000),
        resolves: 3,
        backend: Backend::ExactLanes,
        source: Source::Entities,
        preload: 3000,
        queries: 6400,
        inserts: 2000,
        upserts: 2400,
        deletes: 2000,
        tail: 2000,
    },
];

fn shrink(n: usize, floor: usize) -> usize {
    (n / 50).max(floor)
}

pub fn workloads(scale: Scale) -> Vec<Spec> {
    FULL.iter()
        .map(|s| match scale {
            Scale::Full => s.clone(),
            Scale::Smoke => Spec {
                batch: (shrink(s.batch.0, 100), shrink(s.batch.1, 100)),
                // >= 64 rows per shard, so the default compaction policy
                // can still trigger.
                preload: shrink(s.preload, 200),
                queries: shrink(s.queries, 60),
                inserts: shrink(s.inserts, 20),
                upserts: shrink(s.upserts, 20),
                deletes: shrink(s.deletes, 20),
                tail: shrink(s.tail, 30),
                ..s.clone()
            },
        })
        .collect()
}

pub fn find(scale: Scale, name: &str) -> Option<Spec> {
    workloads(scale).into_iter().find(|s| s.name == name)
}
