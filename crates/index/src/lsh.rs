//! Random-hyperplane LSH with multi-table probing (DESIGN.md inventory
//! row 11; the DeepER / AutoBlock lineage baseline).
//!
//! Each table draws `planes` Gaussian hyperplanes; a vector's signature is
//! the bit pattern of its dot-product signs, so two vectors collide with
//! probability `1 − θ/π` — the classic cosine sketch. Queries look up
//! their bucket in every table, optionally probe the buckets reached by
//! flipping the lowest-margin signature bits (multi-probe), then exactly
//! re-rank the gathered candidates under the configured [`Metric`] over
//! the [`EmbeddingMatrix`] the index owns.
//!
//! Determinism: table `t` draws its hyperplanes from the stream
//! `derive(seed, "lsh-table-{t}")`, so the same seed reproduces identical
//! signatures — and table `t` is identical regardless of how many tables
//! follow it, which makes recall provably non-decreasing in `tables` for a
//! fixed seed (the candidate union only grows).

use crate::store::Rows;
use crate::{BlockerBackend, IndexReader, Metric, MutableIndex, Neighbor, NnIndex, ScanConfig};
use er_core::rng::derive;
use er_core::{EmbeddingMatrix, KernelTier, LshConfig, QueryParams, Result};
use rand::{Rng, RngCore};
use std::collections::HashMap;

#[derive(Debug, Clone)]
pub(crate) struct Table {
    /// `planes × dim`, row-major.
    pub(crate) hyperplanes: Vec<Vec<f32>>,
    /// Signature → vector ids, ids in insertion (= index) order.
    pub(crate) buckets: HashMap<u64, Vec<u32>>,
    /// Per-vector signature, for the determinism contract.
    pub(crate) signatures: Vec<u64>,
}

impl Table {
    /// A table over stored `signatures`, one per row id, its signature →
    /// ids map built from them in id order: the load and compaction paths
    /// never redo the float dot products that produced the signatures.
    pub(crate) fn new(hyperplanes: Vec<Vec<f32>>, signatures: Vec<u64>) -> Table {
        let mut buckets: HashMap<u64, Vec<u32>> = HashMap::new();
        for (id, &sig) in signatures.iter().enumerate() {
            buckets.entry(sig).or_default().push(id as u32);
        }
        Table {
            hyperplanes,
            buckets,
            signatures,
        }
    }

    /// Hash row `id` into the table: its signature on `tier`, then its
    /// bucket — the one per-row step of a build and of `insert_row`.
    fn push(&mut self, id: u32, row: &[f32], tier: KernelTier) {
        let sig = signature(&self.hyperplanes, row, tier, |_| {});
        self.signatures.push(sig);
        self.buckets.entry(sig).or_default().push(id);
    }
}

#[derive(Debug, Clone)]
pub struct HyperplaneLsh {
    /// Deleted ids stay hashed in their buckets (ids are stable) but
    /// candidate gathering skips them.
    pub(crate) rows: Rows,
    pub(crate) tables: Vec<Table>,
    pub(crate) config: LshConfig,
    /// The kernel tier of the signature dots and the re-ranking, fixed at
    /// build and persisted: a loaded index probes with the tier it hashed
    /// with.
    pub(crate) tier: KernelTier,
}

/// Standard normal via Box–Muller (the vendored `rand` has no
/// distributions module).
fn gaussian(rng: &mut impl RngCore) -> f32 {
    let u1: f64 = rng.gen_range(f64::MIN_POSITIVE..1.0);
    let u2: f64 = rng.gen_range(0.0..1.0);
    ((-2.0 * u1.ln()).sqrt() * (std::f64::consts::TAU * u2).cos()) as f32
}

impl HyperplaneLsh {
    /// Hash `source` (a matrix moved in, or a `&EmbeddingMatrix` the index
    /// copies: the index owns its rows) into the tables, with every dot
    /// product on `scan.tier`. A config [`BlockerBackend::validate`]
    /// refuses (quantization among them) is its typed
    /// [`er_core::ErError::Config`].
    pub fn from_source(
        source: impl Into<EmbeddingMatrix>,
        config: LshConfig,
        scan: ScanConfig,
    ) -> Result<HyperplaneLsh> {
        BlockerBackend::Lsh(config.clone()).validate(&scan)?;
        let rows = Rows::new(source.into());
        let dim = rows.matrix().dim();
        let tables = (0..config.tables)
            .map(|t| {
                let mut rng = derive(config.seed, &format!("lsh-table-{t}"));
                let hyperplanes = (0..config.planes)
                    .map(|_| (0..dim).map(|_| gaussian(&mut rng)).collect())
                    .collect();
                let mut table = Table::new(hyperplanes, Vec::new());
                for (id, row) in rows.matrix().rows_iter().enumerate() {
                    table.push(id as u32, row, scan.tier);
                }
                table
            })
            .collect();
        Ok(HyperplaneLsh {
            rows,
            tables,
            config,
            tier: scan.tier,
        })
    }

    pub fn config(&self) -> &LshConfig {
        &self.config
    }

    /// The kernel tier of the signature dots and the re-ranking.
    pub fn tier(&self) -> KernelTier {
        self.tier
    }

    /// The stored vectors.
    pub fn matrix(&self) -> &EmbeddingMatrix {
        self.rows.matrix()
    }

    /// Per-table signatures, `[table][vector] -> u64` — exposed so the
    /// determinism tests can assert bit-identity across builds.
    pub fn signatures(&self) -> Vec<&[u64]> {
        self.tables
            .iter()
            .map(|t| t.signatures.as_slice())
            .collect()
    }

    /// The buckets `query` probes under `(probes, tables)`, in probe order:
    /// per table of the prefix (clamped to the built count), the base
    /// bucket, then the buckets reached by flipping single signature bits,
    /// least-confident (smallest |margin|) first. A probed signature
    /// nothing hashed to yields an empty bucket. A query the index would
    /// not answer under the query rule (`Rows::answers`; an index with no
    /// live rows, a query of another width or with a non-finite
    /// component) probes nothing.
    fn probed_buckets<'s>(
        &'s self,
        query: &'s [f32],
        probes: usize,
        tables: usize,
    ) -> impl Iterator<Item = &'s [u32]> + 's {
        let tables = if self.rows.answers(query, 1) {
            tables.clamp(1, self.tables.len())
        } else {
            0
        };
        self.tables[..tables].iter().flat_map(move |table| {
            let mut margins = Vec::with_capacity(self.config.planes);
            let sig = signature(&table.hyperplanes, query, self.tier, |dot| {
                margins.push(dot)
            });
            let mut order: Vec<usize> = (0..self.config.planes).collect();
            order.sort_by(|&a, &b| {
                margins[a]
                    .abs()
                    .total_cmp(&margins[b].abs())
                    .then_with(|| a.cmp(&b))
            });
            order.truncate(probes);
            std::iter::once(sig)
                .chain(order.into_iter().map(move |bit| sig ^ (1 << bit)))
                .map(|probe| table.buckets.get(&probe).map_or(&[][..], Vec::as_slice))
        })
    }

    /// The deduplicated live candidate ids the probing scheme reaches for
    /// `query` (`search` re-ranks these): probe `probes` extra buckets per
    /// table, over only the first `tables` tables (clamped to the built
    /// count). Because table `t`'s hyperplane stream is independent of how
    /// many tables follow it, the prefix gather is bit-identical to an
    /// index *built* with `tables` tables — which is what lets the tuner
    /// sweep both knobs against one build.
    pub fn candidates_slice_with(&self, query: &[f32], probes: usize, tables: usize) -> Vec<u32> {
        let mut seen = vec![false; self.rows.len()];
        self.probed_buckets(query, probes, tables)
            .flatten()
            .copied()
            .filter(|&id| {
                !self.rows.is_deleted(id as usize)
                    && !std::mem::replace(&mut seen[id as usize], true)
            })
            .collect()
    }
}

/// Signature bits — one dot-product sign per hyperplane — via the tier
/// selector (no private scalar fold here: the dots come from
/// [`KernelTier::dot`], the same entry point every other crate ranks
/// with). Each plane's dot, the bit's confidence margin, is also handed to
/// `margin` in plane order.
fn signature(
    hyperplanes: &[Vec<f32>],
    v: &[f32],
    tier: KernelTier,
    mut margin: impl FnMut(f32),
) -> u64 {
    let mut sig = 0u64;
    for (bit, plane) in hyperplanes.iter().enumerate() {
        let dot = tier.dot(plane, v);
        if dot >= 0.0 {
            sig |= 1 << bit;
        }
        margin(dot);
    }
    sig
}

impl NnIndex for HyperplaneLsh {
    fn len(&self) -> usize {
        self.rows.len()
    }

    fn metric(&self) -> Metric {
        self.config.metric
    }

    fn search_slice(&self, query: &[f32], k: usize) -> Vec<Neighbor> {
        self.search_counted(query, k, &QueryParams::default()).0
    }
}

impl IndexReader for HyperplaneLsh {
    fn is_deleted(&self, index: usize) -> bool {
        self.rows.is_deleted(index)
    }

    fn live_count(&self) -> usize {
        self.rows.live()
    }

    /// Honors `params.probes` and `params.tables` (runtime probe settings
    /// — the table prefix is bit-identical to an index built with that
    /// many tables); `ef_search` is ignored. Gathers candidates and
    /// re-ranks them exactly; the counter is the candidate count — one
    /// full-width distance per gathered row (the signature dots are priced
    /// separately by the cost model).
    fn search_counted(
        &self,
        query: &[f32],
        k: usize,
        params: &QueryParams,
    ) -> (Vec<Neighbor>, u64) {
        if !self.rows.answers(query, k) {
            return (Vec::new(), 0);
        }
        let probes = params.probes.unwrap_or(self.config.probes);
        let tables = params.tables.unwrap_or(self.config.tables);
        let candidates = self.candidates_slice_with(query, probes, tables);
        let evals = candidates.len() as u64;
        let hits = self.rows.rerank(
            self.config.metric,
            self.tier,
            query,
            candidates.into_iter().map(|id| id as usize),
            k,
        );
        (hits, evals)
    }
}

impl MutableIndex for HyperplaneLsh {
    fn insert_row(&mut self, row: &[f32]) -> er_core::Result<usize> {
        let id = self.rows.push(row, "HyperplaneLsh::insert_row")?;
        for table in &mut self.tables {
            table.push(id as u32, row, self.tier);
        }
        Ok(id)
    }

    fn delete_row(&mut self, index: usize) -> bool {
        self.rows.delete(index)
    }

    /// Float-free compaction: the hyperplanes are untouched, live rows
    /// (with their cached norms) and their stored signatures are copied
    /// verbatim in stable order, and the buckets are rebuilt from the kept
    /// signatures — no dot product is ever recomputed, so candidate sets
    /// and re-ranked distances stay bit-identical.
    fn compact(&mut self) -> Vec<u32> {
        let stored = self.len();
        let keep = self.rows.compact();
        if keep.len() < stored {
            for table in &mut self.tables {
                let signatures = keep.iter().map(|&old| table.signatures[old as usize]);
                *table = Table::new(std::mem::take(&mut table.hyperplanes), signatures.collect());
            }
        }
        keep
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use er_core::rng::rng;

    fn random_vectors(n: usize, dim: usize, seed: u64) -> EmbeddingMatrix {
        let mut r = rng(seed);
        let flat = (0..n * dim).map(|_| r.gen_range(-1.0..1.0)).collect();
        EmbeddingMatrix::from_flat(dim, flat).unwrap()
    }

    #[test]
    fn identical_vectors_always_collide() {
        let vectors = random_vectors(20, 8, 1);
        let lsh = HyperplaneLsh::from_source(&vectors, LshConfig::default(), ScanConfig::default())
            .unwrap();
        for (id, v) in vectors.rows_iter().enumerate() {
            // A vector is always a candidate for itself (same signature in
            // every table), so search finds it at distance ~0.
            let hits = lsh.search_slice(v, 1);
            assert_eq!(hits[0].index, id);
            assert!(hits[0].distance < 1e-6);
        }
    }

    #[test]
    fn probing_expands_the_candidate_set() {
        let vectors = random_vectors(200, 8, 2);
        let lsh = HyperplaneLsh::from_source(&vectors, LshConfig::default(), ScanConfig::default())
            .unwrap();
        let q = [0.3; 8];
        let narrow = lsh.candidates_slice_with(&q, 0, 8).len();
        let wide = lsh.candidates_slice_with(&q, 4, 8).len();
        assert!(wide >= narrow, "probing must not shrink candidates");
    }

    #[test]
    fn empty_index_and_zero_k() {
        let lsh = HyperplaneLsh::from_source(
            EmbeddingMatrix::new(0),
            LshConfig::default(),
            ScanConfig::default(),
        )
        .unwrap();
        assert!(lsh.is_empty());
        assert!(lsh.search_slice(&[1.0], 5).is_empty());
        let one = EmbeddingMatrix::from_flat(2, vec![1.0, 2.0]).unwrap();
        let one =
            HyperplaneLsh::from_source(one, LshConfig::default(), ScanConfig::default()).unwrap();
        assert!(one.search_slice(&[1.0, 2.0], 0).is_empty());
    }

    #[test]
    fn gaussian_stream_is_roughly_standard() {
        let mut r = rng(7);
        let samples: Vec<f32> = (0..4000).map(|_| gaussian(&mut r)).collect();
        let mean = samples.iter().sum::<f32>() / samples.len() as f32;
        let var =
            samples.iter().map(|x| (x - mean) * (x - mean)).sum::<f32>() / samples.len() as f32;
        assert!(mean.abs() < 0.1, "mean {mean}");
        assert!((var - 1.0).abs() < 0.15, "variance {var}");
    }
}
