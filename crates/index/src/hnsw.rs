//! HNSW — Hierarchical Navigable Small World graphs (Malkov & Yashunin,
//! DESIGN.md inventory row 10; the FAISS-HNSW analogue of the paper's
//! scalability study, §4.3).
//!
//! A layered proximity graph: layer 0 holds every vector with up to `2·M`
//! links, each higher layer an exponentially thinner subset with up to `M`
//! links. Queries greedily descend from the sparse top layer, then run a
//! best-first beam of width `ef_search` on layer 0. Construction inserts
//! nodes one at a time with a beam of width `ef_construction` and the
//! heuristic neighbour selection of the paper's Algorithm 4.
//!
//! Vectors live in an [`EmbeddingMatrix`] the index owns; all distance
//! evaluations run over contiguous rows with precomputed norms, and the
//! query norm is computed once per search rather than once per comparison.
//!
//! Determinism: node levels are the only random choice, drawn from a
//! dedicated stream of `er_core::rng` seeded by `HnswConfig::seed`; every
//! heap and neighbour comparison tie-breaks on node id, so one
//! `(vectors, config)` pair always builds the bit-identical graph.
//!
//! Incremental mutation (the `er-serve` path): the level stream lives *in*
//! the index, and the batch build is nothing but a loop of single-node
//! inserts — so [`MutableIndex::insert_row`] calls after a build continue
//! the same stream, and inserting rows one at a time in build order
//! produces the bit-identical graph a batch build would (pinned by tests).
//! Deletions are tombstones: the node keeps its id and its links (it still
//! routes searches through the graph) but is masked out of results.

use crate::store::{Ranked, Rows};
use crate::{BlockerBackend, IndexReader, Metric, MutableIndex, Neighbor, NnIndex, ScanConfig};
use er_core::rng::{derive, DetRng};
use er_core::{EmbeddingMatrix, HnswConfig, KernelTier, QueryParams, Result};
use rand::Rng;
use std::cmp::Reverse;
use std::collections::BinaryHeap;

/// Levels are capped so a pathological RNG draw cannot allocate an
/// unbounded tower (16 layers already covers ~M^16 nodes).
pub(crate) const MAX_LEVEL: usize = 16;

/// A graph candidate: `(distance to the query, node id)`, ties broken on
/// the id so every heap and neighbour comparison is deterministic.
type Cand = Ranked<u32>;

#[derive(Debug, Clone)]
pub struct HnswIndex {
    /// A tombstoned node is masked out of search results while its links
    /// keep routing.
    pub(crate) rows: Rows,
    /// `neighbors[node][layer]` — adjacency lists, layer 0 first.
    pub(crate) neighbors: Vec<Vec<Vec<u32>>>,
    pub(crate) entry: u32,
    pub(crate) max_level: usize,
    pub(crate) config: HnswConfig,
    /// The kernel tier every graph distance runs on, fixed at build and
    /// persisted: a loaded graph searches with the tier it was built with.
    pub(crate) tier: KernelTier,
    /// The level-sampling stream, positioned after one draw per stored
    /// node — a later `insert_row` continues exactly where the build left
    /// off (and persistence replays the stream to this position on load).
    pub(crate) level_rng: DetRng,
}

impl HnswIndex {
    /// Build the graph over `source` (a matrix moved in, or a
    /// `&EmbeddingMatrix` the index copies: the index owns its rows) with
    /// every distance on `scan.tier`. A config [`BlockerBackend::validate`]
    /// refuses (quantization among them) is its typed
    /// [`er_core::ErError::Config`].
    ///
    /// The batch build *is* the incremental path — one level draw plus one
    /// insert per row — so `insert_row` calls afterwards continue the same
    /// level stream and the graph never depends on which path built it.
    pub fn from_source_scan(
        source: impl Into<EmbeddingMatrix>,
        config: HnswConfig,
        scan: ScanConfig,
    ) -> Result<HnswIndex> {
        BlockerBackend::Hnsw(config.clone()).validate(&scan)?;
        let mut index = HnswIndex {
            rows: Rows::new(source.into()),
            neighbors: Vec::new(),
            entry: 0,
            max_level: 0,
            level_rng: derive(config.seed, "hnsw-levels"),
            config,
            tier: scan.tier,
        };
        index.build_graph();
        Ok(index)
    }

    /// [`HnswIndex::from_source_scan`] on the default scan (the `Reference`
    /// tier), panicking where it errs.
    #[allow(clippy::panic)] // an infallible signature `bench_e2e` builds with
    pub fn from_source(source: impl Into<EmbeddingMatrix>, config: HnswConfig) -> HnswIndex {
        HnswIndex::from_source_scan(source, config, ScanConfig::default())
            .unwrap_or_else(|err| panic!("{err}"))
    }

    /// Build the graph over every stored row from scratch: restart the
    /// level stream from `config.seed`, then one level draw plus one
    /// insert per row, in row order.
    fn build_graph(&mut self) {
        let n = self.rows.len();
        self.neighbors = Vec::with_capacity(n);
        self.entry = 0;
        self.max_level = 0;
        self.level_rng = derive(self.config.seed, "hnsw-levels");
        for id in 0..n as u32 {
            let level = self.draw_level();
            self.insert(id, level);
        }
    }

    /// One draw from the level stream: the exponentially-decaying level
    /// distribution P(level ≥ l) = M^(-l), capped at [`MAX_LEVEL`].
    fn draw_level(&mut self) -> usize {
        let ml = 1.0 / (self.config.m as f64).ln();
        let u: f64 = self.level_rng.gen_range(0.0..1.0);
        // 1−u ∈ (0, 1] keeps ln finite; u = 0 maps to level 0.
        let level = ((-(1.0 - u).ln()) * ml) as usize;
        level.min(MAX_LEVEL)
    }

    /// Reposition a fresh level stream after `draws` nodes — how the
    /// persistence load path reconstitutes [`Self::level_rng`] without
    /// serializing generator internals: the draw count always equals the
    /// number of stored rows.
    pub(crate) fn level_rng_after(seed: u64, draws: usize) -> DetRng {
        let mut rng = derive(seed, "hnsw-levels");
        for _ in 0..draws {
            let _: f64 = rng.gen_range(0.0..1.0);
        }
        rng
    }

    pub fn config(&self) -> &HnswConfig {
        &self.config
    }

    /// The kernel tier every graph distance runs on.
    pub fn tier(&self) -> KernelTier {
        self.tier
    }

    /// The stored vectors.
    pub fn matrix(&self) -> &EmbeddingMatrix {
        self.rows.matrix()
    }

    /// The adjacency structure, `[node][layer] -> neighbour ids` — exposed
    /// so determinism tests can assert bit-identical graphs.
    pub fn adjacency(&self) -> &[Vec<Vec<u32>>] {
        &self.neighbors
    }

    pub fn max_level(&self) -> usize {
        self.max_level
    }

    /// Distance from a query row (norm cached by the caller) to a stored row.
    #[inline]
    fn dist(&self, query: &[f32], query_norm: f32, id: u32) -> f32 {
        let m = self.rows.matrix();
        self.config.metric.distance_prenorm_tier(
            self.tier,
            query,
            query_norm,
            m.row(id as usize),
            m.norm(id as usize),
        )
    }

    /// Distance between two stored rows — both norms come from the cache.
    #[inline]
    fn dist_rows(&self, a: u32, b: u32) -> f32 {
        let m = self.rows.matrix();
        self.dist(m.row(a as usize), m.norm(a as usize), b)
    }

    fn insert(&mut self, id: u32, level: usize) {
        self.neighbors.push(vec![Vec::new(); level + 1]);
        if id == 0 {
            self.entry = 0;
            self.max_level = level;
            return;
        }
        // The inserted row doubles as the query while its links are chosen;
        // copy it out so searches can mutate `self.neighbors` freely.
        let query: Vec<f32> = self.rows.matrix().row(id as usize).to_vec();
        let query_norm = self.rows.matrix().norm(id as usize);
        let mut cur = Cand {
            dist: self.dist(&query, query_norm, self.entry),
            id: self.entry,
        };
        // Construction reuses the search helpers; their eval counter only
        // matters on the query path.
        let mut evals = 0u64;
        // Greedy descent through layers above the new node's level.
        for layer in (level + 1..=self.max_level).rev() {
            cur = self.greedy_closest(&query, query_norm, cur, layer, &mut evals);
        }
        // Beam search + connect on each layer the node participates in.
        let mut entries = vec![cur];
        for layer in (0..=level.min(self.max_level)).rev() {
            // No mask: construction links through tombstoned nodes, which
            // is what keeps journal replay bit-identical to the live path.
            let found = self.search_layer(
                &query,
                query_norm,
                &entries,
                self.config.ef_construction,
                layer,
                &mut evals,
                |_| true,
            );
            let max_conn = if layer == 0 {
                2 * self.config.m
            } else {
                self.config.m
            };
            let selected = self.select_neighbors(&found, self.config.m);
            for &nb in &selected {
                let conns = &mut self.neighbors[nb as usize][layer];
                conns.push(id);
                if conns.len() > max_conn {
                    let conns = std::mem::take(conns);
                    self.neighbors[nb as usize][layer] = self.prune(nb, conns, max_conn);
                }
            }
            self.neighbors[id as usize][layer] = selected;
            entries = found;
        }
        if level > self.max_level {
            self.max_level = level;
            self.entry = id;
        }
    }

    /// Hill-climb to the locally closest node of one layer (beam width 1).
    /// `evals` counts every distance evaluation the climb performs.
    fn greedy_closest(
        &self,
        query: &[f32],
        query_norm: f32,
        mut cur: Cand,
        layer: usize,
        evals: &mut u64,
    ) -> Cand {
        loop {
            let mut best = cur;
            for &nb in &self.neighbors[cur.id as usize][layer] {
                *evals += 1;
                let cand = Cand {
                    dist: self.dist(query, query_norm, nb),
                    id: nb,
                };
                if cand < best {
                    best = cand;
                }
            }
            if best.id == cur.id {
                return cur;
            }
            cur = best;
        }
    }

    /// Best-first beam search of one layer (the paper's Algorithm 2),
    /// returning up to `ef` candidates sorted nearest-first. `evals`
    /// counts every distance evaluation of the beam.
    ///
    /// `live` masks the *result set* only: a node it rejects is still
    /// traversed (it keeps routing the beam through the graph) but never
    /// enters the results, so the beam keeps `ef` live candidates and
    /// `k ≤ ef` hits never contain a masked id. Construction passes
    /// `|_| true`, which monomorphizes the mask away.
    // `expect`: a full beam holds `ef >= 1` entries (the query `k >= 1`,
    // the validated `ef_construction >= 1`), so `peek` finds one.
    #[allow(clippy::too_many_arguments, clippy::expect_used)]
    fn search_layer(
        &self,
        query: &[f32],
        query_norm: f32,
        entries: &[Cand],
        ef: usize,
        layer: usize,
        evals: &mut u64,
        live: impl Fn(u32) -> bool,
    ) -> Vec<Cand> {
        // Every node linked so far has an adjacency entry.
        let mut visited = vec![false; self.neighbors.len()];
        let mut frontier: BinaryHeap<Reverse<Cand>> = BinaryHeap::new();
        // `ef` is at least the caller's `k`: cap the capacity by the nodes.
        let mut results: BinaryHeap<Cand> = BinaryHeap::with_capacity(ef.min(visited.len()) + 1);
        for &e in entries {
            if !std::mem::replace(&mut visited[e.id as usize], true) {
                frontier.push(Reverse(e));
                if live(e.id) {
                    results.push(e);
                }
            }
        }
        while results.len() > ef {
            results.pop();
        }
        while let Some(Reverse(cand)) = frontier.pop() {
            // Under a mask `results` may still be empty here (every entry
            // masked), so the cut-off only applies once the beam is full.
            if results.len() == ef && cand.dist > results.peek().expect("full").dist {
                break;
            }
            for &nb in &self.neighbors[cand.id as usize][layer] {
                if std::mem::replace(&mut visited[nb as usize], true) {
                    continue;
                }
                *evals += 1;
                let next = Cand {
                    dist: self.dist(query, query_norm, nb),
                    id: nb,
                };
                if results.len() < ef || next < *results.peek().expect("non-empty") {
                    frontier.push(Reverse(next));
                    if live(nb) {
                        results.push(next);
                        if results.len() > ef {
                            results.pop();
                        }
                    }
                }
            }
        }
        let mut out = results.into_vec();
        out.sort_unstable();
        out
    }

    /// Heuristic neighbour selection (Algorithm 4): walk candidates
    /// nearest-first, keeping one only if it is closer to the query than to
    /// every already-kept neighbour (diversity), then back-fill with the
    /// nearest rejected candidates (keep-pruned-connections).
    fn select_neighbors(&self, candidates: &[Cand], m: usize) -> Vec<u32> {
        let mut selected: Vec<Cand> = Vec::with_capacity(m);
        for &cand in candidates {
            if selected.len() == m {
                break;
            }
            let diverse = selected
                .iter()
                .all(|&kept| self.dist_rows(cand.id, kept.id) > cand.dist);
            if diverse {
                selected.push(cand);
            }
        }
        if selected.len() < m {
            for &cand in candidates {
                if selected.len() == m {
                    break;
                }
                if !selected.iter().any(|kept| kept.id == cand.id) {
                    selected.push(cand);
                }
            }
        }
        selected.into_iter().map(|c| c.id).collect()
    }

    /// Re-select a node's links after a back-link pushed it past `max_conn`.
    fn prune(&self, node: u32, conns: Vec<u32>, max_conn: usize) -> Vec<u32> {
        let mut cands: Vec<Cand> = conns
            .into_iter()
            .map(|id| Cand {
                dist: self.dist_rows(node, id),
                id,
            })
            .collect();
        cands.sort_unstable();
        self.select_neighbors(&cands, max_conn)
    }
}

impl NnIndex for HnswIndex {
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

impl IndexReader for HnswIndex {
    fn is_deleted(&self, index: usize) -> bool {
        self.rows.is_deleted(index)
    }

    fn live_count(&self) -> usize {
        self.rows.live()
    }

    /// Honors `params.ef_search` (the runtime beam width — bit-identical
    /// to an index built with that `HnswConfig::ef_search`); other params
    /// are ignored. Counts every distance evaluation: entry distance,
    /// greedy descent, layer-0 beam.
    fn search_counted(
        &self,
        query: &[f32],
        k: usize,
        params: &QueryParams,
    ) -> (Vec<Neighbor>, u64) {
        if !self.rows.answers(query, k) {
            return (Vec::new(), 0);
        }
        let query_norm = self.config.metric.query_norm_tier(self.tier, query);
        let mut evals = 1u64;
        let mut cur = Cand {
            dist: self.dist(query, query_norm, self.entry),
            id: self.entry,
        };
        // The greedy descent may pass through (or land on) deleted nodes —
        // they only route; layer 0 masks them out of the results.
        for layer in (1..=self.max_level).rev() {
            cur = self.greedy_closest(query, query_norm, cur, layer, &mut evals);
        }
        let ef = params.ef_search.unwrap_or(self.config.ef_search).max(k);
        let found = self.search_layer(query, query_norm, &[cur], ef, 0, &mut evals, |id| {
            !self.rows.is_deleted(id as usize)
        });
        let hits = found
            .into_iter()
            .take(k)
            .map(|c| Neighbor::new(c.id as usize, c.dist))
            .collect();
        (hits, evals)
    }
}

impl MutableIndex for HnswIndex {
    fn insert_row(&mut self, row: &[f32]) -> er_core::Result<usize> {
        let id = self.rows.push(row, "HnswIndex::insert_row")?;
        let level = self.draw_level();
        self.insert(id as u32, level);
        Ok(id)
    }

    fn delete_row(&mut self, index: usize) -> bool {
        self.rows.delete(index)
    }

    /// Compaction rebuilds the graph from scratch over the live rows — and
    /// because the batch build *is* the incremental insert loop, the result
    /// is bit-identical to a fresh `from_source` build over the live rows
    /// in stable order (the level stream restarts from `config.seed` and is
    /// left positioned after one draw per live row, so later `insert_row`
    /// calls continue exactly like inserts into that fresh build). Row
    /// floats and their cached norms are copied verbatim.
    fn compact(&mut self) -> Vec<u32> {
        let stored = self.len();
        let keep = self.rows.compact();
        if keep.len() < stored {
            self.build_graph();
        }
        keep
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn grid() -> EmbeddingMatrix {
        // A 6×6 grid: nearest neighbours are unambiguous.
        let flat = (0..36).flat_map(|i| [(i % 6) as f32, (i / 6) as f32]);
        EmbeddingMatrix::from_flat(2, flat.collect()).unwrap()
    }

    #[test]
    fn finds_exact_hits_on_small_data() {
        let index = HnswIndex::from_source(grid(), HnswConfig::default());
        assert_eq!(index.len(), 36);
        // Query right on top of node 14 = (2, 2).
        let hits = index.search_slice(&[2.0, 2.0], 5);
        assert_eq!(hits[0], Neighbor::new(14, 0.0));
        // The four direct grid neighbours are all at distance 1.
        let next: Vec<usize> = hits[1..].iter().map(|h| h.index).collect();
        assert_eq!(next, vec![8, 13, 15, 20]);
    }

    #[test]
    fn empty_and_degenerate_inputs() {
        let empty = HnswIndex::from_source(EmbeddingMatrix::new(0), HnswConfig::default());
        assert!(empty.is_empty());
        assert!(empty.search_slice(&[0.0], 3).is_empty());

        let one = EmbeddingMatrix::from_flat(2, vec![1.0, 1.0]).unwrap();
        let one = HnswIndex::from_source(one, HnswConfig::default());
        let hits = one.search_slice(&[0.0, 0.0], 5);
        assert_eq!(hits, vec![Neighbor::new(0, 2.0)]);
        assert!(one.search_slice(&[0.0, 0.0], 0).is_empty());
    }

    #[test]
    fn respects_cosine_metric() {
        let vectors = EmbeddingMatrix::from_flat(2, vec![1.0, 0.0, 0.0, 2.0, 3.0, 4.0]).unwrap();
        let index = HnswIndex::from_source(
            vectors,
            HnswConfig {
                metric: Metric::Cosine,
                ..HnswConfig::default()
            },
        );
        assert_eq!(index.metric(), Metric::Cosine);
        let hits = index.search_slice(&[1.0, 0.0], 3);
        assert_eq!(hits[0].index, 0);
        assert_eq!(
            hits[1].index, 2,
            "cosine ranks colinear-ish above orthogonal"
        );
        assert!((hits[1].distance - 0.4).abs() < 1e-6);
    }

    #[test]
    fn graph_is_bounded_connected_and_self_link_free() {
        let index = HnswIndex::from_source(grid(), HnswConfig::default());
        let adj = index.adjacency();
        for (id, layers) in adj.iter().enumerate() {
            assert!(!layers.is_empty());
            assert!(layers[0].len() <= 2 * index.config().m);
            if adj.len() > 1 {
                assert!(!layers[0].is_empty(), "node {id} isolated on layer 0");
            }
            for &nb in &layers[0] {
                assert_ne!(nb as usize, id, "no self-links");
                assert!((nb as usize) < adj.len());
            }
        }
        // Every node must be findable: querying a node's own vector with a
        // wide beam returns that node first.
        for (id, v) in grid().rows_iter().enumerate() {
            let hits = index.search_slice(v, 1);
            assert_eq!(
                hits[0],
                Neighbor::new(id, 0.0),
                "node {id} unreachable from entry"
            );
        }
    }
}
