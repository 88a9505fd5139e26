//! Seeded inputs: scaled Clean-Clean collections tiled from D1–D10,
//! synthetic mixture vectors, and the serve op streams. Everything here is
//! a pure function of the seed; the library sees only what is generated.

use crate::spec::{Source, Spec, DURABILITY_PROBES, SAMPLED_ANSWERS};
use er_core::rng::derive;
use er_core::{Embedding, EmbeddingMatrix, Entity, EntityId, GroundTruth};
use er_datasets::{CleanCleanDataset, DatasetId};
use rand::prelude::*;

/// An N×M Clean-Clean instance built from whole D1–D10 tiles.
#[derive(Debug, Clone)]
pub struct Collections {
    pub left: Vec<Entity>,
    pub right: Vec<Entity>,
    pub ground_truth: GroundTruth,
    /// Σ over tiles of the tile's own match count — equals
    /// `ground_truth.len()` because tiles never share ids.
    pub tile_matches: usize,
}

/// Tile `CleanCleanDataset::generate` round-robin over D1–D10 (tile `j`
/// seeded from `derive(seed, "tile-j")`), renumbering ids and unioning the
/// ground truths, until both sides reach their target size. Tiles stay
/// whole, so the result is slightly larger than asked.
pub fn tiled_clean_clean(seed: u64, left_target: usize, right_target: usize) -> Collections {
    let mut left = Vec::with_capacity(left_target + 160);
    let mut right = Vec::with_capacity(right_target + 160);
    let mut pairs = Vec::new();
    let mut tile_matches = 0;
    let mut tile = 0usize;
    while left.len() < left_target || right.len() < right_target {
        let id = DatasetId::ALL[tile % DatasetId::ALL.len()];
        let tile_seed = derive(seed, &format!("tile-{tile}")).next_u64();
        let ds = CleanCleanDataset::generate(id, tile_seed);
        let (lo, ro) = (left.len() as u32, right.len() as u32);
        tile_matches += ds.ground_truth.len();
        pairs.extend(
            ds.ground_truth
                .iter()
                .map(|(l, r)| (EntityId(l.0 + lo), EntityId(r.0 + ro))),
        );
        left.extend(ds.left.into_iter().map(|mut e| {
            e.id = EntityId(e.id.0 + lo);
            e
        }));
        right.extend(ds.right.into_iter().map(|mut e| {
            e.id = EntityId(e.id.0 + ro);
            e
        }));
        tile += 1;
    }
    Collections {
        left,
        right,
        ground_truth: GroundTruth::clean_clean(pairs),
        tile_matches,
    }
}

/// `rows` vectors from a seeded 64-centre mixture: centres uniform in
/// [−1, 1]^dim, each row a centre plus ±0.3 uniform noise per component.
pub fn mixture(seed: u64, rows: usize, dim: usize) -> EmbeddingMatrix {
    let mut rng = derive(seed, "mixture");
    let centres: Vec<f32> = (0..64 * dim).map(|_| rng.gen_range(-1.0f32..1.0)).collect();
    let mut data = Vec::with_capacity(rows * dim);
    for _ in 0..rows {
        let c = rng.gen_range(0..64usize);
        data.extend(
            centres[c * dim..(c + 1) * dim]
                .iter()
                .map(|x| x + rng.gen_range(-0.3f32..0.3)),
        );
    }
    EmbeddingMatrix::from_flat(dim, data).expect("rows x dim floats")
}

/// One serve operation. `content` indexes [`ServeData::vectors`] (and
/// `entities` for entity workloads).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Op {
    Query { content: u32 },
    Insert { id: u32, content: u32 },
    Upsert { id: u32, content: u32 },
    Delete { id: u32 },
}

impl Op {
    pub fn is_query(&self) -> bool {
        matches!(self, Op::Query { .. })
    }
}

/// The benchmark's own model of which id is live with which content —
/// trivially correct, and the reference every answer is checked against.
#[derive(Debug, Clone, Default)]
pub struct LiveSet {
    ids: Vec<u32>,
    /// id → (position in `ids`, content); `None` when not live.
    slots: Vec<Option<(u32, u32)>>,
}

impl LiveSet {
    pub fn len(&self) -> usize {
        self.ids.len()
    }

    pub fn is_empty(&self) -> bool {
        self.ids.is_empty()
    }

    pub fn contains(&self, id: u32) -> bool {
        self.slots.get(id as usize).is_some_and(Option::is_some)
    }

    /// `(id, content)` of every live record, in unspecified order.
    pub fn iter(&self) -> impl Iterator<Item = (u32, u32)> + '_ {
        self.ids
            .iter()
            .map(|&id| (id, self.slots[id as usize].expect("live id has a slot").1))
    }

    fn put(&mut self, id: u32, content: u32) {
        if self.slots.len() <= id as usize {
            self.slots.resize(id as usize + 1, None);
        }
        match &mut self.slots[id as usize] {
            Some(slot) => slot.1 = content,
            empty => {
                *empty = Some((self.ids.len() as u32, content));
                self.ids.push(id);
            }
        }
    }

    fn remove(&mut self, id: u32) {
        let Some((pos, _)) = self.slots[id as usize].take() else {
            return;
        };
        self.ids.swap_remove(pos as usize);
        if let Some(&moved) = self.ids.get(pos as usize) {
            self.slots[moved as usize].as_mut().expect("live").0 = pos;
        }
    }

    /// Apply a write (queries are no-ops).
    pub fn apply(&mut self, op: &Op) {
        match *op {
            Op::Query { .. } => {}
            Op::Insert { id, content } | Op::Upsert { id, content } => self.put(id, content),
            Op::Delete { id } => self.remove(id),
        }
    }

    fn random_live(&self, rng: &mut impl RngCore) -> u32 {
        self.ids[rng.gen_range(0..self.ids.len())]
    }
}

/// Everything the serve half of a workload runs on.
#[derive(Debug, Clone)]
pub struct ServeData {
    /// One row per content. Vector workloads generate it; entity
    /// workloads leave it empty until [`crate::oracle::embed_contents`]
    /// fills it with the benchmark's own embedding of each entity.
    pub vectors: EmbeddingMatrix,
    /// One entity per content (entity workloads only). Stored contents
    /// carry the id they are written under; query contents' ids are
    /// irrelevant.
    pub entities: Vec<Entity>,
    /// Query contents as ready-made embeddings (vector workloads only),
    /// indexed by `content - query_base`.
    pub query_embeddings: Vec<Embedding>,
    /// First query content; stored contents are `0..query_base`.
    pub query_base: u32,
    pub preload: Vec<Op>,
    /// The measured stream of one repetition.
    pub ops: Vec<Op>,
    /// Writes between the checkpoint and the crash.
    pub tail: Vec<Op>,
    /// Positions in `ops` of the queries whose answers are checked
    /// against the brute-force model, ascending.
    pub sampled: Vec<usize>,
    /// Query contents probed before and after the crash-reopen.
    pub probes: Vec<u32>,
}

/// Emit `counts` ops in a seeded order. Inserts take a fresh id and the
/// next unused stored content; upserts re-write a live id with the next
/// unused content; deletes remove a live id; queries draw a query
/// content. Every op is valid against `live` when it runs, so none fails.
fn stream(
    rng: &mut impl RngCore,
    live: &mut LiveSet,
    next_content: &mut u32,
    next_id: &mut u32,
    query_contents: std::ops::Range<u32>,
    counts: [usize; 4],
) -> Vec<Op> {
    let mut kinds: Vec<u8> = counts
        .iter()
        .enumerate()
        .flat_map(|(kind, &n)| std::iter::repeat_n(kind as u8, n))
        .collect();
    kinds.shuffle(rng);
    kinds
        .into_iter()
        .map(|kind| {
            let op = match kind {
                0 => Op::Query {
                    content: rng.gen_range(query_contents.clone()),
                },
                1 => {
                    *next_id += 1;
                    Op::Insert {
                        id: *next_id - 1,
                        content: *next_content,
                    }
                }
                2 => Op::Upsert {
                    id: live.random_live(rng),
                    content: *next_content,
                },
                _ => Op::Delete {
                    id: live.random_live(rng),
                },
            };
            if matches!(op, Op::Insert { .. } | Op::Upsert { .. }) {
                *next_content += 1;
            }
            live.apply(&op);
            op
        })
        .collect()
}

/// Generate the serve half of `spec` for `seed`; `dim` is the model's
/// embedding width (used by vector workloads).
pub fn serve_data(spec: &Spec, seed: u64, dim: usize) -> ServeData {
    let writes = spec.writes();
    // Tail writes keep the workload's own write mix.
    let tail_counts = [
        0,
        spec.tail * spec.inserts / writes,
        spec.tail * spec.upserts / writes,
        spec.tail - spec.tail * spec.inserts / writes - spec.tail * spec.upserts / writes,
    ];
    let stored = spec.preload + spec.inserts + spec.upserts + tail_counts[1] + tail_counts[2];
    let query_contents = spec.queries.clamp(DURABILITY_PROBES, 4096);
    let query_base = stored as u32;
    let query_range = query_base..query_base + query_contents as u32;

    let mut rng = derive(seed, "serve-ops");
    let mut live = LiveSet::default();
    let preload: Vec<Op> = (0..spec.preload as u32)
        .map(|i| Op::Insert { id: i, content: i })
        .collect();
    preload.iter().for_each(|op| live.apply(op));
    let (mut next_content, mut next_id) = (spec.preload as u32, spec.preload as u32);
    let ops = stream(
        &mut rng,
        &mut live,
        &mut next_content,
        &mut next_id,
        query_range.clone(),
        [spec.queries, spec.inserts, spec.upserts, spec.deletes],
    );
    let tail = stream(
        &mut rng,
        &mut live,
        &mut next_content,
        &mut next_id,
        query_range.clone(),
        tail_counts,
    );
    debug_assert_eq!(next_content as usize, stored);

    let query_positions: Vec<usize> = (0..ops.len()).filter(|&i| ops[i].is_query()).collect();
    let take = SAMPLED_ANSWERS.min(query_positions.len());
    let sampled = (0..take)
        .map(|i| query_positions[i * query_positions.len() / take])
        .collect();
    let probes = (0..DURABILITY_PROBES as u32)
        .map(|i| query_base + i % query_contents as u32)
        .collect();

    let (vectors, entities, query_embeddings) = match spec.source {
        Source::Vectors => {
            let vectors = mixture(seed, stored + query_contents, dim);
            let query_embeddings = (stored..stored + query_contents)
                .map(|c| Embedding(vectors.row(c).to_vec()))
                .collect();
            (vectors, Vec::new(), query_embeddings)
        }
        Source::Entities => {
            let pool = tiled_clean_clean(
                derive(seed, "serve-entities").next_u64(),
                stored,
                query_contents,
            );
            let mut entities = pool.left;
            entities.truncate(stored);
            entities.extend(pool.right.into_iter().take(query_contents));
            // Each stored content is written exactly once, so it can carry
            // the id it is written under — no per-op entity construction
            // inside the timed stream.
            for op in preload.iter().chain(&ops).chain(&tail) {
                if let Op::Insert { id, content } | Op::Upsert { id, content } = *op {
                    entities[content as usize].id = EntityId(id);
                }
            }
            (EmbeddingMatrix::new(dim), entities, Vec::new())
        }
    };
    ServeData {
        vectors,
        entities,
        query_embeddings,
        query_base,
        preload,
        ops,
        tail,
        sampled,
        probes,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::spec::{find, Scale};

    #[test]
    fn tiling_is_seeded_and_unions_ground_truth() {
        let a = tiled_clean_clean(7, 300, 300);
        let b = tiled_clean_clean(7, 300, 300);
        let c = tiled_clean_clean(8, 300, 300);
        assert_eq!(a.left, b.left);
        assert_eq!(a.right, b.right);
        assert_eq!(a.ground_truth, b.ground_truth);
        assert_ne!(a.left, c.left);
        assert!(a.left.len() >= 300 && a.right.len() >= 300);
        assert_eq!(a.ground_truth.len(), a.tile_matches);
        // Ids are dense after renumbering and every match is in range.
        assert!(a.left.iter().enumerate().all(|(i, e)| e.id.0 as usize == i));
        assert!(a
            .right
            .iter()
            .enumerate()
            .all(|(i, e)| e.id.0 as usize == i));
        assert!(a
            .ground_truth
            .iter()
            .all(|(l, r)| (l.0 as usize) < a.left.len() && (r.0 as usize) < a.right.len()));
    }

    #[test]
    fn op_streams_are_seeded_valid_and_exactly_sized() {
        for name in ["serve_durable_churn", "serve_hnsw_mixed"] {
            let spec = find(Scale::Smoke, name).unwrap();
            let a = serve_data(&spec, 42, 48);
            let b = serve_data(&spec, 42, 48);
            let c = serve_data(&spec, 43, 48);
            assert_eq!(a.ops, b.ops);
            assert_eq!(a.tail, b.tail);
            assert_eq!(a.entities, b.entities);
            assert_eq!(a.vectors.data(), b.vectors.data());
            assert_ne!(a.ops, c.ops);
            assert_eq!(a.ops.len(), spec.ops());
            assert_eq!(a.tail.len(), spec.tail);
            assert_eq!(a.ops.iter().filter(|o| o.is_query()).count(), spec.queries);

            // Replaying against the model: every op is valid when it runs.
            let mut live = LiveSet::default();
            for op in a.preload.iter().chain(&a.ops).chain(&a.tail) {
                match *op {
                    Op::Insert { id, .. } => assert!(!live.contains(id)),
                    Op::Upsert { id, .. } | Op::Delete { id } => assert!(live.contains(id)),
                    Op::Query { content } => assert!(content >= a.query_base),
                }
                live.apply(op);
            }
            assert!(a.sampled.windows(2).all(|w| w[0] < w[1]));
            assert!(a.sampled.iter().all(|&i| a.ops[i].is_query()));
        }
    }

    #[test]
    fn live_set_tracks_swap_removes() {
        let mut live = LiveSet::default();
        for id in 0..5 {
            live.apply(&Op::Insert { id, content: id });
        }
        live.apply(&Op::Delete { id: 1 });
        live.apply(&Op::Upsert { id: 4, content: 9 });
        live.apply(&Op::Delete { id: 0 });
        let mut got: Vec<(u32, u32)> = live.iter().collect();
        got.sort_unstable();
        assert_eq!(got, vec![(2, 2), (3, 3), (4, 9)]);
        assert_eq!(live.len(), 3);
        assert!(!live.contains(1) && live.contains(4) && !live.contains(77));
    }
}
