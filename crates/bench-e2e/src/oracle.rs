//! The brute-force reference: a full scan over the benchmark's own model
//! of the live set, with the library's distance arithmetic
//! (`Metric::distance_prenorm_tier`, cached row norms) so exact backends
//! can be compared bit for bit.

use crate::gen::{LiveSet, Op, ServeData};
use crate::spec::K;
use er_core::{EmbeddingMatrix, Entity, KernelTier, Metric, SerializationMode};
use er_embed::LanguageModel;
use er_serve::Hit;

/// The reference answer to one query: every `(distance, id)` no farther
/// than the k-th best, ordered by the library's `(distance, id)` merge
/// contract. Longer than `k` only when distances tie at the boundary.
#[derive(Debug, Clone)]
pub struct Expected {
    pub hits: Vec<(f32, u32)>,
    /// `min(K, live records)` — the answer length the library owes.
    pub k: usize,
}

/// Embed every content entity exactly as `Resolver::embed` does.
pub fn embed_contents(
    model: &dyn LanguageModel,
    mode: &SerializationMode,
    entities: &[Entity],
) -> EmbeddingMatrix {
    let mut m = EmbeddingMatrix::with_capacity(model.dim(), entities.len());
    for e in entities {
        m.push(model.embed(&e.serialize(mode)).as_slice());
    }
    m
}

pub fn brute_force(
    vectors: &EmbeddingMatrix,
    live: &LiveSet,
    query: &[f32],
    tier: KernelTier,
) -> Expected {
    let qn = Metric::Cosine.query_norm_tier(tier, query);
    let mut all: Vec<(f32, u32)> = live
        .iter()
        .map(|(id, c)| {
            let c = c as usize;
            let d = Metric::Cosine.distance_prenorm_tier(
                tier,
                query,
                qn,
                vectors.row(c),
                vectors.norm(c),
            );
            (d, id)
        })
        .collect();
    let k = K.min(all.len());
    if k == 0 {
        return Expected { hits: all, k };
    }
    let order = |a: &(f32, u32), b: &(f32, u32)| a.0.total_cmp(&b.0).then(a.1.cmp(&b.1));
    let kth = all.select_nth_unstable_by(k - 1, order).1 .0;
    all.retain(|h| h.0.total_cmp(&kth).is_le());
    all.sort_unstable_by(order);
    Expected { hits: all, k }
}

/// Whether an exact backend's answer is right: the owed length, distances
/// bit-equal to the reference position by position, and every id one the
/// reference holds at that distance (so boundary ties may resolve either
/// way, nothing else may differ).
pub fn is_exact(hits: &[Hit], expected: &Expected) -> bool {
    hits.len() == expected.k
        && hits
            .iter()
            .zip(&expected.hits)
            .all(|(h, e)| h.distance.to_bits() == e.0.to_bits())
        && hits.iter().all(|h| {
            expected
                .hits
                .iter()
                .any(|e| e.1 == h.id.0 && e.0.to_bits() == h.distance.to_bits())
        })
}

/// Share of the owed answer that is in the reference (recall@k).
pub fn overlap(hits: &[Hit], expected: &Expected) -> f64 {
    if expected.k == 0 {
        return 1.0;
    }
    let found = hits
        .iter()
        .filter(|h| expected.hits.iter().any(|e| e.1 == h.id.0))
        .count();
    found.min(expected.k) as f64 / expected.k as f64
}

/// What the model says the store must look like at each checkpoint of the
/// lifecycle, and the reference answers of the sampled queries.
#[derive(Debug, Clone)]
pub struct Oracle {
    /// One per `ServeData::sampled`, computed against the live set at
    /// that point of the stream.
    pub expected: Vec<Expected>,
    pub after_ops: LiveSet,
    pub after_tail: LiveSet,
}

pub fn build(data: &ServeData, tier: KernelTier) -> Oracle {
    let mut live = LiveSet::default();
    data.preload.iter().for_each(|op| live.apply(op));
    let mut expected = Vec::with_capacity(data.sampled.len());
    let mut next = data.sampled.iter().copied().peekable();
    for (i, op) in data.ops.iter().enumerate() {
        if next.peek() == Some(&i) {
            next.next();
            let Op::Query { content } = *op else {
                unreachable!("sampled positions are queries");
            };
            expected.push(brute_force(
                &data.vectors,
                &live,
                data.vectors.row(content as usize),
                tier,
            ));
        }
        live.apply(op);
    }
    let after_ops = live.clone();
    data.tail.iter().for_each(|op| live.apply(op));
    Oracle {
        expected,
        after_ops,
        after_tail: live,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use er_core::EntityId;

    fn fixture() -> (EmbeddingMatrix, LiveSet) {
        // Rows 0 and 1 are identical, so ids 0 and 1 tie at every distance.
        let rows = [[1.0f32, 0.0], [1.0, 0.0], [0.0, 1.0], [-1.0, 0.0]];
        let m = EmbeddingMatrix::from_flat(2, rows.concat()).unwrap();
        let mut live = LiveSet::default();
        for id in 0..4 {
            live.apply(&Op::Insert { id, content: id });
        }
        (m, live)
    }

    #[test]
    fn brute_force_orders_by_distance_then_id_and_skips_dead_rows() {
        let (m, mut live) = fixture();
        let e = brute_force(&m, &live, &[1.0, 0.0], KernelTier::Lanes);
        assert_eq!(e.k, 4);
        assert_eq!(
            e.hits.iter().map(|h| h.1).collect::<Vec<_>>(),
            vec![0, 1, 2, 3]
        );
        assert_eq!(e.hits[0].0, 0.0);
        assert_eq!(e.hits[3].0, 2.0);
        live.apply(&Op::Delete { id: 0 });
        let e = brute_force(&m, &live, &[1.0, 0.0], KernelTier::Lanes);
        assert_eq!(
            e.hits.iter().map(|h| h.1).collect::<Vec<_>>(),
            vec![1, 2, 3]
        );
    }

    #[test]
    fn exactness_tolerates_only_tie_order() {
        let (m, live) = fixture();
        let e = brute_force(&m, &live, &[1.0, 0.0], KernelTier::Lanes);
        let hit = |id: u32, d: f32| Hit::new(EntityId(id), d);
        assert!(is_exact(
            &[hit(0, 0.0), hit(1, 0.0), hit(2, 1.0), hit(3, 2.0)],
            &e
        ));
        // The two tied ids may swap …
        assert!(is_exact(
            &[hit(1, 0.0), hit(0, 0.0), hit(2, 1.0), hit(3, 2.0)],
            &e
        ));
        // … but a wrong id, a wrong distance or a short answer may not pass.
        assert!(!is_exact(
            &[hit(0, 0.0), hit(2, 0.0), hit(2, 1.0), hit(3, 2.0)],
            &e
        ));
        assert!(!is_exact(
            &[hit(0, 0.0), hit(1, 0.0), hit(2, 1.5), hit(3, 2.0)],
            &e
        ));
        assert!(!is_exact(&[hit(0, 0.0), hit(1, 0.0), hit(2, 1.0)], &e));
        assert_eq!(
            overlap(&[hit(0, 0.0), hit(9, 0.0), hit(2, 1.0), hit(3, 2.0)], &e),
            0.75
        );
    }
}
