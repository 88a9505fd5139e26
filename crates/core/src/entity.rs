//! The entity model of the paper's pipeline (§2): records with attribute
//! name/value pairs, serialized to sentences either schema-agnostically
//! (all values concatenated) or schema-based (a single title-like
//! attribute — the appendix variant, Figs. 17–22).

use std::collections::BTreeSet;
use std::fmt;

/// Identifier of an entity inside one collection.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct EntityId(pub u32);

impl fmt::Display for EntityId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}", self.0)
    }
}

/// A record: ordered attribute name/value pairs.
#[derive(Debug, Clone, PartialEq)]
pub struct Entity {
    pub id: EntityId,
    pub attributes: Vec<(String, String)>,
}

impl Entity {
    pub fn new(id: EntityId, attributes: Vec<(String, String)>) -> Self {
        Entity { id, attributes }
    }

    /// Attribute value by name, if present.
    pub(crate) fn attribute(&self, name: &str) -> Option<&str> {
        self.attributes
            .iter()
            .find(|(n, _)| n == name)
            .map(|(_, v)| v.as_str())
    }

    /// The sentence handed to a language model under the given mode.
    pub fn serialize(&self, mode: &SerializationMode) -> String {
        match mode {
            SerializationMode::SchemaAgnostic => self
                .attributes
                .iter()
                .map(|(_, v)| v.as_str())
                .filter(|v| !v.is_empty())
                .collect::<Vec<_>>()
                .join(" "),
            SerializationMode::SchemaBased(attribute) => {
                self.attribute(attribute).unwrap_or_default().to_string()
            }
        }
    }
}

/// How an entity is turned into a sentence (paper §5, appendix).
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum SerializationMode {
    /// Concatenate every attribute value (the paper's main setting).
    SchemaAgnostic,
    /// Use only the named title-like attribute (appendix, Figs. 17–22).
    SchemaBased(String),
}

/// A dense vector produced by a language model.
#[derive(Debug, Clone, PartialEq)]
pub struct Embedding(pub Vec<f32>);

impl Embedding {
    pub fn zeros(dim: usize) -> Self {
        Embedding(vec![0.0; dim])
    }

    pub fn dim(&self) -> usize {
        self.0.len()
    }

    pub fn as_slice(&self) -> &[f32] {
        &self.0
    }

    pub fn dot(&self, other: &Embedding) -> f32 {
        debug_assert_eq!(self.dim(), other.dim(), "dimension mismatch");
        crate::kernels::dot(&self.0, &other.0)
    }

    pub fn norm(&self) -> f32 {
        crate::kernels::norm(&self.0)
    }

    /// Cosine similarity; zero vectors yield 0.0 (the paper's convention for
    /// models that cannot embed a record, e.g. GloVe on all-OOV input).
    pub fn cosine(&self, other: &Embedding) -> f32 {
        crate::kernels::cosine(&self.0, &other.0)
    }

    pub fn is_finite(&self) -> bool {
        self.0.iter().all(|v| v.is_finite())
    }
}

/// A candidate pair with a similarity score (higher = more similar).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ScoredPair {
    pub left: EntityId,
    pub right: EntityId,
    pub score: f32,
}

impl ScoredPair {
    pub fn new(left: EntityId, right: EntityId, score: f32) -> Self {
        ScoredPair { left, right, score }
    }

    /// The `(left, right)` ids without the score — the key blocking dedups
    /// and the clusterers' output ordering sort on.
    pub fn id_pair(&self) -> (EntityId, EntityId) {
        (self.left, self.right)
    }

    /// Descending-score total order with an id-pair tiebreak: `total_cmp`
    /// makes it total over every f32 (NaN included), and the tiebreak makes
    /// sorts independent of input permutation — the determinism UMC's
    /// greedy acceptance and the threshold sweep rely on.
    pub(crate) fn cmp_score_desc(&self, other: &ScoredPair) -> std::cmp::Ordering {
        other
            .score
            .total_cmp(&self.score)
            .then_with(|| self.id_pair().cmp(&other.id_pair()))
    }

    /// Ascending `(left, right)` order — the canonical order of deduped
    /// candidate lists and clusterer match sets.
    pub fn cmp_id_pair(&self, other: &ScoredPair) -> std::cmp::Ordering {
        self.id_pair().cmp(&other.id_pair())
    }
}

/// Sort scored pairs by descending score, with a deterministic tiebreak on
/// the id pair (stable across runs, which UMC and threshold sweeps need).
pub fn sort_by_score_desc(pairs: &mut [ScoredPair]) {
    pairs.sort_by(|a, b| a.cmp_score_desc(b));
}

/// Sort scored pairs by ascending `(left, right)` id pair.
pub fn sort_by_id_pair(pairs: &mut [ScoredPair]) {
    pairs.sort_by(|a, b| a.cmp_id_pair(b));
}

/// The set of true matches of a dataset.
///
/// Clean-Clean ground truth relates two disjoint collections, so `(l, r)`
/// is stored as-is; Dirty-ER ground truth is order-free, so pairs are
/// normalized to `(min, max)`.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct GroundTruth {
    pairs: BTreeSet<(EntityId, EntityId)>,
    dirty: bool,
}

impl GroundTruth {
    pub fn clean_clean(pairs: impl IntoIterator<Item = (EntityId, EntityId)>) -> Self {
        GroundTruth {
            pairs: pairs.into_iter().collect(),
            dirty: false,
        }
    }

    pub fn dirty(pairs: impl IntoIterator<Item = (EntityId, EntityId)>) -> Self {
        GroundTruth {
            pairs: pairs
                .into_iter()
                .map(|(a, b)| if a <= b { (a, b) } else { (b, a) })
                .collect(),
            dirty: true,
        }
    }

    pub fn contains(&self, left: EntityId, right: EntityId) -> bool {
        self.pairs.contains(&self.normalize(left, right))
    }

    /// A predicted pair in this ground truth's convention: as-is for
    /// Clean-Clean, `(min, max)` for Dirty ER — the key evaluators
    /// deduplicate predictions on, so `(a, b)` and `(b, a)` count once.
    pub fn normalize(&self, left: EntityId, right: EntityId) -> (EntityId, EntityId) {
        if self.dirty && left > right {
            (right, left)
        } else {
            (left, right)
        }
    }

    /// Whether this ground truth is order-free (Dirty ER), so that `(a, b)`
    /// and `(b, a)` name one pair.
    pub fn is_dirty(&self) -> bool {
        self.dirty
    }

    pub fn len(&self) -> usize {
        self.pairs.len()
    }

    pub fn is_empty(&self) -> bool {
        self.pairs.is_empty()
    }

    pub fn iter(&self) -> impl Iterator<Item = (EntityId, EntityId)> + '_ {
        self.pairs.iter().copied()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn restaurant() -> Entity {
        Entity::new(
            EntityId(7),
            vec![
                ("name".into(), "golden palace grill".into()),
                ("address".into(), "123 main street".into()),
                ("cuisine".into(), "".into()),
                ("phone".into(), "5551234567".into()),
            ],
        )
    }

    #[test]
    fn schema_agnostic_concatenates_non_empty_values() {
        let s = restaurant().serialize(&SerializationMode::SchemaAgnostic);
        assert_eq!(s, "golden palace grill 123 main street 5551234567");
    }

    #[test]
    fn schema_based_picks_one_attribute() {
        let e = restaurant();
        let s = e.serialize(&SerializationMode::SchemaBased("name".into()));
        assert_eq!(s, "golden palace grill");
        let missing = e.serialize(&SerializationMode::SchemaBased("title".into()));
        assert_eq!(missing, "");
    }

    #[test]
    fn cosine_handles_zero_vectors() {
        let z = Embedding::zeros(4);
        let v = Embedding(vec![1.0, 0.0, 0.0, 0.0]);
        assert_eq!(z.cosine(&v), 0.0);
        assert!((v.cosine(&v) - 1.0).abs() < 1e-6);
    }

    #[test]
    fn ground_truth_dirty_is_order_free() {
        let gt = GroundTruth::dirty([(EntityId(5), EntityId(2))]);
        assert!(gt.contains(EntityId(2), EntityId(5)));
        assert!(gt.contains(EntityId(5), EntityId(2)));
        let cc = GroundTruth::clean_clean([(EntityId(5), EntityId(2))]);
        assert!(cc.contains(EntityId(5), EntityId(2)));
        assert!(!cc.contains(EntityId(2), EntityId(5)));
    }

    #[test]
    fn sort_by_score_breaks_ties_deterministically() {
        let mut pairs = vec![
            ScoredPair::new(EntityId(2), EntityId(0), 0.5),
            ScoredPair::new(EntityId(1), EntityId(0), 0.5),
            ScoredPair::new(EntityId(0), EntityId(0), 0.9),
        ];
        sort_by_score_desc(&mut pairs);
        assert_eq!(pairs[0].left, EntityId(0));
        assert_eq!(pairs[1].left, EntityId(1));
        assert_eq!(pairs[2].left, EntityId(2));
    }
}
