//! embeddings4er — end-to-end entity resolution with pre-trained-style
//! embeddings, after "Pre-trained Embeddings for Entity Resolution: An
//! Experimental Analysis" (VLDB 2023). See DESIGN.md for what is built
//! (and the index of what is not) and ROADMAP.md for what has landed.
//!
//! The facade re-exports every subsystem crate and offers a [`prelude`]
//! plus the paper's Figure 1 pipeline: vectorization ([`vectorize`] /
//! [`vectorize_matrix`]) over a pre-trained [`ModelZoo`], embedding top-k
//! blocking ([`Pipeline::block`]) over the ANN indices, and unsupervised
//! matching ([`Pipeline::resolve`]): Unique Mapping Clustering (or any
//! [`matching::Clusterer`]) threshold-swept over the scored candidates.
//! The [`Pipeline`] builder runs every stage over columnar
//! [`core::EmbeddingMatrix`] storage — each collection embedded exactly
//! once, indices borrowing the matrix zero-copy — and returns a
//! [`eval::StageReport`] of per-stage wall-clock alongside the results.
//!
//! ```
//! use embeddings4er::prelude::*;
//!
//! let zoo = ModelZoo::pretrain(None, &ZooConfig::tiny(), 42);
//! let model = zoo.get(ModelCode::FT);
//! let e = model.embed("golden palace grill 123 main street");
//! assert_eq!(e.dim(), model.dim());
//! ```

pub use er_blocking as blocking;
pub use er_core as core;
pub use er_datasets as datasets;
pub use er_embed as embed;
pub use er_eval as eval;
pub use er_index as index;
pub use er_matching as matching;
pub use er_serve as serve;
pub use er_tensor as tensor;
pub use er_text as text;
pub use er_tune as tune;

pub mod pipeline;

pub use pipeline::{vectorize_matrix, BlockOutcome, Pipeline, ResolveConfig, ResolveOutcome};

use er_core::{Embedding, Entity, SerializationMode};
use er_embed::LanguageModel;

/// Everything needed to drive the pipeline end to end.
pub mod prelude {
    pub use er_blocking::{dedup_candidates, dedup_scored, top_k_blocking_scored_matrix};
    pub use er_core::pq::PqConfig;
    pub use er_core::rng::rng;
    pub use er_core::{
        sort_by_id_pair, sort_by_score_desc, BlockerBackend, Embedding, EmbeddingMatrix, Entity,
        EntityId, ErError, GroundTruth, HnswConfig, KernelTier, LshConfig, OperatingPoint,
        QueryParams, Result, ScoredPair, SerializationMode,
    };
    pub use er_datasets::{CleanCleanDataset, DatasetId, DatasetProfile};
    pub use er_embed::{AnyModel, LanguageModel, ModelCode, ModelZoo, ZooConfig};
    pub use er_eval::{pearson, Metrics, StageReport};
    pub use er_index::{
        ExactIndex, HnswIndex, HyperplaneLsh, IndexReader, Metric, MutableIndex, Neighbor, NnIndex,
        Quantization, ScanConfig,
    };
    pub use er_matching::{
        kiraly_clustering, unique_mapping_clustering, Clusterer, SweepPoint, ThresholdSweep,
    };
    pub use er_serve::{
        CompactionPolicy, Hit, Resolver, SegmentSnapshot, ServeConfig, ShardStats, ShardedIndex,
    };
    pub use er_text::corpus::synthetic_corpus;
    pub use er_text::{normalize, tokenize, Corpus};
    pub use er_tune::{autotune, measure_point, CostModel, TuneOutcome, TunerConfig};

    pub use crate::{
        vectorize, vectorize_matrix, BlockOutcome, Pipeline, ResolveConfig, ResolveOutcome,
    };
}

pub use er_embed::{ModelCode, ModelZoo, ZooConfig};

/// Figure 1, stage 1: serialize each entity under `mode` and embed it with
/// `model`. Output order matches input order. The sequential reference the
/// parallel [`vectorize_matrix`] is tested against, bit for bit.
pub fn vectorize(
    model: &dyn LanguageModel,
    entities: &[Entity],
    mode: &SerializationMode,
) -> Vec<Embedding> {
    entities
        .iter()
        .map(|e| model.embed(&e.serialize(mode)))
        .collect()
}

#[cfg(test)]
mod tests {
    use super::prelude::*;

    #[test]
    fn vectorize_embeds_every_entity() {
        let zoo = ModelZoo::pretrain(None, &ZooConfig::tiny(), 42);
        let model = zoo.get(ModelCode::WC);
        let entities = vec![
            Entity::new(
                EntityId(0),
                vec![
                    ("name".into(), "golden palace".into()),
                    ("city".into(), "springfield".into()),
                ],
            ),
            Entity::new(EntityId(1), vec![("name".into(), "".into())]),
        ];
        let vecs = vectorize(
            model.as_ref(),
            &entities,
            &SerializationMode::SchemaAgnostic,
        );
        assert_eq!(vecs.len(), 2);
        assert_eq!(vecs[0].dim(), model.dim());
        assert!(vecs.iter().all(Embedding::is_finite));
    }
}
