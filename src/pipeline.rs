//! The Figure 1 pipeline driver: vectorize each collection **exactly
//! once** into a columnar [`EmbeddingMatrix`], hand the borrowed matrices
//! to the top-k blocker (zero-copy — the index never clones a row), and
//! record per-stage wall-clock plus item counts in a [`StageReport`].
//!
//! Dirty ER passes the same slice as both sides; it is detected by
//! identity and embedded once, not twice.

use er_blocking::top_k_blocking_scored_matrix;
use er_core::{
    EmbeddingMatrix, Entity, EntityId, GroundTruth, OperatingPoint, ScoredPair, SerializationMode,
};
use er_embed::LanguageModel;
use er_eval::StageReport;
use er_matching::{Clusterer, ThresholdSweep};

/// What [`Pipeline::block`] returns: the deduplicated *scored* candidate
/// pairs (the contract every matcher consumes — see
/// [`top_k_blocking_scored_matrix`]) and the per-stage timing report.
#[derive(Debug, Clone)]
pub struct BlockOutcome {
    /// Candidates with the similarity threaded out of the index, sorted by
    /// `(left, right)`.
    pub scored: Vec<ScoredPair>,
    pub report: StageReport,
}

impl BlockOutcome {
    /// The unscored view: the same candidates, scores projected away, in
    /// the same order.
    pub fn candidates(&self) -> Vec<(EntityId, EntityId)> {
        self.scored.iter().map(|p| p.id_pair()).collect()
    }
}

/// Configuration of a full [`Pipeline::resolve`] run: blocking plus the
/// unsupervised matching stage swept over a δ grid.
#[derive(Debug, Clone)]
pub struct ResolveConfig {
    pub blocking: OperatingPoint,
    /// The clusterer run at every δ (UMC is the paper's default, §4.3).
    pub clusterer: Clusterer,
    /// δ grid for the threshold sweep; `None` means the paper's
    /// 0.05..=0.95 grid of Fig. 15.
    pub deltas: Option<Vec<f32>>,
}

impl Default for ResolveConfig {
    fn default() -> Self {
        ResolveConfig {
            blocking: OperatingPoint::default(),
            clusterer: Clusterer::UniqueMapping,
            deltas: None,
        }
    }
}

/// What [`Pipeline::resolve`] returns: the matches at the best-F1 δ, the
/// scored candidates they were clustered from, the full per-δ sweep, and
/// the stage timings (`vectorize*`, `block`, `sweep`, `match`).
#[derive(Debug, Clone)]
pub struct ResolveOutcome {
    /// The clusterer's matches at [`ResolveOutcome::best_delta`].
    pub matches: Vec<ScoredPair>,
    /// The scored candidate pairs blocking produced.
    pub candidates: Vec<ScoredPair>,
    /// The per-δ metrics curve (Fig. 15).
    pub sweep: ThresholdSweep,
    /// The best-F1 threshold of the sweep (lowest δ wins ties).
    pub best_delta: f32,
    pub report: StageReport,
    /// [`StageReport::to_json`] rendered to text — the machine-readable
    /// twin of `report`, ready to write next to a `BENCH_*.json` snapshot
    /// without the caller depending on `er-eval`'s JSON plumbing.
    pub report_json: String,
}

/// A configured vectorize → index → block run: one model, one
/// serialization mode, each collection embedded once.
pub struct Pipeline<'m> {
    model: &'m dyn LanguageModel,
    mode: SerializationMode,
}

/// Both collections vectorized once. `right` is `None` for Dirty ER, where
/// both sides are the same collection and share `left`'s matrix.
struct Sides {
    left: EmbeddingMatrix,
    right: Option<EmbeddingMatrix>,
}

impl Sides {
    fn right(&self) -> &EmbeddingMatrix {
        self.right.as_ref().unwrap_or(&self.left)
    }
}

impl<'m> Pipeline<'m> {
    pub fn new(model: &'m dyn LanguageModel, mode: SerializationMode) -> Pipeline<'m> {
        Pipeline { model, mode }
    }

    /// Vectorize a collection into columnar storage — the matrix-returning
    /// variant of [`crate::vectorize`], embedding rows in parallel across a
    /// scoped-thread pool. Row `i` holds entity `i`'s embedding, bit-equal
    /// to `model.embed(&entities[i].serialize(mode))`.
    pub fn vectorize(&self, entities: &[Entity]) -> EmbeddingMatrix {
        vectorize_matrix(self.model, entities, &self.mode)
    }

    /// The `vectorize*` stages: each collection embedded exactly once. The
    /// same slice passed as both sides (Dirty ER) is detected by identity
    /// and embedded once, not twice.
    fn vectorize_sides(
        &self,
        left: &[Entity],
        right: &[Entity],
        report: &mut StageReport,
    ) -> Sides {
        let shared = left.as_ptr() == right.as_ptr() && left.len() == right.len();
        let mut stage = |name: &str, entities: &[Entity]| {
            report.time(name, || {
                let m = self.vectorize(entities);
                let rows = m.len();
                (m, rows)
            })
        };
        if shared {
            Sides {
                left: stage("vectorize", left),
                right: None,
            }
        } else {
            Sides {
                left: stage("vectorize-left", left),
                right: Some(stage("vectorize-right", right)),
            }
        }
    }

    /// The `block` stage over already-vectorized sides.
    fn block_sides(
        left: &[Entity],
        right: &[Entity],
        sides: &Sides,
        config: &OperatingPoint,
        report: &mut StageReport,
    ) -> Vec<ScoredPair> {
        let left_ids: Vec<EntityId> = left.iter().map(|e| e.id).collect();
        let right_ids: Vec<EntityId> = right.iter().map(|e| e.id).collect();
        report.time("block", || {
            let c = top_k_blocking_scored_matrix(
                &left_ids,
                &sides.left,
                &right_ids,
                sides.right(),
                config,
            );
            let pairs = c.len();
            (c, pairs)
        })
    }

    /// The block → sweep → match tail shared by [`Pipeline::resolve`] and
    /// [`Pipeline::resolve_tuned`], over already-vectorized sides.
    fn resolve_sides(
        left: &[Entity],
        right: &[Entity],
        sides: &Sides,
        gt: &GroundTruth,
        config: &ResolveConfig,
        mut report: StageReport,
    ) -> ResolveOutcome {
        let candidates = Pipeline::block_sides(left, right, sides, &config.blocking, &mut report);
        let sweep = report.time("sweep", || {
            let deltas = config
                .deltas
                .clone()
                .unwrap_or_else(ThresholdSweep::paper_deltas);
            let sweep = ThresholdSweep::run_with(&candidates, gt, config.clusterer, &deltas);
            let points = sweep.points.len();
            (sweep, points)
        });
        let best_delta = sweep.best().map(|p| p.delta).unwrap_or(0.0);
        let matches = report.time("match", || {
            let matches = config.clusterer.cluster(&candidates, best_delta);
            let count = matches.len();
            (matches, count)
        });
        let report_json = report.to_json().to_string();
        ResolveOutcome {
            matches,
            candidates,
            sweep,
            best_delta,
            report,
            report_json,
        }
    }

    /// Run vectorize + top-k blocking under `config`'s `k`, backend and
    /// scan. For Dirty ER pass the same slice as both sides (with
    /// `config.dirty = true`): it is detected by identity and embedded
    /// once, not twice.
    pub fn block(
        &self,
        left: &[Entity],
        right: &[Entity],
        config: &OperatingPoint,
    ) -> BlockOutcome {
        let mut report = StageReport::new();
        let sides = self.vectorize_sides(left, right, &mut report);
        let scored = Pipeline::block_sides(left, right, &sides, config, &mut report);
        BlockOutcome { scored, report }
    }

    /// Run the full Figure 1 pipeline: vectorize → block → threshold-swept
    /// unsupervised matching, evaluated against `gt` at every δ. The
    /// returned matches are the clusterer's output at the sweep's best-F1
    /// δ, and the report gains `sweep` and `match` stages on top of the
    /// blocking stages (`sweep` items = δ grid points, `match` items =
    /// matches at the best δ).
    pub fn resolve(
        &self,
        left: &[Entity],
        right: &[Entity],
        gt: &GroundTruth,
        config: &ResolveConfig,
    ) -> ResolveOutcome {
        let mut report = StageReport::new();
        let sides = self.vectorize_sides(left, right, &mut report);
        Pipeline::resolve_sides(left, right, &sides, gt, config, report)
    }

    /// The autotuned [`Pipeline::resolve`]: vectorize both collections
    /// once, run the `er-tune` autotuner on the embedded matrices to pick
    /// the cheapest [`OperatingPoint`] meeting `goal`'s recall
    /// target, then block and match with the chosen point exactly as
    /// [`Pipeline::resolve`] does under the paper defaults (Unique Mapping
    /// Clustering over the Fig. 15 δ grid); the report gains a `tune`
    /// stage (items = trials swept) between vectorization and blocking.
    pub fn resolve_tuned(
        &self,
        left: &[Entity],
        right: &[Entity],
        gt: &GroundTruth,
        goal: &OperatingPoint,
        tuner: &er_tune::TunerConfig,
    ) -> er_core::Result<(ResolveOutcome, er_tune::TuneOutcome)> {
        let mut report = StageReport::new();
        let sides = self.vectorize_sides(left, right, &mut report);
        let tune = report.time("tune", || {
            let outcome = er_tune::autotune(
                &sides.left,
                sides.right(),
                goal,
                tuner,
                &er_tune::CostModel::builtin(),
            );
            let trials = outcome.as_ref().map(|t| t.trials.len()).unwrap_or(0);
            (outcome, trials)
        })?;
        let config = ResolveConfig {
            blocking: tune.chosen.clone(),
            ..ResolveConfig::default()
        };
        let outcome = Pipeline::resolve_sides(left, right, &sides, gt, &config, report);
        Ok((outcome, tune))
    }
}

/// Serialize and embed every entity into a fresh [`EmbeddingMatrix`],
/// fanning the rows out over `available_parallelism` scoped threads in
/// contiguous chunks. Each row is written independently, so the result is
/// bit-identical to the sequential loop regardless of thread count.
pub fn vectorize_matrix(
    model: &dyn LanguageModel,
    entities: &[Entity],
    mode: &SerializationMode,
) -> EmbeddingMatrix {
    let dim = model.dim();
    if entities.is_empty() || dim == 0 {
        return EmbeddingMatrix::new(dim);
    }
    let mut data = vec![0.0f32; entities.len() * dim];
    let workers = std::thread::available_parallelism()
        .map(|p| p.get())
        .unwrap_or(1)
        .min(entities.len());
    let chunk_rows = entities.len().div_ceil(workers);
    if workers <= 1 {
        embed_chunk(model, entities, mode, &mut data, dim);
    } else {
        std::thread::scope(|scope| {
            for (entity_chunk, data_chunk) in entities
                .chunks(chunk_rows)
                .zip(data.chunks_mut(chunk_rows * dim))
            {
                scope.spawn(move || embed_chunk(model, entity_chunk, mode, data_chunk, dim));
            }
        });
    }
    EmbeddingMatrix::from_flat(dim, data).expect("matrix sized as rows x dim")
}

fn embed_chunk(
    model: &dyn LanguageModel,
    entities: &[Entity],
    mode: &SerializationMode,
    data: &mut [f32],
    dim: usize,
) {
    for (entity, row) in entities.iter().zip(data.chunks_exact_mut(dim)) {
        model.embed_into(&entity.serialize(mode), row);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use er_core::{BlockerBackend, Embedding};
    use er_embed::{ModelCode, ModelZoo, ZooConfig};
    use er_index::Metric;

    /// The oracle: the sequential reference vectorizer feeding the one
    /// blocker directly — both sides embedded, whether shared or not.
    fn sequential_block(
        model: &dyn LanguageModel,
        left: &[Entity],
        right: &[Entity],
        mode: &SerializationMode,
        config: &OperatingPoint,
    ) -> Vec<ScoredPair> {
        let embed = |entities: &[Entity]| {
            EmbeddingMatrix::from_embeddings(&crate::vectorize(model, entities, mode))
        };
        let ids = |entities: &[Entity]| entities.iter().map(|e| e.id).collect::<Vec<_>>();
        top_k_blocking_scored_matrix(&ids(left), &embed(left), &ids(right), &embed(right), config)
    }

    fn entities(n: u32, salt: &str) -> Vec<Entity> {
        (0..n)
            .map(|i| {
                Entity::new(
                    EntityId(i),
                    vec![
                        ("name".into(), format!("entity {salt} number {i}")),
                        ("city".into(), format!("springfield district {}", i % 4)),
                    ],
                )
            })
            .collect()
    }

    #[test]
    fn parallel_matrix_vectorize_is_bit_identical_to_sequential() {
        let zoo = ModelZoo::pretrain(None, &ZooConfig::tiny(), 42);
        let model = zoo.get(ModelCode::WC);
        let collection = entities(37, "alpha");
        let mode = SerializationMode::SchemaAgnostic;
        let matrix = vectorize_matrix(model.as_ref(), &collection, &mode);
        let sequential: Vec<Embedding> = crate::vectorize(model.as_ref(), &collection, &mode);
        assert_eq!(matrix.len(), collection.len());
        assert_eq!(matrix.dim(), model.dim());
        for (i, e) in sequential.iter().enumerate() {
            assert_eq!(
                matrix.row(i),
                e.as_slice(),
                "row {i} drifted from the sequential embed"
            );
        }
        assert!(vectorize_matrix(model.as_ref(), &[], &mode).is_empty());
    }

    #[test]
    fn pipeline_block_matches_the_free_function_and_reports_stages() {
        let zoo = ModelZoo::pretrain(None, &ZooConfig::tiny(), 42);
        let model = zoo.get(ModelCode::FT);
        let left = entities(20, "left");
        let right = entities(18, "right");
        let mode = SerializationMode::SchemaAgnostic;
        let config = OperatingPoint::new(3).backend(BlockerBackend::Exact(Metric::Cosine));
        let outcome = Pipeline::new(model.as_ref(), mode.clone()).block(&left, &right, &config);
        let oracle = sequential_block(model.as_ref(), &left, &right, &mode, &config);
        assert_eq!(outcome.scored, oracle);
        let stages: Vec<&str> = outcome
            .report
            .stages()
            .iter()
            .map(|s| s.stage.as_str())
            .collect();
        assert_eq!(stages, vec!["vectorize-left", "vectorize-right", "block"]);
        assert_eq!(outcome.report.get("vectorize-left").unwrap().items, 20);
        assert_eq!(
            outcome.report.get("block").unwrap().items,
            outcome.scored.len()
        );
    }

    #[test]
    fn dirty_er_embeds_the_shared_collection_once() {
        let zoo = ModelZoo::pretrain(None, &ZooConfig::tiny(), 42);
        let model = zoo.get(ModelCode::WC);
        let collection = entities(16, "dirty");
        let mode = SerializationMode::SchemaAgnostic;
        let config = OperatingPoint::new(2)
            .backend(BlockerBackend::Exact(Metric::Cosine))
            .dirty(true);
        let pipeline = Pipeline::new(model.as_ref(), mode.clone());
        let outcome = pipeline.block(&collection, &collection, &config);
        // One vectorize stage, not two.
        let stages: Vec<&str> = outcome
            .report
            .stages()
            .iter()
            .map(|s| s.stage.as_str())
            .collect();
        assert_eq!(stages, vec!["vectorize", "block"]);
        // And the candidates still equal the double-embedding oracle.
        let oracle = sequential_block(model.as_ref(), &collection, &collection, &mode, &config);
        assert_eq!(outcome.scored, oracle);
        assert!(outcome.scored.iter().all(|p| p.left < p.right));
    }

    #[test]
    fn resolve_adds_sweep_and_match_stages_and_reuses_the_best_delta() {
        use er_core::GroundTruth;
        let zoo = ModelZoo::pretrain(None, &ZooConfig::tiny(), 42);
        let model = zoo.get(ModelCode::FT);
        // Left and right are near-duplicates: i matches i.
        let left = entities(12, "alpha");
        let right = entities(12, "alpha");
        let gt = GroundTruth::clean_clean((0..12).map(|i| (EntityId(i), EntityId(i))));
        let config = ResolveConfig {
            blocking: OperatingPoint::new(3).backend(BlockerBackend::Exact(Metric::Cosine)),
            ..ResolveConfig::default()
        };
        let pipeline = Pipeline::new(model.as_ref(), SerializationMode::SchemaAgnostic);
        let outcome = pipeline.resolve(&left, &right, &gt, &config);
        let stages: Vec<&str> = outcome
            .report
            .stages()
            .iter()
            .map(|s| s.stage.as_str())
            .collect();
        assert_eq!(
            stages,
            vec![
                "vectorize-left",
                "vectorize-right",
                "block",
                "sweep",
                "match"
            ]
        );
        assert_eq!(outcome.report.get("sweep").unwrap().items, 19);
        assert_eq!(
            outcome.report.get("match").unwrap().items,
            outcome.matches.len()
        );
        // The reported matches are exactly the best sweep point's matches.
        let best = outcome.sweep.best().expect("non-empty grid");
        assert_eq!(best.delta, outcome.best_delta);
        assert_eq!(best.matches, outcome.matches);
        // Identical serializations embed identically: resolve must find
        // every i ↔ i pair at the best δ.
        assert_eq!(best.metrics.f1, 1.0);
        // The serialized report is the report, rendered.
        assert_eq!(outcome.report_json, outcome.report.to_json().to_string());
        let parsed = er_core::json::Json::parse(&outcome.report_json).unwrap();
        let stage_names: Vec<String> = parsed
            .expect("stages")
            .unwrap()
            .as_arr()
            .unwrap()
            .iter()
            .map(|s| s.expect("stage").unwrap().as_str().unwrap().to_string())
            .collect();
        assert_eq!(stage_names, stages);
        assert_eq!(outcome.report.items_of("vectorize-left"), 12);
    }
}
