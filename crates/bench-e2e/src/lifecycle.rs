//! One workload's lifecycle: set-up, then identical repetitions of
//! resolve → op stream → checkpoint → un-checkpointed tail → crash →
//! recover, each checked against the benchmark's own model.
//!
//! Repetitions are identical on purpose: every one reopens a copy of the
//! same checkpointed preload and replays the same seeded stream, so count
//! metrics are the same in every repetition (a determinism gate for free)
//! and a timing's median is taken over like-for-like work.

use crate::alloc::net_heap_growth;
use crate::gen::{self, Collections, LiveSet, Op, ServeData};
use crate::oracle::{self, Oracle};
use crate::spec::{Scale, Source, Spec, K, MODEL_SEED};
use crate::trace::{SpanId, Tracer};
use embeddings4er::{Pipeline, ResolveConfig};
use er_blocking::{BlockerBackend, TopKConfig};
use er_core::journal::parse_journal;
use er_core::rng::derive;
use er_core::{EntityId, KernelTier, Metric, Result, ScanConfig, SerializationMode};
use er_embed::{LanguageModel, ModelZoo};
use er_eval::Metrics;
use er_serve::{Hit, Resolver};
use rand::prelude::*;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::path::{Path, PathBuf};
use std::time::Instant;

pub const MODE: SerializationMode = SerializationMode::SchemaAgnostic;

/// The batch half's configuration: exact cosine blocking on the `Lanes`
/// tier, k = 10, UMC over the paper's 19-δ grid.
pub fn resolve_config() -> ResolveConfig {
    ResolveConfig {
        blocking: TopKConfig::new(K)
            .backend(BlockerBackend::Exact(Metric::Cosine))
            .scan(ScanConfig::with_tier(KernelTier::Lanes)),
        ..ResolveConfig::default()
    }
}

/// Everything set-up produces.
pub struct Prepared {
    pub spec: Spec,
    pub zoo: ModelZoo,
    pub batch: Collections,
    pub serve: ServeData,
    /// Durable directory holding the checkpointed preload.
    pub base_dir: PathBuf,
    pub work_dir: PathBuf,
    /// Heap the preloaded resolver holds (allocated − freed while it was
    /// opened, preloaded and checkpointed).
    pub resident_bytes: usize,
    pub attempted: u64,
    pub failed: u64,
}

impl Prepared {
    pub fn model(&self) -> &dyn LanguageModel {
        self.zoo.get(self.spec.model).as_ref()
    }

    pub fn open(&self, dir: &Path) -> Result<Resolver<'_>> {
        Resolver::open(dir, self.model(), MODE, self.spec.backend.serve_config())
    }
}

pub fn pretrain(scale: Scale) -> ModelZoo {
    ModelZoo::pretrain(None, &scale.zoo(), MODEL_SEED)
}

/// Model pre-train + data generation + preload and checkpoint: what
/// `setup_s` times.
pub fn setup(
    spec: &Spec,
    scale: Scale,
    seed: u64,
    work_dir: &Path,
    pretrained: Option<ModelZoo>,
) -> Prepared {
    let zoo = pretrained.unwrap_or_else(|| pretrain(scale));
    let dim = zoo.get(spec.model).dim();
    let batch =
        gen::tiled_clean_clean(derive(seed, "batch").next_u64(), spec.batch.0, spec.batch.1);
    let serve = gen::serve_data(spec, seed, dim);
    let base_dir = work_dir.join("base");
    let _ = std::fs::remove_dir_all(work_dir);
    let mut p = Prepared {
        spec: spec.clone(),
        zoo,
        batch,
        serve,
        base_dir,
        work_dir: work_dir.to_path_buf(),
        resident_bytes: 0,
        attempted: 0,
        failed: 0,
    };
    // The resolver is dropped outside the window, so the growth is what
    // the preloaded, checkpointed resolver holds.
    let ((resolver, failed), resident) = net_heap_growth(|| {
        let resolver = p.open(&p.base_dir).expect("open the base directory");
        let mut failed = 0;
        for op in &p.serve.preload {
            if !matches!(
                call(&resolver, &p.serve, spec.source, op),
                Some(Answer::Wrote(true))
            ) {
                failed += 1;
            }
        }
        if resolver.checkpoint().is_err() {
            failed += 1;
        }
        (resolver, failed)
    });
    drop(resolver);
    p.resident_bytes = resident.max(0) as usize;
    p.attempted = p.serve.preload.len() as u64 + 1;
    p.failed = failed;
    p
}

/// What one op returned.
#[derive(Debug, Clone, PartialEq)]
pub enum Answer {
    Hits(Vec<Hit>),
    Wrote(bool),
}

/// Run one op through the resolver's public API. `None` = the call
/// returned `Err` or panicked (caught here, at the op boundary).
#[inline]
pub fn call(resolver: &Resolver, data: &ServeData, source: Source, op: &Op) -> Option<Answer> {
    catch_unwind(AssertUnwindSafe(|| -> Result<Answer> {
        Ok(match (*op, source) {
            (Op::Query { content }, Source::Entities) => {
                Answer::Hits(resolver.query(&data.entities[content as usize], K))
            }
            (Op::Query { content }, Source::Vectors) => Answer::Hits(resolver.query_embedding(
                &data.query_embeddings[(content - data.query_base) as usize],
                K,
            )),
            (Op::Insert { content, .. }, Source::Entities) => {
                Answer::Wrote(resolver.insert(&data.entities[content as usize])?)
            }
            (Op::Insert { id, content }, Source::Vectors) => Answer::Wrote(
                resolver
                    .index()
                    .insert(EntityId(id), data.vectors.row(content as usize))?,
            ),
            (Op::Upsert { content, .. }, Source::Entities) => {
                Answer::Wrote(resolver.upsert(&data.entities[content as usize])?)
            }
            (Op::Upsert { id, content }, Source::Vectors) => Answer::Wrote(
                resolver
                    .index()
                    .upsert(EntityId(id), data.vectors.row(content as usize))?,
            ),
            (Op::Delete { id }, _) => Answer::Wrote(resolver.delete(EntityId(id))?),
        })
    }))
    .ok()
    .and_then(Result::ok)
}

impl Default for StreamOutcome {
    fn default() -> Self {
        StreamOutcome {
            query_ns: Vec::new(),
            write_ns: Vec::new(),
            wall_s: 0.0,
            failed: 0,
            digest: 0xcbf2_9ce4_8422_2325, // FNV-1a offset basis
            sampled: Vec::new(),
            watch: CompactionWatch::default(),
        }
    }
}

fn fnv(digest: &mut u64, word: u64) {
    *digest = (*digest ^ word).wrapping_mul(0x0000_0100_0000_01b3);
}

/// Compactions seen from outside: a write after which some shard holds
/// fewer tombstones than before it.
#[derive(Debug, Clone, Default)]
pub struct CompactionWatch {
    pub compactions: u64,
    pub stall_ns_max: f64,
    /// Live rows of each compacted shard, summed: the rows a compaction
    /// copies into the fresh index.
    pub rows_rewritten: u64,
}

#[derive(Debug, Clone)]
pub struct StreamOutcome {
    pub query_ns: Vec<f64>,
    pub write_ns: Vec<f64>,
    pub wall_s: f64,
    pub failed: u64,
    /// FNV over every answer, in order: equal across repetitions.
    pub digest: u64,
    /// Answers at `ServeData::sampled`.
    pub sampled: Vec<Vec<Hit>>,
    pub watch: CompactionWatch,
}

/// Drive `ops[range]` through `resolver`, one client, closed loop, timing
/// every call, and accumulate into `out` (so a stream can be run in
/// segments). With tracing on, each op is one span under `parent`; with
/// `watch`, compactions are observed through `stats()` around each write
/// (outside the op's timed interval, inside the stream's wall).
#[allow(clippy::too_many_arguments)]
pub fn run_stream(
    resolver: &Resolver,
    p: &Prepared,
    range: std::ops::Range<usize>,
    sampled: &[usize],
    watch: bool,
    tracer: &mut Tracer,
    parent: SpanId,
    out: &mut StreamOutcome,
) {
    let mut next_sample = sampled
        .iter()
        .copied()
        .skip_while(|&i| i < range.start)
        .peekable();
    let start = Instant::now();
    for (i, op) in p
        .serve
        .ops
        .iter()
        .enumerate()
        .take(range.end)
        .skip(range.start)
    {
        let tombstones_before = (watch && !op.is_query()).then(|| {
            resolver
                .stats()
                .iter()
                .map(|s| s.tombstoned)
                .collect::<Vec<_>>()
        });
        let name = if op.is_query() {
            "op.query"
        } else {
            "op.write"
        };
        let span = tracer.begin(name, parent, i as u64 + 1);
        let t = Instant::now();
        let answer = call(resolver, &p.serve, p.spec.source, op);
        let ns = t.elapsed().as_nanos() as f64;
        tracer.end(span);
        match &answer {
            Some(Answer::Hits(hits)) => {
                out.query_ns.push(ns);
                for h in hits {
                    fnv(
                        &mut out.digest,
                        u64::from(h.id.0) << 32 | u64::from(h.distance.to_bits()),
                    );
                }
                if next_sample.peek() == Some(&i) {
                    next_sample.next();
                    out.sampled.push(hits.clone());
                }
            }
            Some(Answer::Wrote(done)) => {
                out.write_ns.push(ns);
                fnv(&mut out.digest, u64::from(*done));
                // Every generated write is valid when it runs, so each
                // must report that it took effect.
                if !done {
                    out.failed += 1;
                }
            }
            None => out.failed += 1,
        }
        if let Some(before) = tombstones_before {
            for (shard, s) in resolver.stats().iter().enumerate() {
                if s.tombstoned < before[shard] {
                    out.watch.compactions += 1;
                    out.watch.stall_ns_max = out.watch.stall_ns_max.max(ns);
                    out.watch.rows_rewritten += s.live as u64;
                }
            }
        }
    }
    out.wall_s += start.elapsed().as_secs_f64();
}

/// The whole stream in one go, on a resolver holding the preloaded state.
pub fn run_whole_stream(
    resolver: &Resolver,
    p: &Prepared,
    watch: bool,
    tracer: &mut Tracer,
    parent: SpanId,
) -> StreamOutcome {
    let mut out = StreamOutcome::default();
    run_stream(
        resolver,
        p,
        0..p.serve.ops.len(),
        &[],
        watch,
        tracer,
        parent,
        &mut out,
    );
    out
}

pub fn copy_dir(from: &Path, to: &Path) -> std::io::Result<()> {
    let _ = std::fs::remove_dir_all(to);
    std::fs::create_dir_all(to)?;
    for entry in std::fs::read_dir(from)? {
        let entry = entry?;
        std::fs::copy(entry.path(), to.join(entry.file_name()))?;
    }
    Ok(())
}

pub fn dir_bytes(dir: &Path) -> u64 {
    std::fs::read_dir(dir)
        .map(|entries| {
            entries
                .filter_map(|e| e.ok()?.metadata().ok())
                .map(|m| m.len())
                .sum()
        })
        .unwrap_or(0)
}

/// The batch half of one repetition.
#[derive(Debug, Clone)]
pub struct BatchOutcome {
    pub wall_s: f64,
    pub records: usize,
    pub pc: f64,
    pub f1: f64,
}

/// `Pipeline::resolve` over the batch collections, `spec.resolves` times;
/// the wall reported is the median (quality is taken from the last call —
/// the caller gates that it is the same in every repetition).
pub fn run_batch(p: &Prepared, tracer: &mut Tracer, parent: SpanId) -> BatchOutcome {
    let pipeline = Pipeline::new(p.model(), MODE);
    let config = resolve_config();
    let mut walls = Vec::with_capacity(p.spec.resolves);
    let mut last = None;
    for _ in 0..p.spec.resolves.max(1) {
        drop(last.take());
        let span = tracer.begin("facade.resolve", parent, 0);
        let t = Instant::now();
        let out = pipeline.resolve(
            &p.batch.left,
            &p.batch.right,
            &p.batch.ground_truth,
            &config,
        );
        walls.push(t.elapsed().as_secs_f64());
        tracer.end(span);
        last = Some(out);
    }
    let out = last.expect("at least one resolve");
    let candidates: Vec<_> = out.candidates.iter().map(|c| c.id_pair()).collect();
    BatchOutcome {
        wall_s: crate::stats::median(&walls),
        records: p.batch.left.len() + p.batch.right.len(),
        pc: Metrics::of_candidates(&candidates, &p.batch.ground_truth).recall,
        f1: out.sweep.best().map_or(0.0, |b| b.metrics.f1),
    }
}

#[derive(Debug, Clone)]
pub struct RepOutcome {
    pub batch: BatchOutcome,
    pub stream: StreamOutcome,
    /// Median of the repetition's [`SEGMENTS`] checkpoints.
    pub checkpoint_s: f64,
    /// Median of the repetition's [`RECOVERIES`] reopens.
    pub recover_s: f64,
    /// Save file + journals right after the last checkpoint.
    pub disk_bytes: u64,
    pub save_bytes: u64,
    /// Journal bytes the tail added, and how many tail writes.
    pub tail_journal_bytes: u64,
    pub live_rows: usize,
    pub recall: f64,
    pub attempted: u64,
    pub failed: u64,
}

fn probe_answers(resolver: &Resolver, p: &Prepared) -> Vec<Option<Answer>> {
    p.serve
        .probes
        .iter()
        .map(|&content| call(resolver, &p.serve, p.spec.source, &Op::Query { content }))
        .collect()
}

/// `len` and `contains` agree with the model for every id ever used.
fn state_matches(resolver: &Resolver, live: &LiveSet, ids: u32) -> bool {
    resolver.len() == live.len()
        && (0..ids).all(|id| resolver.contains(EntityId(id)) == live.contains(id))
}

fn ids_used(data: &ServeData) -> u32 {
    data.preload
        .iter()
        .chain(&data.ops)
        .chain(&data.tail)
        .filter_map(|op| match *op {
            Op::Insert { id, .. } => Some(id + 1),
            _ => None,
        })
        .max()
        .unwrap_or(0)
}

/// The torn-journal gate: on a copy of the crashed directory, cut shard
/// 0's journal at a seed-chosen byte inside a record; `open` must succeed
/// and the state must equal the model replayed to exactly the committed
/// prefix. Returns `(checks attempted, checks failed)`.
fn torn_journal_gate(p: &Prepared, oracle: &Oracle, crashed: &Path, seed: u64) -> (u64, u64) {
    let dir = p.work_dir.join("torn");
    let journal = dir.join("shard-0.jrnl");
    let check = || -> Result<bool> {
        copy_dir(crashed, &dir)?;
        let bytes = std::fs::read(&journal)?;
        let full = parse_journal(&bytes)?;
        if full.records.is_empty() {
            // Nothing of the tail landed on shard 0: no record to tear.
            return Ok(true);
        }
        let first_record = er_core::journal::JOURNAL_HEADER_LEN;
        let mut cut = derive(seed, "torn-journal").gen_range(first_record + 1..bytes.len());
        if parse_journal(&bytes[..cut])?.committed_bytes == cut {
            cut -= 1; // landed on a record boundary: step inside the record before it
        }
        let survived = parse_journal(&bytes[..cut])?.records.len();
        std::fs::write(&journal, &bytes[..cut])?;

        let resolver = p.open(&dir)?;
        let mut live = oracle.after_ops.clone();
        let mut on_shard_0 = 0;
        for op in &p.serve.tail {
            let id = match *op {
                Op::Insert { id, .. } | Op::Upsert { id, .. } | Op::Delete { id } => id,
                Op::Query { .. } => continue,
            };
            if resolver.index().shard_of(EntityId(id)) == 0 {
                on_shard_0 += 1;
                if on_shard_0 > survived {
                    continue;
                }
            }
            live.apply(op);
        }
        let mut ok = state_matches(&resolver, &live, ids_used(&p.serve));
        if p.spec.backend.is_exact() {
            for &content in p.serve.probes.iter().take(50) {
                let expected = oracle::brute_force(
                    &p.serve.vectors,
                    &live,
                    p.serve.vectors.row(content as usize),
                    p.spec.backend.tier(),
                );
                ok &= matches!(
                    call(&resolver, &p.serve, p.spec.source, &Op::Query { content }),
                    Some(Answer::Hits(hits)) if oracle::is_exact(&hits, &expected)
                );
            }
        }
        Ok(ok)
    };
    let passed = catch_unwind(AssertUnwindSafe(check)).is_ok_and(|r| r.unwrap_or(false));
    let _ = std::fs::remove_dir_all(&dir);
    (1, u64::from(!passed))
}

/// Timed checkpoints per repetition: the stream runs in this many equal
/// segments with a checkpoint after each, so every checkpoint folds the
/// same amount of new data.
pub const SEGMENTS: usize = 3;
/// Timed `Resolver::open`s of the crashed directory per repetition.
pub const RECOVERIES: usize = 5;

/// One repetition. `gates` adds the full durability checks (probe answers
/// bit-equal across the crash, `contains` for every id, the torn-journal
/// variant); without it only `len` is compared after recovery.
pub fn repetition(
    p: &Prepared,
    oracle: &Oracle,
    seed: u64,
    gates: bool,
    tracer: &mut Tracer,
    parent: SpanId,
) -> RepOutcome {
    let root = tracer.begin("rep", parent, 0);
    let batch = run_batch(p, tracer, root);

    let dir = p.work_dir.join("rep");
    copy_dir(&p.base_dir, &dir).expect("copy the base directory");
    let (mut attempted, mut failed) = (0u64, 0u64);
    let resolver = p.open(&dir).expect("reopen the preloaded directory");

    let mut stream = StreamOutcome::default();
    let mut checkpoint_s = Vec::with_capacity(SEGMENTS);
    let ops = p.serve.ops.len();
    for segment in 0..SEGMENTS {
        let range = segment * ops / SEGMENTS..(segment + 1) * ops / SEGMENTS;
        let span = tracer.begin("serve.stream", root, 0);
        run_stream(
            &resolver,
            p,
            range,
            &p.serve.sampled,
            false,
            tracer,
            span,
            &mut stream,
        );
        tracer.end(span);
        let span = tracer.begin("serve.checkpoint", root, 0);
        let t = Instant::now();
        let checkpointed = resolver.checkpoint().is_ok();
        checkpoint_s.push(t.elapsed().as_secs_f64());
        tracer.end(span);
        attempted += 1;
        failed += u64::from(!checkpointed);
    }
    attempted += ops as u64;
    failed += stream.failed;
    let disk_bytes = dir_bytes(&dir);
    let save_bytes = std::fs::metadata(dir.join("resolver.erbf")).map_or(0, |m| m.len());
    let live_rows = resolver.len();
    failed += u64::from(live_rows != oracle.after_ops.len());

    // Sampled answers against the brute-force model of the live set.
    let mut recall = 0.0;
    for (hits, expected) in stream.sampled.iter().zip(&oracle.expected) {
        recall += oracle::overlap(hits, expected);
        attempted += 1;
        let right = if p.spec.backend.is_exact() {
            oracle::is_exact(hits, expected)
        } else {
            hits.len() == expected.k
        };
        failed += u64::from(!right);
    }
    failed += u64::from(stream.sampled.len() != oracle.expected.len());
    let recall = recall / stream.sampled.len().max(1) as f64;

    // Un-checkpointed tail, then the process-crash model: drop without a
    // checkpoint. Every acknowledged write was flushed to the OS.
    let span = tracer.begin("serve.tail", root, 0);
    for op in &p.serve.tail {
        attempted += 1;
        if !matches!(
            call(&resolver, &p.serve, p.spec.source, op),
            Some(Answer::Wrote(true))
        ) {
            failed += 1;
        }
    }
    tracer.end(span);
    let tail_journal_bytes = dir_bytes(&dir).saturating_sub(disk_bytes);
    let before_crash = gates.then(|| probe_answers(&resolver, p));
    drop(resolver);

    // Recovery leaves the directory as it found it (same save, same
    // committed journal), so it can be timed more than once.
    let mut recover_s = Vec::with_capacity(RECOVERIES);
    for recovery in 0..RECOVERIES {
        let span = tracer.begin("serve.recover", root, 0);
        let t = Instant::now();
        let reopened = p.open(&dir);
        recover_s.push(t.elapsed().as_secs_f64());
        tracer.end(span);
        attempted += 1;
        let Ok(resolver) = reopened else {
            failed += 1;
            continue;
        };
        failed += u64::from(resolver.len() != oracle.after_tail.len());
        if let (0, Some(before)) = (recovery, &before_crash) {
            let span = tracer.begin("gate.durability", root, 0);
            attempted += 2;
            failed += u64::from(!state_matches(
                &resolver,
                &oracle.after_tail,
                ids_used(&p.serve),
            ));
            let after = probe_answers(&resolver, p);
            failed += u64::from(*before != after || before.iter().any(Option::is_none));
            drop(resolver);
            let (a, f) = torn_journal_gate(p, oracle, &dir, seed);
            attempted += a;
            failed += f;
            tracer.end(span);
        }
    }
    tracer.end(root);
    RepOutcome {
        batch,
        stream,
        checkpoint_s: crate::stats::median(&checkpoint_s),
        recover_s: crate::stats::median(&recover_s),
        disk_bytes,
        save_bytes,
        tail_journal_bytes,
        live_rows,
        recall,
        attempted,
        failed,
    }
}

/// The oracle for a prepared workload (embedding the content entities
/// first when the workload runs on entities). Untimed: this is the
/// benchmark checking the program, not the program.
pub fn build_oracle(p: &mut Prepared) -> Oracle {
    if p.spec.source == Source::Entities {
        p.serve.vectors = oracle::embed_contents(p.model(), &MODE, &p.serve.entities);
    }
    oracle::build(&p.serve, p.spec.backend.tier())
}

/// A short un-measured pass so caches, page tables and lazy statics are
/// warm: a resolve over an eighth of the collections and the first 200
/// ops of the stream on a scratch copy.
pub fn warm_up(p: &Prepared) {
    let pipeline = Pipeline::new(p.model(), MODE);
    let (l, r) = (p.batch.left.len() / 8, p.batch.right.len() / 8);
    let _ = pipeline.resolve(
        &p.batch.left[..l],
        &p.batch.right[..r],
        &p.batch.ground_truth,
        &resolve_config(),
    );
    let dir = p.work_dir.join("warm");
    if copy_dir(&p.base_dir, &dir).is_ok() {
        if let Ok(resolver) = p.open(&dir) {
            let n = p.serve.ops.len().min(200);
            let mut scratch = StreamOutcome::default();
            run_stream(
                &resolver,
                p,
                0..n,
                &[],
                false,
                &mut Tracer::off(),
                None,
                &mut scratch,
            );
        }
    }
    let _ = std::fs::remove_dir_all(&dir);
}
