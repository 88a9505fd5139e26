//! The traced pass: a span-recorded repetition, decomposed re-runs of the
//! batch pipeline and of served queries (one span around each call into a
//! layer's public function), and stand-alone probes of single layers on
//! the workload's own inputs. Nothing here touches library internals.

use crate::gen::Op;
use crate::lifecycle::{self, Answer, Prepared, StreamOutcome, MODE};
use crate::oracle::Oracle;
use crate::report::{Measured, WorkloadResult, PER_LAYER};
use crate::run::RunOptions;
use crate::spec::{Scale, Source, K};
use crate::stats::{median, percentile};
use crate::trace::{SpanId, Tracer};
use embeddings4er::{vectorize_matrix, Pipeline};
use er_blocking::{dedup_scored, top_k_blocking_scored_matrix};
use er_core::quant::QuantizedMatrix;
use er_core::{
    sort_by_score_desc, EmbeddingMatrix, Entity, EntityId, KernelTier, Metric, QueryParams,
    ScanConfig,
};
use er_embed::{LanguageModel, ModelCode};
use er_eval::Metrics;
use er_index::{ExactIndex, HnswConfig, HnswIndex, IndexReader, MutableIndex, NnIndex};
use er_matching::{unique_mapping_clustering, Clusterer, ThresholdSweep};
use er_serve::{search_snapshots, Resolver};
use er_tune::CostModel;
use std::hint::black_box;
use std::sync::atomic::{AtomicBool, Ordering};
use std::time::Instant;

/// Collects the per-layer metrics of one traced pass.
struct Sheet {
    metrics: Vec<Measured>,
    notes: Vec<String>,
    attempted: u64,
    failed: u64,
}

impl Sheet {
    fn put(&mut self, name: &'static str, value: f64) {
        self.metrics.push(Measured::declared(name, value, None));
    }

    /// A correctness gate of the traced pass.
    fn gate(&mut self, what: &str, ok: bool) {
        self.attempted += 1;
        if !ok {
            self.failed += 1;
            self.notes.push(format!("GATE FAILED: {what}"));
        }
    }
}

fn timed<T>(f: impl FnOnce() -> T) -> (T, f64) {
    let t = Instant::now();
    let out = f();
    (out, t.elapsed().as_nanos() as f64)
}

/// Sizes of the stand-alone probes: large enough to time, small enough
/// that the whole traced pass stays near one end-to-end run.
struct ProbeSizes {
    text_records: usize,
    ft_texts: usize,
    bt_texts: usize,
    scan_evals: usize,
    searches: usize,
    batch_queries: usize,
    hnsw_rows: usize,
    decomposed_queries: usize,
    inserts: usize,
    concurrency_s: f64,
}

impl ProbeSizes {
    fn of(scale: Scale) -> ProbeSizes {
        match scale {
            Scale::Full => ProbeSizes {
                text_records: 2000,
                ft_texts: 2000,
                bt_texts: 400,
                scan_evals: 3_000_000,
                searches: 60,
                batch_queries: 128,
                hnsw_rows: 3000,
                decomposed_queries: 400,
                inserts: 300,
                concurrency_s: 0.4,
            },
            Scale::Smoke => ProbeSizes {
                text_records: 100,
                ft_texts: 100,
                bt_texts: 30,
                scan_evals: 20_000,
                searches: 10,
                batch_queries: 16,
                hnsw_rows: 150,
                decomposed_queries: 30,
                inserts: 15,
                concurrency_s: 0.03,
            },
        }
    }
}

/// The row a query content stands for, and the entity `Resolver::embed`
/// is timed on (vector workloads have no entity in their query path, so
/// they time the embed of a batch record instead).
fn query_inputs(p: &Prepared, i: usize) -> (u32, &Entity) {
    let n = p.serve.vectors.len() as u32 - p.serve.query_base;
    let content = p.serve.query_base + (i as u32 % n);
    let entity = match p.spec.source {
        Source::Entities => &p.serve.entities[content as usize],
        Source::Vectors => &p.batch.right[i % p.batch.right.len()],
    };
    (content, entity)
}

fn fresh_copy<'p>(p: &'p Prepared, name: &str) -> Resolver<'p> {
    let dir = p.work_dir.join(name);
    lifecycle::copy_dir(&p.base_dir, &dir).expect("copy the base directory");
    p.open(&dir).expect("open a copy of the base directory")
}

/// Traced vs untraced wall on the same ops: one pass over the stream on
/// a fresh copy of the base state, span recording switched every
/// `OVERHEAD_BLOCK` ops. Adjacent blocks see the same machine state, and
/// the seeded shuffle spreads op kinds evenly over them, so the two sums
/// differ by the recording cost and little else.
fn tracing_overhead(p: &Prepared, tracer: &mut Tracer, parent: SpanId) -> f64 {
    const OVERHEAD_BLOCK: usize = 50;
    let resolver = fresh_copy(p, "overhead");
    let (mut off, mut on) = (StreamOutcome::default(), StreamOutcome::default());
    let ops = p.serve.ops.len();
    // An even number of blocks, so both sides run the same number of ops.
    let blocks = (ops / OVERHEAD_BLOCK) & !1;
    for block in 0..blocks {
        let traced = block % 2 == 1;
        let range = block * OVERHEAD_BLOCK..(block + 1) * OVERHEAD_BLOCK;
        tracer.set_enabled(traced);
        let out = if traced { &mut on } else { &mut off };
        lifecycle::run_stream(&resolver, p, range, &[], false, tracer, parent, out);
    }
    tracer.set_enabled(true);
    if blocks == 0 {
        return 0.0;
    }
    on.wall_s / off.wall_s - 1.0
}

/// The batch pipeline called stage by stage through the layers' public
/// functions, against one `Pipeline::resolve` of the same inputs.
fn batch_attribution(p: &Prepared, sheet: &mut Sheet, tracer: &mut Tracer, parent: SpanId) {
    let model = p.model();
    let (left, right, gt) = (&p.batch.left, &p.batch.right, &p.batch.ground_truth);
    let config = lifecycle::resolve_config();
    let (outcome, resolve_ns) = tracer.leaf("facade.resolve", parent, 0, || {
        Pipeline::new(model, MODE).resolve(left, right, gt, &config)
    });

    let root = tracer.begin("pipeline.decomposed", parent, 0);
    let (lm, vl) = tracer.leaf("facade.vectorize_matrix", root, 0, || {
        vectorize_matrix(model, left, &MODE)
    });
    let (rm, vr) = tracer.leaf("facade.vectorize_matrix", root, 0, || {
        vectorize_matrix(model, right, &MODE)
    });
    let left_ids: Vec<EntityId> = left.iter().map(|e| e.id).collect();
    let right_ids: Vec<EntityId> = right.iter().map(|e| e.id).collect();
    let (candidates, block) = tracer.leaf("blocking.top_k_blocking_scored_matrix", root, 0, || {
        top_k_blocking_scored_matrix(&left_ids, &lm, &right_ids, &rm, &config.blocking)
    });
    let deltas = ThresholdSweep::paper_deltas();
    let (sweep, sweep_ns) = tracer.leaf("matching.threshold_sweep", root, 0, || {
        ThresholdSweep::run_with(&candidates, gt, Clusterer::UniqueMapping, &deltas)
    });
    let best = sweep.best().map_or(0.0, |b| b.delta);
    let (matches, match_ns) = tracer.leaf("matching.unique_mapping_clustering", root, 0, || {
        unique_mapping_clustering(&candidates, best)
    });
    let pairs: Vec<_> = candidates.iter().map(|c| c.id_pair()).collect();
    let (_, eval_ns) = tracer.leaf("eval.metrics", root, 0, || {
        black_box((
            Metrics::of_pairs(&matches, gt),
            Metrics::of_candidates(&pairs, gt),
        ))
    });
    tracer.end(root);

    sheet.gate(
        "stage-by-stage pipeline equals Pipeline::resolve bit for bit",
        candidates == outcome.candidates
            && matches == outcome.matches
            && best == outcome.best_delta,
    );
    // Shares come from the stage walls `Pipeline::resolve` reports for the
    // very call that was timed, so whole and parts saw the same machine
    // state; the stage-by-stage run above supplies the layer numbers and
    // the equality gate.
    let stage_ns = |prefix: &str| -> f64 {
        outcome
            .report
            .stages()
            .iter()
            .filter(|s| s.stage.starts_with(prefix))
            .map(|s| s.wall.as_nanos() as f64)
            .sum()
    };
    let stages = ["vectorize", "block", "sweep", "match"].map(stage_ns);
    sheet.put("pipeline.stage_share.vectorize", stages[0] / resolve_ns);
    sheet.put("pipeline.stage_share.block", stages[1] / resolve_ns);
    sheet.put("pipeline.stage_share.sweep", stages[2] / resolve_ns);
    sheet.put("pipeline.stage_share.match", stages[3] / resolve_ns);
    sheet.put(
        "pipeline.residual_share",
        1.0 - stages.iter().sum::<f64>() / resolve_ns,
    );
    sheet.notes.push(format!(
        "stage by stage from outside: vectorize {:.1} ms, block {:.1} ms, sweep {:.1} ms, match {:.1} ms against a {:.1} ms resolve",
        (vl + vr) / 1e6,
        block / 1e6,
        sweep_ns / 1e6,
        match_ns / 1e6,
        resolve_ns / 1e6
    ));
    sheet.put("blocking.topk_wall_s", block / 1e9);
    sheet.put(
        "blocking.candidates_per_query",
        candidates.len() as f64 / left.len() as f64,
    );
    sheet.put("matching.sweep_ms", sweep_ns / 1e6);
    sheet.put("matching.umc_ms", match_ns / 1e6);
    sheet.put("eval.metrics_ms", eval_ns / 1e6);

    // dedup alone, on the candidates in an order it has to sort.
    let mut shuffled = candidates.clone();
    sort_by_score_desc(&mut shuffled);
    let n = shuffled.len().max(1);
    let (deduped, dedup_ns) = tracer.leaf("blocking.dedup_scored", parent, 0, || {
        dedup_scored(shuffled, false)
    });
    sheet.gate(
        "dedup_scored keeps every distinct candidate",
        deduped.len() == candidates.len(),
    );
    sheet.put("blocking.dedup_ns_per_pair", dedup_ns / n as f64);
}

/// A served query taken apart: the whole `Resolver::query` next to embed,
/// snapshot pin, each shard searched in turn, and the fan-out + merge.
fn query_attribution(
    p: &Prepared,
    sizes: &ProbeSizes,
    sheet: &mut Sheet,
    tracer: &mut Tracer,
    parent: SpanId,
) {
    let resolver = fresh_copy(p, "attribution");
    let (
        mut whole,
        mut embed,
        mut pin,
        mut fanout,
        mut shard_max,
        mut shard_sum,
        mut overhead,
        mut residual,
    ) = (
        vec![],
        vec![],
        vec![],
        vec![],
        vec![],
        vec![],
        vec![],
        vec![],
    );
    let embed_in_path = p.spec.source == Source::Entities;
    let mut equal = true;
    for i in 0..sizes.decomposed_queries {
        let (content, entity) = query_inputs(p, i);
        let op_id = i as u64 + 1;
        let root = tracer.begin("query.decomposed", parent, op_id);
        let (answer, ns) = tracer.leaf("serve.query", root, op_id, || {
            lifecycle::call(&resolver, &p.serve, p.spec.source, &Op::Query { content })
        });
        let whole_ns = ns;
        whole.push(ns);
        let (embedding, ns) = tracer.leaf("serve.embed", root, op_id, || resolver.embed(entity));
        embed.push(ns);
        let mut parts = if embed_in_path { ns } else { 0.0 };
        let query: &[f32] = match p.spec.source {
            Source::Entities => embedding.as_slice(),
            Source::Vectors => p.serve.vectors.row(content as usize),
        };
        let (snaps, ns) = tracer.leaf("serve.pin", root, op_id, || resolver.index().snapshots());
        pin.push(ns);
        parts += ns;
        let per_shard: Vec<f64> = snaps
            .iter()
            .map(|s| {
                tracer
                    .leaf("serve.shard_search", root, op_id, || {
                        black_box(s.search(query, K))
                    })
                    .1
            })
            .collect();
        let slowest = per_shard.iter().copied().fold(0.0, f64::max);
        shard_max.push(slowest);
        shard_sum.push(per_shard.iter().sum());
        let (hits, ns) = tracer.leaf("serve.search_snapshots", root, op_id, || {
            search_snapshots(&snaps, query, K)
        });
        fanout.push(ns);
        overhead.push(ns - slowest);
        // Whole and parts of one op ran back to back, in one machine state.
        residual.push(1.0 - (parts + ns) / whole_ns);
        tracer.end(root);
        equal &= answer == Some(Answer::Hits(hits));
    }
    sheet.gate(
        "pinned search_snapshots answers equal Resolver::query",
        equal,
    );
    let embed_in_path = if embed_in_path { median(&embed) } else { 0.0 };
    sheet.put("serve.embed_us", median(&embed) / 1e3);
    sheet.put("serve.pin_ns", median(&pin));
    sheet.put("serve.shard_search_us_max", median(&shard_max) / 1e3);
    sheet.put("serve.shard_search_us_sum", median(&shard_sum) / 1e3);
    sheet.put("serve.fanout_merge_overhead_us", median(&overhead) / 1e3);
    sheet.put("serve.query_residual_share", median(&residual));
    sheet.notes.push(format!(
        "decomposed query (medians of {}): whole {:.1} us = embed {:.1} + pin {:.2} + fan-out/merge {:.1} (slowest shard {:.1}, overhead {:.1})",
        whole.len(),
        median(&whole) / 1e3,
        embed_in_path / 1e3,
        median(&pin) / 1e3,
        median(&fanout) / 1e3,
        median(&shard_max) / 1e3,
        median(&overhead) / 1e3
    ));
}

/// `ShardedIndex::insert` of the same rows on an in-memory and on a
/// durable resolver holding the same state; the difference is the journal.
fn insert_attribution(
    p: &Prepared,
    sizes: &ProbeSizes,
    sheet: &mut Sheet,
    tracer: &mut Tracer,
    parent: SpanId,
) {
    let durable = fresh_copy(p, "insert");
    let dir = p.work_dir.join("insert");
    let memory = Resolver::load(dir.join("resolver.erbf"), p.model()).expect("load the base save");
    let journals_before = lifecycle::dir_bytes(&dir);
    let rows: Vec<(u32, u32)> = p
        .serve
        .ops
        .iter()
        .filter_map(|op| match *op {
            Op::Insert { id, content } => Some((id, content)),
            _ => None,
        })
        .take(sizes.inserts)
        .collect();
    let (mut mem_ns, mut dur_ns) = (vec![], vec![]);
    let mut stored = true;
    for &(id, content) in &rows {
        let row = p.serve.vectors.row(content as usize);
        for (resolver, name, ns) in [
            (&memory, "serve.vector_insert", &mut mem_ns),
            (&durable, "serve.durable_insert", &mut dur_ns),
        ] {
            let (done, t) = tracer.leaf(name, parent, u64::from(id), || {
                resolver.index().insert(EntityId(id), row)
            });
            stored &= matches!(done, Ok(true));
            ns.push(t);
        }
    }
    sheet.gate(
        "every probe insert was stored on both resolvers",
        stored && !rows.is_empty(),
    );
    let written = lifecycle::dir_bytes(&dir) - journals_before;
    sheet.put("serve.vector_insert_us", median(&mem_ns) / 1e3);
    sheet.put("serve.durable_insert_us", median(&dur_ns) / 1e3);
    sheet.put(
        "serve.journal_append_us",
        (median(&dur_ns) - median(&mem_ns)) / 1e3,
    );
    sheet.put(
        "serve.journal_bytes_per_write",
        written as f64 / rows.len().max(1) as f64,
    );
}

/// ERBF encode/decode through `Resolver::to_bytes` / `from_bytes`.
fn erbf_probe(p: &Prepared, sheet: &mut Sheet) -> f64 {
    let resolver = fresh_copy(p, "erbf");
    let mut bytes = Vec::new();
    let encode: Vec<f64> = (0..3)
        .map(|_| {
            let (b, ns) = timed(|| resolver.to_bytes());
            bytes = b;
            ns
        })
        .collect();
    let mut round_trip = true;
    let decode: Vec<f64> = (0..3)
        .map(|_| {
            let (r, ns) = timed(|| Resolver::from_bytes(&bytes, p.model()));
            round_trip &= r.is_ok_and(|r| r.len() == resolver.len());
            ns
        })
        .collect();
    sheet.gate(
        "to_bytes/from_bytes round trip keeps every record",
        round_trip,
    );
    let mb = bytes.len() as f64 / 1e6;
    sheet.put("core.erbf_encode_mb_per_s", mb / (median(&encode) / 1e9));
    sheet.put("core.erbf_decode_mb_per_s", mb / (median(&decode) / 1e9));
    median(&decode) / 1e9
}

fn text_and_embed_probes(p: &Prepared, sizes: &ProbeSizes, sheet: &mut Sheet) {
    let records = &p.batch.left[..sizes.text_records.min(p.batch.left.len())];
    let (_, ns) = timed(|| {
        for e in records {
            black_box(er_text::tokenize(&er_text::normalize(&e.serialize(&MODE))));
        }
    });
    sheet.put(
        "text.serialize_tokenize_ns_per_record",
        ns / records.len() as f64,
    );

    let texts: Vec<String> = p.batch.left.iter().map(|e| e.serialize(&MODE)).collect();
    for (code, name, n) in [
        (ModelCode::FT, "embed.ft_ns_per_record", sizes.ft_texts),
        (ModelCode::BT, "embed.bt_ns_per_record", sizes.bt_texts),
    ] {
        let model = p.zoo.get(code);
        let texts = &texts[..n.min(texts.len())];
        let (_, ns) = timed(|| {
            for t in texts {
                black_box(model.embed(t));
            }
        });
        sheet.put(name, ns / texts.len() as f64);
    }

    // Sequential serialize + embed against the parallel `vectorize_matrix`.
    let model = p.model();
    let n = if p.spec.model == ModelCode::BT {
        sizes.bt_texts * 2
    } else {
        sizes.ft_texts * 2
    };
    let records = &p.batch.left[..n.min(p.batch.left.len())];
    let (_, sequential) = timed(|| {
        for e in records {
            black_box(model.embed(&e.serialize(&MODE)));
        }
    });
    let (_, parallel) = timed(|| black_box(vectorize_matrix(model, records, &MODE)));
    sheet.put("embed.vectorize_parallel_speedup", sequential / parallel);
}

/// Kernel scans, the exact index, the batched search and the stand-alone
/// HNSW graph over the rows the workload serves; plus the cost model's
/// predicted nanoseconds against these clocks.
fn index_probes(p: &Prepared, sizes: &ProbeSizes, sheet: &mut Sheet) {
    let dim = p.serve.vectors.dim();
    let rows = p.spec.preload;
    let matrix = EmbeddingMatrix::from_flat(dim, p.serve.vectors.data()[..rows * dim].to_vec())
        .expect("preload rows");
    let queries: Vec<&[f32]> = (0..sizes.searches.max(sizes.batch_queries))
        .map(|i| p.serve.vectors.row(query_inputs(p, i).0 as usize))
        .collect();
    let passes = (sizes.scan_evals / rows).clamp(2, queries.len());

    let mut scan_ns = [0.0; 2];
    for (slot, tier) in [KernelTier::Reference, KernelTier::Lanes]
        .into_iter()
        .enumerate()
    {
        let (_, ns) = timed(|| {
            for q in &queries[..passes] {
                let qn = tier.norm(q);
                let mut acc = 0.0f32;
                for i in 0..rows {
                    acc += tier.cosine_prenorm(q, qn, matrix.row(i), matrix.norm(i));
                }
                black_box(acc);
            }
        });
        scan_ns[slot] = ns / (passes * rows) as f64;
    }
    let quantized = QuantizedMatrix::quantize(&matrix);
    let (_, ns) = timed(|| {
        for q in &queries[..passes] {
            let qq = quantized.quantize_query(q);
            let mut acc = 0.0f32;
            for i in 0..rows {
                acc += quantized.cosine(&qq, i);
            }
            black_box(acc);
        }
    });
    sheet.put("core.scan_ns_per_row.reference", scan_ns[0]);
    sheet.put("core.scan_ns_per_row.lanes", scan_ns[1]);
    sheet.put("core.scan_ns_per_row.int8", ns / (passes * rows) as f64);
    // Bytes moved are computed: one f32 row per evaluation.
    sheet.put("core.scan_gb_per_s.lanes", (dim * 4) as f64 / scan_ns[1]);

    let scan = ScanConfig::with_tier(KernelTier::Lanes);
    let exact =
        ExactIndex::from_source_scan(&matrix, Metric::Cosine, scan).expect("plain f32 scan");
    let search_ns: Vec<f64> = queries[..sizes.searches]
        .iter()
        .map(|q| timed(|| black_box(exact.search_slice(q, K))).1)
        .collect();
    let exact_ns = median(&search_ns);
    sheet.put("index.exact_search_us", exact_ns / 1e3);
    sheet.put(
        "index.topk_select_share",
        1.0 - rows as f64 * scan_ns[1] / exact_ns,
    );
    let estimate = CostModel::builtin().exact(rows, dim, Metric::Cosine, &scan, K);
    sheet.gate("the cost model prices an exact scan", estimate.is_ok());
    sheet.put(
        "tune.exact_est_over_measured_ns",
        estimate.map_or(0.0, |e| e.ns) / exact_ns,
    );

    let batch = &queries[..sizes.batch_queries];
    let batch_matrix = EmbeddingMatrix::from_flat(dim, batch.concat()).expect("query rows");
    let (one_by_one, sequential) = timed(|| {
        batch
            .iter()
            .map(|q| exact.search_slice(q, K))
            .collect::<Vec<_>>()
    });
    let (batched, parallel) = timed(|| exact.search_batch_rows(&batch_matrix, K));
    sheet.gate(
        "search_batch_rows equals sequential search_slice",
        one_by_one == batched,
    );
    sheet.put("index.search_batch_speedup", sequential / parallel);

    // Stand-alone HNSW with the serving default's parameters.
    let hnsw_rows = sizes.hnsw_rows.min(rows);
    let config = HnswConfig {
        metric: Metric::Cosine,
        ..HnswConfig::default()
    };
    let mut graph = HnswIndex::from_source(EmbeddingMatrix::new(dim), config);
    let insert_ns: Vec<f64> = (0..hnsw_rows)
        .map(|i| timed(|| graph.insert_row(matrix.row(i)).expect("owned graph")).1)
        .collect();
    let sub = EmbeddingMatrix::from_flat(dim, matrix.data()[..hnsw_rows * dim].to_vec())
        .expect("graph rows");
    let truth = ExactIndex::from_matrix(&sub, Metric::Cosine);
    let params = QueryParams::default();
    let (mut graph_ns, mut evals, mut found, mut owed) = (vec![], 0u64, 0usize, 0usize);
    for q in &queries[..sizes.searches] {
        let ((hits, e), ns) = timed(|| graph.search_counted(q, K, &params));
        graph_ns.push(ns);
        evals += e;
        let want = truth.search_slice(q, K);
        owed += want.len();
        found += hits
            .iter()
            .filter(|h| want.iter().any(|w| w.index == h.index))
            .count();
    }
    sheet.put("index.hnsw_insert_us", median(&insert_ns) / 1e3);
    sheet.put("index.hnsw_search_us", median(&graph_ns) / 1e3);
    sheet.put(
        "index.hnsw_evals_per_query",
        evals as f64 / sizes.searches as f64,
    );
    sheet.put("index.hnsw_recall_at_10", found as f64 / owed.max(1) as f64);
    let estimate = CostModel::builtin()
        .probe_hnsw(&graph, queries[..sizes.searches].iter(), K, &[16, 64, 128])
        .map(|m| m.estimate(64).ns);
    sheet.gate("the cost model probes the graph", estimate.is_ok());
    sheet.put(
        "tune.hnsw_est_over_measured_ns",
        estimate.unwrap_or(0.0) / median(&graph_ns),
    );
}

/// The one two-thread phase: reader p50 with a concurrent writer over
/// reader p50 alone. Snapshot-swap promises readers never block.
fn reader_under_writer(p: &Prepared, sizes: &ProbeSizes, sheet: &mut Sheet) {
    let resolver = fresh_copy(p, "concurrency");
    let read_for = |seconds: f64| -> Vec<f64> {
        let start = Instant::now();
        let mut ns = Vec::new();
        let mut i = 0;
        while start.elapsed().as_secs_f64() < seconds {
            let content = query_inputs(p, i).0;
            ns.push(
                timed(|| {
                    black_box(lifecycle::call(
                        &resolver,
                        &p.serve,
                        p.spec.source,
                        &Op::Query { content },
                    ))
                })
                .1,
            );
            i += 1;
        }
        ns
    };
    let alone = read_for(sizes.concurrency_s);
    let stop = AtomicBool::new(false);
    let (with_writer, writes) = std::thread::scope(|scope| {
        let writer = scope.spawn(|| {
            // Re-write preloaded records under their own ids, round robin.
            let mut writes = 0u64;
            while !stop.load(Ordering::SeqCst) {
                let c = (writes % p.spec.preload as u64) as u32;
                let done = lifecycle::call(
                    &resolver,
                    &p.serve,
                    p.spec.source,
                    &Op::Upsert { id: c, content: c },
                );
                if done != Some(Answer::Wrote(true)) {
                    return None;
                }
                writes += 1;
            }
            Some(writes)
        });
        let ns = read_for(sizes.concurrency_s);
        stop.store(true, Ordering::SeqCst);
        (ns, writer.join().expect("writer thread panicked"))
    });
    sheet.gate(
        "every concurrent upsert replaced its record",
        writes.is_some(),
    );
    sheet.put(
        "serve.reader_slowdown_under_writer",
        median(&with_writer) / median(&alone),
    );
    sheet.notes.push(format!(
        "reader under writer: {} reads alone, {} beside {} upserts, {:.2} s each",
        alone.len(),
        with_writer.len(),
        writes.unwrap_or(0),
        sizes.concurrency_s
    ));
}

pub fn traced_pass(
    p: &Prepared,
    oracle: &Oracle,
    opts: &RunOptions,
    tracer: &mut Tracer,
    started: Instant,
) -> WorkloadResult {
    let sizes = ProbeSizes::of(opts.scale);
    let mut sheet = Sheet {
        metrics: Vec::new(),
        notes: Vec::new(),
        attempted: p.attempted,
        failed: p.failed,
    };

    // One full repetition with a span per op, gates included.
    let phase = tracer.begin("phase.repetition", None, 0);
    let rep = lifecycle::repetition(p, oracle, opts.seed, true, tracer, phase);
    tracer.end(phase);
    sheet.attempted += rep.attempted;
    sheet.failed += rep.failed;
    let (query_ns, write_ns) = (
        tracer.total_ns("op.query") as f64,
        tracer.total_ns("op.write") as f64,
    );
    let stream_ns = tracer.total_ns("serve.stream") as f64;
    sheet.put("trace.query_share_of_stream", query_ns / stream_ns);
    sheet.put("trace.write_share_of_stream", write_ns / stream_ns);
    // Self time = span − children: what the harness itself spends inside
    // the stream (digest, bookkeeping) beside the calls it times.
    let stream_self: u64 = tracer
        .spans()
        .iter()
        .zip(tracer.self_times_ns())
        .filter(|(s, _)| s.name == "serve.stream")
        .map(|(_, own)| own)
        .sum();
    sheet.put("trace.stream_self_share", stream_self as f64 / stream_ns);
    // The tail percentiles: too unsteady on a shared 2-vCPU box to carry a
    // regression bound, so they are reported here, from one repetition
    // (>= 12 samples beyond each at full scale).
    sheet.put(
        "serve.query_p99_us",
        percentile(&rep.stream.query_ns, 99.0) / 1e3,
    );
    sheet.put(
        "serve.write_p99_us",
        percentile(&rep.stream.write_ns, 99.0) / 1e3,
    );

    let phase = tracer.begin("phase.tracing_overhead", None, 0);
    let overhead = tracing_overhead(p, tracer, phase);
    tracer.end(phase);
    sheet.put("tracing_overhead_share", overhead);

    // Compactions, watched through `stats()` around every write.
    let phase = tracer.begin("phase.compaction_watch", None, 0);
    let watched = {
        let resolver = fresh_copy(p, "watch");
        tracer.set_enabled(false);
        let out = lifecycle::run_whole_stream(&resolver, p, true, tracer, None);
        tracer.set_enabled(true);
        out
    };
    tracer.end(phase);
    sheet.gate(
        "the watched stream repeats the traced stream's answers",
        watched.digest == rep.stream.digest,
    );
    sheet.put("serve.compactions", watched.watch.compactions as f64);
    sheet.put(
        "serve.compaction_stall_us_max",
        watched.watch.stall_ns_max / 1e3,
    );
    sheet.put(
        "serve.rows_rewritten_per_write",
        watched.watch.rows_rewritten as f64 / p.spec.writes() as f64,
    );

    let phase = tracer.begin("phase.batch_attribution", None, 0);
    batch_attribution(p, &mut sheet, tracer, phase);
    tracer.end(phase);

    let phase = tracer.begin("phase.serve_attribution", None, 0);
    query_attribution(p, &sizes, &mut sheet, tracer, phase);
    insert_attribution(p, &sizes, &mut sheet, tracer, phase);
    tracer.end(phase);

    let phase = tracer.begin("phase.layer_probes", None, 0);
    let decode_s = erbf_probe(p, &mut sheet);
    text_and_embed_probes(p, &sizes, &mut sheet);
    index_probes(p, &sizes, &mut sheet);
    tracer.end(phase);

    let phase = tracer.begin("phase.concurrency", None, 0);
    reader_under_writer(p, &sizes, &mut sheet);
    tracer.end(phase);

    sheet.put("serve.checkpoint_bytes", rep.save_bytes as f64);
    sheet.put(
        "serve.checkpoint_bytes_per_new_row",
        rep.save_bytes as f64
            / ((p.spec.inserts + p.spec.upserts) as f64 / lifecycle::SEGMENTS as f64),
    );
    // Recovery = decode the save + replay the journal tail.
    let replay_s = (rep.recover_s - decode_s).max(rep.recover_s * 0.01);
    sheet.put("serve.replay_records_per_s", p.spec.tail as f64 / replay_s);

    let wall_ns = started.elapsed().as_nanos() as f64;
    let top_level: f64 = tracer
        .spans()
        .iter()
        .filter(|s| s.parent.is_none())
        .map(|s| s.dur_ns() as f64)
        .sum();
    sheet.put("trace.spans", tracer.spans().len() as f64);
    sheet.put("trace.top_level_residual_share", 1.0 - top_level / wall_ns);
    debug_assert_eq!(sheet.metrics.len(), PER_LAYER.len());

    let by_order = |m: &Measured| PER_LAYER.iter().position(|d| d.name == m.name);
    sheet.metrics.sort_by_key(by_order);
    sheet.notes.push(format!(
        "traced pass wall {:.2} s; journal bytes the {}-write tail added: {}",
        wall_ns / 1e9,
        p.spec.tail,
        rep.tail_journal_bytes
    ));
    WorkloadResult {
        workload: p.spec.name,
        traced: true,
        reps: 1,
        attempted: sheet.attempted,
        failed: sheet.failed,
        metrics: sheet.metrics,
        notes: sheet.notes,
    }
}
