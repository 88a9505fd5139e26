//! Running one workload: the end-to-end pass (tracing off) and the traced
//! pass that yields the per-layer numbers.

use crate::layers;
use crate::lifecycle::{self, Prepared, RepOutcome};
use crate::report::{Measured, WorkloadResult, END_TO_END};
use crate::spec::{Scale, Spec};
use crate::stats::{median, percentile, spread};
use crate::trace::Tracer;
use er_embed::ModelZoo;
use std::path::{Path, PathBuf};
use std::time::Instant;

/// Set-ups per end-to-end run; `setup_s` is their median.
pub const SETUP_REPS: usize = 3;
/// Repetitions when neither `--seconds` nor `--reps` is given.
const DEFAULT_REPS: usize = 5;
/// Fewest repetitions a time-bounded run takes.
const MIN_REPS: usize = 3;

#[derive(Debug, Clone)]
pub struct RunOptions {
    pub scale: Scale,
    pub seed: u64,
    /// Keep starting repetitions until this much time has been measured.
    pub seconds: Option<f64>,
    /// Exactly this many repetitions (wins over `seconds`).
    pub reps: Option<usize>,
    /// Set-ups per end-to-end run ([`SETUP_REPS`] from the command line).
    pub setup_reps: usize,
    /// Directory the durable resolvers live in; created and removed here.
    pub work_root: PathBuf,
    /// A zoo to reuse instead of pre-training. `None` — always, from the
    /// command line — pre-trains in every set-up, which is what `setup_s`
    /// is defined to include; the smoke test pre-trains once for its 24
    /// debug-build set-ups.
    pub pretrained: Option<ModelZoo>,
}

fn work_dir(opts: &RunOptions, spec: &Spec) -> PathBuf {
    opts.work_root
        .join(format!("{}-{}", spec.name, std::process::id()))
}

/// Set up `times` times; returns the last set-up and every wall-clock.
fn timed_setups(spec: &Spec, opts: &RunOptions, dir: &Path, times: usize) -> (Prepared, Vec<f64>) {
    let mut walls = Vec::with_capacity(times);
    let mut last = None;
    for _ in 0..times {
        drop(last.take()); // free the previous set-up before timing the next
        let t = Instant::now();
        let p = lifecycle::setup(spec, opts.scale, opts.seed, dir, opts.pretrained.clone());
        walls.push(t.elapsed().as_secs_f64());
        last = Some(p);
    }
    (last.expect("at least one set-up"), walls)
}

fn timing(name: &'static str, per_rep: &[f64]) -> Measured {
    Measured::declared(name, median(per_rep), Some(spread(per_rep)))
}

/// A count-type metric: must read the same in every repetition. Returns
/// the metric and whether it did.
fn exact(name: &'static str, per_rep: &[f64]) -> (Measured, bool) {
    let same = per_rep.iter().all(|v| v.to_bits() == per_rep[0].to_bits());
    (
        Measured::declared(name, per_rep[0], Some(spread(per_rep))),
        same,
    )
}

fn us(ns: &[f64], p: f64) -> f64 {
    percentile(ns, p) / 1e3
}

/// The end-to-end pass: tracing off, `setup_reps` set-ups, a warm-up,
/// then repetitions; a timing's value is the median across repetitions of
/// the within-repetition statistic.
pub fn run_e2e(spec: &Spec, opts: &RunOptions) -> WorkloadResult {
    let dir = work_dir(opts, spec);
    let (mut p, setup_walls) = timed_setups(spec, opts, &dir, opts.setup_reps.max(1));
    let oracle = lifecycle::build_oracle(&mut p);
    lifecycle::warm_up(&p);

    let mut reps: Vec<RepOutcome> = Vec::new();
    let mut tracer = Tracer::off();
    let started = Instant::now();
    loop {
        let t = Instant::now();
        // The full durability gates run once: repetitions are identical.
        reps.push(lifecycle::repetition(
            &p,
            &oracle,
            opts.seed,
            reps.is_empty(),
            &mut tracer,
            None,
        ));
        let last = t.elapsed().as_secs_f64();
        let done = match (opts.reps, opts.seconds) {
            (Some(n), _) => reps.len() >= n,
            (None, Some(s)) => reps.len() >= MIN_REPS && started.elapsed().as_secs_f64() + last > s,
            (None, None) => reps.len() >= DEFAULT_REPS,
        };
        if done {
            break;
        }
    }
    let _ = std::fs::remove_dir_all(&dir);

    let col = |f: &dyn Fn(&RepOutcome) -> f64| -> Vec<f64> { reps.iter().map(f).collect() };
    let mut failed = p.failed + reps.iter().map(|r| r.failed).sum::<u64>();
    let mut attempted = p.attempted + reps.iter().map(|r| r.attempted).sum::<u64>();
    let mut metrics = vec![timing("setup_s", &setup_walls)];
    metrics.push(timing(
        "resolve_records_per_s",
        &col(&|r| r.batch.records as f64 / r.batch.wall_s),
    ));
    // Correctness gate: count-type metrics and the answer digest repeat
    // exactly across repetitions.
    let mut gate = |name: &'static str, values: Vec<f64>| {
        let (m, same) = exact(name, &values);
        attempted += 1;
        failed += u64::from(!same);
        m
    };
    let pc = gate("blocking_pc", col(&|r| r.batch.pc));
    let f1 = gate("match_f1", col(&|r| r.batch.f1));
    let recall = gate("recall_at_10", col(&|r| r.recall));
    let disk = gate(
        "disk_bytes_per_row",
        col(&|r| r.disk_bytes as f64 / r.live_rows.max(1) as f64),
    );
    attempted += 1;
    failed += u64::from(
        reps.iter()
            .any(|r| r.stream.digest != reps[0].stream.digest),
    );
    if spec.backend.is_exact() {
        attempted += 1;
        failed += u64::from(recall.value != 1.0);
    }
    metrics.extend([pc, f1]);
    metrics.push(timing(
        "query_p50_us",
        &col(&|r| us(&r.stream.query_ns, 50.0)),
    ));
    metrics.push(timing(
        "ops_per_s",
        &col(&|r| (r.stream.query_ns.len() + r.stream.write_ns.len()) as f64 / r.stream.wall_s),
    ));
    metrics.push(timing(
        "write_p50_us",
        &col(&|r| us(&r.stream.write_ns, 50.0)),
    ));
    metrics.push(recall);
    metrics.push(timing("checkpoint_s", &col(&|r| r.checkpoint_s)));
    metrics.push(timing("recover_s", &col(&|r| r.recover_s)));
    metrics.push(Measured::declared(
        "resident_bytes_per_row",
        p.resident_bytes as f64 / spec.preload as f64,
        None,
    ));
    metrics.push(disk);
    debug_assert_eq!(metrics.len(), END_TO_END.len());

    let notes = vec![
        format!(
            "sizes: batch {} x {} ({} matches), model {}, preload {} rows, {} queries + {} writes per repetition, tail {}",
            p.batch.left.len(),
            p.batch.right.len(),
            p.batch.ground_truth.len(),
            spec.model,
            spec.preload,
            spec.queries,
            spec.writes(),
            spec.tail
        ),
        format!(
            "closed loop, 1 client, {} shards; journal: one write+flush to the OS per record, no fsync; seed {}",
            crate::spec::SHARDS,
            opts.seed
        ),
        format!(
            "p99 (demoted to the traced pass, shown unbounded): query {:.1} us, write {:.1} us (medians across repetitions)",
            median(&col(&|r| us(&r.stream.query_ns, 99.0))),
            median(&col(&|r| us(&r.stream.write_ns, 99.0)))
        ),
        format!(
            "samples per repetition: {} query latencies, {} write latencies, {} answers checked against the brute-force model",
            reps[0].stream.query_ns.len(),
            reps[0].stream.write_ns.len(),
            reps[0].stream.sampled.len()
        ),
    ];
    WorkloadResult {
        workload: spec.name,
        traced: false,
        reps: reps.len(),
        attempted,
        failed,
        metrics,
        notes,
    }
}

/// The traced pass: one set-up, then span-recorded repetitions, the
/// decomposed attribution runs and the layer probes of `crate::layers`.
pub fn run_traced(spec: &Spec, opts: &RunOptions) -> (WorkloadResult, Tracer) {
    let dir = work_dir(opts, spec);
    let started = Instant::now();
    let mut tracer = Tracer::on();
    let setup_span = tracer.begin("phase.setup", None, 0);
    let (mut p, _) = timed_setups(spec, opts, &dir, 1);
    let oracle = lifecycle::build_oracle(&mut p);
    lifecycle::warm_up(&p);
    tracer.end(setup_span);
    let result = layers::traced_pass(&p, &oracle, opts, &mut tracer, started);
    let _ = std::fs::remove_dir_all(&dir);
    (result, tracer)
}
