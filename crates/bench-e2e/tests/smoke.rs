//! Smoke run: all six workloads, end to end and traced, at `--scale
//! smoke`, twice with the same seed. Checks that the benchmark emits
//! exactly what `BENCHMARK.json` declares, that count-type metrics repeat
//! exactly, and that the trace accounts for the traced pass's wall-clock.

use er_bench_e2e::report::{MetricDef, WorkloadResult, END_TO_END, PER_LAYER};
use er_bench_e2e::run::{run_e2e, run_traced, RunOptions};
use er_bench_e2e::spec::{workloads, Scale};
use er_core::json::Json;
use std::path::PathBuf;
use std::sync::OnceLock;

/// Metrics that are counts (or pure functions of counts): identical
/// across runs of the same seed, bit for bit.
const COUNT_TYPE: [&str; 7] = [
    "blocking_pc",
    "match_f1",
    "recall_at_10",
    "disk_bytes_per_row",
    "serve.journal_bytes_per_write",
    "index.hnsw_evals_per_query",
    "serve.compactions",
];

struct Runs {
    /// Per workload: two end-to-end results and two traced results.
    e2e: Vec<[WorkloadResult; 2]>,
    traced: Vec<[WorkloadResult; 2]>,
    /// Σ top-level span time / wall of the first traced pass, per workload.
    top_level_cover: Vec<f64>,
}

fn runs() -> &'static Runs {
    static RUNS: OnceLock<Runs> = OnceLock::new();
    RUNS.get_or_init(|| {
        let opts = RunOptions {
            scale: Scale::Smoke,
            seed: 42,
            seconds: None,
            reps: Some(2),
            setup_reps: 1,
            work_root: PathBuf::from(env!("CARGO_TARGET_TMPDIR")).join("bench-e2e-smoke"),
            pretrained: Some(er_bench_e2e::lifecycle::pretrain(Scale::Smoke)),
        };
        let (mut e2e, mut traced, mut top_level_cover) = (vec![], vec![], vec![]);
        for spec in workloads(Scale::Smoke) {
            e2e.push([run_e2e(&spec, &opts), run_e2e(&spec, &opts)]);
            let started = std::time::Instant::now();
            let (first, tracer) = run_traced(&spec, &opts);
            let wall = started.elapsed().as_nanos() as f64;
            let top: f64 = tracer
                .spans()
                .iter()
                .filter(|s| s.parent.is_none())
                .map(|s| s.dur_ns() as f64)
                .sum();
            top_level_cover.push(top / wall);
            traced.push([first, run_traced(&spec, &opts).0]);
        }
        let _ = std::fs::remove_dir_all(&opts.work_root);
        Runs {
            e2e,
            traced,
            top_level_cover,
        }
    })
}

fn benchmark_json() -> Json {
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../../BENCHMARK.json");
    Json::parse(&std::fs::read_to_string(path).expect("BENCHMARK.json at the repository root"))
        .expect("BENCHMARK.json parses")
}

fn declared(bench: &Json, key: &str) -> Vec<(String, String, String)> {
    bench
        .expect(key)
        .and_then(Json::as_arr)
        .unwrap()
        .iter()
        .map(|m| {
            let s = |k: &str| m.expect(k).and_then(Json::as_str).unwrap().to_owned();
            (s("name"), s("unit"), s("better"))
        })
        .collect()
}

fn as_declared(defs: &[MetricDef]) -> Vec<(String, String, String)> {
    defs.iter()
        .map(|d| (d.name.to_owned(), d.unit.to_owned(), d.better.to_owned()))
        .collect()
}

#[test]
fn benchmark_json_declares_exactly_what_the_code_emits() {
    let bench = benchmark_json();
    assert_eq!(declared(&bench, "end_to_end"), as_declared(&END_TO_END));
    assert_eq!(declared(&bench, "per_layer"), as_declared(&PER_LAYER));
    let names: Vec<String> = bench
        .expect("workloads")
        .and_then(Json::as_arr)
        .unwrap()
        .iter()
        .map(|w| w.expect("name").and_then(Json::as_str).unwrap().to_owned())
        .collect();
    let specs: Vec<&str> = workloads(Scale::Full).iter().map(|s| s.name).collect();
    assert_eq!(names, specs);
    for m in bench.expect("end_to_end").and_then(Json::as_arr).unwrap() {
        let bound = m.expect("bound").and_then(Json::as_f32).unwrap();
        assert!(bound > 0.0 && bound <= 0.25, "bound {bound} out of range");
    }
}

#[test]
fn every_declared_metric_is_emitted_finite_and_well_named() {
    let well_named = |n: &str| {
        !n.is_empty()
            && n.chars()
                .all(|c| c.is_ascii_alphanumeric() || "_.-".contains(c))
    };
    for (results, defs) in [
        (&runs().e2e, &END_TO_END[..]),
        (&runs().traced, &PER_LAYER[..]),
    ] {
        assert_eq!(results.len(), 6);
        for pair in results.iter() {
            for r in pair {
                assert!(r.correct(), "{}: {:?}", r.workload, r.notes);
                assert_eq!(r.failed, 0, "{}", r.workload);
                assert!(r.attempted >= 1);
                let names: Vec<&str> = r.metrics.iter().map(|m| m.name).collect();
                let want: Vec<&str> = defs.iter().map(|d| d.name).collect();
                assert_eq!(names, want, "{}", r.workload);
                for m in &r.metrics {
                    assert!(well_named(m.name), "{}", m.name);
                    assert!(m.value.is_finite(), "{} {}", r.workload, m.name);
                }
                // The result line is one JSON object with the contract's keys.
                let line = Json::parse(&r.result_line()).unwrap();
                assert_eq!(line.get("correct"), Some(&Json::Bool(true)));
                assert_eq!(
                    line.expect("metrics").and_then(Json::as_obj).unwrap().len(),
                    defs.len()
                );
            }
        }
    }
    // End-to-end metrics are never 0.
    for pair in &runs().e2e {
        for m in &pair[0].metrics {
            assert!(
                m.value > 0.0,
                "{} {} = {}",
                pair[0].workload,
                m.name,
                m.value
            );
        }
    }
}

#[test]
fn count_type_metrics_repeat_exactly_across_two_runs_of_one_seed() {
    for results in [&runs().e2e, &runs().traced] {
        for [a, b] in results.iter() {
            assert_eq!(a.attempted, b.attempted, "{}", a.workload);
            for name in COUNT_TYPE {
                if let (Some(x), Some(y)) = (a.get(name), b.get(name)) {
                    assert_eq!(
                        x.to_bits(),
                        y.to_bits(),
                        "{} {name}: {x} vs {y}",
                        a.workload
                    );
                }
            }
        }
    }
    // Exact backends answer exactly.
    for [a, _] in &runs().e2e {
        if a.workload != "serve_hnsw_mixed" {
            assert_eq!(a.get("recall_at_10"), Some(1.0), "{}", a.workload);
        }
    }
}

#[test]
fn top_level_spans_account_for_the_traced_wall() {
    for (cover, [r, _]) in runs().top_level_cover.iter().zip(&runs().traced) {
        assert!(
            (0.90..=1.0).contains(cover),
            "{}: top-level spans cover {cover}",
            r.workload
        );
        let residual = r.get("trace.top_level_residual_share").unwrap();
        assert!(
            (0.0..0.10).contains(&residual),
            "{}: {residual}",
            r.workload
        );
    }
}
