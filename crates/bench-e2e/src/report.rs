//! Metric names, result records, their JSON forms, and `--compare`.

use er_core::json::Json;
use std::fmt::Write as _;
use std::path::Path;

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct MetricDef {
    pub name: &'static str,
    pub unit: &'static str,
    /// `"lower"` or `"higher"`.
    pub better: &'static str,
}

const fn def(name: &'static str, unit: &'static str, better: &'static str) -> MetricDef {
    MetricDef { name, unit, better }
}

/// What a user of the system sees. Every workload reports every one.
pub const END_TO_END: [MetricDef; 12] = [
    def("setup_s", "s", "lower"),
    def("resolve_records_per_s", "records/s", "higher"),
    def("blocking_pc", "ratio", "higher"),
    def("match_f1", "ratio", "higher"),
    def("query_p50_us", "us", "lower"),
    def("ops_per_s", "ops/s", "higher"),
    def("write_p50_us", "us", "lower"),
    def("recall_at_10", "ratio", "higher"),
    def("checkpoint_s", "s", "lower"),
    def("recover_s", "s", "lower"),
    def("resident_bytes_per_row", "B/row", "lower"),
    def("disk_bytes_per_row", "B/row", "lower"),
];

/// Single-layer numbers from the traced pass (no bound).
pub const PER_LAYER: [MetricDef; 55] = [
    def("text.serialize_tokenize_ns_per_record", "ns", "lower"),
    def("embed.ft_ns_per_record", "ns", "lower"),
    def("embed.bt_ns_per_record", "ns", "lower"),
    def("embed.vectorize_parallel_speedup", "ratio", "higher"),
    def("core.scan_ns_per_row.reference", "ns", "lower"),
    def("core.scan_ns_per_row.lanes", "ns", "lower"),
    def("core.scan_ns_per_row.int8", "ns", "lower"),
    def("core.scan_gb_per_s.lanes", "GB/s", "higher"),
    def("core.erbf_encode_mb_per_s", "MB/s", "higher"),
    def("core.erbf_decode_mb_per_s", "MB/s", "higher"),
    def("index.exact_search_us", "us", "lower"),
    def("index.topk_select_share", "ratio", "lower"),
    def("index.search_batch_speedup", "ratio", "higher"),
    def("index.hnsw_insert_us", "us", "lower"),
    def("index.hnsw_search_us", "us", "lower"),
    def("index.hnsw_evals_per_query", "count", "lower"),
    def("index.hnsw_recall_at_10", "ratio", "higher"),
    def("blocking.topk_wall_s", "s", "lower"),
    def("blocking.dedup_ns_per_pair", "ns", "lower"),
    def("blocking.candidates_per_query", "count", "lower"),
    def("matching.sweep_ms", "ms", "lower"),
    def("matching.umc_ms", "ms", "lower"),
    def("eval.metrics_ms", "ms", "lower"),
    def("pipeline.stage_share.vectorize", "ratio", "lower"),
    def("pipeline.stage_share.block", "ratio", "lower"),
    def("pipeline.stage_share.sweep", "ratio", "lower"),
    def("pipeline.stage_share.match", "ratio", "lower"),
    def("pipeline.residual_share", "ratio", "lower"),
    def("serve.embed_us", "us", "lower"),
    def("serve.pin_ns", "ns", "lower"),
    def("serve.shard_search_us_max", "us", "lower"),
    def("serve.shard_search_us_sum", "us", "lower"),
    def("serve.fanout_merge_overhead_us", "us", "lower"),
    def("serve.query_residual_share", "ratio", "lower"),
    def("serve.query_p99_us", "us", "lower"),
    def("serve.write_p99_us", "us", "lower"),
    def("serve.vector_insert_us", "us", "lower"),
    def("serve.durable_insert_us", "us", "lower"),
    def("serve.journal_append_us", "us", "lower"),
    def("serve.journal_bytes_per_write", "B", "lower"),
    def("serve.compactions", "count", "lower"),
    def("serve.compaction_stall_us_max", "us", "lower"),
    def("serve.rows_rewritten_per_write", "count", "lower"),
    def("serve.checkpoint_bytes", "B", "lower"),
    def("serve.checkpoint_bytes_per_new_row", "B/row", "lower"),
    def("serve.replay_records_per_s", "records/s", "higher"),
    def("serve.reader_slowdown_under_writer", "ratio", "lower"),
    def("tune.exact_est_over_measured_ns", "ratio", "lower"),
    def("tune.hnsw_est_over_measured_ns", "ratio", "lower"),
    def("tracing_overhead_share", "ratio", "lower"),
    def("trace.query_share_of_stream", "ratio", "lower"),
    def("trace.write_share_of_stream", "ratio", "lower"),
    def("trace.stream_self_share", "ratio", "lower"),
    def("trace.spans", "count", "lower"),
    def("trace.top_level_residual_share", "ratio", "lower"),
];

#[derive(Debug, Clone, PartialEq)]
pub struct Measured {
    pub name: &'static str,
    pub value: f64,
    pub unit: &'static str,
    /// Interquartile range / median across repetitions
    /// ([`crate::stats::spread`]), for metrics that have repetitions.
    pub spread: Option<f64>,
}

impl Measured {
    /// A value of a metric declared in [`END_TO_END`] or [`PER_LAYER`],
    /// with the declared unit. Panics on an undeclared name: the tables
    /// are what `BENCHMARK.json` promises.
    pub fn declared(name: &'static str, value: f64, spread: Option<f64>) -> Measured {
        let def = END_TO_END
            .iter()
            .chain(&PER_LAYER)
            .find(|d| d.name == name)
            .unwrap_or_else(|| panic!("{name} is not a declared metric"));
        Measured {
            name,
            value,
            unit: def.unit,
            spread,
        }
    }
}

#[derive(Debug, Clone)]
pub struct WorkloadResult {
    pub workload: &'static str,
    pub traced: bool,
    pub reps: usize,
    pub attempted: u64,
    pub failed: u64,
    pub metrics: Vec<Measured>,
    /// Free-form lines printed with the metrics (sizes, shares, gates).
    pub notes: Vec<String>,
}

impl WorkloadResult {
    /// Every op and gate passed and every metric is a finite number.
    pub fn correct(&self) -> bool {
        self.failed == 0 && self.metrics.iter().all(|m| m.value.is_finite())
    }

    pub fn get(&self, name: &str) -> Option<f64> {
        self.metrics
            .iter()
            .find(|m| m.name == name)
            .map(|m| m.value)
    }

    /// The human-readable block: every metric by name with its unit.
    pub fn render(&self) -> String {
        let mut out = String::new();
        let _ = writeln!(
            out,
            "== {} ({}; {} repetitions) ==",
            self.workload,
            if self.traced {
                "traced pass"
            } else {
                "end to end, tracing off"
            },
            self.reps
        );
        for m in &self.metrics {
            let spread = m
                .spread
                .map_or(String::new(), |s| format!("   {}.spread = {s:.4}", m.name));
            let _ = writeln!(
                out,
                "  {:<44} {:>16.6} {:<10}{spread}",
                m.name, m.value, m.unit
            );
        }
        let _ = writeln!(
            out,
            "  ops_attempted = {}   ops_failed = {}",
            self.attempted, self.failed
        );
        for n in &self.notes {
            let _ = writeln!(out, "  # {n}");
        }
        out
    }

    /// The contract's result line: exactly `correct`, `attempted`,
    /// `failed`, `metrics`; values printed with all their digits.
    pub fn result_line(&self) -> String {
        let metrics: Vec<String> = self
            .metrics
            .iter()
            .map(|m| {
                let v = if m.value.is_finite() { m.value } else { 0.0 };
                format!(
                    "\"{}\": {{\"value\": {v}, \"unit\": \"{}\"}}",
                    m.name, m.unit
                )
            })
            .collect();
        format!(
            "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
            self.correct(),
            self.attempted.max(1),
            self.failed,
            metrics.join(", ")
        )
    }

    fn to_json(&self) -> String {
        let metrics: Vec<String> = self
            .metrics
            .iter()
            .map(|m| {
                let spread = m
                    .spread
                    .map_or(String::new(), |s| format!(", \"spread\": {s}"));
                format!(
                    "\"{}\": {{\"value\": {}, \"unit\": \"{}\"{spread}}}",
                    m.name, m.value, m.unit
                )
            })
            .collect();
        format!(
            "{{\"name\": \"{}\", \"traced\": {}, \"reps\": {}, \"attempted\": {}, \"failed\": {}, \"correct\": {}, \"metrics\": {{{}}}}}",
            self.workload,
            self.traced,
            self.reps,
            self.attempted,
            self.failed,
            self.correct(),
            metrics.join(", ")
        )
    }
}

/// A complete run set (`--out`): what `--compare` reads.
pub fn run_set_json(seed: u64, scale: &str, results: &[WorkloadResult]) -> String {
    let nproc = std::thread::available_parallelism().map_or(1, |n| n.get());
    let rows: Vec<String> = results
        .iter()
        .map(|r| format!("    {}", r.to_json()))
        .collect();
    format!(
        "{{\n  \"bench\": \"bench_e2e\",\n  \"seed\": {seed},\n  \"scale\": \"{scale}\",\n  \"nproc\": {nproc},\n  \"journal_flush_policy\": \"one write+flush to the OS per record, no fsync\",\n  \"workloads\": [\n{}\n  ]\n}}\n",
        rows.join(",\n")
    )
}

fn num(j: &Json) -> Option<f64> {
    match j {
        Json::Num(s) => s.parse().ok(),
        _ => None,
    }
}

fn find_workload<'j>(set: &'j Json, workload: &str) -> Option<&'j Json> {
    set.get("workloads")?
        .as_arr()
        .ok()?
        .iter()
        .find(|w| w.get("name").and_then(|n| n.as_str().ok()) == Some(workload))
}

/// `(value, spread)` of one metric in one workload of a parsed run set.
fn lookup(set: &Json, workload: &str, metric: &str) -> Option<(f64, f64)> {
    let m = find_workload(set, workload)?.get("metrics")?.get(metric)?;
    Some((
        num(m.get("value")?)?,
        m.get("spread").and_then(num).unwrap_or(0.0),
    ))
}

fn failed_share(set: &Json, workload: &str) -> Option<f64> {
    let w = find_workload(set, workload)?;
    Some(num(w.get("failed")?)? / num(w.get("attempted")?)?.max(1.0))
}

/// `--compare base cand`: one row per (workload, end-to-end metric) with
/// both medians, both spreads and the ratio with its base, judged by the
/// metric's bound in `BENCHMARK.json`. A pair whose spread on either side
/// exceeds the bound is *unresolved*, never *unchanged*. `Err` carries the
/// report too; it means a regression or a larger failed share.
pub fn compare(benchmark: &Path, base: &Path, cand: &Path) -> Result<String, String> {
    let read = |p: &Path| -> Result<Json, String> {
        let text = std::fs::read_to_string(p).map_err(|e| format!("read {}: {e}", p.display()))?;
        Json::parse(&text).map_err(|e| format!("parse {}: {e}", p.display()))
    };
    let (bench, base_set, cand_set) = (read(benchmark)?, read(base)?, read(cand)?);
    let names = |key: &str| -> Result<Vec<String>, String> {
        bench
            .get(key)
            .and_then(|j| j.as_arr().ok())
            .ok_or(format!("{}: no {key}", benchmark.display()))?
            .iter()
            .map(|w| {
                w.get("name")
                    .and_then(|n| n.as_str().ok())
                    .map(str::to_owned)
                    .ok_or(format!("{key} entry without a name"))
            })
            .collect()
    };
    let mut out = String::new();
    let _ = writeln!(
        out,
        "{:<20} {:<24} {:>14} {:>8} {:>14} {:>8} {:>8} {:>6}  verdict",
        "workload", "metric", "base", "spread", "cand", "spread", "ratio", "bound"
    );
    let (mut regressions, mut unresolved) = (0, 0);
    for workload in names("workloads")? {
        for m in bench
            .get("end_to_end")
            .and_then(|j| j.as_arr().ok())
            .unwrap_or(&[])
        {
            let name = m.get("name").and_then(|n| n.as_str().ok()).unwrap_or("?");
            let bound = m.get("bound").and_then(num).unwrap_or(0.0);
            let lower = m.get("better").and_then(|b| b.as_str().ok()) == Some("lower");
            let (Some((b, bs)), Some((c, cs))) = (
                lookup(&base_set, &workload, name),
                lookup(&cand_set, &workload, name),
            ) else {
                let _ = writeln!(out, "{workload:<20} {name:<24} missing on one side");
                regressions += 1;
                continue;
            };
            let ratio = c / b;
            let worse = if lower { ratio - 1.0 } else { 1.0 - ratio };
            // A side whose own repetitions disagree by more than the bound
            // cannot settle a difference of that size either way.
            let verdict = if bs > bound || cs > bound {
                unresolved += 1;
                "unresolved"
            } else if worse > bound {
                regressions += 1;
                "REGRESSION"
            } else if worse < -bound {
                "improved"
            } else {
                "unchanged"
            };
            let _ = writeln!(
                out,
                "{workload:<20} {name:<24} {b:>14.4} {bs:>8.4} {c:>14.4} {cs:>8.4} {ratio:>8.4} {bound:>6.3}  {verdict} (cand/base {c:.4}/{b:.4})"
            );
        }
        let (fb, fc) = (
            failed_share(&base_set, &workload).unwrap_or(0.0),
            failed_share(&cand_set, &workload).unwrap_or(1.0),
        );
        if fc > fb {
            regressions += 1;
            let _ = writeln!(
                out,
                "{workload:<20} failed share rose: {fb} -> {fc}  REGRESSION"
            );
        }
    }
    let _ = writeln!(out, "{regressions} regression(s), {unresolved} unresolved");
    if regressions > 0 {
        Err(out)
    } else {
        Ok(out)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn result(p50: f64, spread: f64, failed: u64) -> WorkloadResult {
        WorkloadResult {
            workload: "w",
            traced: false,
            reps: 5,
            attempted: 100,
            failed,
            metrics: vec![Measured {
                name: "query_p50_us",
                value: p50,
                unit: "us",
                spread: Some(spread),
            }],
            notes: vec![],
        }
    }

    #[test]
    fn names_are_unique_and_well_formed() {
        let mut all: Vec<&str> = END_TO_END
            .iter()
            .chain(&PER_LAYER)
            .map(|m| m.name)
            .collect();
        let n = all.len();
        all.sort_unstable();
        all.dedup();
        assert_eq!(all.len(), n);
        for m in END_TO_END.iter().chain(&PER_LAYER) {
            assert!(m.name.len() <= 64 && m.unit.len() <= 16);
            assert!(m
                .name
                .chars()
                .all(|c| c.is_ascii_alphanumeric() || "_.-".contains(c)));
            assert!(m
                .unit
                .chars()
                .all(|c| c.is_ascii_alphanumeric() || "_/%.-".contains(c)));
            assert!(m.better == "lower" || m.better == "higher");
        }
    }

    #[test]
    fn result_line_is_the_contract_object() {
        let line = result(12.5, 0.01, 0).result_line();
        let j = Json::parse(&line).unwrap();
        let keys: Vec<&str> = j
            .as_obj()
            .unwrap()
            .iter()
            .map(|(k, _)| k.as_str())
            .collect();
        assert_eq!(keys, ["correct", "attempted", "failed", "metrics"]);
        assert_eq!(j.get("correct"), Some(&Json::Bool(true)));
        let m = j.get("metrics").unwrap().get("query_p50_us").unwrap();
        assert_eq!(num(m.get("value").unwrap()), Some(12.5));
        assert!(!Json::parse(&result(1.0, 0.0, 3).result_line())
            .unwrap()
            .get("correct")
            .unwrap()
            .eq(&Json::Bool(true)));
    }

    #[test]
    fn compare_flags_regressions_and_unresolved_pairs() {
        let dir = std::env::temp_dir().join(format!("bench-e2e-compare-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let bench = dir.join("BENCHMARK.json");
        std::fs::write(
            &bench,
            r#"{"workloads":[{"name":"w","why":"x"}],"end_to_end":[{"name":"query_p50_us","unit":"us","better":"lower","bound":0.1}]}"#,
        )
        .unwrap();
        let write = |name: &str, r: WorkloadResult| {
            let p = dir.join(name);
            std::fs::write(&p, run_set_json(42, "full", &[r])).unwrap();
            p
        };
        let base = write("base.json", result(100.0, 0.02, 0));
        let same = write("same.json", result(104.0, 0.02, 0));
        let slow = write("slow.json", result(120.0, 0.02, 0));
        let noisy = write("noisy.json", result(104.0, 0.3, 0));
        let broken = write("broken.json", result(100.0, 0.02, 1));
        assert!(compare(&bench, &base, &same).unwrap().contains("unchanged"));
        assert!(compare(&bench, &base, &slow)
            .unwrap_err()
            .contains("REGRESSION"));
        assert!(compare(&bench, &base, &noisy)
            .unwrap()
            .contains("1 unresolved"));
        assert!(compare(&bench, &base, &broken)
            .unwrap_err()
            .contains("failed share rose"));
        let _ = std::fs::remove_dir_all(&dir);
    }
}
