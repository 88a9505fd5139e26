//! `bench_e2e` — see the crate README for the one command and its flags.

use er_bench_e2e::report::{self, WorkloadResult};
use er_bench_e2e::run::{run_e2e, run_traced, RunOptions, SETUP_REPS};
use er_bench_e2e::spec::{self, Scale};
use std::path::{Path, PathBuf};
use std::process::ExitCode;

const USAGE: &str = "\
bench_e2e [--workload <name>] [--seed <n>] [--seconds <s>] [--reps <n>]
          [--trace <0|1> | --traced] [--trace-out <file>] [--scale full|smoke]
          [--out <run-set.json>]
bench_e2e --compare <base.json> <cand.json>

Without --workload every workload runs. With --workload the last line of
standard output is the result object BENCHMARK.json's driver reads.";

struct Args {
    workload: Option<String>,
    seed: u64,
    seconds: Option<f64>,
    reps: Option<usize>,
    traced: bool,
    trace_out: Option<PathBuf>,
    scale: Scale,
    out: Option<PathBuf>,
    compare: Option<(PathBuf, PathBuf)>,
}

fn parse_args() -> Result<Args, String> {
    let mut args = Args {
        workload: None,
        seed: 42,
        seconds: None,
        reps: None,
        traced: false,
        trace_out: None,
        scale: Scale::Full,
        out: None,
        compare: None,
    };
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let mut value = |what: &str| it.next().ok_or(format!("{flag} needs {what}"));
        match flag.as_str() {
            "--workload" => args.workload = Some(value("a workload name")?),
            "--seed" => {
                args.seed = value("a number")?
                    .parse()
                    .map_err(|e| format!("--seed: {e}"))?
            }
            "--seconds" => {
                let s: f64 = value("a number")?
                    .parse()
                    .map_err(|e| format!("--seconds: {e}"))?;
                if !(s.is_finite() && s > 0.0) {
                    return Err("--seconds must be positive".into());
                }
                args.seconds = Some(s);
            }
            "--reps" => {
                let n: usize = value("a number")?
                    .parse()
                    .map_err(|e| format!("--reps: {e}"))?;
                if n == 0 {
                    return Err("--reps must be at least 1".into());
                }
                args.reps = Some(n);
            }
            "--trace" => {
                args.traced = match value("0 or 1")?.as_str() {
                    "0" => false,
                    "1" => true,
                    other => return Err(format!("--trace takes 0 or 1, not {other}")),
                }
            }
            "--traced" => args.traced = true,
            "--trace-out" => args.trace_out = Some(value("a path")?.into()),
            "--scale" => {
                let s = value("full or smoke")?;
                args.scale = Scale::parse(&s).ok_or(format!("unknown scale {s}"))?;
            }
            "--out" => args.out = Some(value("a path")?.into()),
            "--compare" => {
                args.compare = Some((
                    value("a base file")?.into(),
                    value("a candidate file")?.into(),
                ))
            }
            "--help" | "-h" => return Err(String::new()),
            other => return Err(format!("unknown argument {other}")),
        }
    }
    Ok(args)
}

/// Durable resolvers live under the build directory: inside the checkout
/// and already ignored by git.
fn work_root() -> PathBuf {
    let target =
        std::env::var_os("CARGO_TARGET_DIR").map_or_else(|| PathBuf::from("target"), PathBuf::from);
    target.join("bench-e2e-work")
}

fn benchmark_json() -> PathBuf {
    let local = Path::new("BENCHMARK.json");
    if local.is_file() {
        local.to_path_buf()
    } else {
        Path::new(env!("CARGO_MANIFEST_DIR")).join("../../BENCHMARK.json")
    }
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(a) => a,
        Err(msg) => {
            if !msg.is_empty() {
                eprintln!("bench_e2e: {msg}");
            }
            eprintln!("{USAGE}");
            return ExitCode::from(2);
        }
    };
    if let Some((base, cand)) = &args.compare {
        return match report::compare(&benchmark_json(), base, cand) {
            Ok(table) => {
                print!("{table}");
                ExitCode::SUCCESS
            }
            Err(table) => {
                print!("{table}");
                ExitCode::FAILURE
            }
        };
    }
    let specs = match &args.workload {
        Some(name) => match spec::find(args.scale, name) {
            Some(s) => vec![s],
            None => {
                eprintln!(
                    "bench_e2e: unknown workload {name}; known: {}",
                    spec::workloads(args.scale)
                        .iter()
                        .map(|s| s.name)
                        .collect::<Vec<_>>()
                        .join(", ")
                );
                return ExitCode::from(2);
            }
        },
        None => spec::workloads(args.scale),
    };
    let opts = RunOptions {
        scale: args.scale,
        seed: args.seed,
        seconds: args.seconds,
        reps: args.reps,
        setup_reps: SETUP_REPS,
        work_root: work_root(),
        pretrained: None,
    };
    let mut results: Vec<WorkloadResult> = Vec::new();
    let mut spans = String::new();
    for spec in &specs {
        let result = if args.traced {
            let (result, tracer) = run_traced(spec, &opts);
            if args.trace_out.is_some() {
                spans.push_str(&tracer.to_json_lines(spec.name));
            }
            result
        } else {
            run_e2e(spec, &opts)
        };
        print!("{}", result.render());
        results.push(result);
    }
    let _ = std::fs::remove_dir(&opts.work_root);
    if let Some(path) = &args.trace_out {
        if let Err(e) = std::fs::write(path, spans) {
            eprintln!("bench_e2e: write {}: {e}", path.display());
            return ExitCode::FAILURE;
        }
    }
    if let Some(path) = &args.out {
        if let Err(e) = std::fs::write(
            path,
            report::run_set_json(args.seed, args.scale.name(), &results),
        ) {
            eprintln!("bench_e2e: write {}: {e}", path.display());
            return ExitCode::FAILURE;
        }
    }
    if args.workload.is_some() {
        println!("{}", results[0].result_line());
    }
    if results.iter().all(WorkloadResult::correct) {
        ExitCode::SUCCESS
    } else {
        eprintln!("bench_e2e: a correctness gate or an operation failed");
        ExitCode::FAILURE
    }
}
