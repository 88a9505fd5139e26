//! References in the prose documents that cannot go stale. README.md,
//! DESIGN.md and EXPERIMENTS.md are scanned for three kinds of reference,
//! and each one must resolve:
//!
//! - a backticked `crates/…`, `tests/…`, `src/…` or `examples/…` path
//!   exists in the repository (a `:line` suffix is ignored; a `*` glob
//!   checks the part before it);
//! - every `ErError::X` named is a variant of `er_core::ErError`;
//! - a backticked dotted metric (`core.`, `embed.`, `index.`, `serve.`,
//!   `tune.`, `pipeline.`, `text.`) is a metric `BENCHMARK.json` declares
//!   (a `{a,b}` group expands, a `*` matches any suffix).
//!
//! A failure names the document and the line. ROADMAP.md is exempt: its
//! references are plans, re-checked whenever it is re-anchored.

use std::collections::BTreeSet;
use std::path::{Path, PathBuf};

const DOCS: [&str; 3] = ["README.md", "DESIGN.md", "EXPERIMENTS.md"];
const PATH_ROOTS: [&str; 4] = ["crates/", "tests/", "src/", "examples/"];
const METRIC_LAYERS: [&str; 7] = [
    "core.",
    "embed.",
    "index.",
    "serve.",
    "tune.",
    "pipeline.",
    "text.",
];

/// What a reference may resolve to.
struct Known {
    variants: BTreeSet<String>,
    metrics: BTreeSet<String>,
    root: PathBuf,
}

fn read(rel: &str) -> String {
    let path = Path::new(env!("CARGO_MANIFEST_DIR")).join(rel);
    std::fs::read_to_string(&path).unwrap_or_else(|e| panic!("{rel}: {e}"))
}

/// The variants of `ErError`, read from its definition.
fn error_variants(source: &str) -> BTreeSet<String> {
    let body = source
        .split_once("pub enum ErError {")
        .and_then(|(_, rest)| rest.split_once("\n}"))
        .expect("er-core defines `pub enum ErError`")
        .0;
    body.lines()
        .filter_map(|line| line.trim().split_once('('))
        .map(|(name, _)| name.to_string())
        .collect()
}

/// Every `"name": "…"` value in BENCHMARK.json: the declared metrics
/// (and the workload names, which carry no layer prefix).
fn declared_names(benchmark: &str) -> BTreeSet<String> {
    benchmark
        .split("\"name\"")
        .skip(1)
        .filter_map(|rest| rest.split('"').nth(1))
        .map(str::to_string)
        .collect()
}

/// The backticked spans of a document outside fenced code blocks, each
/// with the line it starts on. A span may run across a line break.
fn spans(text: &str) -> Vec<(usize, String)> {
    let mut out = Vec::new();
    let mut open: Option<(usize, String)> = None;
    let mut fenced = false;
    for (i, line) in text.lines().enumerate() {
        if line.trim_start().starts_with("```") {
            fenced = !fenced;
            open = None;
            continue;
        }
        if fenced {
            continue;
        }
        for (j, part) in line.split('`').enumerate() {
            if j > 0 {
                match open.take() {
                    Some(span) => out.push(span),
                    None => open = Some((i + 1, String::new())),
                }
            }
            if let Some((_, span)) = open.as_mut() {
                if j == 0 && !span.is_empty() {
                    span.push(' ');
                }
                span.push_str(part);
            }
        }
    }
    out
}

/// `a.{b,c}.d` → `a.b.d`, `a.c.d` (one group); anything else as is.
fn expand(span: &str) -> Vec<String> {
    match (span.find('{'), span.find('}')) {
        (Some(l), Some(r)) if l < r => span[l + 1..r]
            .split(',')
            .map(|alt| format!("{}{}{}", &span[..l], alt.trim(), &span[r + 1..]))
            .collect(),
        _ => vec![span.to_string()],
    }
}

fn is_metric(span: &str) -> bool {
    METRIC_LAYERS.iter().any(|p| span.starts_with(p))
        && !span.ends_with(".rs")
        && span
            .chars()
            .all(|c| c.is_ascii_alphanumeric() || "_.*{},".contains(c))
}

/// Every reference of `text` (named `doc`) that does not resolve, as
/// `doc:line: what`.
fn dangling(doc: &str, text: &str, known: &Known) -> Vec<String> {
    let mut bad = Vec::new();
    for (n, line) in text.lines().enumerate() {
        for (at, prefix) in line.match_indices("ErError::") {
            let name: String = line[at + prefix.len()..]
                .chars()
                .take_while(|c| c.is_ascii_alphanumeric() || *c == '_')
                .collect();
            if !known.variants.contains(&name) {
                bad.push(format!("{doc}:{}: `ErError::{name}` is no variant", n + 1));
            }
        }
    }
    for (n, span) in spans(text) {
        let span = span.trim();
        if PATH_ROOTS.iter().any(|p| span.starts_with(p)) {
            let path = span.split([' ', ':']).next().unwrap_or(span);
            let path = path.split('*').next().unwrap_or(path);
            if !known.root.join(path).exists() {
                bad.push(format!("{doc}:{n}: path `{span}` does not exist"));
            }
        } else if is_metric(span) {
            for metric in expand(span) {
                let found = match metric.split_once('*') {
                    Some((prefix, _)) => known.metrics.iter().any(|m| m.starts_with(prefix)),
                    None => known.metrics.contains(&metric),
                };
                if !found {
                    bad.push(format!(
                        "{doc}:{n}: metric `{metric}` is not in BENCHMARK.json"
                    ));
                }
            }
        }
    }
    bad
}

fn repository() -> Known {
    Known {
        variants: error_variants(&read("crates/core/src/error.rs")),
        metrics: declared_names(&read("BENCHMARK.json")),
        root: PathBuf::from(env!("CARGO_MANIFEST_DIR")),
    }
}

#[test]
fn every_documented_reference_resolves() {
    let known = repository();
    assert!(known.variants.contains("Corrupt"), "{:?}", known.variants);
    assert!(known.metrics.contains("serve.pin_ns"));
    let bad: Vec<String> = DOCS
        .iter()
        .flat_map(|doc| dangling(doc, &read(doc), &known))
        .collect();
    assert!(bad.is_empty(), "dangling references:\n{}", bad.join("\n"));
}

#[test]
fn the_checker_catches_each_kind_of_dangling_reference() {
    let known = repository();
    let doc = "\
fine: `crates/core/src/error.rs:6`, `ErError::Model`, `serve.pin_ns`,
`core.scan_ns_per_row.{reference,lanes}` and `core.scan_ns_per_row.*`.
```text
`crates/in/a/fence.rs` is code, not a reference
```
bad: `tests/no_such_suite.rs`, ErError::Missing,
`serve.no_such_metric` and a span broken `over
index.lines_us` two lines.
";
    let bad = dangling("DOC.md", doc, &known);
    assert_eq!(
        bad,
        [
            "DOC.md:6: `ErError::Missing` is no variant",
            "DOC.md:6: path `tests/no_such_suite.rs` does not exist",
            "DOC.md:7: metric `serve.no_such_metric` is not in BENCHMARK.json",
        ],
        "{bad:#?}"
    );
}
