//! The JSON parser on the inputs the workspace reads back: every committed
//! experiment artifact, corpus fixture and golden trace parses, and
//! nesting bombs far deeper than any of them are a parse error rather than
//! a stack overflow (which would abort the process past `catch_unwind`).

use std::path::{Path, PathBuf};

use rmt::obs::json::MAX_DEPTH;
use rmt::obs::{parse_jsonl, Json};

fn root() -> &'static Path {
    Path::new(env!("CARGO_MANIFEST_DIR"))
}

/// The files in `dir` whose names start with `prefix` and end with `suffix`.
fn files(dir: &Path, prefix: &str, suffix: &str) -> Vec<PathBuf> {
    let mut out: Vec<PathBuf> = std::fs::read_dir(dir)
        .unwrap_or_else(|e| panic!("{}: {e}", dir.display()))
        .map(|entry| entry.expect("directory entry").path())
        .filter(|p| {
            p.file_name()
                .and_then(|n| n.to_str())
                .is_some_and(|n| n.starts_with(prefix) && n.ends_with(suffix))
        })
        .collect();
    out.sort();
    out
}

fn read(path: &Path) -> String {
    std::fs::read_to_string(path).unwrap_or_else(|e| panic!("{}: {e}", path.display()))
}

#[test]
fn committed_artifacts_fixtures_and_traces_parse() {
    let documents: Vec<PathBuf> = files(root(), "BENCH_E", ".json")
        .into_iter()
        .chain(files(&root().join("tests/corpus"), "", ".json"))
        .collect();
    assert!(documents.len() >= 17 + 49, "{} documents", documents.len());
    for path in &documents {
        if let Err(e) = Json::parse(&read(path)) {
            panic!("{}: {e}", path.display());
        }
    }
    let traces = files(&root().join("tests/fixtures/figure2"), "", ".jsonl");
    assert!(!traces.is_empty(), "no golden traces");
    for path in &traces {
        if let Err(e) = parse_jsonl(&read(path)) {
            panic!("{}: {e}", path.display());
        }
    }
}

#[test]
fn nesting_bombs_return_errors() {
    for bomb in ["[".repeat(10_000), "{\"a\":".repeat(10_000)] {
        let e = Json::parse(&bomb).expect_err("a nesting bomb must not parse");
        assert_eq!(e.message, format!("nesting deeper than {MAX_DEPTH}"));
        let e = parse_jsonl(&format!("{{\"type\":\"run_start\"}}\n{bomb}\n"))
            .expect_err("a nesting bomb on a JSONL line must not parse");
        assert_eq!(e.message, format!("nesting deeper than {MAX_DEPTH}"));
    }
}
