//! The JSON parser on the inputs the workspace reads back: every committed
//! experiment artifact, corpus fixture and golden trace parses, every
//! artifact is schema 2 (the only one `rmt-bench compare` reads), and
//! nesting bombs far deeper than any of them are a parse error rather than
//! a stack overflow (which would abort the process past `catch_unwind`).
//!
//! The decoders on top of it, and the text instance format, reject node
//! ids from `rmt::sets::MAX_NODE_ID` (2^16) up and name the offending field
//! or line: graphs and node sets allocate by id, so an unbounded id would
//! let a few bytes of input claim gigabytes. CI runs this file under a
//! 2 GiB address-space cap.

use std::path::{Path, PathBuf};

use rmt::core::textio::parse_instance;
use rmt::net::codec::nodeset_from_json;
use rmt::net::{FaultPlan, MessageAdversary, Partition};
use rmt::netd::ChaosPlan;
use rmt::obs::json::MAX_DEPTH;
use rmt::obs::{parse_jsonl, Json};
use rmt::sets::NodeId;

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

#[test]
fn committed_artifacts_are_schema_2() {
    let artifacts = files(root(), "BENCH_E", ".json");
    assert!(artifacts.len() >= 17, "{artifacts:?}");
    for path in &artifacts {
        let artifact = Json::parse(&read(path)).expect("artifact parses");
        assert_eq!(
            artifact.get("schema").and_then(Json::as_i64),
            Some(2),
            "{}",
            path.display()
        );
    }
}

/// The largest node id every decoder accepts, and the smallest it rejects.
const LAST: u32 = 65_535;
const PAST: u32 = 65_536;

fn json(text: &str) -> Json {
    Json::parse(text).expect("test input parses")
}

#[test]
fn instance_files_bound_node_ids_and_name_the_line() {
    // Node `LAST` exists in every file, so a corruption set naming it lies
    // inside the graph; the later `dealer`/`receiver` lines override line 2.
    for directive in ["node", "edge 0", "corrupt", "dealer", "receiver"] {
        for (id, ok) in [(LAST, true), (PAST, false)] {
            let text = format!("edge 0 1\n{directive} {id}\nnode {LAST}\ndealer 0\nreceiver 1\n");
            match parse_instance(&text) {
                Ok(_) => assert!(ok, "{text}"),
                Err(e) => {
                    assert!(!ok, "{text}: {e}");
                    assert_eq!(e.line, 2, "{e}");
                    assert!(e.message.contains(&id.to_string()), "{e}");
                }
            }
        }
    }
}

#[test]
fn node_sets_bound_node_ids_and_name_the_element() {
    let set = nodeset_from_json(&json(&format!("[0, {LAST}]")), "side").expect("in range");
    assert!(set.contains(NodeId::new(LAST)));
    let e = nodeset_from_json(&json(&format!("[0, {PAST}]")), "side")
        .expect_err("an id past the bound must not decode");
    assert_eq!(e.field, "side[1]");

    // The two decoders that read node sets: a partition's side and a
    // message adversary's focus.
    let partition = |id: u32| {
        json(&format!(
            r#"{{"from_round": 0, "to_round": 1, "side": [{id}]}}"#
        ))
    };
    assert!(Partition::from_json(&partition(LAST), "p.").is_ok());
    let e = Partition::from_json(&partition(PAST), "p.").expect_err("past the bound");
    assert_eq!(e.field, "p.side[0]");
    let adversary = |id: u32| json(&format!(r#"{{"budget": 1, "focus": [{id}]}}"#));
    assert!(MessageAdversary::from_json(&adversary(LAST), "s.").is_ok());
    let e = MessageAdversary::from_json(&adversary(PAST), "s.").expect_err("past the bound");
    assert_eq!(e.field, "s.focus[0]");
}

#[test]
fn fault_plans_bound_link_and_crash_node_ids() {
    let cases = [
        (
            r#"{"seed": 1, "links": [{"from": {id}, "to": 0, "policy": {}}]}"#,
            "links[0].from",
        ),
        (
            r#"{"seed": 1, "links": [{"from": 0, "to": {id}, "policy": {}}]}"#,
            "links[0].to",
        ),
        (
            r#"{"seed": 1, "crashes": [{"node": {id}, "round": 2}]}"#,
            "crashes[0].node",
        ),
    ];
    for (template, field) in cases {
        let plan = |id: u32| json(&template.replace("{id}", &id.to_string()));
        assert!(FaultPlan::from_json(&plan(LAST)).is_ok(), "{template}");
        let e = FaultPlan::from_json(&plan(PAST)).expect_err("past the bound");
        assert_eq!(e.field, field);
    }
}

#[test]
fn chaos_plans_bound_node_ids_instead_of_truncating_them() {
    let cases = [
        (
            r#"{"kills": [{"node": {id}, "round": 1}], "restarts": [], "severs": []}"#,
            "chaos.kills[0].node",
        ),
        (
            r#"{"kills": [], "restarts": [{"node": {id}, "round": 1}], "severs": []}"#,
            "chaos.restarts[0].node",
        ),
        (
            r#"{"kills": [], "restarts": [],
                "severs": [{"a": {id}, "b": 0, "from_round": 1, "to_round": 2}]}"#,
            "chaos.severs[0].a",
        ),
        (
            r#"{"kills": [], "restarts": [],
                "severs": [{"a": 0, "b": {id}, "from_round": 1, "to_round": 2}]}"#,
            "chaos.severs[0].b",
        ),
    ];
    for (template, field) in cases {
        let plan = |id: u64| json(&template.replace("{id}", &id.to_string()));
        let back = ChaosPlan::from_json(&plan(u64::from(LAST)), "chaos").expect("in range");
        assert_eq!(back.to_json(), plan(u64::from(LAST)), "{template}");
        // 2^32 + 1 and 2^32 + 2 once decoded as nodes 1 and 2.
        for id in [u64::from(PAST), (1 << 32) + 1, (1 << 32) + 2] {
            let e = ChaosPlan::from_json(&plan(id), "chaos").expect_err("past the bound");
            assert_eq!(e.field, field, "{id}");
        }
    }
}
