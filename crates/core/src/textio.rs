//! A plain-text instance format and parser, for the `rmt-cli` inspector and
//! for keeping regression instances in files.
//!
//! Line-oriented; `#` starts a comment; directives:
//!
//! ```text
//! # the tolerant diamond
//! edge 0 1
//! edge 0 2
//! edge 1 3
//! edge 2 3
//! corrupt 1          # one admissible corruption set per line
//! dealer 0
//! receiver 3
//! views adhoc        # adhoc | full | radius K   (default: adhoc)
//! ```
//!
//! Nodes are implicit from edges; `node K` adds an isolated node. Node ids
//! are below [`MAX_NODE_ID`].

use std::fmt;
use std::str::FromStr;

use rmt_adversary::AdversaryStructure;
use rmt_graph::{Graph, ViewKind};
use rmt_sets::{NodeId, NodeSet, MAX_NODE_ID};

use crate::instance::{Instance, InstanceError};

/// A parse failure, with the 1-based line number.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct ParseInstanceError {
    /// 1-based line of the offending directive (0 for file-level errors).
    pub line: usize,
    /// What went wrong.
    pub message: String,
}

impl fmt::Display for ParseInstanceError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "line {}: {}", self.line, self.message)
    }
}

impl std::error::Error for ParseInstanceError {}

impl From<InstanceError> for ParseInstanceError {
    fn from(e: InstanceError) -> Self {
        ParseInstanceError {
            line: 0,
            message: e.to_string(),
        }
    }
}

/// Parses the text format into an [`Instance`].
///
/// # Errors
///
/// Returns a [`ParseInstanceError`] naming the offending line for syntax
/// problems, or wrapping the [`InstanceError`] for semantic ones (missing
/// endpoints, escaping structure, …).
pub fn parse_instance(text: &str) -> Result<Instance, ParseInstanceError> {
    let mut graph = Graph::new();
    let mut sets: Vec<NodeSet> = Vec::new();
    let mut dealer: Option<NodeId> = None;
    let mut receiver: Option<NodeId> = None;
    let mut views = ViewKind::AdHoc;

    let err = |line: usize, message: &str| ParseInstanceError {
        line,
        message: message.to_string(),
    };
    let parse_id = |line: usize, tok: &str| -> Result<NodeId, ParseInstanceError> {
        let id = u32::from_str(tok)
            .map_err(|_| err(line, &format!("expected a node id, got `{tok}`")))?;
        if id >= MAX_NODE_ID {
            return Err(err(
                line,
                &format!("node id {id} is not below {MAX_NODE_ID}"),
            ));
        }
        Ok(NodeId::new(id))
    };

    for (idx, raw) in text.lines().enumerate() {
        let line = idx + 1;
        let content = raw.split('#').next().unwrap_or("").trim();
        if content.is_empty() {
            continue;
        }
        let mut tokens = content.split_whitespace();
        let directive = tokens.next().expect("non-empty line has a token");
        let rest: Vec<&str> = tokens.collect();
        match directive {
            "edge" => {
                let [u, v] = rest.as_slice() else {
                    return Err(err(line, "edge takes exactly two node ids"));
                };
                graph.add_edge(parse_id(line, u)?, parse_id(line, v)?);
            }
            "node" => {
                let [v] = rest.as_slice() else {
                    return Err(err(line, "node takes exactly one node id"));
                };
                graph.add_node(parse_id(line, v)?);
            }
            "corrupt" => {
                if rest.is_empty() {
                    return Err(err(line, "corrupt needs at least one node id"));
                }
                let set: NodeSet = rest
                    .iter()
                    .map(|t| parse_id(line, t))
                    .collect::<Result<_, _>>()?;
                sets.push(set);
            }
            "dealer" => {
                let [v] = rest.as_slice() else {
                    return Err(err(line, "dealer takes exactly one node id"));
                };
                dealer = Some(parse_id(line, v)?);
            }
            "receiver" => {
                let [v] = rest.as_slice() else {
                    return Err(err(line, "receiver takes exactly one node id"));
                };
                receiver = Some(parse_id(line, v)?);
            }
            "views" => {
                views = match rest.as_slice() {
                    ["adhoc"] => ViewKind::AdHoc,
                    ["full"] => ViewKind::Full,
                    ["radius", k] => ViewKind::Radius(
                        usize::from_str(k).map_err(|_| err(line, "radius takes an integer"))?,
                    ),
                    _ => return Err(err(line, "views is `adhoc`, `full` or `radius K`")),
                };
            }
            other => return Err(err(line, &format!("unknown directive `{other}`"))),
        }
    }

    let dealer = dealer.ok_or_else(|| err(0, "missing `dealer` directive"))?;
    let receiver = receiver.ok_or_else(|| err(0, "missing `receiver` directive"))?;
    let z = AdversaryStructure::from_sets(sets);
    Ok(Instance::new(graph, z, views, dealer, receiver)?)
}

/// Serializes an instance back into the text format (round-trip friendly).
pub fn format_instance(inst: &Instance, views_label: &str) -> String {
    use std::fmt::Write as _;
    let mut out = String::new();
    for v in inst.graph().nodes() {
        if inst.graph().degree(v) == 0 {
            let _ = writeln!(out, "node {}", v.raw());
        }
    }
    for (u, v) in inst.graph().edges() {
        let _ = writeln!(out, "edge {} {}", u.raw(), v.raw());
    }
    for m in inst.adversary().maximal_sets() {
        let ids: Vec<String> = m.iter().map(|v| v.raw().to_string()).collect();
        let _ = writeln!(out, "corrupt {}", ids.join(" "));
    }
    let _ = writeln!(out, "dealer {}", inst.dealer().raw());
    let _ = writeln!(out, "receiver {}", inst.receiver().raw());
    let _ = writeln!(out, "views {views_label}");
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    const DIAMOND: &str = "\
# tolerant diamond
edge 0 1
edge 0 2
edge 1 3
edge 2 3
corrupt 1
dealer 0
receiver 3
views adhoc
";

    #[test]
    fn parses_the_diamond() {
        let inst = parse_instance(DIAMOND).unwrap();
        assert_eq!(inst.graph().node_count(), 4);
        assert_eq!(inst.graph().edge_count(), 4);
        assert_eq!(inst.dealer(), 0.into());
        assert_eq!(inst.receiver(), 3.into());
        assert!(inst.adversary().contains(&NodeSet::singleton(1.into())));
        assert!(crate::cuts::find_rmt_cut(&inst, None).is_none());
    }

    #[test]
    fn round_trips_through_format() {
        let inst = parse_instance(DIAMOND).unwrap();
        let text = format_instance(&inst, "adhoc");
        let again = parse_instance(&text).unwrap();
        assert_eq!(again.graph(), inst.graph());
        assert_eq!(again.adversary(), inst.adversary());
        assert_eq!(again.dealer(), inst.dealer());
    }

    #[test]
    fn views_variants_parse() {
        for (label, expect_nodes) in [("full", 4), ("radius 0", 1)] {
            let text = DIAMOND.replace("views adhoc", &format!("views {label}"));
            let inst = parse_instance(&text).unwrap();
            assert_eq!(inst.view(3.into()).node_count(), expect_nodes, "{label}");
        }
    }

    #[test]
    fn errors_carry_line_numbers() {
        let bad = "edge 0 1\nedge nonsense\n";
        let e = parse_instance(bad).unwrap_err();
        assert_eq!(e.line, 2);
        assert!(e.to_string().contains("line 2"));

        let e = parse_instance("edge 0 1 2\n").unwrap_err();
        assert!(e.message.contains("exactly two"));

        let e = parse_instance("teleport 0\n").unwrap_err();
        assert!(e.message.contains("unknown directive"));

        let e = parse_instance("edge 0 1\ndealer 0\n").unwrap_err();
        assert!(e.message.contains("receiver"));
    }

    #[test]
    fn semantic_errors_surface_from_instance_validation() {
        let e = parse_instance("edge 0 1\ncorrupt 9\ndealer 0\nreceiver 1\n").unwrap_err();
        assert!(e.message.contains("outside the graph"));
    }

    #[test]
    fn comments_and_isolated_nodes() {
        let text = "node 5 # lonely\nedge 0 1\ndealer 0\nreceiver 1\n";
        let inst = parse_instance(text).unwrap();
        assert!(inst.graph().contains_node(5.into()));
        assert_eq!(inst.graph().degree(5.into()), 0);
    }
}
