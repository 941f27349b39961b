//! In-memory span recording for traced runs, plus the pass-through
//! adversary that timestamps round boundaries and captures delivered frames.
//!
//! Spans are recorded from the benchmark's side of each layer call; nothing
//! inside the measured crates is instrumented. A span has a name, start and
//! end (ns since the recorder was created), an optional parent and the id of
//! the operation it belongs to. Spans re-timed after an operation on data the
//! operation produced are flagged `replay`.

use std::cell::RefCell;
use std::collections::BTreeMap;
use std::rc::Rc;
use std::time::Instant;

use rmt_graph::Graph;
use rmt_sets::{NodeId, NodeSet};
use rmt_sim::{Adversary, Envelope, Payload, RoundInboxes};

/// One recorded span.
#[derive(Clone, Debug)]
pub struct Span {
    pub name: &'static str,
    pub op: u64,
    pub parent: Option<usize>,
    pub start_ns: u64,
    pub end_ns: u64,
    pub replay: bool,
}

impl Span {
    pub fn dur_ns(&self) -> u64 {
        self.end_ns.saturating_sub(self.start_ns)
    }
}

/// Spans of one run, kept in memory until [`Recorder::write_jsonl`].
pub struct Recorder {
    t0: Instant,
    pub spans: Vec<Span>,
}

impl Recorder {
    pub fn new() -> Self {
        Recorder {
            t0: Instant::now(),
            spans: Vec::new(),
        }
    }

    fn ns(&self, t: Instant) -> u64 {
        t.saturating_duration_since(self.t0).as_nanos() as u64
    }

    /// Records a finished span and returns its index.
    pub fn record(
        &mut self,
        name: &'static str,
        op: u64,
        parent: Option<usize>,
        start: Instant,
        end: Instant,
        replay: bool,
    ) -> usize {
        self.spans.push(Span {
            name,
            op,
            parent,
            start_ns: self.ns(start),
            end_ns: self.ns(end),
            replay,
        });
        self.spans.len() - 1
    }

    /// Self time per span name over the spans with index `>= from`: each
    /// span's duration minus the time its children cover.
    pub fn self_times(&self, from: usize) -> BTreeMap<&'static str, u64> {
        let mut child_ns = vec![0u64; self.spans.len()];
        for s in &self.spans[from..] {
            if let Some(p) = s.parent {
                child_ns[p] += s.dur_ns();
            }
        }
        let mut out = BTreeMap::new();
        for (i, s) in self.spans.iter().enumerate().skip(from) {
            *out.entry(s.name).or_insert(0) += s.dur_ns().saturating_sub(child_ns[i]);
        }
        out
    }

    /// Total duration of the direct children of span `parent`.
    pub fn children_ns(&self, parent: usize) -> u64 {
        self.spans[parent + 1..]
            .iter()
            .filter(|s| s.parent == Some(parent))
            .map(Span::dur_ns)
            .sum()
    }

    /// Writes every span as one JSON object per line.
    pub fn write_jsonl(&self, path: &std::path::Path) -> std::io::Result<()> {
        use std::io::Write;
        let mut out = std::io::BufWriter::new(std::fs::File::create(path)?);
        for (i, s) in self.spans.iter().enumerate() {
            let parent = s.parent.map_or("null".to_string(), |p| p.to_string());
            writeln!(
                out,
                "{{\"id\":{i},\"name\":\"{}\",\"op\":{},\"parent\":{parent},\"start_ns\":{},\"end_ns\":{},\"replay\":{}}}",
                s.name, s.op, s.start_ns, s.end_ns, s.replay
            )?;
        }
        out.flush()
    }
}

/// What a [`Tap`] saw during one run.
#[derive(Default)]
pub struct TapLog<P> {
    /// Timestamp of `start` followed by one per `on_round`.
    pub marks: Vec<Instant>,
    /// Every frame delivered anywhere, in delivery order.
    pub frames: Vec<P>,
    /// Per round, the envelopes delivered to the watched node.
    pub watched: Vec<Vec<Envelope<P>>>,
}

/// A pass-through [`Adversary`]: forwards every call to `inner` unchanged and
/// records round boundaries and the delivered traffic.
pub struct Tap<A, P> {
    pub inner: A,
    pub log: Rc<RefCell<TapLog<P>>>,
    pub watch: NodeId,
}

impl<P: Payload, A: Adversary<P>> Adversary<P> for Tap<A, P> {
    fn corrupted(&self) -> &NodeSet {
        self.inner.corrupted()
    }

    fn start(&mut self, graph: &Graph) -> Vec<Envelope<P>> {
        self.log.borrow_mut().marks.push(Instant::now());
        self.inner.start(graph)
    }

    fn on_round(
        &mut self,
        round: u32,
        graph: &Graph,
        delivered: &RoundInboxes<P>,
    ) -> Vec<Envelope<P>> {
        {
            let mut log = self.log.borrow_mut();
            log.marks.push(Instant::now());
            for v in graph.nodes() {
                let inbox = delivered.inbox(v);
                log.frames.extend(inbox.iter().map(|e| e.payload.clone()));
            }
            let mine = delivered.inbox(self.watch).to_vec();
            log.watched.push(mine);
        }
        self.inner.on_round(round, graph, delivered)
    }

    fn is_quiescent(&self) -> bool {
        self.inner.is_quiescent()
    }
}
