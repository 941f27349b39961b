//! Observability for the `rmt` workspace.
//!
//! `rmt-obs` is dependency-free (std only) and provides three layers:
//!
//! - [`event`] — a structured [`RunEvent`] model for protocol executions and
//!   the [`RunObserver`] trait the simulator streams events through. The
//!   default [`NoopObserver`] has `ACTIVE = false`, so instrumented code
//!   monomorphizes to the uninstrumented hot path.
//! - [`registry`] — a global-free metrics [`Registry`]: atomic counters
//!   and power-of-two histograms with [`ScopedTimer`] for durations,
//!   stamped by a pluggable [`Clock`] (wall or deterministic virtual).
//! - [`profile`] — phase profiling: a [`Profiler`] hands out RAII [`Span`]
//!   guards whose open/close events ride the [`RunEvent`] stream;
//!   [`span_tree`] parses a recording back into a forest and
//!   [`render_span_tree`] draws it as a text flamegraph.
//! - [`wire`] — [`WireStats`] folds a recorded stream into a per-link
//!   ledger of messages, bits and drops.
//! - [`json`] — a hand-rolled [`Json`] value with an encoder/parser whose
//!   `encode ∘ parse ∘ encode` composition is a textual fixpoint, plus JSONL
//!   helpers for trace files and `BENCH_E<k>.json` artifacts.
//! - [`trace`] — node-view extraction and trace diffing over recorded event
//!   streams, the machinery behind the `rmt-trace` tool's Figure 2
//!   indistinguishability check.

pub mod clock;
pub mod event;
pub mod json;
pub mod profile;
pub mod registry;
pub mod trace;
pub mod wire;

pub use clock::Clock;
pub use event::{
    DropReason, JsonlObserver, NoopObserver, RejectReason, RunEvent, RunObserver, VecObserver,
};
pub use json::{parse_jsonl, to_jsonl, Json, ParseError};
pub use profile::{
    fmt_ns, render_round_profile, render_span_tree, span_tree, Profiler, Span, SpanNode,
};
pub use registry::{intern, Counter, Histogram, Registry, ScopedTimer};
pub use trace::{
    diff_node_views, diff_traces, node_view, render_node_view, render_trace, TraceDiff, ViewLine,
};
pub use wire::{LinkStats, WireStats};
