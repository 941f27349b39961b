//! Experiment harness for the `rmt` reproduction: table formatting,
//! statistics and timing helpers shared by the E1–E8 experiment binaries and
//! the Criterion benches.
//!
//! Every binary in `src/bin/` regenerates one experiment of
//! `EXPERIMENTS.md`; run them with `cargo run -p rmt-bench --release --bin
//! e<k>_…`.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod compare;

use std::fmt::Display;
use std::time::{Duration, Instant};

use rmt_obs::{Json, Registry};

/// A plain-text table with aligned columns, printed by the experiment
/// binaries.
#[derive(Clone, Debug, Default)]
pub struct Table {
    title: String,
    headers: Vec<String>,
    rows: Vec<Vec<String>>,
}

impl Table {
    /// Creates a table with a title and column headers.
    pub fn new(title: impl Into<String>, headers: &[&str]) -> Self {
        Table {
            title: title.into(),
            headers: headers.iter().map(|s| s.to_string()).collect(),
            rows: Vec::new(),
        }
    }

    /// Appends one row (stringifying each cell).
    pub fn row<D: Display>(&mut self, cells: &[D]) {
        assert_eq!(cells.len(), self.headers.len(), "row arity mismatch");
        self.rows
            .push(cells.iter().map(|c| c.to_string()).collect());
    }

    /// Renders the table.
    pub fn render(&self) -> String {
        let mut widths: Vec<usize> = self.headers.iter().map(String::len).collect();
        for row in &self.rows {
            for (w, cell) in widths.iter_mut().zip(row) {
                *w = (*w).max(cell.len());
            }
        }
        let mut out = String::new();
        out.push_str(&format!("## {}\n", self.title));
        let fmt_row = |cells: &[String]| -> String {
            cells
                .iter()
                .zip(&widths)
                .map(|(c, w)| format!("{c:>w$}"))
                .collect::<Vec<_>>()
                .join("  ")
        };
        out.push_str(&fmt_row(&self.headers));
        out.push('\n');
        out.push_str(
            &"-".repeat(widths.iter().sum::<usize>() + 2 * widths.len().saturating_sub(1)),
        );
        out.push('\n');
        for row in &self.rows {
            out.push_str(&fmt_row(row));
            out.push('\n');
        }
        out
    }

    /// Prints the table to stdout.
    pub fn print(&self) {
        println!("{}", self.render());
    }
}

/// One experiment run with an optional machine-readable artifact.
///
/// Every `e*` binary drives its run through an `Experiment`: tables print as
/// before, and when the binary is invoked with `--json` the run additionally
/// writes `BENCH_E<k>.json` — a single schema-v2 object
///
/// ```json
/// {"schema": 2, "experiment": ..., "params": {...}, "measurements": [...],
///  "wall": {"ns": ..., "human": "..."}, "counters": {...},
///  "build": {"version": ..., "profile": ..., "os": ..., "arch": ...}}
/// ```
///
/// where `measurements` holds one object per recorded table row (numeric
/// cells coerced to numbers, duration cells like `"316µs"` to
/// `{"ns": 316000, "human": "316µs"}`, ratio cells like `"4.3×"` to
/// `{"ratio": 4.3, "human": "4.3×"}`) and `counters` is the snapshot of
/// [`Experiment::registry`] — populated by the instrumented deciders
/// (`find_rmt_cut` and `zpp_cut_by_fixpoint` given `Some(registry)`,
/// `materialize_bounded_observed`, …), histograms summarized with
/// p50/p90/p99 quantiles. The structured duration/ratio fields are what the
/// [`compare`] gate thresholds on; everything stringly stays a verdict
/// column compared by identity.
pub struct Experiment {
    name: String,
    json: bool,
    params: Vec<(String, Json)>,
    measurements: Vec<Json>,
    registry: Registry,
    start: Instant,
}

impl Experiment {
    /// Creates the experiment named `name` (e.g. `"e3_safety"`), reading
    /// `--json` from the process arguments.
    pub fn new(name: &str) -> Self {
        let json = std::env::args().skip(1).any(|a| a == "--json");
        Experiment {
            name: name.to_string(),
            json,
            params: Vec::new(),
            measurements: Vec::new(),
            registry: Registry::new(),
            start: Instant::now(),
        }
    }

    /// The metrics registry to hand to instrumented deciders; its snapshot
    /// becomes the artifact's `counters` field.
    pub fn registry(&self) -> &Registry {
        &self.registry
    }

    /// Records one experiment parameter.
    pub fn param(&mut self, key: &str, value: impl Into<Json>) {
        self.params.push((key.to_string(), value.into()));
    }

    /// Resolves the worker-thread count for this run (`--threads N` /
    /// `RMT_THREADS` / available parallelism — see
    /// [`rmt_par::configured_threads`]) and records it as the `threads`
    /// parameter of the artifact.
    pub fn threads(&mut self) -> usize {
        let threads = configured_threads();
        self.param("threads", i64::try_from(threads).unwrap_or(i64::MAX));
        threads
    }

    /// Records one measurement object.
    pub fn record(&mut self, measurement: Json) {
        self.measurements.push(measurement);
    }

    /// Records every row of `table` as a measurement object keyed by the
    /// table's headers, coercing numeric-looking cells to numbers.
    pub fn record_table(&mut self, table: &Table) {
        for row in &table.rows {
            let fields = table
                .headers
                .iter()
                .zip(row)
                .map(|(h, cell)| (h.clone(), coerce_cell(cell)))
                .collect();
            self.measurements.push(Json::Obj(fields));
        }
    }

    /// The artifact path: `BENCH_E<k>.json`, with `E<k>` derived from the
    /// experiment name's leading segment (`"e10_placement"` → `BENCH_E10.json`).
    pub fn artifact_path(&self) -> std::path::PathBuf {
        let id = self
            .name
            .split('_')
            .next()
            .unwrap_or(&self.name)
            .to_uppercase();
        std::path::PathBuf::from(format!("BENCH_{id}.json"))
    }

    /// Writes the artifact if `--json` was passed. Call last.
    pub fn finish(self) {
        if !self.json {
            return;
        }
        let path = self.artifact_path();
        let wall = self.start.elapsed();
        let wall_ns = i64::try_from(wall.as_nanos()).unwrap_or(i64::MAX);
        let artifact = Json::obj([
            ("schema", Json::Int(2)),
            ("experiment", Json::from(self.name.as_str())),
            ("params", Json::Obj(self.params)),
            ("measurements", Json::Arr(self.measurements)),
            (
                "wall",
                Json::obj([
                    ("ns", Json::Int(wall_ns)),
                    ("human", Json::from(fmt_duration(wall).as_str())),
                ]),
            ),
            ("counters", self.registry.to_json()),
            (
                "build",
                Json::obj([
                    ("version", Json::from(env!("CARGO_PKG_VERSION"))),
                    (
                        "profile",
                        Json::from(if cfg!(debug_assertions) {
                            "debug"
                        } else {
                            "release"
                        }),
                    ),
                    ("os", Json::from(std::env::consts::OS)),
                    ("arch", Json::from(std::env::consts::ARCH)),
                ]),
            ),
        ]);
        let mut text = artifact.encode();
        text.push('\n');
        match std::fs::write(&path, text) {
            Ok(()) => println!("wrote {}", path.display()),
            Err(e) => eprintln!("failed to write {}: {e}", path.display()),
        }
    }
}

fn coerce_cell(cell: &str) -> Json {
    if let Ok(n) = cell.parse::<i64>() {
        return Json::Int(n);
    }
    if let Ok(x) = cell.parse::<f64>() {
        if x.is_finite() {
            return Json::Num(x);
        }
    }
    if let Some(ns) = parse_duration_ns(cell) {
        return Json::obj([("ns", Json::Int(ns)), ("human", Json::from(cell))]);
    }
    if let Some(ratio) = cell.strip_suffix('×').and_then(|r| r.parse::<f64>().ok()) {
        if ratio.is_finite() {
            return Json::obj([("ratio", Json::Num(ratio)), ("human", Json::from(cell))]);
        }
    }
    Json::from(cell)
}

/// Parses the compact duration renderings of [`fmt_duration`] and
/// [`rmt_obs::fmt_ns`] (`"316µs"`, `"1.3ms"`, `"2.00s"`, `"12ns"`) back to
/// nanoseconds; `None` for anything else.
pub(crate) fn parse_duration_ns(cell: &str) -> Option<i64> {
    let (digits, scale) = if let Some(p) = cell.strip_suffix("ns") {
        (p, 1.0)
    } else if let Some(p) = cell.strip_suffix("µs") {
        (p, 1e3)
    } else if let Some(p) = cell.strip_suffix("ms") {
        (p, 1e6)
    } else if let Some(p) = cell.strip_suffix('s') {
        (p, 1e9)
    } else {
        return None;
    };
    let x: f64 = digits.parse().ok()?;
    (x.is_finite() && x >= 0.0).then(|| (x * scale).round() as i64)
}

/// Mean of a sample.
pub fn mean(xs: &[f64]) -> f64 {
    if xs.is_empty() {
        return 0.0;
    }
    xs.iter().sum::<f64>() / xs.len() as f64
}

/// Median of a sample (the upper one for an even count); sorts `xs`.
///
/// # Panics
///
/// Panics if `xs` is empty or holds incomparable values (NaN).
pub fn median<T: PartialOrd + Copy>(xs: &mut [T]) -> T {
    xs.sort_unstable_by(|a, b| a.partial_cmp(b).expect("comparable samples"));
    xs[xs.len() / 2]
}

// The experiments are embarrassingly parallel over instances; the executor
// lives in `rmt-par` (shared with the `rmt-net` differential) and is
// re-exported here so the `e*` binaries keep their historical import path.
pub use rmt_par::{configured_threads, parallel_map, threads_from};

/// Runs `f`, returning its result and wall-clock duration.
pub fn timed<T>(f: impl FnOnce() -> T) -> (T, Duration) {
    let start = Instant::now();
    let out = f();
    (out, start.elapsed())
}

/// Formats a duration compactly (µs/ms/s).
pub fn fmt_duration(d: Duration) -> String {
    let us = d.as_micros();
    if us < 1_000 {
        format!("{us}µs")
    } else if us < 1_000_000 {
        format!("{:.1}ms", us as f64 / 1_000.0)
    } else {
        format!("{:.2}s", d.as_secs_f64())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn table_renders_aligned_rows() {
        let mut t = Table::new("demo", &["n", "value"]);
        t.row(&[1, 100]);
        t.row(&[22, 3]);
        let s = t.render();
        assert!(s.contains("## demo"));
        assert!(s.contains(" n  value"));
        assert!(s.lines().count() >= 4);
    }

    #[test]
    fn zero_column_table_renders_without_panicking() {
        // Regression: the rule width computed `2 * (widths.len() - 1)`,
        // which underflowed for a table with no columns.
        let t = Table::new("empty", &[]);
        let s = t.render();
        assert!(s.contains("## empty"));
        let mut one = Table::new("one", &["only"]);
        one.row(&["x"]);
        assert!(one.render().contains("only"));
    }

    #[test]
    #[should_panic(expected = "arity")]
    fn table_rejects_wrong_arity() {
        let mut t = Table::new("demo", &["a", "b"]);
        t.row(&[1]);
    }

    #[test]
    fn statistics_are_sane() {
        assert_eq!(mean(&[1.0, 2.0, 3.0]), 2.0);
        assert_eq!(mean(&[]), 0.0);
    }

    #[test]
    fn parallel_map_preserves_order() {
        let out = parallel_map((0..100).collect(), 4, |x: i32| x * x);
        assert_eq!(out, (0..100).map(|x| x * x).collect::<Vec<_>>());
        let single = parallel_map(vec![1, 2, 3], 1, |x: i32| x + 1);
        assert_eq!(single, vec![2, 3, 4]);
    }

    #[test]
    fn experiment_artifact_naming_and_row_coercion() {
        let mut exp = Experiment::new("e10_placement");
        assert_eq!(exp.artifact_path().to_str(), Some("BENCH_E10.json"));
        assert_eq!(
            Experiment::new("e3_safety").artifact_path().to_str(),
            Some("BENCH_E3.json")
        );
        let mut t = Table::new("demo", &["attack", "runs", "rate"]);
        t.row(&["silent".to_string(), "50".to_string(), "0.5".to_string()]);
        exp.record_table(&t);
        let m = &exp.measurements[0];
        assert_eq!(m.get("attack").and_then(Json::as_str), Some("silent"));
        assert_eq!(m.get("runs").and_then(Json::as_i64), Some(50));
        assert_eq!(m.get("rate").and_then(Json::as_f64), Some(0.5));
    }

    #[test]
    fn duration_and_ratio_cells_coerce_to_structured_fields() {
        let mut t = Table::new("demo", &["time", "speedup", "note", "frac"]);
        t.row(&["316µs", "4.3×", "—", "96/96"]);
        t.row(&["1.3ms", "0.9×", "msgs", "2.00s"]);
        let mut exp = Experiment::new("e6_scaling");
        exp.record_table(&t);
        let m = &exp.measurements[0];
        let time = m.get("time").unwrap();
        assert_eq!(time.get("ns").and_then(Json::as_i64), Some(316_000));
        assert_eq!(time.get("human").and_then(Json::as_str), Some("316µs"));
        let speedup = m.get("speedup").unwrap();
        assert_eq!(speedup.get("ratio").and_then(Json::as_f64), Some(4.3));
        // Non-durations stay verdict strings.
        assert_eq!(m.get("note").and_then(Json::as_str), Some("—"));
        assert_eq!(m.get("frac").and_then(Json::as_str), Some("96/96"));
        let m2 = &exp.measurements[1];
        assert_eq!(
            m2.get("time").unwrap().get("ns").and_then(Json::as_i64),
            Some(1_300_000)
        );
        assert_eq!(
            m2.get("frac").unwrap().get("ns").and_then(Json::as_i64),
            Some(2_000_000_000)
        );
        // "msgs" ends in 's' but is not a duration.
        assert_eq!(m2.get("note").and_then(Json::as_str), Some("msgs"));
    }

    #[test]
    fn duration_formatting() {
        assert_eq!(fmt_duration(Duration::from_micros(12)), "12µs");
        assert_eq!(fmt_duration(Duration::from_micros(2_500)), "2.5ms");
        assert_eq!(fmt_duration(Duration::from_secs(3)), "3.00s");
    }
}
