//! Artifact diffing: the `rmt-bench compare` regression gate.
//!
//! [`compare_artifacts`] diffs a baseline `BENCH_E<k>.json` against a
//! candidate and classifies every divergence:
//!
//! - **Hard** findings fail the gate: a different experiment or parameter,
//!   a measurement row whose verdict columns (strings, counts, rates)
//!   changed, or a timing regression beyond the configured ratio on a
//!   duration large enough to be meaningful.
//! - **Soft** findings are reported but pass by default: counter drift,
//!   ratio-cell drift, timing *improvements*, and thread-count parameter
//!   differences. `--strict` promotes a soft-only report to a failure.
//!
//! Timing cells are the schema-v2 `{"ns": …, "human": "…"}` objects the
//! harness writes (see [`Experiment`](crate::Experiment)); their `human`
//! rendering is ignored by the gate, so re-rendering the same nanoseconds
//! differently can never fail CI. Wall-clock noise is bounded two ways:
//! durations under `min_time_ns` are never regressions, and the whole
//! timing dimension can be switched off (`check_timing = false`) when
//! baseline and candidate come from different machines.

use rmt_obs::Json;

/// Thresholds for [`compare_artifacts`].
#[derive(Clone, Copy, Debug)]
pub struct CompareConfig {
    /// A duration cell regresses (Hard) when
    /// `candidate > baseline * max_time_ratio` — and improves (Soft) when
    /// the baseline exceeds the candidate by the same factor.
    pub max_time_ratio: f64,
    /// Durations where both sides are below this floor are never timing
    /// findings (they are dominated by scheduler noise).
    pub min_time_ns: i64,
    /// Allowed relative drift between counter values before a Soft finding
    /// (`0.0` flags any drift).
    pub counter_tolerance: f64,
    /// `false` skips every duration comparison (cross-machine mode);
    /// verdict and counter checks still run.
    pub check_timing: bool,
}

impl Default for CompareConfig {
    fn default() -> Self {
        CompareConfig {
            max_time_ratio: 2.0,
            min_time_ns: 10_000_000, // 10ms
            counter_tolerance: 0.0,
            check_timing: true,
        }
    }
}

/// How bad one divergence is.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Severity {
    /// Fails the gate.
    Hard,
    /// Reported; fails only under `--strict`.
    Soft,
}

/// One divergence between baseline and candidate.
#[derive(Clone, Debug)]
pub struct Finding {
    /// The gate impact.
    pub severity: Severity,
    /// Where in the artifact (`measurements[3].verdict`, `counters.…`).
    pub path: String,
    /// What diverged, with both values.
    pub message: String,
}

/// The result of one artifact comparison.
#[derive(Clone, Debug, Default)]
pub struct CompareReport {
    /// Every divergence found, in artifact order.
    pub findings: Vec<Finding>,
}

impl CompareReport {
    fn push(&mut self, severity: Severity, path: impl Into<String>, message: impl Into<String>) {
        self.findings.push(Finding {
            severity,
            path: path.into(),
            message: message.into(),
        });
    }

    /// Number of Hard findings.
    pub fn hard_count(&self) -> usize {
        self.findings
            .iter()
            .filter(|f| f.severity == Severity::Hard)
            .count()
    }

    /// Number of Soft findings.
    pub fn soft_count(&self) -> usize {
        self.findings.len() - self.hard_count()
    }

    /// `true` when the gate passes: no Hard findings, and under `strict`
    /// no findings at all.
    pub fn passed(&self, strict: bool) -> bool {
        self.hard_count() == 0 && (!strict || self.findings.is_empty())
    }

    /// Renders the report: one line per finding plus a verdict line.
    pub fn render(&self) -> String {
        let mut out = String::new();
        for f in &self.findings {
            let tag = match f.severity {
                Severity::Hard => "HARD",
                Severity::Soft => "soft",
            };
            out.push_str(&format!("{tag}  {}: {}\n", f.path, f.message));
        }
        out.push_str(&format!(
            "compare: {} hard, {} soft\n",
            self.hard_count(),
            self.soft_count()
        ));
        out
    }
}

/// The `{"ns": …, "human": …}` reading of a schema-v2 duration cell.
fn as_duration_ns(v: &Json) -> Option<i64> {
    // Schema-v1 artifacts carried durations as rendered strings ("316µs"):
    // accept both so old baselines still gate new candidates.
    if let Some(s) = v.as_str() {
        return crate::parse_duration_ns(s);
    }
    v.get("human")?;
    v.get("ns")?.as_i64()
}

/// The `{"ratio": …, "human": …}` reading of a schema-v2 ratio cell (or a
/// schema-v1 `"4.3×"` string).
fn as_ratio(v: &Json) -> Option<f64> {
    if let Some(s) = v.as_str() {
        return s.strip_suffix('×').and_then(|r| r.parse().ok());
    }
    v.get("human")?;
    v.get("ratio")?.as_f64()
}

/// Compact rendering for finding messages.
fn show(v: &Json) -> String {
    if let Some(h) = v.get("human").and_then(Json::as_str) {
        return h.to_string();
    }
    if let Some(s) = v.as_str() {
        return s.to_string();
    }
    v.encode()
}

/// Diffs two parsed artifacts. Findings come out in artifact order:
/// experiment, params, measurements row by row, wall clock, counters.
pub fn compare_artifacts(baseline: &Json, candidate: &Json, cfg: &CompareConfig) -> CompareReport {
    let mut report = CompareReport::default();

    let name = |a: &Json| {
        a.get("experiment")
            .and_then(Json::as_str)
            .map(str::to_owned)
    };
    if name(baseline) != name(candidate) {
        report.push(
            Severity::Hard,
            "experiment",
            format!(
                "baseline is {:?}, candidate is {:?}",
                name(baseline).unwrap_or_default(),
                name(candidate).unwrap_or_default()
            ),
        );
        return report; // nothing below is meaningfully comparable
    }

    compare_objects(
        baseline.get("params"),
        candidate.get("params"),
        "params",
        &mut report,
        cfg,
        &|key| {
            // Thread count is an execution setting, not a result: the
            // sweeps guarantee thread-count-identical verdicts, and a binary
            // without a parallel sweep records none.
            if key == "threads" {
                Severity::Soft
            } else {
                Severity::Hard
            }
        },
    );

    let empty: [Json; 0] = [];
    let rows = |a: &Json| -> Vec<Json> {
        a.get("measurements")
            .and_then(Json::as_arr)
            .unwrap_or(&empty)
            .to_vec()
    };
    let (b_rows, c_rows) = (rows(baseline), rows(candidate));
    if b_rows.len() != c_rows.len() {
        report.push(
            Severity::Hard,
            "measurements",
            format!(
                "{} baseline rows vs {} candidate rows",
                b_rows.len(),
                c_rows.len()
            ),
        );
    } else {
        for (i, (b, c)) in b_rows.iter().zip(&c_rows).enumerate() {
            compare_objects(
                Some(b),
                Some(c),
                &format!("measurements[{i}]"),
                &mut report,
                cfg,
                &|_| Severity::Hard,
            );
        }
    }

    // Wall clock: schema v2 `wall: {ns, human}`, schema v1 `wall_ns`.
    let wall = |a: &Json| -> Option<i64> {
        a.get("wall")
            .and_then(as_duration_ns)
            .or_else(|| a.get("wall_ns").and_then(Json::as_i64))
    };
    if let (Some(b), Some(c)) = (wall(baseline), wall(candidate)) {
        compare_durations(b, c, "wall", &mut report, cfg);
    }

    compare_counters(
        baseline.get("counters"),
        candidate.get("counters"),
        &mut report,
        cfg,
    );
    report
}

/// Union-of-keys walk over two JSON objects; `severity_of(key)` classifies
/// plain-value mismatches and keys present on one side only.
fn compare_objects(
    baseline: Option<&Json>,
    candidate: Option<&Json>,
    path: &str,
    report: &mut CompareReport,
    cfg: &CompareConfig,
    severity_of: &dyn Fn(&str) -> Severity,
) {
    let pairs = |v: Option<&Json>| -> Vec<(String, Json)> {
        match v {
            Some(Json::Obj(pairs)) => pairs.clone(),
            _ => Vec::new(),
        }
    };
    let (b_pairs, c_pairs) = (pairs(baseline), pairs(candidate));
    let lookup = |pairs: &[(String, Json)], key: &str| -> Option<Json> {
        pairs.iter().find(|(k, _)| k == key).map(|(_, v)| v.clone())
    };
    let mut keys: Vec<String> = b_pairs.iter().map(|(k, _)| k.clone()).collect();
    for (k, _) in &c_pairs {
        if !keys.contains(k) {
            keys.push(k.clone());
        }
    }
    for key in keys {
        let here = format!("{path}.{key}");
        match (lookup(&b_pairs, &key), lookup(&c_pairs, &key)) {
            (Some(b), Some(c)) => {
                compare_values(&b, &c, &here, report, cfg, severity_of(&key));
            }
            (Some(_), None) => {
                report.push(severity_of(&key), here, "missing from candidate");
            }
            (None, Some(_)) => {
                report.push(severity_of(&key), here, "missing from baseline");
            }
            (None, None) => {}
        }
    }
}

/// One cell: durations and ratios get threshold semantics, everything else
/// is identity (verdict columns).
fn compare_values(
    b: &Json,
    c: &Json,
    path: &str,
    report: &mut CompareReport,
    cfg: &CompareConfig,
    severity: Severity,
) {
    if let (Some(bns), Some(cns)) = (as_duration_ns(b), as_duration_ns(c)) {
        compare_durations(bns, cns, path, report, cfg);
        return;
    }
    if let (Some(br), Some(cr)) = (as_ratio(b), as_ratio(c)) {
        // Ratio cells are timing quotients (E13/E17 speedup columns): they
        // inherit the duration band and the cross-machine switch — two
        // different machines produce different speedups legitimately.
        if !cfg.check_timing {
            return;
        }
        let (lo, hi) = if br <= cr { (br, cr) } else { (cr, br) };
        if lo > 0.0 && hi / lo > cfg.max_time_ratio {
            report.push(
                Severity::Soft,
                path,
                format!("ratio drifted {br:.2}× → {cr:.2}×"),
            );
        }
        return;
    }
    // Wire-cost fields ("… bits/payload") are codec-determined, not
    // verdict-determined: legitimate codec tuning moves them, so they get a
    // tolerance band (Soft beyond it) instead of identity semantics.
    if path.contains("bits/payload") {
        if let (Some(bv), Some(cv)) = (b.as_f64(), c.as_f64()) {
            let drift = (bv - cv).abs();
            let scale = bv.abs().max(f64::MIN_POSITIVE);
            if drift / scale > 0.25 {
                report.push(
                    Severity::Soft,
                    path,
                    format!("wire cost drifted {bv:.0} → {cv:.0} bits/payload"),
                );
            }
            return;
        }
    }
    if b != c {
        report.push(severity, path, format!("{} → {}", show(b), show(c)));
    }
}

fn compare_durations(
    b_ns: i64,
    c_ns: i64,
    path: &str,
    report: &mut CompareReport,
    cfg: &CompareConfig,
) {
    if !cfg.check_timing {
        return;
    }
    if b_ns.max(c_ns) < cfg.min_time_ns {
        return; // both under the noise floor
    }
    let human = |ns: i64| rmt_obs::fmt_ns(ns.max(0) as u64);
    if c_ns as f64 > b_ns as f64 * cfg.max_time_ratio {
        report.push(
            Severity::Hard,
            path,
            format!(
                "timing regression: {} → {} (> {:.1}×)",
                human(b_ns),
                human(c_ns),
                cfg.max_time_ratio
            ),
        );
    } else if b_ns as f64 > c_ns as f64 * cfg.max_time_ratio {
        report.push(
            Severity::Soft,
            path,
            format!("timing improved: {} → {}", human(b_ns), human(c_ns)),
        );
    }
}

/// Counter snapshots: integer counters drift softly within tolerance;
/// histogram summaries compare structurally — except `*_ns` histograms,
/// where only the sample count is meaningful across runs.
fn compare_counters(
    baseline: Option<&Json>,
    candidate: Option<&Json>,
    report: &mut CompareReport,
    cfg: &CompareConfig,
) {
    let pairs = |v: Option<&Json>| -> Vec<(String, Json)> {
        match v {
            Some(Json::Obj(pairs)) => pairs.clone(),
            _ => Vec::new(),
        }
    };
    let (b_pairs, c_pairs) = (pairs(baseline), pairs(candidate));
    let lookup = |pairs: &[(String, Json)], key: &str| -> Option<Json> {
        pairs.iter().find(|(k, _)| k == key).map(|(_, v)| v.clone())
    };
    let mut keys: Vec<String> = b_pairs.iter().map(|(k, _)| k.clone()).collect();
    for (k, _) in &c_pairs {
        if !keys.contains(k) {
            keys.push(k.clone());
        }
    }
    for key in keys {
        let path = format!("counters.{key}");
        let (b, c) = match (lookup(&b_pairs, &key), lookup(&c_pairs, &key)) {
            (Some(b), Some(c)) => (b, c),
            (Some(_), None) => {
                report.push(Severity::Soft, path, "missing from candidate");
                continue;
            }
            (None, Some(_)) => {
                report.push(Severity::Soft, path, "missing from baseline");
                continue;
            }
            (None, None) => continue,
        };
        if let (Some(bv), Some(cv)) = (b.as_i64(), c.as_i64()) {
            let drift = (bv - cv).unsigned_abs() as f64;
            let scale = bv.unsigned_abs().max(1) as f64;
            if drift / scale > cfg.counter_tolerance {
                report.push(Severity::Soft, path, format!("counter drift: {bv} → {cv}"));
            }
            continue;
        }
        if b.get("count").is_some() && c.get("count").is_some() {
            if key.ends_with("_ns") {
                let (bc, cc) = (
                    b.get("count").and_then(Json::as_i64),
                    c.get("count").and_then(Json::as_i64),
                );
                if bc != cc {
                    report.push(
                        Severity::Soft,
                        path,
                        format!("timer sample count drift: {bc:?} → {cc:?}"),
                    );
                }
            } else if b != c {
                report.push(
                    Severity::Soft,
                    path,
                    format!("histogram drift: {} → {}", b.encode(), c.encode()),
                );
            }
            continue;
        }
        if b != c {
            report.push(
                Severity::Soft,
                path,
                format!("{} → {}", b.encode(), c.encode()),
            );
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn artifact(verdict: &str, ns: i64, counter: i64) -> Json {
        Json::parse(&format!(
            r#"{{"schema": 2, "experiment": "e3_safety",
                "params": {{"seed": "0xE3", "threads": 1}},
                "measurements": [
                  {{"attack": "silent", "WRONG": 0, "verdict": "{verdict}",
                    "time": {{"ns": {ns}, "human": "t"}},
                    "speedup": {{"ratio": 4.2, "human": "4.2×"}}}}
                ],
                "wall": {{"ns": 5000, "human": "5.0µs"}},
                "counters": {{"rmt_cut.partition_checks": {counter},
                   "rmt_cut.search_ns": {{"count": 3, "sum": {ns}, "min": 1,
                     "max": {ns}, "mean": 1.0, "p50": 1, "p90": 1, "p99": 1}}}}}}"#
        ))
        .expect("valid test artifact")
    }

    #[test]
    fn self_diff_passes_clean() {
        let a = artifact("safe", 20_000_000, 7);
        let report = compare_artifacts(&a, &a, &CompareConfig::default());
        assert!(report.findings.is_empty(), "{}", report.render());
        assert!(report.passed(true));
    }

    #[test]
    fn verdict_flip_is_a_hard_failure() {
        let a = artifact("safe", 20_000_000, 7);
        let b = artifact("UNSAFE", 20_000_000, 7);
        let report = compare_artifacts(&a, &b, &CompareConfig::default());
        assert_eq!(report.hard_count(), 1, "{}", report.render());
        assert!(!report.passed(false));
        assert!(report.render().contains("measurements[0].verdict"));
        assert!(report.render().contains("safe → UNSAFE"));
    }

    #[test]
    fn timing_inflation_beyond_threshold_is_hard() {
        let a = artifact("safe", 20_000_000, 7);
        let b = artifact("safe", 60_000_000, 7); // 3× above the 2× gate
        let report = compare_artifacts(&a, &b, &CompareConfig::default());
        assert_eq!(report.hard_count(), 1, "{}", report.render());
        assert!(report.render().contains("timing regression"));
        // The symmetric direction is only a soft improvement note.
        let rev = compare_artifacts(&b, &a, &CompareConfig::default());
        assert_eq!(rev.hard_count(), 0);
        assert_eq!(rev.soft_count(), 1);
        assert!(rev.passed(false));
        assert!(!rev.passed(true));
    }

    #[test]
    fn sub_floor_timing_noise_is_ignored() {
        let a = artifact("safe", 1_000, 7);
        let b = artifact("safe", 900_000, 7); // 900× but under 10ms floor
        let report = compare_artifacts(&a, &b, &CompareConfig::default());
        assert!(report.findings.is_empty(), "{}", report.render());
        // Cross-machine mode ignores even large regressions.
        let big = artifact("safe", 90_000_000_000, 7);
        let cfg = CompareConfig {
            check_timing: false,
            ..CompareConfig::default()
        };
        assert!(compare_artifacts(&a, &big, &cfg).findings.is_empty());
    }

    #[test]
    fn counter_drift_is_soft_and_tolerance_bounded() {
        let a = artifact("safe", 20_000_000, 100);
        let b = artifact("safe", 20_000_000, 103);
        let report = compare_artifacts(&a, &b, &CompareConfig::default());
        assert_eq!(report.hard_count(), 0);
        assert_eq!(report.soft_count(), 1);
        assert!(report.render().contains("counter drift: 100 → 103"));
        let lax = CompareConfig {
            counter_tolerance: 0.05,
            ..CompareConfig::default()
        };
        assert!(compare_artifacts(&a, &b, &lax).findings.is_empty());
    }

    #[test]
    fn different_experiments_do_not_compare() {
        let a = artifact("safe", 1, 1);
        let mut b = artifact("safe", 1, 1);
        if let Json::Obj(pairs) = &mut b {
            pairs[1].1 = Json::from("e4_other");
        }
        let report = compare_artifacts(&a, &b, &CompareConfig::default());
        assert_eq!(report.hard_count(), 1);
        assert_eq!(report.findings[0].path, "experiment");
    }

    #[test]
    fn row_count_and_missing_cells_are_hard() {
        let a = artifact("safe", 1, 1);
        let mut b = artifact("safe", 1, 1);
        if let Some(Json::Arr(rows)) = {
            if let Json::Obj(pairs) = &mut b {
                pairs
                    .iter_mut()
                    .find(|(k, _)| k == "measurements")
                    .map(|(_, v)| v)
            } else {
                None
            }
        } {
            rows.push(Json::obj([("extra", Json::Int(1))]));
        }
        let report = compare_artifacts(&a, &b, &CompareConfig::default());
        assert_eq!(report.hard_count(), 1);
        assert!(report.render().contains("1 baseline rows vs 2"));
    }

    #[test]
    fn thread_param_differences_stay_soft() {
        fn params(artifact: &mut Json) -> &mut Vec<(String, Json)> {
            let Json::Obj(pairs) = artifact else {
                panic!("artifact is an object")
            };
            match pairs.iter_mut().find(|(k, _)| k == "params") {
                Some((_, Json::Obj(params))) => params,
                _ => panic!("artifact has params"),
            }
        }
        let a = artifact("safe", 1, 1);
        let mut b = artifact("safe", 1, 1);
        params(&mut b)[1].1 = Json::Int(8);
        let report = compare_artifacts(&a, &b, &CompareConfig::default());
        assert_eq!(report.hard_count(), 0);
        assert_eq!(report.soft_count(), 1);
        assert!(report.render().contains("params.threads"));
        // A `threads` param on one side only is soft in both directions.
        params(&mut b).retain(|(k, _)| k != "threads");
        for (base, cand) in [(&a, &b), (&b, &a)] {
            let report = compare_artifacts(base, cand, &CompareConfig::default());
            assert_eq!(report.hard_count(), 0, "{}", report.render());
            assert_eq!(report.soft_count(), 1, "{}", report.render());
        }
    }

    #[test]
    fn v1_string_cells_parse_and_gate_like_v2_objects() {
        // Schema-v1 artifacts rendered durations and ratios as bare strings
        // ("316µs", "4.3×"); a v1 baseline must still gate a v2 candidate.
        let v1 = Json::parse(
            r#"{"schema": 1, "experiment": "e3_safety",
                "params": {"seed": "0xE3", "threads": 1},
                "measurements": [
                  {"attack": "silent", "WRONG": 0, "verdict": "safe",
                   "time": "20ms", "speedup": "4.2×"}
                ],
                "wall_ns": 5000,
                "counters": {"rmt_cut.partition_checks": 7,
                  "rmt_cut.search_ns": {"count": 3, "sum": 20000000, "min": 1,
                    "max": 20000000, "mean": 1.0, "p50": 1, "p90": 1, "p99": 1}}}"#,
        )
        .expect("valid v1 artifact");
        // Identical values, different encodings: clean pass.
        let same = artifact("safe", 20_000_000, 7);
        let report = compare_artifacts(&v1, &same, &CompareConfig::default());
        assert!(report.findings.is_empty(), "{}", report.render());
        // A 3× timing inflation gates through the v1 string encoding too.
        let slow = artifact("safe", 60_000_000, 7);
        let report = compare_artifacts(&v1, &slow, &CompareConfig::default());
        assert_eq!(report.hard_count(), 1, "{}", report.render());
        assert!(report.render().contains("timing regression"));
        // Ratio drift via the "×" suffix form stays soft.
        let fast_ratio = Json::parse(
            &artifact("safe", 20_000_000, 7)
                .encode()
                .replace("4.2", "9.9"),
        )
        .unwrap();
        let report = compare_artifacts(&v1, &fast_ratio, &CompareConfig::default());
        assert_eq!(report.hard_count(), 0, "{}", report.render());
        assert_eq!(report.soft_count(), 1);
        assert!(report.render().contains("ratio drifted"));
    }

    #[test]
    fn missing_counters_are_soft_in_both_directions() {
        let a = artifact("safe", 20_000_000, 7);
        let mut b = artifact("safe", 20_000_000, 7);
        if let Some(Json::Obj(counters)) = {
            if let Json::Obj(pairs) = &mut b {
                pairs
                    .iter_mut()
                    .find(|(k, _)| k == "counters")
                    .map(|(_, v)| v)
            } else {
                None
            }
        } {
            counters.retain(|(k, _)| k != "rmt_cut.partition_checks");
            counters.push(("hunt.candidates_executed".to_string(), Json::Int(48)));
        }
        let report = compare_artifacts(&a, &b, &CompareConfig::default());
        assert_eq!(report.hard_count(), 0, "{}", report.render());
        assert_eq!(report.soft_count(), 2);
        let rendered = report.render();
        assert!(rendered.contains("counters.rmt_cut.partition_checks: missing from candidate"));
        assert!(rendered.contains("counters.hunt.candidates_executed: missing from baseline"));
        // Soft-only reports pass the default gate but not --strict.
        assert!(report.passed(false));
        assert!(!report.passed(true));
    }

    #[test]
    fn bits_per_payload_fields_get_a_tolerance_band() {
        let mk = |bpp: f64| {
            Json::parse(&format!(
                r#"{{"schema": 2, "experiment": "e16_session_throughput",
                    "params": {{}},
                    "measurements": [
                      {{"n": 12, "batch": 64, "wrong": 0,
                        "wire bits/payload": {bpp},
                        "naive bits/payload": 425856}}
                    ],
                    "wall": {{"ns": 100, "human": "100ns"}},
                    "counters": {{}}}}"#
            ))
            .expect("valid artifact")
        };
        // Within the 25% band: clean, even though the values differ.
        let report = compare_artifacts(&mk(5035.0), &mk(6000.0), &CompareConfig::default());
        assert!(report.findings.is_empty(), "{}", report.render());
        // Beyond the band: Soft — codec tuning is reportable, never a gate
        // failure on its own.
        let report = compare_artifacts(&mk(5035.0), &mk(9000.0), &CompareConfig::default());
        assert_eq!(report.hard_count(), 0, "{}", report.render());
        assert_eq!(report.soft_count(), 1);
        assert!(report.render().contains("wire cost drifted"));
        assert!(report.render().contains("bits/payload"));
        // The verdict column in the same row still gates hard.
        let bad = Json::parse(&mk(5035.0).encode().replace("\"wrong\":0", "\"wrong\":1")).unwrap();
        let report = compare_artifacts(&mk(5035.0), &bad, &CompareConfig::default());
        assert_eq!(report.hard_count(), 1, "{}", report.render());
    }

    #[test]
    fn speedup_ratio_cells_band_like_timings() {
        // E17-shaped rows: the speedup column is a timing quotient. Within
        // the band it is clean, beyond it Soft, and in cross-machine mode
        // (`check_timing = false`) it is skipped entirely — while verdict
        // columns in the same row keep gating hard either way.
        let mk = |speedup: f64, cut: i64| {
            Json::parse(&format!(
                r#"{{"schema": 2, "experiment": "e17_incremental",
                    "params": {{"seed": "0xE17"}},
                    "measurements": [
                      {{"n": 24, "cut": {cut}, "no cut": 0,
                        "incremental": {{"ns": 2700000, "human": "2.7ms"}},
                        "speedup": {{"ratio": {speedup}, "human": "{speedup}×"}}}}
                    ],
                    "wall": {{"ns": 100, "human": "100ns"}},
                    "counters": {{}}}}"#
            ))
            .expect("valid artifact")
        };
        let cfg = CompareConfig::default();
        // Within the 2× band: clean despite the drift.
        let report = compare_artifacts(&mk(5.5, 40), &mk(7.2, 40), &cfg);
        assert!(report.findings.is_empty(), "{}", report.render());
        // Beyond the band: Soft, never Hard.
        let report = compare_artifacts(&mk(5.5, 40), &mk(18.0, 40), &cfg);
        assert_eq!(report.hard_count(), 0, "{}", report.render());
        assert_eq!(report.soft_count(), 1);
        assert!(report.render().contains("ratio drifted"));
        // Cross-machine mode skips the ratio comparison entirely.
        let cross = CompareConfig {
            check_timing: false,
            ..CompareConfig::default()
        };
        let report = compare_artifacts(&mk(5.5, 40), &mk(18.0, 40), &cross);
        assert!(report.findings.is_empty(), "{}", report.render());
        // A verdict-mix flip in the same row still gates hard, with or
        // without timing checks.
        let report = compare_artifacts(&mk(5.5, 40), &mk(5.5, 39), &cross);
        assert_eq!(report.hard_count(), 1, "{}", report.render());
        assert!(report.render().contains("measurements[0].cut"));
    }

    #[test]
    fn numeric_verdict_columns_drift_hard() {
        // WRONG counts are verdict columns: 0 → 1 is exactly the regression
        // the gate exists to catch, regardless of timing.
        let a = artifact("safe", 20_000_000, 7);
        let b = Json::parse(&a.encode().replace("\"WRONG\":0", "\"WRONG\":1")).unwrap();
        let report = compare_artifacts(&a, &b, &CompareConfig::default());
        assert_eq!(report.hard_count(), 1, "{}", report.render());
        assert!(report.render().contains("measurements[0].WRONG"));
        assert!(!report.passed(false));
    }

    #[test]
    fn legacy_wall_ns_still_gates() {
        let mk = |ns: i64| {
            Json::parse(&format!(
                r#"{{"experiment": "e1", "params": {{}}, "measurements": [],
                    "wall_ns": {ns}, "counters": {{}}}}"#
            ))
            .unwrap()
        };
        let report = compare_artifacts(&mk(20_000_000), &mk(90_000_000), &CompareConfig::default());
        assert_eq!(report.hard_count(), 1);
        assert_eq!(report.findings[0].path, "wall");
    }
}
