//! A global-free metrics registry.
//!
//! No statics, no global singleton: a [`Registry`] is created where it is
//! needed and handed (or cloned — handles share state) to the code being
//! instrumented. Metric handles ([`Counter`], [`Histogram`]) are
//! cheap `Arc`-backed atomics, so hot loops resolve a handle once by name
//! and then pay a relaxed atomic op per update.
//!
//! Metric names are `&'static str`: resolving a handle never allocates, and
//! the registry maps are keyed by the interned pointer-free literal itself.
//! Names composed at runtime go through [`intern`] once and are then static
//! for the life of the process.
//!
//! Duration measurement goes through [`Registry::timer`], whose guard
//! records elapsed nanoseconds into a histogram on drop — stamped by the
//! registry's [`Clock`], so a virtual-clock registry produces deterministic
//! `*_ns` histograms. A registry can also carry a [`Profiler`]
//! ([`Registry::attach_profiler`]); instrumented code opens per-phase spans
//! through [`Registry::phase`], which is a no-op when none is attached.

use std::collections::{BTreeMap, BTreeSet};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex, OnceLock};

use crate::clock::Clock;
use crate::json::Json;
use crate::profile::{Profiler, Span};

/// Interns a runtime-composed metric name, returning a `&'static str`.
///
/// Repeated calls with the same name return the same leaked allocation, so
/// the total leak is bounded by the set of distinct names ever interned.
/// Names written as literals never need this.
pub fn intern(name: &str) -> &'static str {
    static POOL: OnceLock<Mutex<BTreeSet<&'static str>>> = OnceLock::new();
    let pool = POOL.get_or_init(|| Mutex::new(BTreeSet::new()));
    let mut pool = pool.lock().expect("intern pool lock");
    if let Some(existing) = pool.get(name) {
        return existing;
    }
    let leaked: &'static str = Box::leak(name.to_string().into_boxed_str());
    pool.insert(leaked);
    leaked
}

/// A monotonically increasing counter.
#[derive(Clone, Debug, Default)]
pub struct Counter(Arc<AtomicU64>);

impl Counter {
    /// Creates a free-standing counter (not registered anywhere).
    pub fn new() -> Self {
        Counter::default()
    }

    /// Adds 1.
    pub fn inc(&self) {
        self.add(1);
    }

    /// Adds `n`.
    pub fn add(&self, n: u64) {
        self.0.fetch_add(n, Ordering::Relaxed);
    }

    /// The current value.
    pub fn get(&self) -> u64 {
        self.0.load(Ordering::Relaxed)
    }

    /// Adds `other`'s count to this counter (shard merge).
    pub fn merge_from(&self, other: &Counter) {
        self.add(other.get());
    }
}

/// A histogram over `u64` samples with power-of-two buckets.
///
/// Bucket `i` counts samples whose value needs `i` bits (i.e. is in
/// `[2^(i-1), 2^i)`, with bucket 0 for zero), which is plenty of resolution
/// for durations and combinatorial sizes alike.
#[derive(Clone, Debug, Default)]
pub struct Histogram(Arc<HistogramInner>);

#[derive(Debug)]
struct HistogramInner {
    count: AtomicU64,
    sum: AtomicU64,
    min: AtomicU64,
    max: AtomicU64,
    buckets: [AtomicU64; 65],
}

impl Default for HistogramInner {
    fn default() -> Self {
        HistogramInner {
            count: AtomicU64::new(0),
            sum: AtomicU64::new(0),
            min: AtomicU64::new(0),
            max: AtomicU64::new(0),
            buckets: std::array::from_fn(|_| AtomicU64::new(0)),
        }
    }
}

impl Histogram {
    /// Creates a free-standing histogram.
    pub fn new() -> Self {
        Histogram::default()
    }

    /// Records one sample.
    pub fn record(&self, v: u64) {
        let inner = &self.0;
        if inner.count.fetch_add(1, Ordering::Relaxed) == 0 {
            inner.min.store(v, Ordering::Relaxed);
        } else {
            inner.min.fetch_min(v, Ordering::Relaxed);
        }
        inner.sum.fetch_add(v, Ordering::Relaxed);
        inner.max.fetch_max(v, Ordering::Relaxed);
        let bucket = 64 - v.leading_zeros() as usize; // 0 → 0, 1 → 1, 2..3 → 2, …
        inner.buckets[bucket].fetch_add(1, Ordering::Relaxed);
    }

    /// Number of recorded samples.
    pub fn count(&self) -> u64 {
        self.0.count.load(Ordering::Relaxed)
    }

    /// Sum of recorded samples.
    pub fn sum(&self) -> u64 {
        self.0.sum.load(Ordering::Relaxed)
    }

    /// Smallest recorded sample (0 if empty).
    pub fn min(&self) -> u64 {
        if self.count() == 0 {
            0
        } else {
            self.0.min.load(Ordering::Relaxed)
        }
    }

    /// Largest recorded sample (0 if empty).
    pub fn max(&self) -> u64 {
        self.0.max.load(Ordering::Relaxed)
    }

    /// Mean of recorded samples (0.0 if empty).
    pub fn mean(&self) -> f64 {
        let n = self.count();
        if n == 0 {
            0.0
        } else {
            self.sum() as f64 / n as f64
        }
    }

    /// The `q`-quantile (`0 < q ≤ 1`) at bucket resolution: the inclusive
    /// upper bound of the first bucket whose cumulative count reaches
    /// `ceil(q · count)`. Exact for exact-bucket values (0 and 1); an upper
    /// bound within 2× otherwise. 0 if empty.
    pub fn quantile(&self, q: f64) -> u64 {
        let n = self.count();
        if n == 0 {
            return 0;
        }
        let target = ((q.clamp(0.0, 1.0) * n as f64).ceil() as u64).max(1);
        let mut seen = 0u64;
        for (i, bucket) in self.0.buckets.iter().enumerate() {
            seen += bucket.load(Ordering::Relaxed);
            if seen >= target {
                return match i {
                    0 => 0,
                    1..=63 => (1u64 << i) - 1,
                    _ => u64::MAX,
                };
            }
        }
        self.max()
    }

    /// Merges all of `other`'s samples into this histogram (shard merge).
    ///
    /// Exact when `other` is quiescent (its workers have finished), which is
    /// the shard-merge situation: counts, sums, extrema and buckets all end
    /// up as if every sample had been recorded here directly.
    pub fn merge_from(&self, other: &Histogram) {
        let n = other.count();
        if n == 0 {
            return;
        }
        let inner = &self.0;
        if inner.count.fetch_add(n, Ordering::Relaxed) == 0 {
            inner.min.store(other.min(), Ordering::Relaxed);
        } else {
            inner.min.fetch_min(other.min(), Ordering::Relaxed);
        }
        inner.sum.fetch_add(other.sum(), Ordering::Relaxed);
        inner.max.fetch_max(other.max(), Ordering::Relaxed);
        for (bucket, src) in inner.buckets.iter().zip(&other.0.buckets) {
            let c = src.load(Ordering::Relaxed);
            if c > 0 {
                bucket.fetch_add(c, Ordering::Relaxed);
            }
        }
    }

    /// Non-empty buckets as `(upper_bound_exclusive, count)` pairs.
    pub fn nonzero_buckets(&self) -> Vec<(u64, u64)> {
        self.0
            .buckets
            .iter()
            .enumerate()
            .filter_map(|(i, c)| {
                let count = c.load(Ordering::Relaxed);
                (count > 0).then(|| {
                    let upper = if i >= 64 { u64::MAX } else { 1u64 << i };
                    (upper, count)
                })
            })
            .collect()
    }

    /// The artifact summary: `{count, sum, min, max, mean, p50, p90, p99}`.
    pub fn summary_json(&self) -> Json {
        Json::obj([
            ("count", Json::from(self.count())),
            ("sum", Json::from(self.sum())),
            ("min", Json::from(self.min())),
            ("max", Json::from(self.max())),
            ("mean", Json::from(self.mean())),
            ("p50", Json::from(self.quantile(0.50))),
            ("p90", Json::from(self.quantile(0.90))),
            ("p99", Json::from(self.quantile(0.99))),
        ])
    }
}

/// Records elapsed clock nanoseconds into a histogram when dropped.
pub struct ScopedTimer {
    histogram: Histogram,
    clock: Clock,
    start_ns: u64,
}

impl ScopedTimer {
    /// Starts timing into `histogram` on a fresh wall clock.
    pub fn new(histogram: Histogram) -> Self {
        ScopedTimer::with_clock(histogram, Clock::wall())
    }

    /// Starts timing into `histogram` on `clock`.
    pub fn with_clock(histogram: Histogram, clock: Clock) -> Self {
        let start_ns = clock.now_ns();
        ScopedTimer {
            histogram,
            clock,
            start_ns,
        }
    }
}

impl Drop for ScopedTimer {
    fn drop(&mut self) {
        let ns = self.clock.now_ns().saturating_sub(self.start_ns);
        self.histogram.record(ns);
    }
}

#[derive(Default)]
struct RegistryInner {
    counters: BTreeMap<&'static str, Counter>,
    histograms: BTreeMap<&'static str, Histogram>,
    clock: Clock,
    profiler: Option<Profiler>,
}

/// A named collection of metrics. Cloning shares the underlying state.
#[derive(Clone, Default)]
pub struct Registry {
    inner: Arc<Mutex<RegistryInner>>,
}

impl Registry {
    /// Creates an empty registry on a wall clock.
    pub fn new() -> Self {
        Registry::default()
    }

    /// Sets the clock timers stamp durations with. A virtual clock
    /// ([`Clock::virtual_ns`]) makes every `*_ns` histogram deterministic.
    pub fn with_clock(self, clock: Clock) -> Self {
        self.inner.lock().expect("registry lock").clock = clock;
        self
    }

    /// The registry's clock (shared with its timers).
    pub fn clock(&self) -> Clock {
        self.inner.lock().expect("registry lock").clock.clone()
    }

    /// Attaches a profiler: subsequent [`Registry::phase`] calls open spans
    /// on it.
    pub fn attach_profiler(&self, profiler: Profiler) {
        self.inner.lock().expect("registry lock").profiler = Some(profiler);
    }

    /// The attached profiler, if any.
    pub fn profiler(&self) -> Option<Profiler> {
        self.inner.lock().expect("registry lock").profiler.clone()
    }

    /// Opens a per-phase span on the attached profiler; `None` (and no
    /// work at all) when no profiler is attached. Hold the guard for the
    /// phase's extent:
    ///
    /// ```
    /// # let reg = rmt_obs::Registry::new();
    /// let _phase = reg.phase("decide.paths");
    /// ```
    pub fn phase(&self, name: &'static str) -> Option<Span> {
        self.profiler().map(|p| p.span(name))
    }

    /// The counter named `name` (created on first use).
    pub fn counter(&self, name: &'static str) -> Counter {
        let mut inner = self.inner.lock().expect("registry lock");
        inner.counters.entry(name).or_default().clone()
    }

    /// The histogram named `name` (created on first use).
    pub fn histogram(&self, name: &'static str) -> Histogram {
        let mut inner = self.inner.lock().expect("registry lock");
        inner.histograms.entry(name).or_default().clone()
    }

    /// Starts a scoped timer recording into histogram `name` (in ns),
    /// stamped by the registry's clock.
    pub fn timer(&self, name: &'static str) -> ScopedTimer {
        let (histogram, clock) = {
            let mut inner = self.inner.lock().expect("registry lock");
            let h = inner.histograms.entry(name).or_default().clone();
            (h, inner.clock.clone())
        };
        ScopedTimer::with_clock(histogram, clock)
    }

    /// Merges every metric of `other` into this registry by name, creating
    /// missing metrics on the fly.
    ///
    /// This is how per-worker **shards** flow back into a run's registry:
    /// give each worker a fresh `Registry`, let it record freely without
    /// contending on the shared one, then `merge_from` each shard after the
    /// join. Counters and histograms add. Merging a
    /// quiescent shard is exact — totals equal single-registry recording —
    /// and iteration is in sorted name order, so repeated merges visit
    /// metrics deterministically.
    pub fn merge_from(&self, other: &Registry) {
        let (counters, histograms) = {
            let inner = other.inner.lock().expect("registry lock");
            (
                inner
                    .counters
                    .iter()
                    .map(|(&k, v)| (k, v.clone()))
                    .collect::<Vec<_>>(),
                inner
                    .histograms
                    .iter()
                    .map(|(&k, v)| (k, v.clone()))
                    .collect::<Vec<_>>(),
            )
        };
        for (name, c) in counters {
            self.counter(name).merge_from(&c);
        }
        for (name, h) in histograms {
            self.histogram(name).merge_from(&h);
        }
    }

    /// All metric names currently registered, sorted.
    pub fn metric_names(&self) -> Vec<&'static str> {
        let inner = self.inner.lock().expect("registry lock");
        let mut names: Vec<&'static str> = inner
            .counters
            .keys()
            .chain(inner.histograms.keys())
            .copied()
            .collect();
        names.sort_unstable();
        names.dedup();
        names
    }

    /// All metrics as a JSON object, names sorted, suitable for the
    /// `counters` field of an experiment artifact.
    ///
    /// Counters render as integers, histograms as
    /// `{count, sum, min, max, mean, p50, p90, p99}`.
    pub fn to_json(&self) -> Json {
        let inner = self.inner.lock().expect("registry lock");
        let mut pairs: Vec<(String, Json)> = Vec::new();
        for (name, c) in &inner.counters {
            pairs.push((name.to_string(), Json::from(c.get())));
        }
        for (name, h) in &inner.histograms {
            pairs.push((name.to_string(), h.summary_json()));
        }
        pairs.sort_by(|(a, _), (b, _)| a.cmp(b));
        Json::Obj(pairs)
    }

    /// Renders a sorted `name value` line per metric (for text output).
    pub fn render(&self) -> String {
        let inner = self.inner.lock().expect("registry lock");
        let mut lines: Vec<String> = Vec::new();
        for (name, c) in &inner.counters {
            lines.push(format!("{name} {}", c.get()));
        }
        for (name, h) in &inner.histograms {
            lines.push(format!(
                "{name} count={} sum={} min={} max={} mean={:.1} p50={} p99={}",
                h.count(),
                h.sum(),
                h.min(),
                h.max(),
                h.mean(),
                h.quantile(0.5),
                h.quantile(0.99),
            ));
        }
        lines.sort();
        lines.join("\n")
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn counters_share_state_by_name() {
        let reg = Registry::new();
        reg.counter("x").inc();
        reg.counter("x").add(4);
        assert_eq!(reg.counter("x").get(), 5);
        assert_eq!(reg.counter("y").get(), 0);
        // Cloned registries share everything.
        let reg2 = reg.clone();
        reg2.counter("x").inc();
        assert_eq!(reg.counter("x").get(), 6);
    }

    #[test]
    fn interned_names_are_stable_and_deduplicated() {
        let a = intern(&format!("dyn.{}", 7));
        let b = intern("dyn.7");
        assert_eq!(a, "dyn.7");
        assert!(std::ptr::eq(a, b), "same allocation for the same name");
        let reg = Registry::new();
        reg.counter(a).inc();
        reg.counter(b).inc();
        assert_eq!(reg.counter(intern("dyn.7")).get(), 2);
    }

    #[test]
    fn histogram_statistics() {
        let h = Histogram::new();
        for v in [0u64, 1, 2, 3, 100] {
            h.record(v);
        }
        assert_eq!(h.count(), 5);
        assert_eq!(h.sum(), 106);
        assert_eq!(h.min(), 0);
        assert_eq!(h.max(), 100);
        assert!((h.mean() - 21.2).abs() < 1e-9);
        let buckets = h.nonzero_buckets();
        // 0 → bucket 0; 1 → bucket 1; 2,3 → bucket 2; 100 → bucket 7.
        assert_eq!(buckets, vec![(1, 1), (2, 1), (4, 2), (128, 1)]);
    }

    #[test]
    fn quantiles_report_bucket_upper_bounds() {
        let h = Histogram::new();
        assert_eq!(h.quantile(0.5), 0); // empty
        for v in [0u64, 1, 2, 3, 100] {
            h.record(v);
        }
        assert_eq!(h.quantile(0.2), 0); // first sample is the zero bucket
        assert_eq!(h.quantile(0.4), 1);
        assert_eq!(h.quantile(0.5), 3); // 2 and 3 share bucket [2,4)
        assert_eq!(h.quantile(0.8), 3);
        assert_eq!(h.quantile(1.0), 127); // 100 lands in [64,128)
        let j = h.summary_json();
        assert_eq!(j.get("p50").and_then(Json::as_i64), Some(3));
        assert_eq!(j.get("p99").and_then(Json::as_i64), Some(127));
        // A saturated sample resolves to the open top bucket.
        let top = Histogram::new();
        top.record(u64::MAX);
        assert_eq!(top.quantile(0.5), u64::MAX);
    }

    #[test]
    fn scoped_timer_records_on_drop() {
        let reg = Registry::new();
        {
            let _t = reg.timer("op_ns");
            std::hint::black_box(1 + 1);
        }
        assert_eq!(reg.histogram("op_ns").count(), 1);
    }

    #[test]
    fn virtual_clock_timers_are_deterministic() {
        let run = || {
            let reg = Registry::new().with_clock(Clock::virtual_ns(100));
            {
                let _outer = reg.timer("a_ns");
                let _inner = reg.timer("b_ns");
            }
            (reg.histogram("a_ns").sum(), reg.histogram("b_ns").sum())
        };
        // Two reads per timer, inner drops first: b spans one tick (100ns),
        // a spans three (300ns). Identical on every run.
        assert_eq!(run(), (300, 100));
        assert_eq!(run(), run());
    }

    #[test]
    fn phase_spans_flow_through_an_attached_profiler() {
        let reg = Registry::new();
        assert!(reg.phase("nothing").is_none()); // no profiler: free no-op
        let prof = Profiler::new(Clock::virtual_ns(1));
        reg.attach_profiler(prof.clone());
        {
            let _p = reg.phase("decide");
            let _q = reg.phase("decide.paths");
        }
        let roots = crate::profile::span_tree(&prof.events()).unwrap();
        assert_eq!(roots.len(), 1);
        assert_eq!(roots[0].name, "decide");
        assert_eq!(roots[0].children[0].name, "decide.paths");
    }

    #[test]
    fn shard_merge_equals_direct_recording() {
        // Record a sample stream directly…
        let direct = Registry::new();
        // …and the same stream split across two shards, then merged.
        let merged = Registry::new();
        let shard_a = Registry::new();
        let shard_b = Registry::new();
        for (i, v) in [3u64, 0, 17, 9, 1024, 2].iter().enumerate() {
            direct.counter("c").add(*v);
            direct.histogram("h").record(*v);
            let shard = if i % 2 == 0 { &shard_a } else { &shard_b };
            shard.counter("c").add(*v);
            shard.histogram("h").record(*v);
        }
        merged.merge_from(&shard_a);
        merged.merge_from(&shard_b);
        assert_eq!(merged.counter("c").get(), direct.counter("c").get());
        let (dh, mh) = (direct.histogram("h"), merged.histogram("h"));
        assert_eq!(mh.count(), dh.count());
        assert_eq!(mh.sum(), dh.sum());
        assert_eq!(mh.min(), dh.min());
        assert_eq!(mh.max(), dh.max());
        assert_eq!(mh.nonzero_buckets(), dh.nonzero_buckets());
        // Merging an empty shard is a no-op, even for min tracking.
        merged.merge_from(&Registry::new());
        assert_eq!(merged.histogram("h").min(), dh.min());
    }

    #[test]
    fn json_snapshot_is_sorted_and_typed() {
        let reg = Registry::new();
        reg.counter("b.count").add(2);
        reg.counter("a.count").add(1);
        reg.histogram("h").record(10);
        let j = reg.to_json();
        match &j {
            Json::Obj(pairs) => {
                let names: Vec<&str> = pairs.iter().map(|(k, _)| k.as_str()).collect();
                assert_eq!(names, vec!["a.count", "b.count", "h"]);
            }
            other => panic!("expected object, got {other}"),
        }
        assert_eq!(j.get("a.count").and_then(Json::as_i64), Some(1));
        assert_eq!(
            j.get("h")
                .and_then(|h| h.get("count"))
                .and_then(Json::as_i64),
            Some(1)
        );
        assert_eq!(
            j.get("h").and_then(|h| h.get("p50")).and_then(Json::as_i64),
            Some(15) // 10 lands in [8,16)
        );
        assert!(reg.render().contains("a.count 1"));
        assert_eq!(reg.metric_names(), vec!["a.count", "b.count", "h"]);
    }
}
