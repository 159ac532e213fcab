//! Pipeline-wide observability primitives for SSRESF.
//!
//! The workspace builds fully offline, so instead of an external metrics
//! dependency this crate carries a small, thread-safe [`MetricsRegistry`]
//! of counters, gauges, histograms and accumulated timings, plus a
//! [`Span`] guard that times a scope into the registry on drop.
//!
//! # Determinism
//!
//! Campaign results are bit-reproducible under a fixed seed, and the
//! metrics export mirrors that: every counter and histogram records
//! deterministic quantities (event counts, work units), while wall-clock
//! quantities are confined to two places — the `timings_s` section and
//! gauges whose names end in a wall-clock suffix (`seconds`,
//! `per_second`, `utilization`) or are listed by name (`cache.bytes`, the
//! size of cached artifacts that embed wall-clock seconds).
//! [`MetricsRegistry::to_json_deterministic`] zeroes exactly those values
//! while keeping the full key set, so two runs of the same seed produce
//! byte-identical deterministic exports.

use ssresf_json::{object, Value};
use std::collections::BTreeMap;
use std::sync::Mutex;
use std::time::{Duration, Instant};

/// Number of power-of-two buckets a [`Histogram`] keeps.
pub const HISTOGRAM_BUCKETS: usize = 16;

/// A fixed-bucket histogram of non-negative samples.
///
/// Bucket `i` counts samples `v` with `floor(log2(max(v, 1))) == i`,
/// clamped to the last bucket; alongside the buckets the histogram tracks
/// count, sum, minimum and maximum. All fields are deterministic for a
/// deterministic sample stream.
#[derive(Debug, Clone, PartialEq)]
pub struct Histogram {
    /// Number of samples observed.
    pub count: u64,
    /// Sum of all samples.
    pub sum: f64,
    /// Smallest sample (0 when empty).
    pub min: f64,
    /// Largest sample (0 when empty).
    pub max: f64,
    /// Power-of-two bucket occupancy.
    pub buckets: [u64; HISTOGRAM_BUCKETS],
}

impl Default for Histogram {
    fn default() -> Self {
        Histogram {
            count: 0,
            sum: 0.0,
            min: 0.0,
            max: 0.0,
            buckets: [0; HISTOGRAM_BUCKETS],
        }
    }
}

impl Histogram {
    /// Records one sample (negative samples clamp to 0).
    pub fn observe(&mut self, sample: f64) {
        let sample = sample.max(0.0);
        if self.count == 0 {
            self.min = sample;
            self.max = sample;
        } else {
            self.min = self.min.min(sample);
            self.max = self.max.max(sample);
        }
        self.count += 1;
        self.sum += sample;
        let bucket = (sample.max(1.0).log2() as usize).min(HISTOGRAM_BUCKETS - 1);
        self.buckets[bucket] += 1;
    }

    /// Mean sample, or 0 when empty.
    pub fn mean(&self) -> f64 {
        if self.count == 0 {
            0.0
        } else {
            self.sum / self.count as f64
        }
    }

    fn to_json(&self) -> Value {
        object([
            ("count", Value::from(self.count)),
            ("sum", Value::from(self.sum)),
            ("min", Value::from(self.min)),
            ("max", Value::from(self.max)),
            (
                "buckets",
                Value::Array(self.buckets.iter().map(|&b| Value::from(b)).collect()),
            ),
        ])
    }
}

#[derive(Debug, Default)]
struct Inner {
    counters: BTreeMap<String, u64>,
    gauges: BTreeMap<String, f64>,
    histograms: BTreeMap<String, Histogram>,
    timings: BTreeMap<String, Duration>,
}

/// A thread-safe registry of named counters, gauges, histograms and
/// accumulated timings.
///
/// Shared by reference (`&MetricsRegistry` is `Sync`); every operation
/// takes `&self`. Names are free-form dotted paths (`"campaign.injections"`,
/// `"stage.clustering"`); exports list them in sorted order.
#[derive(Debug, Default)]
pub struct MetricsRegistry {
    inner: Mutex<Inner>,
}

/// Final name segments marking a gauge as wall-clock-derived (zeroed by
/// [`MetricsRegistry::to_json_deterministic`]). A suffix matches when
/// preceded by a `_` or `.` separator, so both `busy_seconds` and
/// `worker.0.utilization` qualify.
const WALL_CLOCK_SUFFIXES: [&str; 3] = ["seconds", "per_second", "utilization"];

/// Gauges zeroed by [`MetricsRegistry::to_json_deterministic`] whose names
/// carry no wall-clock suffix. `cache.bytes` sums the cached artifacts'
/// sizes, and a campaign artifact prints its wall-clock simulation times,
/// so two cold runs of one job can differ by a digit.
const WALL_CLOCK_GAUGES: [&str; 1] = ["cache.bytes"];

fn is_wall_clock_gauge(name: &str) -> bool {
    WALL_CLOCK_GAUGES.contains(&name)
        || WALL_CLOCK_SUFFIXES.iter().any(|suffix| {
            name.strip_suffix(suffix)
                .is_some_and(|head| head.ends_with(['_', '.']))
        })
}

impl MetricsRegistry {
    /// Creates an empty registry.
    pub fn new() -> Self {
        MetricsRegistry::default()
    }

    fn lock(&self) -> std::sync::MutexGuard<'_, Inner> {
        self.inner.lock().expect("metrics registry poisoned")
    }

    /// Adds `delta` to the named counter (created at 0).
    pub fn counter_add(&self, name: &str, delta: u64) {
        *self.lock().counters.entry(name.to_owned()).or_insert(0) += delta;
    }

    /// Current value of a counter (0 when absent).
    pub fn counter(&self, name: &str) -> u64 {
        self.lock().counters.get(name).copied().unwrap_or(0)
    }

    /// Sets the named gauge to `value`.
    ///
    /// Gauges holding wall-clock-derived quantities must end in a
    /// `seconds`, `per_second` or `utilization` segment, or be listed by
    /// name, so the deterministic export can zero them.
    pub fn gauge_set(&self, name: &str, value: f64) {
        self.lock().gauges.insert(name.to_owned(), value);
    }

    /// Current value of a gauge, if set.
    pub fn gauge(&self, name: &str) -> Option<f64> {
        self.lock().gauges.get(name).copied()
    }

    /// Records one sample into the named histogram (created empty).
    pub fn observe(&self, name: &str, sample: f64) {
        self.lock()
            .histograms
            .entry(name.to_owned())
            .or_default()
            .observe(sample);
    }

    /// Snapshot of a histogram, if any sample was recorded.
    pub fn histogram(&self, name: &str) -> Option<Histogram> {
        self.lock().histograms.get(name).cloned()
    }

    /// Adds `elapsed` to the named accumulated timing.
    pub fn timing_add(&self, name: &str, elapsed: Duration) {
        *self
            .lock()
            .timings
            .entry(name.to_owned())
            .or_insert(Duration::ZERO) += elapsed;
    }

    /// Accumulated duration of a timing (zero when absent).
    pub fn timing(&self, name: &str) -> Duration {
        self.lock()
            .timings
            .get(name)
            .copied()
            .unwrap_or(Duration::ZERO)
    }

    /// Starts a timing span; the elapsed time accumulates into the named
    /// timing when the guard drops (or [`Span::stop`] is called).
    pub fn span(&self, name: &str) -> Span<'_> {
        Span {
            registry: self,
            name: name.to_owned(),
            started: Instant::now(),
            stopped: false,
        }
    }

    /// Exports the registry as a JSON document.
    ///
    /// Shape: `{"counters": {...}, "gauges": {...}, "histograms": {...},
    /// "timings_s": {...}}`, each section keyed by metric name in sorted
    /// order. Timings are printed in seconds.
    pub fn to_json(&self) -> Value {
        self.export(false)
    }

    /// Exports like [`to_json`](MetricsRegistry::to_json) but with every
    /// wall-clock-derived value zeroed (all `timings_s` entries, gauges
    /// with a wall-clock suffix and the `cache.bytes` gauge), keeping the
    /// full key set.
    ///
    /// Two runs of the same seeded workload produce byte-identical
    /// deterministic exports.
    pub fn to_json_deterministic(&self) -> Value {
        self.export(true)
    }

    fn export(&self, deterministic: bool) -> Value {
        let inner = self.lock();
        let counters = Value::Object(
            inner
                .counters
                .iter()
                .map(|(k, &v)| (k.clone(), Value::from(v)))
                .collect(),
        );
        let gauges = Value::Object(
            inner
                .gauges
                .iter()
                .map(|(k, &v)| {
                    let v = if deterministic && is_wall_clock_gauge(k) {
                        0.0
                    } else {
                        v
                    };
                    (k.clone(), Value::from(v))
                })
                .collect(),
        );
        let histograms = Value::Object(
            inner
                .histograms
                .iter()
                .map(|(k, h)| (k.clone(), h.to_json()))
                .collect(),
        );
        let timings = Value::Object(
            inner
                .timings
                .iter()
                .map(|(k, &d)| {
                    let secs = if deterministic { 0.0 } else { d.as_secs_f64() };
                    (k.clone(), Value::from(secs))
                })
                .collect(),
        );
        object([
            ("counters", counters),
            ("gauges", gauges),
            ("histograms", histograms),
            ("timings_s", timings),
        ])
    }
}

/// A scope timer started by [`MetricsRegistry::span`].
///
/// Accumulates its elapsed time into the registry's timing of the same
/// name when dropped.
#[derive(Debug)]
pub struct Span<'a> {
    registry: &'a MetricsRegistry,
    name: String,
    started: Instant,
    stopped: bool,
}

impl Span<'_> {
    /// Stops the span now and returns the elapsed time it recorded.
    pub fn stop(mut self) -> Duration {
        let elapsed = self.started.elapsed();
        self.registry.timing_add(&self.name, elapsed);
        self.stopped = true;
        elapsed
    }
}

impl Drop for Span<'_> {
    fn drop(&mut self) {
        if !self.stopped {
            self.registry.timing_add(&self.name, self.started.elapsed());
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn counters_accumulate() {
        let m = MetricsRegistry::new();
        assert_eq!(m.counter("a"), 0);
        m.counter_add("a", 2);
        m.counter_add("a", 3);
        m.counter_add("b", 1);
        assert_eq!(m.counter("a"), 5);
        assert_eq!(m.counter("b"), 1);
    }

    #[test]
    fn gauges_overwrite() {
        let m = MetricsRegistry::new();
        assert_eq!(m.gauge("x"), None);
        m.gauge_set("x", 1.5);
        m.gauge_set("x", -2.0);
        assert_eq!(m.gauge("x"), Some(-2.0));
    }

    #[test]
    fn histogram_tracks_moments_and_buckets() {
        let mut h = Histogram::default();
        for v in [1.0, 2.0, 4.0, 4.0] {
            h.observe(v);
        }
        assert_eq!(h.count, 4);
        assert_eq!(h.sum, 11.0);
        assert_eq!(h.min, 1.0);
        assert_eq!(h.max, 4.0);
        assert_eq!(h.mean(), 2.75);
        assert_eq!(h.buckets[0], 1); // 1.0
        assert_eq!(h.buckets[1], 1); // 2.0
        assert_eq!(h.buckets[2], 2); // 4.0
    }

    #[test]
    fn histogram_clamps_extremes() {
        let mut h = Histogram::default();
        h.observe(-3.0); // clamps to 0 → first bucket
        h.observe(1e30); // clamps to last bucket
        assert_eq!(h.buckets[0], 1);
        assert_eq!(h.buckets[HISTOGRAM_BUCKETS - 1], 1);
        assert_eq!(h.min, 0.0);
    }

    #[test]
    fn spans_accumulate_timings() {
        let m = MetricsRegistry::new();
        let elapsed = m.span("t").stop();
        assert_eq!(m.timing("t"), elapsed);
        {
            let _guard = m.span("t");
        }
        assert!(m.timing("t") >= elapsed);
        m.timing_add("t", Duration::from_millis(5));
        assert!(m.timing("t") >= Duration::from_millis(5));
    }

    #[test]
    fn registry_is_shareable_across_threads() {
        let m = MetricsRegistry::new();
        std::thread::scope(|scope| {
            for _ in 0..4 {
                scope.spawn(|| {
                    for _ in 0..100 {
                        m.counter_add("hits", 1);
                    }
                });
            }
        });
        assert_eq!(m.counter("hits"), 400);
    }

    #[test]
    fn export_sections_are_sorted_and_typed() {
        let m = MetricsRegistry::new();
        m.counter_add("b", 2);
        m.counter_add("a", 1);
        m.gauge_set("g", 0.25);
        m.observe("h", 3.0);
        m.timing_add("t", Duration::from_secs(1));
        let json = m.to_json();
        let counters = json.get("counters").unwrap().as_object().unwrap();
        assert_eq!(counters[0].0, "a");
        assert_eq!(counters[1].0, "b");
        assert_eq!(
            json.get("gauges").unwrap().get("g").unwrap().as_f64(),
            Some(0.25)
        );
        let h = json.get("histograms").unwrap().get("h").unwrap();
        assert_eq!(h.get("count").unwrap().as_u64(), Some(1));
        assert_eq!(
            json.get("timings_s").unwrap().get("t").unwrap().as_f64(),
            Some(1.0)
        );
    }

    #[test]
    fn deterministic_export_zeroes_wall_clock_values_only() {
        let m = MetricsRegistry::new();
        m.counter_add("work", 7);
        m.gauge_set("campaign.throughput_per_second", 123.4);
        m.gauge_set("campaign.worker.0.busy_seconds", 9.9);
        m.gauge_set("campaign.worker.0.utilization", 0.8);
        m.gauge_set("campaign.threads", 4.0);
        m.timing_add("stage.golden", Duration::from_millis(250));
        let det = m.to_json_deterministic();
        assert_eq!(
            det.get("counters").unwrap().get("work").unwrap().as_u64(),
            Some(7)
        );
        let gauges = det.get("gauges").unwrap();
        assert_eq!(
            gauges
                .get("campaign.throughput_per_second")
                .unwrap()
                .as_f64(),
            Some(0.0)
        );
        assert_eq!(
            gauges
                .get("campaign.worker.0.busy_seconds")
                .unwrap()
                .as_f64(),
            Some(0.0)
        );
        assert_eq!(
            gauges
                .get("campaign.worker.0.utilization")
                .unwrap()
                .as_f64(),
            Some(0.0)
        );
        assert_eq!(gauges.get("campaign.threads").unwrap().as_f64(), Some(4.0));
        assert_eq!(
            det.get("timings_s")
                .unwrap()
                .get("stage.golden")
                .unwrap()
                .as_f64(),
            Some(0.0)
        );
        // The key set survives zeroing: repeat exports are byte-identical.
        assert_eq!(
            det.to_string_pretty(),
            m.to_json_deterministic().to_string_pretty()
        );
    }

    #[test]
    fn deterministic_export_zeroes_cache_bytes_by_name_only() {
        let m = MetricsRegistry::new();
        m.gauge_set("cache.bytes", 4606.0);
        m.gauge_set("trace.bytes", 128.0);
        let gauges = m.to_json_deterministic().get("gauges").unwrap().clone();
        assert_eq!(gauges.get("cache.bytes").unwrap().as_f64(), Some(0.0));
        // No `bytes` suffix rule: other byte gauges keep their values.
        assert_eq!(gauges.get("trace.bytes").unwrap().as_f64(), Some(128.0));
        assert_eq!(m.gauge("cache.bytes"), Some(4606.0));
    }
}
