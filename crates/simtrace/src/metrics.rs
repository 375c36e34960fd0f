//! A lightweight metrics registry: counters, gauges and histograms with
//! labels, exported as a deterministic JSON snapshot.
//!
//! Handles ([`Counter`], [`Gauge`], [`Hist`]) are cheap `Arc`-backed
//! atomics that instrumented code holds directly — the hot path is one
//! relaxed atomic op, no lookup, no lock. The registry only keeps the
//! name/label metadata needed to render snapshots. Handles created with
//! `*::detached()` update a private cell that no snapshot observes, so
//! instrumentation can be threaded unconditionally and wired to a
//! registry only when observability is wanted.

use crate::json;
use std::sync::atomic::{AtomicI64, AtomicU64, Ordering};
use std::sync::{Arc, Mutex};

/// A monotonically increasing counter.
#[derive(Debug, Clone)]
pub struct Counter(Arc<AtomicU64>);

impl Counter {
    /// A counter not connected to any registry (updates are kept but
    /// never exported).
    pub fn detached() -> Self {
        Counter(Arc::new(AtomicU64::new(0)))
    }

    /// Add one.
    #[inline]
    pub fn inc(&self) {
        self.add(1);
    }

    /// Add `n`.
    #[inline]
    pub fn add(&self, n: u64) {
        self.0.fetch_add(n, Ordering::Relaxed);
    }

    /// Current value.
    pub fn get(&self) -> u64 {
        self.0.load(Ordering::Relaxed)
    }
}

/// A gauge holding the latest sampled value, tracking the maximum ever
/// set (the watermark).
#[derive(Debug, Clone)]
pub struct Gauge {
    value: Arc<AtomicI64>,
    peak: Arc<AtomicI64>,
}

impl Gauge {
    /// A gauge not connected to any registry.
    pub fn detached() -> Self {
        Gauge {
            value: Arc::new(AtomicI64::new(0)),
            peak: Arc::new(AtomicI64::new(i64::MIN)),
        }
    }

    /// Set the current value (also advances the watermark).
    #[inline]
    pub fn set(&self, v: i64) {
        self.value.store(v, Ordering::Relaxed);
        self.peak.fetch_max(v, Ordering::Relaxed);
    }

    /// Current value.
    pub fn get(&self) -> i64 {
        self.value.load(Ordering::Relaxed)
    }

    /// Largest value ever set (0 if never set).
    pub fn peak(&self) -> i64 {
        let p = self.peak.load(Ordering::Relaxed);
        if p == i64::MIN {
            0
        } else {
            p
        }
    }
}

/// Histogram over `u64` samples with power-of-two buckets: bucket `i`
/// counts samples whose value needs exactly `i` significant bits
/// (bucket 0 holds the value 0). Exact count/sum/min/max on the side.
#[derive(Debug)]
struct HistCell {
    buckets: [AtomicU64; 65],
    count: AtomicU64,
    sum: AtomicU64,
    min: AtomicU64,
    max: AtomicU64,
}

/// A histogram handle.
#[derive(Debug, Clone)]
pub struct Hist(Arc<HistCell>);

impl Hist {
    /// A histogram not connected to any registry.
    pub fn detached() -> Self {
        Hist(Arc::new(HistCell {
            buckets: std::array::from_fn(|_| AtomicU64::new(0)),
            count: AtomicU64::new(0),
            sum: AtomicU64::new(0),
            min: AtomicU64::new(u64::MAX),
            max: AtomicU64::new(0),
        }))
    }

    /// Record one sample.
    #[inline]
    pub fn record(&self, v: u64) {
        self.record_n(v, 1);
    }

    /// Record `n` samples of the same value `v`.
    #[inline]
    pub fn record_n(&self, v: u64, n: u64) {
        if n == 0 {
            return;
        }
        let idx = 64 - v.leading_zeros() as usize;
        let c = &self.0;
        c.buckets[idx].fetch_add(n, Ordering::Relaxed);
        c.count.fetch_add(n, Ordering::Relaxed);
        c.sum.fetch_add(v.wrapping_mul(n), Ordering::Relaxed);
        c.min.fetch_min(v, Ordering::Relaxed);
        c.max.fetch_max(v, Ordering::Relaxed);
    }

    /// Number of samples.
    pub fn count(&self) -> u64 {
        self.0.count.load(Ordering::Relaxed)
    }

    /// Mean of all samples (0 when empty).
    pub fn mean(&self) -> f64 {
        let n = self.count();
        if n == 0 {
            0.0
        } else {
            self.0.sum.load(Ordering::Relaxed) as f64 / n as f64
        }
    }

    /// A consistent point-in-time copy of the histogram, including the
    /// per-bucket boundaries/counts a percentile needs.
    pub fn snapshot(&self) -> HistSnapshot {
        let c = &self.0;
        let count = c.count.load(Ordering::Relaxed);
        let buckets = c
            .buckets
            .iter()
            .enumerate()
            .filter_map(|(b, cell)| {
                let n = cell.load(Ordering::Relaxed);
                (n > 0).then_some((bucket_le(b), n))
            })
            .collect();
        HistSnapshot {
            count,
            sum: c.sum.load(Ordering::Relaxed),
            min: if count > 0 {
                c.min.load(Ordering::Relaxed)
            } else {
                0
            },
            max: c.max.load(Ordering::Relaxed),
            buckets,
        }
    }
}

/// Inclusive upper bound of power-of-two bucket `b` (bucket 0 holds the
/// value 0; bucket 64 holds everything above `u64::MAX / 2`).
fn bucket_le(b: usize) -> u64 {
    if b == 0 {
        0
    } else if b >= 64 {
        u64::MAX
    } else {
        (1u64 << b) - 1
    }
}

/// A detached, analyzable copy of one histogram: exact count/sum/min/max
/// plus the occupied power-of-two buckets as `(le, count)` pairs
/// (`le` = inclusive upper bound). This is what `snapshot_json` renders,
/// so a consumer holding only the JSON can rebuild it
/// ([`MetricsSnapshot::from_json`]) and compute percentiles without the
/// live registry.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct HistSnapshot {
    /// Number of samples.
    pub count: u64,
    /// Sum of all samples.
    pub sum: u64,
    /// Smallest sample (0 when empty).
    pub min: u64,
    /// Largest sample (0 when empty).
    pub max: u64,
    /// Occupied buckets, ascending by `le`: `(inclusive upper bound,
    /// samples in bucket)`.
    pub buckets: Vec<(u64, u64)>,
}

impl HistSnapshot {
    /// The value at quantile `q` (0.0 ..= 1.0), resolved to the upper
    /// bound of the bucket holding that sample — a conservative
    /// (over-)estimate, exact for `q = 1.0` (returns `max`) and tight
    /// within one power of two elsewhere. Returns 0 on an empty
    /// histogram.
    pub fn percentile(&self, q: f64) -> u64 {
        if self.count == 0 {
            return 0;
        }
        let q = q.clamp(0.0, 1.0);
        // Rank of the target sample, 1-based.
        let rank = ((q * self.count as f64).ceil() as u64).max(1);
        let mut seen = 0u64;
        for &(le, n) in &self.buckets {
            seen += n;
            if seen >= rank {
                // The top bucket's bound is the exact max.
                return le.min(self.max);
            }
        }
        self.max
    }

    /// Mean of all samples (0 when empty).
    pub fn mean(&self) -> f64 {
        if self.count == 0 {
            0.0
        } else {
            self.sum as f64 / self.count as f64
        }
    }
}

/// One metric's identity in a [`MetricsSnapshot`]: name plus sorted
/// `key=value` labels.
#[derive(Debug, Clone, PartialEq, Eq, PartialOrd, Ord)]
pub struct SeriesId {
    /// Metric name (e.g. `kernel.evals`).
    pub name: String,
    /// Sorted label pairs.
    pub labels: Vec<(String, String)>,
}

/// A detached point-in-time copy of a whole [`Registry`], deterministic
/// ordering (sorted by name, then labels). [`Registry::snapshot`]
/// produces it; [`MetricsSnapshot::from_json`] rebuilds one from a
/// `snapshot_json` document.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct MetricsSnapshot {
    /// Counter series and their values.
    pub counters: Vec<(SeriesId, u64)>,
    /// Gauge series: `(id, value, peak)`.
    pub gauges: Vec<(SeriesId, i64, i64)>,
    /// Histogram series.
    pub hists: Vec<(SeriesId, HistSnapshot)>,
}

impl MetricsSnapshot {
    /// Value of the counter `name` with `labels`, if present.
    pub fn counter(&self, name: &str, labels: &[(&str, String)]) -> Option<u64> {
        let id = series_id(name, labels);
        self.counters
            .iter()
            .find(|(i, _)| *i == id)
            .map(|&(_, v)| v)
    }

    /// Value of the gauge `name` with `labels`, if present.
    pub fn gauge(&self, name: &str, labels: &[(&str, String)]) -> Option<i64> {
        let id = series_id(name, labels);
        self.gauges
            .iter()
            .find(|(i, _, _)| *i == id)
            .map(|&(_, v, _)| v)
    }

    /// The histogram `name` with `labels`, if present.
    pub fn hist(&self, name: &str, labels: &[(&str, String)]) -> Option<&HistSnapshot> {
        let id = series_id(name, labels);
        self.hists.iter().find(|(i, _)| *i == id).map(|(_, h)| h)
    }

    /// Rebuild a snapshot from a [`Registry::snapshot_json`] document,
    /// so percentiles and diffs can be computed offline.
    pub fn from_json(s: &str) -> Result<Self, String> {
        let doc = json::parse(s)?;
        let id_of = |v: &json::JsonValue| -> Result<SeriesId, String> {
            let name = v
                .get("name")
                .and_then(json::JsonValue::str)
                .ok_or("series missing name")?
                .to_string();
            let mut labels = Vec::new();
            if let Some(json::JsonValue::Obj(members)) = v.get("labels") {
                for (k, lv) in members {
                    labels.push((
                        k.clone(),
                        lv.str().ok_or("non-string label value")?.to_string(),
                    ));
                }
            }
            Ok(SeriesId { name, labels })
        };
        let num = |v: &json::JsonValue, key: &str| -> Result<f64, String> {
            v.get(key)
                .and_then(json::JsonValue::num)
                .ok_or_else(|| format!("series missing {key}"))
        };
        let mut snap = MetricsSnapshot::default();
        for c in doc
            .get("counters")
            .and_then(json::JsonValue::items)
            .unwrap_or(&[])
        {
            snap.counters.push((id_of(c)?, num(c, "value")? as u64));
        }
        for g in doc
            .get("gauges")
            .and_then(json::JsonValue::items)
            .unwrap_or(&[])
        {
            snap.gauges
                .push((id_of(g)?, num(g, "value")? as i64, num(g, "peak")? as i64));
        }
        for h in doc
            .get("histograms")
            .and_then(json::JsonValue::items)
            .unwrap_or(&[])
        {
            let mut hist = HistSnapshot {
                count: num(h, "count")? as u64,
                sum: num(h, "sum")? as u64,
                min: h.get("min").and_then(json::JsonValue::u64).unwrap_or(0),
                max: h.get("max").and_then(json::JsonValue::u64).unwrap_or(0),
                buckets: Vec::new(),
            };
            for b in h
                .get("buckets")
                .and_then(json::JsonValue::items)
                .unwrap_or(&[])
            {
                hist.buckets
                    .push((num(b, "le")? as u64, num(b, "count")? as u64));
            }
            snap.hists.push((id_of(h)?, hist));
        }
        Ok(snap)
    }
}

fn series_id(name: &str, labels: &[(&str, String)]) -> SeriesId {
    let mut labels: Vec<(String, String)> = labels
        .iter()
        .map(|(k, v)| (k.to_string(), v.clone()))
        .collect();
    labels.sort();
    SeriesId {
        name: name.to_string(),
        labels,
    }
}

/// A metric's identity: name plus sorted `key=value` labels.
#[derive(Debug, Clone, PartialEq, Eq, PartialOrd, Ord)]
struct MetricId {
    name: String,
    labels: Vec<(String, String)>,
}

impl MetricId {
    fn new(name: &str, labels: &[(&str, String)]) -> Self {
        let mut labels: Vec<(String, String)> = labels
            .iter()
            .map(|(k, v)| (k.to_string(), v.clone()))
            .collect();
        labels.sort();
        MetricId {
            name: name.to_string(),
            labels,
        }
    }

    fn write_json(&self, out: &mut String) {
        out.push_str("{\"name\":");
        json::write_str(out, &self.name);
        if !self.labels.is_empty() {
            out.push_str(",\"labels\":{");
            for (i, (k, v)) in self.labels.iter().enumerate() {
                if i > 0 {
                    out.push(',');
                }
                json::write_str(out, k);
                out.push(':');
                json::write_str(out, v);
            }
            out.push('}');
        }
    }
}

#[derive(Default)]
struct RegistryInner {
    counters: Vec<(MetricId, Counter)>,
    gauges: Vec<(MetricId, Gauge)>,
    hists: Vec<(MetricId, Hist)>,
}

/// The metrics registry. Cloning shares the underlying store.
#[derive(Clone, Default)]
pub struct Registry {
    inner: Arc<Mutex<RegistryInner>>,
}

impl Registry {
    /// An empty registry.
    pub fn new() -> Self {
        Self::default()
    }

    /// Get or register the counter `name` with `labels`. Repeated calls
    /// with the same identity return handles to the same counter.
    pub fn counter(&self, name: &str, labels: &[(&str, String)]) -> Counter {
        let id = MetricId::new(name, labels);
        let mut inner = self
            .inner
            .lock()
            .unwrap_or_else(std::sync::PoisonError::into_inner);
        if let Some((_, c)) = inner.counters.iter().find(|(i, _)| *i == id) {
            return c.clone();
        }
        let c = Counter::detached();
        inner.counters.push((id, c.clone()));
        c
    }

    /// Get or register the gauge `name` with `labels`.
    pub fn gauge(&self, name: &str, labels: &[(&str, String)]) -> Gauge {
        let id = MetricId::new(name, labels);
        let mut inner = self
            .inner
            .lock()
            .unwrap_or_else(std::sync::PoisonError::into_inner);
        if let Some((_, g)) = inner.gauges.iter().find(|(i, _)| *i == id) {
            return g.clone();
        }
        let g = Gauge::detached();
        inner.gauges.push((id, g.clone()));
        g
    }

    /// Get or register the histogram `name` with `labels`.
    pub fn hist(&self, name: &str, labels: &[(&str, String)]) -> Hist {
        let id = MetricId::new(name, labels);
        let mut inner = self
            .inner
            .lock()
            .unwrap_or_else(std::sync::PoisonError::into_inner);
        if let Some((_, h)) = inner.hists.iter().find(|(i, _)| *i == id) {
            return h.clone();
        }
        let h = Hist::detached();
        inner.hists.push((id, h.clone()));
        h
    }

    /// Render a deterministic JSON snapshot of every registered metric
    /// (sorted by name, then labels).
    pub fn snapshot_json(&self) -> String {
        let inner = self
            .inner
            .lock()
            .unwrap_or_else(std::sync::PoisonError::into_inner);
        let mut out = String::with_capacity(4096);
        out.push_str("{\"counters\":[");
        let mut counters: Vec<_> = inner.counters.iter().collect();
        counters.sort_by(|a, b| a.0.cmp(&b.0));
        for (i, (id, c)) in counters.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            id.write_json(&mut out);
            out.push_str(",\"value\":");
            out.push_str(&c.get().to_string());
            out.push('}');
        }
        out.push_str("],\"gauges\":[");
        let mut gauges: Vec<_> = inner.gauges.iter().collect();
        gauges.sort_by(|a, b| a.0.cmp(&b.0));
        for (i, (id, g)) in gauges.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            id.write_json(&mut out);
            out.push_str(",\"value\":");
            out.push_str(&g.get().to_string());
            out.push_str(",\"peak\":");
            out.push_str(&g.peak().to_string());
            out.push('}');
        }
        out.push_str("],\"histograms\":[");
        let mut hists: Vec<_> = inner.hists.iter().collect();
        hists.sort_by(|a, b| a.0.cmp(&b.0));
        for (i, (id, h)) in hists.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            id.write_json(&mut out);
            let count = h.count();
            out.push_str(",\"count\":");
            out.push_str(&count.to_string());
            out.push_str(",\"sum\":");
            out.push_str(&h.0.sum.load(Ordering::Relaxed).to_string());
            if count > 0 {
                out.push_str(",\"min\":");
                out.push_str(&h.0.min.load(Ordering::Relaxed).to_string());
                out.push_str(",\"max\":");
                out.push_str(&h.0.max.load(Ordering::Relaxed).to_string());
            }
            out.push_str(",\"buckets\":[");
            let mut first = true;
            for (b, cell) in h.0.buckets.iter().enumerate() {
                let n = cell.load(Ordering::Relaxed);
                if n > 0 {
                    if !first {
                        out.push(',');
                    }
                    first = false;
                    // Upper bound of the power-of-two bucket (inclusive).
                    let le = if b == 0 { 0 } else { (1u128 << b) - 1 };
                    out.push_str("{\"le\":");
                    out.push_str(&le.to_string());
                    out.push_str(",\"count\":");
                    out.push_str(&n.to_string());
                    out.push('}');
                }
            }
            out.push_str("]}");
        }
        out.push_str("]}");
        out
    }

    /// A typed point-in-time copy of every registered metric, in the
    /// same deterministic order as [`Registry::snapshot_json`]. Unlike
    /// the JSON string this keeps histogram buckets directly
    /// addressable, so percentiles come for free.
    pub fn snapshot(&self) -> MetricsSnapshot {
        let inner = self
            .inner
            .lock()
            .unwrap_or_else(std::sync::PoisonError::into_inner);
        let to_series = |id: &MetricId| SeriesId {
            name: id.name.clone(),
            labels: id.labels.clone(),
        };
        let mut snap = MetricsSnapshot::default();
        let mut counters: Vec<_> = inner.counters.iter().collect();
        counters.sort_by(|a, b| a.0.cmp(&b.0));
        for (id, c) in counters {
            snap.counters.push((to_series(id), c.get()));
        }
        let mut gauges: Vec<_> = inner.gauges.iter().collect();
        gauges.sort_by(|a, b| a.0.cmp(&b.0));
        for (id, g) in gauges {
            snap.gauges.push((to_series(id), g.get(), g.peak()));
        }
        let mut hists: Vec<_> = inner.hists.iter().collect();
        hists.sort_by(|a, b| a.0.cmp(&b.0));
        for (id, h) in hists {
            snap.hists.push((to_series(id), h.snapshot()));
        }
        snap
    }

    /// Write the snapshot to a file.
    pub fn write_snapshot(&self, path: &std::path::Path) -> std::io::Result<()> {
        std::fs::write(path, self.snapshot_json())
    }

    /// Number of registered metrics (all kinds).
    pub fn len(&self) -> usize {
        let inner = self
            .inner
            .lock()
            .unwrap_or_else(std::sync::PoisonError::into_inner);
        inner.counters.len() + inner.gauges.len() + inner.hists.len()
    }

    /// True when nothing is registered.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Current value of a registered counter (tests and reports).
    pub fn counter_value(&self, name: &str, labels: &[(&str, String)]) -> Option<u64> {
        let id = MetricId::new(name, labels);
        let inner = self
            .inner
            .lock()
            .unwrap_or_else(std::sync::PoisonError::into_inner);
        inner
            .counters
            .iter()
            .find(|(i, _)| *i == id)
            .map(|(_, c)| c.get())
    }

    /// Current value of a registered gauge.
    pub fn gauge_value(&self, name: &str, labels: &[(&str, String)]) -> Option<i64> {
        let id = MetricId::new(name, labels);
        let inner = self
            .inner
            .lock()
            .unwrap_or_else(std::sync::PoisonError::into_inner);
        inner
            .gauges
            .iter()
            .find(|(i, _)| *i == id)
            .map(|(_, g)| g.get())
    }
}

/// Format a `usize`-like label value (convenience for per-node/per-VC
/// label construction).
pub fn lbl(v: impl ToString) -> String {
    v.to_string()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn counter_identity_is_shared() {
        let r = Registry::new();
        let a = r.counter("evals", &[("engine", lbl("dyn"))]);
        let b = r.counter("evals", &[("engine", lbl("dyn"))]);
        a.add(3);
        b.inc();
        assert_eq!(a.get(), 4);
        assert_eq!(r.counter_value("evals", &[("engine", lbl("dyn"))]), Some(4));
        assert_eq!(r.len(), 1);
    }

    #[test]
    fn gauge_tracks_watermark() {
        let g = Gauge::detached();
        g.set(5);
        g.set(12);
        g.set(3);
        assert_eq!(g.get(), 3);
        assert_eq!(g.peak(), 12);
    }

    #[test]
    fn hist_buckets_and_stats() {
        let h = Hist::detached();
        for v in [0u64, 1, 2, 3, 800] {
            h.record(v);
        }
        assert_eq!(h.count(), 5);
        assert!((h.mean() - 161.2).abs() < 1e-9);
    }

    #[test]
    fn record_n_matches_repeated_records() {
        let (a, b) = (Hist::detached(), Hist::detached());
        for _ in 0..7 {
            a.record(36);
        }
        b.record_n(36, 7);
        b.record_n(5, 0);
        assert_eq!(a.snapshot(), b.snapshot());
    }

    #[test]
    fn hist_snapshot_carries_buckets_and_percentiles() {
        let h = Hist::detached();
        for v in 1..=1000u64 {
            h.record(v);
        }
        let s = h.snapshot();
        assert_eq!(s.count, 1000);
        assert_eq!(s.min, 1);
        assert_eq!(s.max, 1000);
        assert_eq!(s.buckets.iter().map(|&(_, n)| n).sum::<u64>(), 1000);
        // Bucket bounds are inclusive powers of two minus one.
        assert!(s.buckets.iter().any(|&(le, _)| le == 1023));
        // p50 of 1..=1000 lives in the 512..=1023 bucket.
        assert_eq!(s.percentile(0.5), 511);
        assert_eq!(s.percentile(1.0), 1000);
        assert_eq!(s.percentile(0.0), 1);
        assert_eq!(HistSnapshot::default().percentile(0.9), 0);
    }

    #[test]
    fn typed_snapshot_round_trips_through_json() {
        let r = Registry::new();
        r.counter("kernel.evals", &[("engine", lbl("seqsim"))])
            .add(42);
        r.gauge("occ", &[("node", lbl(3))]).set(7);
        r.gauge("occ", &[("node", lbl(3))]).set(2);
        let h = r.hist("lat \"q\"", &[]);
        h.record(0);
        h.record(900);
        r.hist("empty", &[]); // registered, never recorded

        let typed = r.snapshot();
        let parsed = MetricsSnapshot::from_json(&r.snapshot_json()).expect("parse");
        assert_eq!(typed, parsed);

        assert_eq!(
            parsed.counter("kernel.evals", &[("engine", lbl("seqsim"))]),
            Some(42)
        );
        assert_eq!(parsed.gauge("occ", &[("node", lbl(3))]), Some(2));
        let lat = parsed.hist("lat \"q\"", &[]).expect("hist present");
        assert_eq!(lat.count, 2);
        assert_eq!(lat.max, 900);
        assert_eq!(lat.percentile(1.0), 900);
        assert_eq!(parsed.hist("empty", &[]).map(|h| h.count), Some(0));
        assert_eq!(parsed.hist("missing", &[]), None);
    }

    #[test]
    fn snapshot_is_valid_and_deterministic() {
        let r = Registry::new();
        r.counter("z.last", &[]).add(9);
        r.counter("a.first", &[("node", lbl(3)), ("vc", lbl(1))])
            .inc();
        r.gauge("occ", &[("node", lbl(0))]).set(7);
        r.hist("lat", &[]).record(1000);
        let s1 = r.snapshot_json();
        let s2 = r.snapshot_json();
        assert_eq!(s1, s2);
        crate::json::validate(&s1).expect("snapshot must be valid JSON");
        // Sorted: a.first before z.last.
        assert!(s1.find("a.first").unwrap() < s1.find("z.last").unwrap());
        assert!(s1.contains("\"peak\":7"));
        assert!(s1.contains("\"le\":1023"));
    }

    #[test]
    fn detached_metrics_never_reach_snapshots() {
        let r = Registry::new();
        let c = Counter::detached();
        c.add(100);
        assert!(r.is_empty());
        assert!(!r.snapshot_json().contains("100"));
    }
}
