//! The metric registry: named counters, gauges and histograms with
//! register-or-get handles and mergeable whole-registry snapshots.
//!
//! Handles are `Arc`s resolved **once** (at plane construction) and
//! then bumped lock-free on the hot path; the registry's interior lock
//! is only taken to register a new name or to snapshot. Names are flat
//! dotted strings (`"queryplane.exec_ns.top_k"`), ordered — and
//! therefore diffed and wire-encoded — by `BTreeMap`.

use std::collections::BTreeMap;
use std::sync::atomic::{AtomicI64, AtomicU64, Ordering};
use std::sync::{Arc, RwLock};

use crate::hist::{Histogram, HistogramSnapshot};
use crate::trace::Tracer;

/// A monotone atomic counter. Shared by `Arc`; all ops are `&self`.
#[derive(Debug, Default)]
pub struct Counter(AtomicU64);

impl Counter {
    pub fn new() -> Counter {
        Counter(AtomicU64::new(0))
    }

    /// Adds 1.
    #[inline]
    pub fn inc(&self) {
        self.add(1);
    }

    /// Adds `n`.
    #[inline]
    pub fn add(&self, n: u64) {
        self.0.fetch_add(n, Ordering::Relaxed);
    }

    /// Current value.
    #[inline]
    pub fn get(&self) -> u64 {
        self.0.load(Ordering::Relaxed)
    }
}

/// A signed instantaneous gauge (queue depths, connection counts).
#[derive(Debug, Default)]
pub struct Gauge(AtomicI64);

impl Gauge {
    pub fn new() -> Gauge {
        Gauge(AtomicI64::new(0))
    }

    #[inline]
    pub fn set(&self, v: i64) {
        self.0.store(v, Ordering::Relaxed);
    }

    #[inline]
    pub fn add(&self, d: i64) {
        self.0.fetch_add(d, Ordering::Relaxed);
    }

    #[inline]
    pub fn get(&self) -> i64 {
        self.0.load(Ordering::Relaxed)
    }
}

/// One process-local registry of named metrics plus an embedded span
/// [`Tracer`]. Each plane owns (or shares) one behind an `Arc`.
#[derive(Debug, Default)]
pub struct MetricsRegistry {
    counters: RwLock<BTreeMap<String, Arc<Counter>>>,
    gauges: RwLock<BTreeMap<String, Arc<Gauge>>>,
    hists: RwLock<BTreeMap<String, Arc<Histogram>>>,
    tracer: Tracer,
}

impl MetricsRegistry {
    pub fn new() -> MetricsRegistry {
        MetricsRegistry::default()
    }

    /// Register-or-get the counter called `name`.
    pub fn counter(&self, name: &str) -> Arc<Counter> {
        if let Some(c) = self.counters.read().unwrap().get(name) {
            return Arc::clone(c);
        }
        let mut w = self.counters.write().unwrap();
        Arc::clone(
            w.entry(name.to_string())
                .or_insert_with(|| Arc::new(Counter::new())),
        )
    }

    /// Register-or-get the gauge called `name`.
    pub fn gauge(&self, name: &str) -> Arc<Gauge> {
        if let Some(g) = self.gauges.read().unwrap().get(name) {
            return Arc::clone(g);
        }
        let mut w = self.gauges.write().unwrap();
        Arc::clone(
            w.entry(name.to_string())
                .or_insert_with(|| Arc::new(Gauge::new())),
        )
    }

    /// Register-or-get the histogram called `name` (default precision).
    pub fn histogram(&self, name: &str) -> Arc<Histogram> {
        if let Some(h) = self.hists.read().unwrap().get(name) {
            return Arc::clone(h);
        }
        let mut w = self.hists.write().unwrap();
        Arc::clone(
            w.entry(name.to_string())
                .or_insert_with(|| Arc::new(Histogram::new())),
        )
    }

    /// The embedded span tracer.
    pub fn tracer(&self) -> &Tracer {
        &self.tracer
    }

    /// Captures every registered metric into one mergeable, orderable,
    /// wire-encodable value.
    pub fn snapshot(&self) -> RegistrySnapshot {
        let counters = self
            .counters
            .read()
            .unwrap()
            .iter()
            .map(|(k, v)| (k.clone(), v.get()))
            .collect();
        let gauges = self
            .gauges
            .read()
            .unwrap()
            .iter()
            .map(|(k, v)| (k.clone(), v.get()))
            .collect();
        let hists = self
            .hists
            .read()
            .unwrap()
            .iter()
            .map(|(k, v)| (k.clone(), v.snapshot()))
            .collect();
        RegistrySnapshot {
            counters,
            gauges,
            hists,
        }
    }
}

/// A point-in-time view of a whole [`MetricsRegistry`]. This is the
/// payload of a `StatsScrape` reply; [`RegistrySnapshot::merge`] folds
/// per-shard scrapes into cluster totals.
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub struct RegistrySnapshot {
    pub counters: BTreeMap<String, u64>,
    pub gauges: BTreeMap<String, i64>,
    pub hists: BTreeMap<String, HistogramSnapshot>,
}

impl RegistrySnapshot {
    /// The named counter's value (0 if absent).
    pub fn counter(&self, name: &str) -> u64 {
        self.counters.get(name).copied().unwrap_or(0)
    }

    /// The named histogram's snapshot, if recorded.
    pub fn hist(&self, name: &str) -> Option<&HistogramSnapshot> {
        self.hists.get(name)
    }

    /// Folds `other` into `self`: counters add, gauges add (a summed
    /// gauge reads as a cluster total), histograms bucket-merge.
    pub fn merge(&mut self, other: &RegistrySnapshot) {
        for (k, v) in &other.counters {
            *self.counters.entry(k.clone()).or_insert(0) += v;
        }
        for (k, v) in &other.gauges {
            *self.gauges.entry(k.clone()).or_insert(0) += v;
        }
        for (k, v) in &other.hists {
            self.hists.entry(k.clone()).or_default().merge(v);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn register_or_get_returns_same_instance() {
        let r = MetricsRegistry::new();
        let a = r.counter("x");
        let b = r.counter("x");
        a.add(3);
        b.inc();
        assert_eq!(a.get(), 4);
        assert_eq!(r.snapshot().counter("x"), 4);
    }

    #[test]
    fn snapshot_merge_adds_counters_and_hists() {
        let r1 = MetricsRegistry::new();
        let r2 = MetricsRegistry::new();
        r1.counter("c").add(2);
        r2.counter("c").add(5);
        r1.histogram("h").record(10);
        r2.histogram("h").record(20);
        r2.gauge("g").set(-3);
        let mut m = r1.snapshot();
        m.merge(&r2.snapshot());
        assert_eq!(m.counter("c"), 7);
        assert_eq!(m.gauges["g"], -3);
        assert_eq!(m.hist("h").unwrap().count, 2);
        assert_eq!(m.hist("h").unwrap().max, 20);
    }
}
