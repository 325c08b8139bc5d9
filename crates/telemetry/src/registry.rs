//! Named instrument registry.
//!
//! The registry is the *directory*, not the hot path: callers
//! register once at wiring time, through a catalog spec
//! (`registry.histogram(&catalog::SEARCH_QUERY_NS)`), keep the cloned
//! lock-free handle, and record through the handle forever after. The interior mutex is taken only at registration
//! and snapshot time. Registering the same `(name, labels)` pair
//! twice returns a handle to the same underlying instrument, so
//! independent components can share a series safely.
//!
//! Two deliberate non-panics (this crate sits under the same
//! panic-freedom lint as the serving crates):
//!
//! * a poisoned mutex is recovered with `into_inner` — instruments
//!   hold plain atomics, so there is no invariant a panicking peer
//!   could have broken half-way;
//! * registering a spec through the method of a *different*
//!   instrument kind, or re-registering a name under a different
//!   kind, returns a fresh detached instrument (recordable, but never
//!   exported) instead of panicking. That misuse is a wiring bug the
//!   exposition makes visible — the series goes missing — without
//!   ever taking down the serving path.

use std::collections::BTreeMap;
use std::sync::{Arc, Mutex};

use crate::catalog::{InstrumentKind, InstrumentSpec};
use crate::clock::{RealClock, SharedClock};
use crate::counter::{Counter, Gauge};
use crate::expose::{MetricSnapshot, MetricValue};
use crate::histogram::Histogram;
use crate::span::Stopwatch;

/// One series key: instrument name plus sorted `(label, value)`
/// pairs.
type SeriesKey = (String, Vec<(String, String)>);

#[derive(Debug, Clone)]
enum Instrument {
    Counter(Counter),
    Gauge(Gauge),
    Histogram(Histogram),
}

/// Each series' family spec and live instrument.
type Series = BTreeMap<SeriesKey, (&'static InstrumentSpec, Instrument)>;

/// A directory of named instruments sharing one injectable clock.
#[derive(Debug)]
pub struct Registry {
    clock: SharedClock,
    instruments: Mutex<Series>,
}

impl Default for Registry {
    fn default() -> Self {
        Self::new()
    }
}

impl Registry {
    /// Creates a registry on the production [`RealClock`].
    pub fn new() -> Self {
        Self::with_clock(Arc::new(RealClock::new()))
    }

    /// Creates a registry on an injected clock (tests use
    /// [`ManualClock`](crate::ManualClock)).
    pub fn with_clock(clock: SharedClock) -> Self {
        Self {
            clock,
            instruments: Mutex::new(BTreeMap::new()),
        }
    }

    /// The shared clock every span/stopwatch built from this
    /// registry reads.
    pub fn clock_handle(&self) -> SharedClock {
        Arc::clone(&self.clock)
    }

    /// Current reading of the registry clock, in nanoseconds.
    pub fn now_ns(&self) -> u64 {
        self.clock.now_ns()
    }

    /// A stopwatch started now on the registry clock.
    pub fn stopwatch(&self) -> Stopwatch {
        Stopwatch::start(self.clock_handle())
    }

    fn lock(&self) -> std::sync::MutexGuard<'_, Series> {
        match self.instruments.lock() {
            Ok(guard) => guard,
            // Instruments are plain atomics; a panicking registrant
            // cannot leave the map in a half-written state we care
            // about. Recover rather than propagate.
            Err(poisoned) => poisoned.into_inner(),
        }
    }

    fn series_key(name: &str, labels: &[(&str, &str)]) -> SeriesKey {
        let mut owned: Vec<(String, String)> = labels
            .iter()
            .map(|(k, v)| (k.to_string(), v.to_string()))
            .collect();
        owned.sort();
        (name.to_string(), owned)
    }

    /// Registers (or retrieves) the `(spec, labels)` series, built by
    /// `fresh` on first use. `None` when `kind` is not the spec's own
    /// kind: that misuse detaches, like any kind mismatch.
    fn register(
        &self,
        spec: &'static InstrumentSpec,
        labels: &[(&str, &str)],
        kind: InstrumentKind,
        fresh: impl FnOnce() -> Instrument,
    ) -> Option<Instrument> {
        if spec.kind != kind {
            return None;
        }
        let key = Self::series_key(spec.name, labels);
        let mut map = self.lock();
        let (_, instrument) = map.entry(key).or_insert_with(|| (spec, fresh()));
        Some(instrument.clone())
    }

    /// Registers (or retrieves) an unlabeled counter.
    pub fn counter(&self, spec: &'static InstrumentSpec) -> Counter {
        self.counter_with(spec, &[])
    }

    /// Registers (or retrieves) a counter with labels such as
    /// `[("shard", "3")]`.
    pub fn counter_with(&self, spec: &'static InstrumentSpec, labels: &[(&str, &str)]) -> Counter {
        let fresh = || Instrument::Counter(Counter::new());
        match self.register(spec, labels, InstrumentKind::Counter, fresh) {
            Some(Instrument::Counter(c)) => c,
            // Kind mismatch: see the module docs — detached, never
            // exported, never a panic.
            _ => Counter::new(),
        }
    }

    /// Registers (or retrieves) an unlabeled gauge.
    pub fn gauge(&self, spec: &'static InstrumentSpec) -> Gauge {
        self.gauge_with(spec, &[])
    }

    /// Registers (or retrieves) a labeled gauge.
    pub fn gauge_with(&self, spec: &'static InstrumentSpec, labels: &[(&str, &str)]) -> Gauge {
        let fresh = || Instrument::Gauge(Gauge::new());
        match self.register(spec, labels, InstrumentKind::Gauge, fresh) {
            Some(Instrument::Gauge(g)) => g,
            _ => Gauge::new(),
        }
    }

    /// Registers (or retrieves) an unlabeled histogram.
    pub fn histogram(&self, spec: &'static InstrumentSpec) -> Histogram {
        self.histogram_with(spec, &[])
    }

    /// Registers (or retrieves) a labeled histogram.
    pub fn histogram_with(
        &self,
        spec: &'static InstrumentSpec,
        labels: &[(&str, &str)],
    ) -> Histogram {
        let fresh = || Instrument::Histogram(Histogram::new());
        match self.register(spec, labels, InstrumentKind::Histogram, fresh) {
            Some(Instrument::Histogram(h)) => h,
            _ => Histogram::new(),
        }
    }

    /// Snapshots every registered series, sorted by name then
    /// labels (the map is a `BTreeMap`, so output order is stable).
    pub fn snapshot(&self) -> Vec<MetricSnapshot> {
        let map = self.lock();
        map.iter()
            .map(|((_, labels), (spec, instrument))| MetricSnapshot {
                spec,
                labels: labels.clone(),
                value: match instrument {
                    Instrument::Counter(c) => MetricValue::Counter(c.get()),
                    Instrument::Gauge(g) => MetricValue::Gauge(g.get()),
                    Instrument::Histogram(h) => MetricValue::Histogram(h.snapshot()),
                },
            })
            .collect()
    }

    /// Renders every series in the Prometheus-style text format.
    pub fn render_text(&self) -> String {
        crate::expose::render_text(&self.snapshot())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::clock::ManualClock;

    const fn counter_spec(name: &'static str) -> InstrumentSpec {
        InstrumentSpec {
            name,
            kind: InstrumentKind::Counter,
            labels: &["a", "b", "shard"],
            help: "Test counter.",
        }
    }
    const HITS: InstrumentSpec = counter_spec("hits");
    const ALPHA: InstrumentSpec = counter_spec("alpha");
    const ZETA: InstrumentSpec = counter_spec("zeta");
    const MIXED: InstrumentSpec = counter_spec("mixed");
    const MIXED_HISTOGRAM: InstrumentSpec = InstrumentSpec {
        kind: InstrumentKind::Histogram,
        ..MIXED
    };

    #[test]
    fn same_key_shares_the_instrument() {
        let registry = Registry::new();
        let a = registry.counter_with(&HITS, &[("shard", "0")]);
        let b = registry.counter_with(&HITS, &[("shard", "0")]);
        a.inc();
        b.inc();
        assert_eq!(a.get(), 2);
    }

    #[test]
    fn label_order_does_not_split_series() {
        let registry = Registry::new();
        let a = registry.counter_with(&HITS, &[("a", "1"), ("b", "2")]);
        let b = registry.counter_with(&HITS, &[("b", "2"), ("a", "1")]);
        a.inc();
        assert_eq!(b.get(), 1);
    }

    #[test]
    fn different_labels_are_different_series() {
        let registry = Registry::new();
        let a = registry.counter_with(&HITS, &[("shard", "0")]);
        let b = registry.counter_with(&HITS, &[("shard", "1")]);
        a.inc();
        assert_eq!(b.get(), 0);
        assert_eq!(registry.snapshot().len(), 2);
    }

    #[test]
    fn kind_mismatch_detaches_instead_of_panicking() {
        let registry = Registry::new();
        let c = registry.counter(&MIXED);
        c.add(7);
        let h = registry.histogram(&MIXED);
        h.record(1); // goes nowhere visible, but must not panic
                     // The same name under a histogram spec detaches too.
        registry.histogram(&MIXED_HISTOGRAM).record(1);
        let snaps = registry.snapshot();
        assert_eq!(snaps.len(), 1);
        assert!(matches!(snaps[0].value, MetricValue::Counter(7)));
    }

    #[test]
    fn injected_clock_drives_now_ns() {
        let clock = Arc::new(ManualClock::new());
        let registry = Registry::with_clock(clock.clone());
        assert_eq!(registry.now_ns(), 0);
        clock.advance(42);
        assert_eq!(registry.now_ns(), 42);
    }

    #[test]
    fn snapshot_order_is_stable() {
        let registry = Registry::new();
        registry.counter(&ZETA);
        registry.counter(&ALPHA);
        registry.counter_with(&ALPHA, &[("shard", "1")]);
        let names: Vec<String> = registry
            .snapshot()
            .into_iter()
            .map(|s| {
                let labels: Vec<String> =
                    s.labels.iter().map(|(k, v)| format!("{k}={v}")).collect();
                format!("{}[{}]", s.spec.name, labels.join(","))
            })
            .collect();
        assert_eq!(names, ["alpha[]", "alpha[shard=1]", "zeta[]"]);
    }
}
