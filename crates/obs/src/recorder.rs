//! The [`Recorder`] handle, RAII [`Span`] timers, and [`Snapshot`]s.

use std::collections::BTreeMap;
use std::sync::atomic::{AtomicBool, AtomicI64, AtomicU64, Ordering};
use std::sync::{Arc, Mutex};
use std::time::Instant;

use crate::alerts::Alerts;
use crate::alloc::{self, AllocPhase, PhaseGuard, PhaseTotals, ALLOC_PHASES};
use crate::log::Logger;
use crate::metrics::{Counter, Gauge, Histogram, HistogramCells, HistogramSnapshot, BUCKETS};
use crate::spans::{SpanEventGuard, SpanLog};
use crate::timeseries::TimeSeries;

/// A metric's identity: family name plus at most one `key="value"`
/// label pair. Ordered, so registries and exports are deterministic.
#[derive(Debug, Clone, PartialEq, Eq, PartialOrd, Ord)]
pub struct MetricKey {
    /// Family name, e.g. `round_phase_seconds`.
    pub name: String,
    /// Optional label, e.g. `("phase", "pricing")`.
    pub label: Option<(String, String)>,
}

impl MetricKey {
    fn new(name: &str, label: Option<(&str, &str)>) -> Self {
        MetricKey { name: name.to_owned(), label: label.map(|(k, v)| (k.to_owned(), v.to_owned())) }
    }
}

#[derive(Debug, Default)]
struct Registry {
    counters: Mutex<BTreeMap<MetricKey, Arc<AtomicU64>>>,
    gauges: Mutex<BTreeMap<MetricKey, Arc<AtomicI64>>>,
    histograms: Mutex<BTreeMap<MetricKey, Arc<HistogramCells>>>,
    /// Live-telemetry attachments (PR 5). Each is `None` until the
    /// owning layer opts in; clones of the recorder see the same
    /// attachments because they share the registry.
    span_log: Mutex<Option<Arc<SpanLog>>>,
    timeseries: Mutex<Option<TimeSeries>>,
    alerts: Mutex<Option<Alerts>>,
    logger: Mutex<Option<Logger>>,
    /// Whether this registry profiles the global allocator. While true,
    /// spans and explicit [`Recorder::alloc_phase`] calls tag the
    /// current thread and [`Recorder::sample_alloc`] folds stat deltas
    /// into the registry.
    alloc_profile: AtomicBool,
    /// Cumulative per-phase allocator totals as of the last
    /// [`Recorder::sample_alloc`] (seeded at enable time so only
    /// allocations made under this registry's profile are counted).
    /// Delta computation runs under this mutex, so several engines
    /// sampling the same shared registry stay exact: the folded
    /// counters always equal cumulative-now minus the enable baseline.
    alloc_sync: Mutex<[PhaseTotals; ALLOC_PHASES]>,
}

impl Drop for Registry {
    fn drop(&mut self) {
        if self.alloc_profile.load(Ordering::SeqCst) {
            alloc::disable_tracking();
        }
    }
}

/// The instrumentation handle that threads through the simulator.
///
/// `Recorder::disabled()` (also [`Default`]) is a true no-op: the
/// instruments it hands out hold no storage, record nothing and never
/// read the clock. `Recorder::enabled()` allocates a registry; clones
/// share it, so handing the same recorder to several worker threads
/// aggregates their metrics automatically.
#[derive(Clone, Debug, Default)]
pub struct Recorder {
    registry: Option<Arc<Registry>>,
}

impl Recorder {
    /// The no-op recorder.
    #[must_use]
    pub fn disabled() -> Self {
        Recorder { registry: None }
    }

    /// A live recorder with an empty registry.
    #[must_use]
    pub fn enabled() -> Self {
        Recorder { registry: Some(Arc::new(Registry::default())) }
    }

    /// Whether instruments handed out by this recorder actually record.
    #[must_use]
    pub fn is_enabled(&self) -> bool {
        self.registry.is_some()
    }

    /// The counter named `name` (registered on first use).
    #[must_use]
    pub fn counter(&self, name: &str) -> Counter {
        self.counter_labeled(name, None)
    }

    /// The counter named `name` with one `key="value"` label.
    #[must_use]
    pub fn counter_with(&self, name: &str, key: &str, value: &str) -> Counter {
        self.counter_labeled(name, Some((key, value)))
    }

    fn counter_labeled(&self, name: &str, label: Option<(&str, &str)>) -> Counter {
        match &self.registry {
            None => Counter::disabled(),
            Some(registry) => {
                let mut map = registry.counters.lock().expect("counter registry poisoned");
                let cell =
                    map.entry(MetricKey::new(name, label)).or_insert_with(Arc::default).clone();
                Counter::live(cell)
            }
        }
    }

    /// The gauge named `name` (registered on first use).
    #[must_use]
    pub fn gauge(&self, name: &str) -> Gauge {
        self.gauge_labeled(name, None)
    }

    /// The gauge named `name` with one `key="value"` label.
    #[must_use]
    pub fn gauge_with(&self, name: &str, key: &str, value: &str) -> Gauge {
        self.gauge_labeled(name, Some((key, value)))
    }

    fn gauge_labeled(&self, name: &str, label: Option<(&str, &str)>) -> Gauge {
        match &self.registry {
            None => Gauge::disabled(),
            Some(registry) => {
                let mut map = registry.gauges.lock().expect("gauge registry poisoned");
                let cell =
                    map.entry(MetricKey::new(name, label)).or_insert_with(Arc::default).clone();
                Gauge::live(cell)
            }
        }
    }

    /// The histogram named `name` (registered on first use).
    #[must_use]
    pub fn histogram(&self, name: &str) -> Histogram {
        self.histogram_labeled(name, None)
    }

    /// The histogram named `name` with one `key="value"` label.
    #[must_use]
    pub fn histogram_with(&self, name: &str, key: &str, value: &str) -> Histogram {
        self.histogram_labeled(name, Some((key, value)))
    }

    fn histogram_labeled(&self, name: &str, label: Option<(&str, &str)>) -> Histogram {
        match &self.registry {
            None => Histogram::disabled(),
            Some(registry) => {
                let mut map = registry.histograms.lock().expect("histogram registry poisoned");
                let cells = map
                    .entry(MetricKey::new(name, label))
                    .or_insert_with(|| Arc::new(HistogramCells::new()))
                    .clone();
                Histogram::live(cells)
            }
        }
    }

    /// Starts an RAII timer recording into the histogram named `name`
    /// when dropped. On a disabled recorder the span never reads the
    /// clock.
    #[must_use]
    pub fn span(&self, name: &str) -> Span {
        self.scoped(name, &self.histogram(name))
    }

    /// Starts an RAII timer on a labeled histogram.
    #[must_use]
    pub fn span_with(&self, name: &str, key: &str, value: &str) -> Span {
        self.scoped(name, &self.histogram_with(name, key, value))
    }

    /// Starts an RAII timer on an already-resolved histogram that also
    /// appears in the trace-event tree as `name` when
    /// [`enable_trace_events`](Self::enable_trace_events) is on. The
    /// trace display name is usually shorter than the histogram family
    /// (`round`, `pricing`, …). Without a span log this is exactly
    /// [`Span::on`].
    #[must_use]
    pub fn scoped(&self, name: &str, histogram: &Histogram) -> Span {
        let event = self.span_log().map(|log| log.open(name));
        let start = (histogram.is_enabled() || event.is_some()).then(Instant::now);
        // With alloc profiling on, a span whose name is a phase name
        // also tags the thread so allocations inside it are attributed.
        let tag = if self.alloc_profile_enabled() {
            AllocPhase::from_span_name(name).map(PhaseGuard::enter)
        } else {
            None
        };
        Span { histogram: histogram.clone(), start, event, _tag: tag }
    }

    /// Turns on allocator profiling for this registry: spans named
    /// after phases (and explicit [`alloc_phase`](Self::alloc_phase)
    /// guards) tag the current thread, and
    /// [`sample_alloc`](Self::sample_alloc) folds per-phase allocator
    /// stats into the registry as `alloc_*`/`memory_*`/`process_*`
    /// families. Global tracking is refcounted and released when the
    /// registry drops. A no-op on a disabled recorder — and, like every
    /// instrument here, profiling never changes simulation output.
    ///
    /// # Panics
    ///
    /// Panics if the sampler mutex was poisoned.
    pub fn enable_alloc_profile(&self) {
        let Some(registry) = &self.registry else { return };
        if !registry.alloc_profile.swap(true, Ordering::SeqCst) {
            alloc::enable_tracking();
            // Baseline at enable time: the first sample reports only
            // allocations made after profiling began.
            *registry.alloc_sync.lock().expect("alloc sync poisoned") = alloc::snapshot_phases();
        }
    }

    /// Whether allocator profiling is on for this registry.
    #[must_use]
    pub fn alloc_profile_enabled(&self) -> bool {
        self.registry
            .as_ref()
            .is_some_and(|registry| registry.alloc_profile.load(Ordering::Relaxed))
    }

    /// Tags the current thread with `phase` until the guard drops —
    /// for phases that accumulate timings manually instead of through
    /// spans (selection, settlement, the retry queue). `None` (and no
    /// thread-local write at all) unless profiling is on.
    #[must_use]
    pub fn alloc_phase(&self, phase: AllocPhase) -> Option<PhaseGuard> {
        self.alloc_profile_enabled().then(|| PhaseGuard::enter(phase))
    }

    /// Samples the global allocator stats into the registry: per-phase
    /// deltas since the last sample feed the `alloc_*` counter and
    /// histogram families, cumulative live/peak values set the gauges,
    /// and `/proc/self/status` (where present) sets the process RSS
    /// gauges. Called by the engine at every round boundary; a no-op
    /// unless [`enable_alloc_profile`](Self::enable_alloc_profile) ran.
    ///
    /// # Panics
    ///
    /// Panics if the sampler mutex was poisoned.
    pub fn sample_alloc(&self) {
        let Some(registry) = &self.registry else { return };
        if !registry.alloc_profile.load(Ordering::Relaxed) {
            return;
        }
        let mut last = registry.alloc_sync.lock().expect("alloc sync poisoned");
        let now = alloc::snapshot_phases();
        let mut total_live = 0i64;
        for phase in AllocPhase::ALL {
            let i = phase as usize;
            let (cur, prev) = (&now[i], &last[i]);
            let label = phase.label();
            self.counter_with("alloc_allocs_total", "phase", label)
                .add(cur.allocs.saturating_sub(prev.allocs));
            self.counter_with("alloc_frees_total", "phase", label)
                .add(cur.frees.saturating_sub(prev.frees));
            self.counter_with("alloc_bytes_total", "phase", label)
                .add(cur.bytes_allocated.saturating_sub(prev.bytes_allocated));
            self.counter_with("alloc_freed_bytes_total", "phase", label)
                .add(cur.bytes_freed.saturating_sub(prev.bytes_freed));
            self.gauge_with("alloc_live_bytes", "phase", label).set(cur.live_bytes);
            self.gauge_with("alloc_peak_live_bytes", "phase", label).set(cur.peak_live_bytes);
            let sizes = self.histogram_with("alloc_size_bytes", "phase", label);
            for class in 0..BUCKETS {
                let n = cur.size_classes[class].saturating_sub(prev.size_classes[class]);
                // Recording the class' lower bound n times lands every
                // observation in exactly that log₂ bucket; exact byte
                // totals live in `alloc_bytes_total`.
                sizes.record_n(crate::bucket_bounds(class).0.max(1), n);
            }
            total_live += cur.live_bytes;
        }
        self.gauge("memory_live_bytes").set(total_live);
        let rss = alloc::process_rss();
        if let Some((rss, peak)) = rss {
            self.gauge("process_rss_bytes").set(i64::try_from(rss).unwrap_or(i64::MAX));
            self.gauge("process_peak_rss_bytes").set(i64::try_from(peak).unwrap_or(i64::MAX));
        }
        // With trace events on, the memory series double as Perfetto
        // counter tracks alongside the span tree.
        if let Some(log) = self.span_log() {
            for phase in AllocPhase::ALL {
                log.record_counter(
                    &format!("alloc_live_bytes:{}", phase.label()),
                    now[phase as usize].live_bytes,
                );
            }
            log.record_counter("memory_live_bytes", total_live);
            if let Some((bytes, _)) = rss {
                log.record_counter("process_rss_bytes", i64::try_from(bytes).unwrap_or(i64::MAX));
            }
        }
        *last = now;
    }

    /// Attaches a bounded span-event log: from here on, spans created
    /// through this recorder (any clone) also record parent-child trace
    /// events, exportable with [`trace_events_json`](Self::trace_events_json).
    /// A no-op on a disabled recorder.
    ///
    /// # Panics
    ///
    /// Panics if the attachment mutex was poisoned.
    pub fn enable_trace_events(&self, capacity: usize) {
        if let Some(registry) = &self.registry {
            *registry.span_log.lock().expect("span log slot poisoned") =
                Some(Arc::new(SpanLog::new(capacity)));
        }
    }

    /// The attached span-event log, if tracing is enabled.
    ///
    /// # Panics
    ///
    /// Panics if the attachment mutex was poisoned.
    #[must_use]
    pub fn span_log(&self) -> Option<Arc<SpanLog>> {
        self.registry
            .as_ref()
            .and_then(|registry| registry.span_log.lock().expect("span log slot poisoned").clone())
    }

    /// The chrome `trace_event` JSON for the recorded spans, or `None`
    /// when tracing was never enabled.
    #[must_use]
    pub fn trace_events_json(&self) -> Option<String> {
        self.span_log().map(|log| log.to_trace_json())
    }

    /// Attaches a per-round time series; the engine records one sample
    /// per round boundary into it. A no-op on a disabled recorder.
    ///
    /// # Panics
    ///
    /// Panics if the attachment mutex was poisoned.
    pub fn attach_timeseries(&self, timeseries: &TimeSeries) {
        if let Some(registry) = &self.registry {
            *registry.timeseries.lock().expect("time series slot poisoned") =
                Some(timeseries.clone());
        }
    }

    /// The attached time series, or the disabled handle.
    ///
    /// # Panics
    ///
    /// Panics if the attachment mutex was poisoned.
    #[must_use]
    pub fn timeseries(&self) -> TimeSeries {
        self.registry
            .as_ref()
            .and_then(|registry| {
                registry.timeseries.lock().expect("time series slot poisoned").clone()
            })
            .unwrap_or_default()
    }

    /// Attaches an alert evaluator; the engine evaluates it at every
    /// round boundary. A no-op on a disabled recorder.
    ///
    /// # Panics
    ///
    /// Panics if the attachment mutex was poisoned.
    pub fn attach_alerts(&self, alerts: &Alerts) {
        if let Some(registry) = &self.registry {
            *registry.alerts.lock().expect("alerts slot poisoned") = Some(alerts.clone());
        }
    }

    /// The attached alert evaluator, or the disabled handle.
    ///
    /// # Panics
    ///
    /// Panics if the attachment mutex was poisoned.
    #[must_use]
    pub fn alerts(&self) -> Alerts {
        self.registry
            .as_ref()
            .and_then(|registry| registry.alerts.lock().expect("alerts slot poisoned").clone())
            .unwrap_or_default()
    }

    /// Attaches a structured logger; layers holding only a recorder
    /// (the engine, the WAL) fetch it back with
    /// [`logger`](Self::logger) to emit without threading an extra
    /// handle. A no-op on a disabled recorder.
    ///
    /// # Panics
    ///
    /// Panics if the attachment mutex was poisoned.
    pub fn attach_logger(&self, logger: &Logger) {
        if let Some(registry) = &self.registry {
            *registry.logger.lock().expect("logger slot poisoned") = Some(logger.clone());
        }
    }

    /// The attached logger, or the disabled handle.
    ///
    /// # Panics
    ///
    /// Panics if the attachment mutex was poisoned.
    #[must_use]
    pub fn logger(&self) -> Logger {
        self.registry
            .as_ref()
            .and_then(|registry| registry.logger.lock().expect("logger slot poisoned").clone())
            .unwrap_or_default()
    }

    /// A point-in-time copy of every registered metric, sorted by
    /// [`MetricKey`]. Empty for a disabled recorder.
    ///
    /// # Panics
    ///
    /// Panics if a registry mutex was poisoned by a panicking thread.
    #[must_use]
    pub fn snapshot(&self) -> Snapshot {
        let Some(registry) = &self.registry else {
            return Snapshot::default();
        };
        let counters = registry
            .counters
            .lock()
            .expect("counter registry poisoned")
            .iter()
            .map(|(key, cell)| (key.clone(), cell.load(std::sync::atomic::Ordering::Relaxed)))
            .collect();
        let gauges = registry
            .gauges
            .lock()
            .expect("gauge registry poisoned")
            .iter()
            .map(|(key, cell)| (key.clone(), cell.load(std::sync::atomic::Ordering::Relaxed)))
            .collect();
        let histograms = registry
            .histograms
            .lock()
            .expect("histogram registry poisoned")
            .iter()
            .map(|(key, cells)| (key.clone(), Histogram::live(cells.clone()).snapshot()))
            .collect();
        Snapshot { counters, gauges, histograms }
    }
}

/// An RAII phase timer: started by [`Recorder::span`] (or
/// [`Span::on`]), it records the elapsed nanoseconds into its histogram
/// when dropped. Spans created through [`Recorder::scoped`] on a
/// recorder with trace events enabled additionally record a
/// parent-child trace event. On a disabled histogram with no trace
/// events it is fully inert — no clock reads, no records.
#[derive(Debug)]
pub struct Span {
    histogram: Histogram,
    start: Option<Instant>,
    event: Option<SpanEventGuard>,
    /// Alloc-phase tag held for the span's lifetime (profiled
    /// recorders only). Dropped after the explicit `Drop` body runs,
    /// so the histogram record and trace finish are still attributed
    /// to this span's phase.
    _tag: Option<PhaseGuard>,
}

impl Span {
    /// Starts a timer that records into `histogram` on drop (histogram
    /// only — use [`Recorder::scoped`] to also feed the trace tree).
    #[must_use]
    pub fn on(histogram: &Histogram) -> Self {
        let start = histogram.is_enabled().then(Instant::now);
        Span { histogram: histogram.clone(), start, event: None, _tag: None }
    }

    /// Stops the timer without recording into the histogram. A trace
    /// event, if one was opened, still completes — the work happened.
    pub fn cancel(mut self) {
        self.start = None;
    }
}

impl Drop for Span {
    fn drop(&mut self) {
        if let Some(start) = self.start.take() {
            self.histogram.record_duration(start.elapsed());
        }
        if let Some(event) = self.event.take() {
            event.finish();
        }
    }
}

/// A frozen, ordered copy of a recorder's registry. Produced by
/// [`Recorder::snapshot`]; consumed by the exporters in this crate.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct Snapshot {
    /// Counters, sorted by key.
    pub counters: Vec<(MetricKey, u64)>,
    /// Gauges, sorted by key.
    pub gauges: Vec<(MetricKey, i64)>,
    /// Histograms, sorted by key.
    pub histograms: Vec<(MetricKey, HistogramSnapshot)>,
}

impl Snapshot {
    /// Looks up a counter by name and optional `(key, value)` label.
    #[must_use]
    pub fn counter_value(&self, name: &str, label: Option<(&str, &str)>) -> Option<u64> {
        let key = MetricKey::new(name, label);
        self.counters.iter().find(|(k, _)| *k == key).map(|(_, v)| *v)
    }

    /// Sums every counter in the family `name` across all of its
    /// labels (e.g. the total of `fault_events_total` over every fault
    /// kind). Returns `None` if no counter in the family exists.
    #[must_use]
    pub fn counter_total(&self, name: &str) -> Option<u64> {
        let mut found = false;
        let mut total = 0u64;
        for (key, v) in &self.counters {
            if key.name == name {
                found = true;
                total += v;
            }
        }
        found.then_some(total)
    }

    /// Looks up a gauge by name and optional `(key, value)` label.
    #[must_use]
    pub fn gauge_value(&self, name: &str, label: Option<(&str, &str)>) -> Option<i64> {
        let key = MetricKey::new(name, label);
        self.gauges.iter().find(|(k, _)| *k == key).map(|(_, v)| *v)
    }

    /// Looks up a histogram by name and optional `(key, value)` label.
    #[must_use]
    pub fn histogram_snapshot(
        &self,
        name: &str,
        label: Option<(&str, &str)>,
    ) -> Option<&HistogramSnapshot> {
        let key = MetricKey::new(name, label);
        self.histograms.iter().find(|(k, _)| *k == key).map(|(_, v)| v)
    }

    /// Merges two snapshots: counters and histogram contents add,
    /// gauges take `other`'s value on collision (last writer wins).
    #[must_use]
    pub fn merge(&self, other: &Snapshot) -> Snapshot {
        let mut counters: BTreeMap<MetricKey, u64> = self.counters.iter().cloned().collect();
        for (key, v) in &other.counters {
            *counters.entry(key.clone()).or_insert(0) += v;
        }
        let mut gauges: BTreeMap<MetricKey, i64> = self.gauges.iter().cloned().collect();
        for (key, v) in &other.gauges {
            gauges.insert(key.clone(), *v);
        }
        let mut histograms: BTreeMap<MetricKey, HistogramSnapshot> =
            self.histograms.iter().cloned().collect();
        for (key, snap) in &other.histograms {
            let merged = histograms.get(key).map_or_else(|| *snap, |existing| existing.merge(snap));
            histograms.insert(key.clone(), merged);
        }
        Snapshot {
            counters: counters.into_iter().collect(),
            gauges: gauges.into_iter().collect(),
            histograms: histograms.into_iter().collect(),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn counter_total_sums_across_labels() {
        let r = Recorder::enabled();
        r.counter_with("fault_events_total", "kind", "dropout").add(3);
        r.counter_with("fault_events_total", "kind", "gps").add(4);
        r.counter("checkpoint_writes_total").inc();
        let snap = r.snapshot();
        assert_eq!(snap.counter_total("fault_events_total"), Some(7));
        assert_eq!(snap.counter_total("checkpoint_writes_total"), Some(1));
        assert_eq!(snap.counter_total("absent_total"), None);
    }

    #[test]
    fn disabled_recorder_hands_out_inert_instruments() {
        let r = Recorder::disabled();
        assert!(!r.is_enabled());
        let c = r.counter("x_total");
        c.add(5);
        assert_eq!(c.get(), 0);
        {
            let _span = r.span("x_seconds");
        }
        assert_eq!(r.snapshot(), Snapshot::default());
    }

    #[test]
    fn default_is_disabled() {
        assert!(!Recorder::default().is_enabled());
    }

    #[test]
    fn instruments_share_cells_by_key() {
        let r = Recorder::enabled();
        r.counter("jobs_total").inc();
        r.counter("jobs_total").add(2);
        r.counter_with("solve_total", "selector", "dp").inc();
        r.counter_with("solve_total", "selector", "greedy").add(4);
        let snap = r.snapshot();
        assert_eq!(snap.counter_value("jobs_total", None), Some(3));
        assert_eq!(snap.counter_value("solve_total", Some(("selector", "dp"))), Some(1));
        assert_eq!(snap.counter_value("solve_total", Some(("selector", "greedy"))), Some(4));
        assert_eq!(snap.counter_value("missing", None), None);
    }

    #[test]
    fn span_records_into_its_histogram() {
        let r = Recorder::enabled();
        {
            let _span = r.span_with("phase_seconds", "phase", "pricing");
        }
        {
            let span = r.span_with("phase_seconds", "phase", "pricing");
            span.cancel();
        }
        let snap = r.snapshot();
        let h = snap.histogram_snapshot("phase_seconds", Some(("phase", "pricing"))).unwrap();
        assert_eq!(h.count, 1, "cancelled span must not record");
    }

    #[test]
    fn clones_share_the_registry() {
        let r = Recorder::enabled();
        let clone = r.clone();
        std::thread::scope(|scope| {
            for _ in 0..4 {
                let local = clone.clone();
                scope.spawn(move || local.counter("shared_total").add(10));
            }
        });
        assert_eq!(r.snapshot().counter_value("shared_total", None), Some(40));
    }

    #[test]
    fn gauge_set_and_add() {
        let r = Recorder::enabled();
        let g = r.gauge("depth");
        g.set(10);
        g.sub(3);
        assert_eq!(g.get(), 7);
        assert_eq!(r.snapshot().gauge_value("depth", None), Some(7));
    }

    #[test]
    fn snapshot_merge_adds_counters_and_histograms() {
        let a = Recorder::enabled();
        a.counter("c_total").add(2);
        a.histogram("h").record(10);
        a.gauge("g").set(1);
        let b = Recorder::enabled();
        b.counter("c_total").add(3);
        b.counter("only_b_total").inc();
        b.histogram("h").record(20);
        b.gauge("g").set(9);
        let merged = a.snapshot().merge(&b.snapshot());
        assert_eq!(merged.counter_value("c_total", None), Some(5));
        assert_eq!(merged.counter_value("only_b_total", None), Some(1));
        assert_eq!(merged.gauge_value("g", None), Some(9));
        let h = merged.histogram_snapshot("h", None).unwrap();
        assert_eq!((h.count, h.sum), (2, 30));
    }

    #[test]
    fn snapshot_order_is_deterministic() {
        let r = Recorder::enabled();
        for name in ["zebra_total", "alpha_total", "mid_total"] {
            r.counter(name).inc();
        }
        let snap = r.snapshot();
        let names: Vec<&str> = snap.counters.iter().map(|(k, _)| k.name.as_str()).collect();
        let mut sorted = names.clone();
        sorted.sort_unstable();
        assert_eq!(names, sorted);
    }
}
