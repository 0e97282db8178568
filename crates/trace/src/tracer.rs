//! The [`Tracer`] handle threaded through every instrumented subsystem, and
//! the [`TraceSession`] that owns the shared sink + registry behind it.
//!
//! A `Tracer` is a cheap clone-able handle: either *disabled* (the default —
//! every probe is a single `Option` branch) or attached to a session.

use crate::event::{Dim, Record, TraceEvent};
use crate::flight::{FlightRecorder, FLIGHT_CAPACITY};
use crate::registry::{Log2Histogram, MetricsRegistry};
use crate::sink::RingSink;
use crate::span::SpanStack;
use std::fmt;
use std::sync::{Arc, Mutex};

struct Inner {
    /// The event stream; `None` for a flight-only session.
    sink: Option<RingSink>,
    metrics: MetricsRegistry,
    seq: u64,
    clock_ns: u64,
    spans: SpanStack,
    /// `[total_ns, self_ns]` of the spans closed at each path, indexed by
    /// the path's [`SpanStack`] node, so closing a span formats and looks
    /// up no name. [`Inner::metrics`] folds them into `span.<stage>.*`.
    span_hists: Vec<[Log2Histogram; 2]>,
    flight: FlightRecorder,
}

impl Inner {
    fn new(sink: Option<RingSink>, flight_capacity: usize) -> Self {
        Inner {
            sink,
            metrics: MetricsRegistry::new(),
            seq: 0,
            clock_ns: 0,
            spans: SpanStack::new(),
            span_hists: Vec::new(),
            flight: FlightRecorder::new(flight_capacity),
        }
    }

    /// Closes the innermost span at the current simulated clock and feeds
    /// its path's histograms — shared by [`ScopedSpan::drop`] and
    /// [`Tracer::span_mark`].
    fn finish_span(&mut self) {
        let now = self.clock_ns;
        if let Some((node, total, self_ns)) = self.spans.exit_node(now) {
            if node >= self.span_hists.len() {
                self.span_hists.resize_with(node + 1, Default::default);
            }
            let [total_hist, self_hist] = &mut self.span_hists[node];
            total_hist.observe(total);
            self_hist.observe(self_ns);
        }
    }

    /// The registry with every closed span's `span.<stage>.total_ns` and
    /// `span.<stage>.self_ns` observations in it.
    fn metrics(&self) -> MetricsRegistry {
        let mut metrics = self.metrics.clone();
        for (node, [total_hist, self_hist]) in self.span_hists.iter().enumerate() {
            if total_hist.count() > 0 {
                let stage = self.spans.node_name(node);
                metrics.merge_histogram(&format!("span.{stage}.total_ns"), total_hist);
                metrics.merge_histogram(&format!("span.{stage}.self_ns"), self_hist);
            }
        }
        metrics
    }
}

/// A tracing session: one shared event sink plus one metrics registry.
///
/// Create a session, hand [`TraceSession::tracer`] clones to the systems
/// under observation, run the workload, then read back
/// [`TraceSession::records`] and [`TraceSession::metrics`].
pub struct TraceSession {
    inner: Arc<Mutex<Inner>>,
}

impl TraceSession {
    /// A session recording into a bounded `RingSink` of `capacity`
    /// records (0 = unbounded).
    pub fn ring(capacity: usize) -> Self {
        TraceSession {
            inner: Arc::new(Mutex::new(Inner::new(
                Some(RingSink::new(capacity)),
                FLIGHT_CAPACITY,
            ))),
        }
    }

    /// A flight-recorder-only session: the event stream is discarded, but
    /// metrics still accumulate and the last `capacity` records stay in the
    /// [`FlightRecorder`] for post-mortem dumps. This is the always-on mode
    /// the torture harness attaches when full tracing was not requested.
    pub fn flight_only(capacity: usize) -> Self {
        TraceSession {
            inner: Arc::new(Mutex::new(Inner::new(None, capacity))),
        }
    }

    /// A tracer handle feeding this session (dimension [`Dim::None`]).
    pub fn tracer(&self) -> Tracer {
        Tracer {
            inner: Some(Arc::clone(&self.inner)),
            dim: Dim::None,
        }
    }

    /// Snapshot of the recorded events, oldest first (empty for a
    /// flight-only session).
    pub fn records(&self) -> Vec<Record> {
        let inner = self.inner.lock().expect("trace session poisoned");
        inner.sink.as_ref().map_or_else(Vec::new, RingSink::snapshot)
    }

    /// Snapshot of the metrics registry.
    pub fn metrics(&self) -> MetricsRegistry {
        self.inner.lock().expect("trace session poisoned").metrics()
    }

    /// Snapshot of the span profiler: open-stack state, enter/exit balance,
    /// and the collapsed-stack accumulation of every closed span.
    pub fn spans(&self) -> SpanStack {
        self.inner.lock().expect("trace session poisoned").spans.clone()
    }

    /// Snapshot of the flight recorder's retained records, oldest first.
    pub(crate) fn flight(&self) -> FlightRecorder {
        self.inner.lock().expect("trace session poisoned").flight.clone()
    }

    /// The flight recorder's retained records as JSONL — the post-mortem
    /// `flight_*.jsonl` artifact.
    pub fn flight_jsonl(&self) -> String {
        self.flight().to_jsonl()
    }

    /// How many records the ring sink evicted (0 for a flight-only
    /// session).
    pub fn dropped(&self) -> u64 {
        let inner = self.inner.lock().expect("trace session poisoned");
        inner.sink.as_ref().map_or(0, RingSink::dropped)
    }
}

impl fmt::Debug for TraceSession {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str("TraceSession")
    }
}

/// A cheap handle to a [`TraceSession`], carried by every instrumented
/// subsystem. The default handle is disabled: every probe below inlines to
/// one test of `inner` at its call site and calls nothing.
#[derive(Clone, Default)]
pub struct Tracer {
    inner: Option<Arc<Mutex<Inner>>>,
    dim: Dim,
}

/// The out-of-line half of every probe: `probe` on the locked session.
#[cold]
#[inline(never)]
fn attached<R>(inner: &Mutex<Inner>, probe: impl FnOnce(&mut Inner) -> R) -> R {
    probe(&mut inner.lock().expect("trace session poisoned"))
}

impl Tracer {
    /// A handle that records nothing (the default for every subsystem).
    pub fn disabled() -> Self {
        Tracer::default()
    }

    /// Whether this handle feeds a live session.
    #[inline(always)]
    pub fn is_enabled(&self) -> bool {
        self.inner.is_some()
    }

    /// This handle re-tagged with `dim` — how `contig-virt` distinguishes
    /// guest-dimension from host-dimension events in one session.
    pub fn with_dim(&self, dim: Dim) -> Self {
        Tracer {
            inner: self.inner.clone(),
            dim,
        }
    }

    /// Advances the session's simulated clock; subsequent records carry
    /// `now_ns` as their timestamp. Instrumented systems call this whenever
    /// their own simulated clock moves.
    #[inline(always)]
    pub fn set_clock(&self, now_ns: u64) {
        if let Some(inner) = &self.inner {
            attached(inner, |session| session.clock_ns = now_ns);
        }
    }

    /// Emits one event: records it to the sink (stamped with the session
    /// clock and a sequence number) and increments the counter named
    /// [`TraceEvent::name`].
    #[inline(always)]
    pub fn emit(&self, event: TraceEvent) {
        if let Some(inner) = &self.inner {
            attached(inner, |session| {
                session.metrics.add(event.name(), 1);
                let rec = Record {
                    seq: session.seq,
                    ts_ns: session.clock_ns,
                    dim: self.dim,
                    event,
                };
                session.seq += 1;
                if let Some(ring) = &mut session.sink {
                    ring.record(&rec);
                }
                session.flight.record(&rec);
            });
        }
    }

    /// Opens a profiling span for `stage`, closed when the returned guard
    /// drops. Span durations are deltas of the session's **simulated**
    /// clock, so spans observe without perturbing: digests are identical
    /// with profiling on or off. Guards must drop LIFO (ordinary scoping —
    /// including unwinding — guarantees this).
    #[inline(always)]
    pub fn span(&self, stage: &'static str) -> ScopedSpan {
        let Some(inner) = &self.inner else { return ScopedSpan { inner: None } };
        attached(inner, |session| session.spans.enter(stage, session.clock_ns));
        ScopedSpan { inner: Some(Arc::clone(inner)) }
    }

    /// Records an instantaneous (zero-duration) span for `stage` — a leaf
    /// mark whose *count* matters, like a pcp hit/miss on the allocation
    /// path. Equivalent to opening and immediately dropping a span.
    #[inline(always)]
    pub fn span_mark(&self, stage: &'static str) {
        if let Some(inner) = &self.inner {
            attached(inner, |session| {
                session.spans.enter(stage, session.clock_ns);
                session.finish_span();
            });
        }
    }

    /// Adds `delta` to the named counter without recording an event — for
    /// bulk totals (e.g. injector attempt counts) that would swamp a ring.
    #[inline(always)]
    pub fn add(&self, name: &str, delta: u64) {
        if let Some(inner) = &self.inner {
            attached(inner, |session| session.metrics.add(name, delta));
        }
    }

    /// Records `value` into the named log2 histogram.
    #[inline(always)]
    pub fn observe(&self, name: &str, value: u64) {
        if let Some(inner) = &self.inner {
            attached(inner, |session| session.metrics.observe(name, value));
        }
    }
}

/// RAII guard returned by [`Tracer::span`]: dropping it closes the span at
/// the session's current simulated clock. A disabled tracer's guard is
/// inert: its drop is the same inlined test.
#[must_use = "binding a span guard to `_` closes it immediately; use `let _span = …`"]
pub struct ScopedSpan {
    inner: Option<Arc<Mutex<Inner>>>,
}

impl Drop for ScopedSpan {
    #[inline(always)]
    fn drop(&mut self) {
        #[cold]
        #[inline(never)]
        fn close(inner: Arc<Mutex<Inner>>) {
            // `if let Ok` rather than `expect`: this drop also runs while
            // unwinding a task panic, where a second panic would abort.
            if let Ok(mut guard) = inner.lock() {
                guard.finish_span();
            }
        }
        if let Some(inner) = self.inner.take() {
            close(inner);
        }
    }
}

impl fmt::Debug for ScopedSpan {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str("ScopedSpan")
    }
}

impl fmt::Debug for Tracer {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        if self.is_enabled() {
            f.write_str("Tracer(enabled)")
        } else {
            f.write_str("Tracer(disabled)")
        }
    }
}

/// Instrumented containers (`Zone`, `System`, …) derive `PartialEq` in
/// places; the tracer handle is observability plumbing, not state, so any
/// two handles compare equal.
impl PartialEq for Tracer {
    fn eq(&self, _other: &Self) -> bool {
        true
    }
}

impl Eq for Tracer {}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::event::{Dim, TraceEvent};

    #[test]
    fn disabled_tracer_is_inert() {
        let t = Tracer::disabled();
        assert!(!t.is_enabled());
        t.emit(TraceEvent::Alloc { order: 0, pfn: 1 });
        t.add("x", 5);
        t.observe("y", 10);
        t.set_clock(99);
    }

    #[test]
    fn session_records_events_and_counts_them() {
        let session = TraceSession::ring(16);
        let t = session.tracer();
        assert!(t.is_enabled());
        t.set_clock(100);
        t.emit(TraceEvent::Alloc { order: 2, pfn: 8 });
        t.set_clock(250);
        t.emit(TraceEvent::Free { pfn: 8, order: 2 });
        t.add("fail.attempts", 7);
        t.observe("mm.fault_ns", 1500);

        let recs = session.records();
        assert_eq!(recs.len(), 2);
        assert_eq!(recs[0].seq, 0);
        assert_eq!(recs[0].ts_ns, 100);
        assert_eq!(recs[1].seq, 1);
        assert_eq!(recs[1].ts_ns, 250);

        let m = session.metrics();
        assert_eq!(m.counter("buddy.alloc"), 1);
        assert_eq!(m.counter("buddy.free"), 1);
        assert_eq!(m.counter("fail.attempts"), 7);
        assert_eq!(m.histogram("mm.fault_ns").unwrap().count(), 1);
        assert_eq!(session.dropped(), 0);
    }

    #[test]
    fn dims_tag_records_independently() {
        let session = TraceSession::ring(16);
        let guest = session.tracer().with_dim(Dim::Guest);
        let host = session.tracer().with_dim(Dim::Host);
        guest.emit(TraceEvent::FaultFailed { pid: 1, va: 0x1000 });
        host.emit(TraceEvent::FaultFailed { pid: 2, va: 0x2000 });
        let recs = session.records();
        assert_eq!(recs[0].dim, Dim::Guest);
        assert_eq!(recs[1].dim, Dim::Host);
    }

    #[test]
    fn spans_measure_simulated_clock_and_balance() {
        let session = TraceSession::ring(16);
        let t = session.tracer();
        {
            let _fault = t.span(crate::stage::FAULT);
            t.set_clock(100);
            {
                let _alloc = t.span(crate::stage::BUDDY_ALLOC);
                t.span_mark(crate::stage::PCP_HIT);
                t.set_clock(400);
            }
            t.set_clock(450);
        }
        let spans = session.spans();
        assert!(spans.is_balanced());
        assert_eq!(spans.enters(), 3);
        let m = session.metrics();
        let fault = m.histogram("span.fault.total_ns").unwrap();
        assert_eq!((fault.count(), fault.sum()), (1, 450));
        assert_eq!(m.histogram("span.fault.self_ns").unwrap().sum(), 150);
        assert_eq!(m.histogram("span.buddy_alloc.total_ns").unwrap().sum(), 300);
        assert_eq!(m.histogram("span.pcp_hit.total_ns").unwrap().count(), 1);
        assert!(spans.export_collapsed().contains("fault;buddy_alloc;pcp_hit 0\n"));
    }

    #[test]
    fn span_guard_closes_during_unwind() {
        let session = TraceSession::ring(16);
        let t = session.tracer();
        let result = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            let _span = t.span(crate::stage::FAULT);
            panic!("boom");
        }));
        assert!(result.is_err());
        assert!(session.spans().is_balanced(), "unwind must close open spans");
    }

    #[test]
    fn flight_recorder_is_always_on_and_flight_only_discards_stream() {
        let session = TraceSession::ring(2);
        let t = session.tracer();
        for pfn in 0..5 {
            t.emit(TraceEvent::Alloc { order: 0, pfn });
        }
        // Ring kept 2; flight (capacity 256) kept all 5.
        assert_eq!(session.records().len(), 2);
        assert_eq!(session.flight().snapshot().len(), 5);
        assert!(!session.flight_jsonl().is_empty());

        let quiet = TraceSession::flight_only(3);
        let t = quiet.tracer();
        for pfn in 0..5 {
            t.emit(TraceEvent::Alloc { order: 0, pfn });
        }
        assert!(quiet.records().is_empty(), "flight-only discards the stream");
        assert_eq!(quiet.flight().snapshot().len(), 3);
        assert_eq!(quiet.metrics().counter("buddy.alloc"), 5, "metrics still exact");
        let parsed = crate::parse_jsonl(&quiet.flight_jsonl()).expect("decodable dump");
        assert_eq!(parsed.len(), 3);
    }

}
