//! The traced pass's recorder: spans and per-call-class aggregates, kept in
//! memory and written as JSONL when the run ends.
//!
//! Everything here is recorded from the benchmark's side of the public API:
//! a span per workload → batch → phase, and for each class of public call a
//! count, a nanosecond sum and a log2 histogram per batch (one span per call
//! would be millions of records). With the recorder off every method is a
//! branch on one bool, so the measured pass runs the same code.

use std::io::Write as _;
use std::time::Instant;

use contig::check::Json;
use contig::trace::Log2Histogram;

/// The classes of public call whose time the traced pass attributes.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Class {
    MmTouch,
    MmCow,
    MmFork,
    MmExit,
    MmReadahead,
    VirtBoot,
    VirtTouch,
    VirtProfile,
    VirtExit,
    TlbRun,
    CheckGenerateOps,
    CheckRunOps,
}

impl Class {
    pub const ALL: [Class; 12] = [
        Class::MmTouch,
        Class::MmCow,
        Class::MmFork,
        Class::MmExit,
        Class::MmReadahead,
        Class::VirtBoot,
        Class::VirtTouch,
        Class::VirtProfile,
        Class::VirtExit,
        Class::TlbRun,
        Class::CheckGenerateOps,
        Class::CheckRunOps,
    ];

    /// `layer.call`, the stem of the class's `_busy_ppm` metric.
    pub fn name(self) -> &'static str {
        match self {
            Class::MmTouch => "mm.touch",
            Class::MmCow => "mm.cow",
            Class::MmFork => "mm.fork",
            Class::MmExit => "mm.exit",
            Class::MmReadahead => "mm.readahead",
            Class::VirtBoot => "virt.boot",
            Class::VirtTouch => "virt.touch",
            Class::VirtProfile => "virt.profile",
            Class::VirtExit => "virt.exit",
            Class::TlbRun => "tlb.run",
            Class::CheckGenerateOps => "check.generate_ops",
            Class::CheckRunOps => "check.run_ops",
        }
    }
}

/// One closed (or still open) span; `parent` indexes [`Recorder::spans`].
struct Span {
    name: &'static str,
    start_ns: u64,
    end_ns: u64,
    parent: Option<u32>,
}

/// Handle of an open span, returned by [`Recorder::open`].
#[derive(Clone, Copy)]
pub struct SpanId(u32);

/// Span and call-class recorder; [`Recorder::off`] records nothing.
pub struct Recorder {
    on: bool,
    run_id: u64,
    origin: Instant,
    spans: Vec<Span>,
    open: Vec<u32>,
    /// Count, nanosecond sum and distribution per class since the last flush.
    current: [Log2Histogram; Class::ALL.len()],
    /// Flushed per-batch aggregates: `(batch span, class, aggregate)`.
    calls: Vec<(u32, Class, Log2Histogram)>,
}

impl Recorder {
    fn new(on: bool, run_id: u64) -> Self {
        Self {
            on,
            run_id,
            origin: Instant::now(),
            spans: Vec::new(),
            open: Vec::new(),
            current: std::array::from_fn(|_| Log2Histogram::new()),
            calls: Vec::new(),
        }
    }

    /// The measured pass's recorder: every method returns at once.
    pub fn off() -> Self {
        Self::new(false, 0)
    }

    /// A live recorder; `run_id` is shared by every span of the run.
    pub fn on(run_id: u64) -> Self {
        Self::new(true, run_id)
    }

    fn now_ns(&self) -> u64 {
        self.origin.elapsed().as_nanos() as u64
    }

    /// Opens a span under the innermost open one.
    pub fn open(&mut self, name: &'static str) -> SpanId {
        if !self.on {
            return SpanId(0);
        }
        let id = self.spans.len() as u32;
        let start_ns = self.now_ns();
        self.spans.push(Span {
            name,
            start_ns,
            end_ns: start_ns,
            parent: self.open.last().copied(),
        });
        self.open.push(id);
        SpanId(id)
    }

    /// Closes `id`, which must be the innermost open span.
    pub fn close(&mut self, id: SpanId) {
        if !self.on {
            return;
        }
        assert_eq!(self.open.pop(), Some(id.0), "spans close innermost first");
        self.spans[id.0 as usize].end_ns = self.now_ns();
    }

    /// Runs one public call, attributing its wall time to `class`.
    #[inline]
    pub fn call<T>(&mut self, class: Class, f: impl FnOnce() -> T) -> T {
        if !self.on {
            return f();
        }
        let start = Instant::now();
        let out = f();
        let ns = start.elapsed().as_nanos() as u64;
        self.current[class as usize].observe(ns);
        out
    }

    /// Files the call aggregates gathered since the last flush under `batch`.
    pub fn end_batch(&mut self, batch: SpanId) {
        if !self.on {
            return;
        }
        for class in Class::ALL {
            let agg = std::mem::take(&mut self.current[class as usize]);
            if agg.count() > 0 {
                self.calls.push((batch.0, class, agg));
            }
        }
    }

    /// Total nanoseconds attributed to `class` over the whole run.
    pub fn class_ns(&self, class: Class) -> u64 {
        self.calls
            .iter()
            .filter(|(_, c, _)| *c == class)
            .map(|(_, _, a)| a.sum())
            .sum()
    }

    /// Writes every span (with its self time: duration minus the part its
    /// children cover) and every per-batch call aggregate as JSON lines.
    pub fn write_jsonl(&self, path: &std::path::Path) -> std::io::Result<()> {
        let mut child_ns = vec![0u64; self.spans.len()];
        for s in &self.spans {
            if let Some(p) = s.parent {
                child_ns[p as usize] += s.end_ns - s.start_ns;
            }
        }
        let mut out = std::io::BufWriter::new(std::fs::File::create(path)?);
        for (id, s) in self.spans.iter().enumerate() {
            let line = Json::Obj(vec![
                ("type".into(), Json::Str("span".into())),
                ("run_id".into(), Json::num(self.run_id)),
                ("id".into(), Json::num(id as u64)),
                ("parent".into(), s.parent.map_or(Json::Null, Json::num)),
                ("name".into(), Json::Str(s.name.into())),
                ("start_ns".into(), Json::num(s.start_ns)),
                ("end_ns".into(), Json::num(s.end_ns)),
                (
                    "self_ns".into(),
                    Json::num((s.end_ns - s.start_ns).saturating_sub(child_ns[id])),
                ),
            ]);
            writeln!(out, "{}", line.to_line())?;
        }
        for (batch, class, agg) in &self.calls {
            let line = Json::Obj(vec![
                ("type".into(), Json::Str("calls".into())),
                ("run_id".into(), Json::num(self.run_id)),
                ("batch".into(), Json::num(*batch)),
                ("class".into(), Json::Str(class.name().into())),
                ("count".into(), Json::num(agg.count())),
                ("sum_ns".into(), Json::num(agg.sum())),
                (
                    // Non-empty buckets as `[lower bound in ns, calls]`.
                    "hist_log2".into(),
                    Json::Arr(
                        agg.nonzero()
                            .into_iter()
                            .map(|(ns, n)| Json::Arr(vec![Json::num(ns), Json::num(n)]))
                            .collect(),
                    ),
                ),
            ]);
            writeln!(out, "{}", line.to_line())?;
        }
        out.flush()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn off_recorder_records_nothing() {
        let mut rec = Recorder::off();
        let s = rec.open("batch");
        assert_eq!(rec.call(Class::MmTouch, || 7), 7);
        rec.end_batch(s);
        rec.close(s);
        assert!(rec.spans.is_empty() && rec.calls.is_empty());
    }

    #[test]
    fn spans_nest_and_calls_flush_per_batch() {
        let mut rec = Recorder::on(9);
        let w = rec.open("workload");
        let b = rec.open("batch");
        let p = rec.open("phase");
        rec.call(Class::MmTouch, || std::hint::black_box(1));
        rec.call(Class::MmTouch, || std::hint::black_box(2));
        rec.close(p);
        rec.end_batch(b);
        rec.close(b);
        rec.close(w);
        assert_eq!(rec.spans[2].parent, Some(1));
        assert_eq!(rec.spans[1].parent, Some(0));
        assert_eq!(rec.calls.len(), 1);
        assert_eq!(rec.calls[0].2.count(), 2);
        assert_eq!(rec.class_ns(Class::MmTouch), rec.calls[0].2.sum());
        assert_eq!(rec.class_ns(Class::MmFork), 0);
    }
}
