//! The always-on flight recorder: a fixed-size ring of the most recent
//! trace records, kept by every session regardless of its main sink.
//!
//! The point is post-mortem context at near-zero cost: when a torture run
//! trips a digest mismatch or an engine task panics, the last
//! [`FLIGHT_CAPACITY`] events before the failure are dumped as
//! `flight_*.jsonl` — decodable by [`crate::parse_jsonl`] like any full
//! trace — even though nobody asked for tracing up front.

use std::collections::VecDeque;

use crate::event::Record;

/// Default number of records a session's flight recorder retains.
pub const FLIGHT_CAPACITY: usize = 256;

/// A bounded ring of the most recent [`Record`]s.
///
/// Unlike the session's `RingSink` this is not a pluggable sink: every session
/// owns exactly one, fed by every emit, sized once at construction. A
/// capacity of 0 disables retention entirely.
#[derive(Clone, Debug, Default, PartialEq)]
pub struct FlightRecorder {
    buf: VecDeque<Record>,
    capacity: usize,
}

impl FlightRecorder {
    /// A recorder retaining the last `capacity` records (0 = retain none).
    pub(crate) fn new(capacity: usize) -> Self {
        FlightRecorder { buf: VecDeque::with_capacity(capacity), capacity }
    }

    /// Appends one record, evicting the oldest when full.
    pub(crate) fn record(&mut self, rec: &Record) {
        if self.capacity == 0 {
            return;
        }
        if self.buf.len() == self.capacity {
            self.buf.pop_front();
        }
        self.buf.push_back(rec.clone());
    }

    /// The retained records, oldest first.
    pub(crate) fn snapshot(&self) -> Vec<Record> {
        self.buf.iter().cloned().collect()
    }

    /// The retained records as JSONL, ready to write as a `flight_*.jsonl`
    /// post-mortem artifact (lossless under [`crate::parse_jsonl`]).
    pub(crate) fn to_jsonl(&self) -> String {
        crate::export::export_jsonl(&self.snapshot())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::event::{Dim, TraceEvent};

    fn rec(seq: u64) -> Record {
        Record {
            seq,
            ts_ns: seq,
            dim: Dim::None,
            event: TraceEvent::Alloc { order: 0, pfn: seq },
        }
    }

    #[test]
    fn retains_only_the_most_recent() {
        let mut f = FlightRecorder::new(3);
        for s in 0..10 {
            f.record(&rec(s));
        }
        assert_eq!(f.buf.len(), 3);
        let kept: Vec<u64> = f.snapshot().iter().map(|r| r.seq).collect();
        assert_eq!(kept, vec![7, 8, 9]);
    }

    #[test]
    fn zero_capacity_keeps_nothing() {
        let mut f = FlightRecorder::new(0);
        f.record(&rec(1));
        assert!(f.buf.is_empty());
        assert_eq!(f.to_jsonl(), "");
    }

    #[test]
    fn dump_round_trips_through_the_jsonl_parser() {
        let mut f = FlightRecorder::new(8);
        for s in 0..5 {
            f.record(&rec(s));
        }
        let parsed = crate::parse_jsonl(&f.to_jsonl()).expect("flight dump parses");
        assert_eq!(parsed, f.snapshot());
    }
}
