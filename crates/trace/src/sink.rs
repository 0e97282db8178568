//! The trace sink: where emitted [`Record`]s go. A bounded in-memory ring
//! ([`RingSink`]), so tracing a long run costs a fixed amount of memory.

use crate::event::Record;
use std::collections::VecDeque;

/// A bounded FIFO ring of records. When full, the oldest record is dropped
/// and [`RingSink::dropped`] is incremented, so a consumer can always tell
/// whether the trace is complete.
#[derive(Debug, Clone, Default)]
pub(crate) struct RingSink {
    buf: VecDeque<Record>,
    capacity: usize,
    dropped: u64,
}

impl RingSink {
    /// A ring holding at most `capacity` records (0 means unbounded).
    pub(crate) fn new(capacity: usize) -> Self {
        RingSink {
            buf: VecDeque::new(),
            capacity,
            dropped: 0,
        }
    }

    /// How many records were evicted because the ring was full.
    pub(crate) fn dropped(&self) -> u64 {
        self.dropped
    }

    /// The retained records, oldest first.
    pub(crate) fn snapshot(&self) -> Vec<Record> {
        self.buf.iter().cloned().collect()
    }

    /// Consumes one record, evicting the oldest when full. Cheap: it runs
    /// inside the fault path's critical section.
    pub(crate) fn record(&mut self, rec: &Record) {
        if self.capacity > 0 && self.buf.len() == self.capacity {
            self.buf.pop_front();
            self.dropped += 1;
        }
        self.buf.push_back(rec.clone());
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::event::{Dim, TraceEvent};

    fn rec(seq: u64) -> Record {
        Record {
            seq,
            ts_ns: seq * 10,
            dim: Dim::None,
            event: TraceEvent::Free { pfn: seq, order: 0 },
        }
    }

    #[test]
    fn ring_drops_oldest_when_full() {
        let mut ring = RingSink::new(2);
        for s in 0..5 {
            ring.record(&rec(s));
        }
        assert_eq!(ring.buf.len(), 2);
        assert_eq!(ring.dropped(), 3);
        let kept: Vec<u64> = ring.snapshot().iter().map(|r| r.seq).collect();
        assert_eq!(kept, vec![3, 4]);
    }

    #[test]
    fn unbounded_ring_never_drops() {
        let mut ring = RingSink::new(0);
        for s in 0..100 {
            ring.record(&rec(s));
        }
        assert_eq!(ring.buf.len(), 100);
        assert_eq!(ring.dropped(), 0);
    }
}
