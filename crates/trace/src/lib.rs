//! # contig-trace — BadgerTrap-style event tracing & metrics
//!
//! The observability layer for the whole fault/allocation path: a cheap,
//! allocation-light structured event stream plus a registry of named
//! counters and log2 histograms, shared by every crate in the workspace.
//!
//! The design mirrors how the paper measures: BadgerTrap instruments each
//! page walk and a linear cost model (Table IV) turns *event counts* into
//! runtime. Here every interesting transition — buddy alloc/free, targeted
//! CA allocation, fault entry/exit, each OOM-recovery stage, nested
//! (guest/host) faults, TLB misses — emits one [`TraceEvent`]; the
//! [`MetricsRegistry`] keeps an exact census even when the bounded ring
//! sink has wrapped.
//!
//! ## Usage
//!
//! ```
//! use contig_trace::{TraceSession, TraceEvent};
//!
//! let session = TraceSession::ring(1 << 16);
//! let tracer = session.tracer();          // clone into each subsystem
//! tracer.emit(TraceEvent::Alloc { order: 2, pfn: 64 });
//! // Loss-less archival: export → parse reproduces the exact stream.
//! let records = session.records();
//! let jsonl = contig_trace::export_jsonl(&records);
//! let back = contig_trace::parse_jsonl(&jsonl).unwrap();
//! assert_eq!(back, records);
//! ```
//!
//! ## Overhead
//!
//! A disabled [`Tracer`] (the default everywhere) costs one `Option`
//! branch per probe.

#![warn(missing_docs)]

mod event;
mod export;
mod flight;
mod registry;
mod sink;
mod span;
mod tracer;

pub use event::{DaemonStage, Dim, FaultClass, Record, RecoveryStage, TraceEvent};
pub use export::{export_chrome, export_jsonl, parse_jsonl};
pub use flight::{FlightRecorder, FLIGHT_CAPACITY};
pub use registry::{Log2Histogram, MetricsRegistry};
pub use span::{
    declare_canonical_metrics, stage, validate_metric_names, SpanStack, StackCell, SPAN_STAGES,
};
pub use tracer::{ScopedSpan, TraceSession, Tracer};
