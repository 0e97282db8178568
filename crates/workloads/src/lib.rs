//! Synthetic workload generators mirroring the paper's evaluation set
//! (Table III): SVM, PageRank, hashjoin, XSBench, and NAS BT.
//!
//! Each [`Workload`] yields a [`WorkloadSpec`] — a scaled VMA layout plus a
//! set of access *phases* (memory instructions with stable PCs and locality
//! classes) — and [`TraceGenerator`] turns the spec into a deterministic
//! reference stream for the TLB simulator. Installing the VMAs into a
//! `contig_mm::System` or `contig_virt::VirtualMachine` is the experiment
//! harness's job (`contig-sim`), keeping this crate free of memory-manager
//! dependencies.
//!
//! # Examples
//!
//! ```
//! use contig_workloads::{Scale, TraceGenerator, Workload};
//!
//! let spec = Workload::XsBench.spec(Scale::tiny());
//! assert_eq!(spec.name, "XSBench");
//! let mut gen = TraceGenerator::new(&spec, 1);
//! let accesses: Vec<_> = gen.take_accesses(100).collect();
//! assert_eq!(accesses.len(), 100);
//! ```

#![warn(missing_docs)]

mod spec;
mod trace;

pub use spec::{Scale, VmaSpec, Workload, WorkloadSpec};
pub use trace::TraceGenerator;
