//! The experiment harness: wires workloads, placement policies, the TLB
//! simulator, and the metrics into the paper's experiments.
//!
//! Every table and figure of the evaluation section has a runner here (see
//! `DESIGN.md` §3), and all take one path: one policy object per kind, one
//! native set-up or VM boot, one population loop and one
//! [`translation::replay`].
//!
//! | Module | Experiments |
//! |---|---|
//! | [`contiguity`] | Fig. 1b, 1c, 7, 8, 10, 12 |
//! | [`translation`] | Fig. 13, 14; Tables I, VII; the 5-level and shadow extensions |
//! | [`latency`] | Table V |
//! | [`bloat`] | Table VI |
//! | [`fragmentation`] | Fig. 9 |
//! | [`overhead`] | Fig. 11 |
//!
//! # Examples
//!
//! ```
//! use contig_sim::{Env, PolicyKind};
//! use contig_workloads::Workload;
//!
//! let env = Env::tiny();
//! let run = contig_sim::contiguity::run_native(&env, Workload::Svm, PolicyKind::Ca, 0.0, 1);
//! assert!(run.metrics.top32 > 0.9);
//! ```

#![warn(missing_docs)]

pub mod bloat;
pub mod contiguity;
mod env;
pub mod fragmentation;
mod install;
pub mod latency;
pub mod overhead;
mod policies;
pub mod translation;

pub use env::Env;
pub use install::{install_in_vm, populate_vm};
pub use policies::PolicyKind;
