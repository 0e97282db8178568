//! Metrics and reporting: contiguity coverage, the ISCA'20 linear
//! performance model, USL security estimates, and text-table rendering.
//!
//! Every figure/table regenerator in `contig-bench` computes its numbers
//! through this crate so the methodology (coverage definitions, `T_ideal`
//! accounting, geometric means) is shared and tested once.
//!
//! # Examples
//!
//! ```
//! use contig_metrics::{geomean, CoverageStats};
//! use contig_types::{ContigMapping, PhysAddr, VirtAddr};
//!
//! let maps = vec![ContigMapping::new(VirtAddr::new(0), PhysAddr::new(0x1000), 32 << 20)];
//! let cov = CoverageStats::from_mappings(&maps);
//! assert_eq!(cov.mappings_for_coverage(0.99), 1);
//! assert_eq!(geomean(&[1.0, 4.0]), Some(2.0));
//! ```

#![warn(missing_docs)]

mod coverage;
mod perfmodel;
mod stats;
mod usl;

pub use coverage::{CoverageStats, TimelinePoint};
pub use perfmodel::PerfModel;
pub use stats::{geomean, geomean_counts, human_bytes, TextTable};
pub use usl::{UslEstimate, UslInputs};
