//! The comparator systems the paper evaluates CA paging and SpOT against.
//!
//! Software allocation strategies (all [`contig_mm::PlacementPolicy`]
//! implementations or daemons driving [`contig_mm::System`]):
//!
//! - [`EagerPaging`] — whole-VMA pre-allocation from a raised-`MAX_ORDER`
//!   buddy allocator (RMM's scheme).
//! - [`IngensPolicy`] — 4 KiB faults plus utilization-driven asynchronous
//!   huge-page promotion.
//! - [`RangerDaemon`] — Translation Ranger-style post-allocation
//!   defragmentation by page migration.
//! - [`IdealPaging`] — the offline best-fit upper bound.
//!
//! Hardware translation schemes (all [`contig_tlb::MissHandler`]
//! implementations or analyses):
//!
//! - [`VrmmRangeTlb`] — virtualized Redundant Memory Mappings.
//! - [`DirectSegment`] — dual-direct-mode Direct Segments.
//! - [`anchor_entries`] — vHC's entries for Table I's vRMM-vs-vHC
//!   entry-count analysis.

#![warn(missing_docs)]

mod ds;
mod eager;
mod hc;
mod ideal;
mod ingens;
mod ranger;
mod rmm;

pub use ds::DirectSegment;
pub use eager::EagerPaging;
pub use hc::{anchor_distance_pages, anchor_entries, VhcAnchorTlb};
pub use ideal::IdealPaging;
pub use ingens::IngensPolicy;
pub use ranger::RangerDaemon;
pub use rmm::VrmmRangeTlb;
