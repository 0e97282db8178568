//! Address-translation hardware models: TLBs, page-walk costs, and the
//! trace-driven access simulator.
//!
//! The crate mirrors the paper's emulation methodology (§V): real TLB
//! geometries ([`TlbConfig::broadwell`]), a linear walk-cost model calibrated
//! to the paper's measured averages, and a [`MissHandler`] hook on the
//! last-level miss path where emulated schemes (SpOT in `contig-core`;
//! vRMM and Direct Segments in `contig-baselines`) intercept walks.
//!
//! # Examples
//!
//! ```
//! use contig_tlb::{Access, MemorySim, NoScheme, TlbConfig, TranslationBackend, WalkResult};
//! use contig_types::{PageSize, PhysAddr, VirtAddr};
//!
//! // A toy backend translating identity with 4 KiB pages.
//! struct Identity;
//! impl TranslationBackend for Identity {
//!     fn walk(&self, va: VirtAddr) -> Option<WalkResult> {
//!         Some(WalkResult { pa: PhysAddr::new(va.raw()), size: PageSize::Base4K,
//!                           refs: 4, contig: false, write: false })
//!     }
//! }
//!
//! let mut sim = MemorySim::new(TlbConfig::broadwell(), Default::default());
//! sim.run(&Identity, &mut NoScheme, (0..4u64).map(|i| Access::read(0, VirtAddr::new(i * 4096))));
//! assert_eq!(sim.report().walks, 4);
//! ```

#![warn(missing_docs)]

mod cache;
mod hierarchy;
mod sim;
mod walk;

pub use cache::{CacheSnapshot, SetAssocCache};
pub use hierarchy::{TlbConfig, TlbGeometry, TlbHierarchy, TlbHit, TlbSnapshot};
pub use contig_types::Access;
pub use sim::{MemorySim, MissHandler, MissHandling, NoScheme, SimReport};
pub use walk::{TranslationBackend, WalkCostModel, WalkResult};
