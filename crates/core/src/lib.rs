//! The paper's two contributions: **contiguity-aware (CA) paging** and
//! **SpOT**, the speculative offset-based address-translation predictor.
//!
//! - [`CaPaging`] implements the [`contig_mm::PlacementPolicy`] hook: it
//!   steers demand-paging allocations through per-VMA offsets and the buddy
//!   allocator's contiguity map, creating vast unaligned contiguous mappings
//!   without pre-allocation.
//! - [`SpotPredictor`] implements the [`contig_tlb::MissHandler`] hook: a
//!   PC-indexed table of `[offset, permissions]` tuples that predicts missing
//!   translations and hides nested page-walk latency.
//! - [`mark_contiguity`] is the OS-side PTE marking that filters SpOT fills.
//!
//! Both mechanisms apply to native and virtualized execution; in a
//! [`contig_virt::VirtualMachine`] a `CaPaging` instance is installed in the
//! guest *and* the host independently.
//!
//! # Examples
//!
//! ```
//! use contig_buddy::MachineConfig;
//! use contig_core::CaPaging;
//! use contig_mm::{contiguous_mappings, System, SystemConfig, VmaKind};
//! use contig_types::{VirtAddr, VirtRange};
//!
//! let mut sys = System::new(SystemConfig::new(MachineConfig::single_node_mib(64)));
//! let pid = sys.spawn();
//! let vma = sys
//!     .aspace_mut(pid)
//!     .map_vma(VirtRange::new(VirtAddr::new(0x40_0000), 8 << 20), VmaKind::Anon);
//! let mut ca = CaPaging::new();
//! sys.populate_vma(&mut ca, pid, vma)?;
//! assert_eq!(contiguous_mappings(sys.aspace(pid).page_table()).len(), 1);
//! # Ok::<(), contig_types::FaultError>(())
//! ```

#![warn(missing_docs)]

mod ca;
mod marking;
mod spot;

pub use ca::{CaConfig, CaPaging};
pub use marking::mark_contiguity;
pub use spot::{SpotConfig, SpotPredictor, SpotStats};
