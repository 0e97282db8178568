//! Physical-memory substrate: zones, the buddy allocator, and CA paging's
//! contiguity map.
//!
//! This crate reproduces the part of the Linux core memory manager that the
//! ISCA 2020 paper *Enhancing and Exploiting Contiguity for Fast Memory
//! Virtualization* modifies:
//!
//! - [`Zone`] — a power-of-two buddy allocator per NUMA node with free lists
//!   for orders `0..=top_order`, eager coalescing, and (new in the paper)
//!   *targeted* allocation ([`Zone::alloc_specific`]) so a placement policy
//!   can claim the exact frame an offset designates.
//! - [`ContiguityMap`] — the paper's index of unaligned free contiguity at
//!   scales beyond the buddy heap (a bit per top-order block, each run's
//!   length at both its ends), with the next-fit rover CA placement uses.
//! - [`Machine`] — multiple zones with node-fill spilling, mirroring the
//!   two-socket evaluation machine.
//! - [`Hog`] — the fragmentation micro-benchmark used to create memory
//!   pressure in §VI-A.
//!
//! # Examples
//!
//! ```
//! use contig_buddy::{Machine, MachineConfig, NodeId};
//! use contig_types::PageSize;
//!
//! let mut machine = Machine::new(MachineConfig::single_node_mib(64));
//! // Default placement: wherever the free lists provide.
//! let scattered = machine.alloc_page(PageSize::Huge2M)?;
//! // CA-paging placement: ask the contiguity map for a vast free region,
//! // then claim the exact frames that extend a mapping.
//! let cluster = machine.next_fit_cluster(16 << 20).expect("fresh machine has contiguity");
//! machine.alloc_page_at(cluster.first_page(), PageSize::Huge2M)?;
//! machine.free_page(scattered, PageSize::Huge2M);
//! # Ok::<(), contig_types::AllocError>(())
//! ```

#![warn(missing_docs)]

mod contiguity;
mod frame;
mod freelist;
mod hog;
mod machine;
mod pcp;
mod stats;
mod zone;

pub use contiguity::ContiguityMap;
pub use frame::{FrameState, FrameTable};
pub use freelist::FreeList;
pub use hog::Hog;
pub use machine::{Machine, MachineConfig, MachineSnapshot, NodeId};
pub use pcp::{PcpConfig, PcpCounters, PcpSnapshot};
pub use stats::{FreeBlockHistogram, SizeClass};
pub use zone::{
    PoisonCounters, PoisonDisposition, Zone, ZoneConfig, ZoneCounters, ZoneSnapshot,
    DEFAULT_TOP_ORDER,
};
