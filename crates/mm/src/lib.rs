//! OS memory-management substrate: VMAs, page tables, demand paging, THP,
//! copy-on-write, and the page cache.
//!
//! This crate reproduces the Linux fault path the paper's CA paging extends.
//! The key extension point is the [`PlacementPolicy`] trait: the fault driver
//! ([`System::fault`]) delegates *where* a page lands to the policy, which is
//! exactly the hook the paper adds to the core memory manager. The default
//! policies here are the paper's baselines ([`DefaultThpPolicy`],
//! [`BasePagesPolicy`]); CA paging itself lives in `contig-core` and the
//! remaining comparators in `contig-baselines`.
//!
//! # Examples
//!
//! ```
//! use contig_buddy::MachineConfig;
//! use contig_mm::{contiguous_mappings, DefaultThpPolicy, System, SystemConfig, VmaKind};
//! use contig_types::{VirtAddr, VirtRange};
//!
//! let mut sys = System::new(SystemConfig::new(MachineConfig::single_node_mib(64)));
//! let pid = sys.spawn();
//! let vma = sys
//!     .aspace_mut(pid)
//!     .map_vma(VirtRange::new(VirtAddr::new(0x40_0000), 8 << 20), VmaKind::Anon);
//! let mut policy = DefaultThpPolicy;
//! sys.populate_vma(&mut policy, pid, vma)?;
//! let mappings = contiguous_mappings(sys.aspace(pid).page_table());
//! assert!(!mappings.is_empty());
//! # Ok::<(), contig_types::FaultError>(())
//! ```

#![warn(missing_docs)]

mod aspace;
mod audit;
mod daemon;
mod extract;
mod page_cache;
mod page_table;
mod poison;
mod policy;
mod pte;
mod recovery;
mod rmap;
mod snapshot;
mod stats;
mod system;
mod vma;

pub use aspace::{AddressSpace, VmaId};
pub use audit::{AuditReport, AuditViolation};
pub use daemon::{DaemonConfig, DaemonPhase, DaemonState, DaemonStats};
pub use extract::{compose_mappings, contiguous_mappings};
pub use page_cache::{
    CacheAllocMode, FileCacheSnapshot, FileId, PageCache, PageCacheSnapshot, READAHEAD_PAGES,
};
pub use page_table::{MappedPage, PageTable, LEVELS, LEVELS_LA57};
pub use poison::{FailureAction, MemoryFailureOutcome, PoisonStats};
pub use policy::{BasePagesPolicy, DefaultThpPolicy, FaultCtx, FaultKind, Placement, PlacementPolicy};
pub use pte::{Pte, PteFlags};
pub use recovery::RecoveryStats;
pub use rmap::{Dest, FrameRef, FrameUsers, PteRef};
pub use snapshot::{FaultStatsSnapshot, ProcessSnapshot, SystemSnapshot, VmaSnapshot};
pub use stats::FaultStats;
pub use system::{
    FaultOutcome, KsmError, KsmMergeOutcome, Pid, System, SystemConfig,
};
pub use vma::{OffsetSet, VmaKind, MAX_OFFSETS_PER_VMA};
