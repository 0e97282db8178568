//! Nested-paging virtualization substrate: guest and host memory managers
//! composed into two-dimensional translations.
//!
//! A [`VirtualMachine`] couples two `contig-mm` [`contig_mm::System`]s: the
//! guest services gVA→gPA faults with its own buddy allocator and placement
//! policy, while every first touch of guest-physical memory raises a nested
//! fault that the host services into its gPA→hPA table. Contiguity analysis
//! ([`two_dimensional_mappings`]) and the TLB-simulator backends
//! ([`VmBackend`], [`NativeBackend`]) compose the two dimensions, exactly
//! like the paper's virtual-machine-introspection tooling.
//!
//! # Examples
//!
//! ```
//! use contig_mm::{DefaultThpPolicy, VmaKind};
//! use contig_types::{VirtAddr, VirtRange};
//! use contig_virt::{two_dimensional_mappings, VirtualMachine, VmConfig};
//!
//! let mut vm = VirtualMachine::new(
//!     VmConfig::with_mib(32, 64),
//!     Box::new(DefaultThpPolicy),
//!     Box::new(DefaultThpPolicy),
//! );
//! let pid = vm.guest_mut().spawn();
//! let vma = vm
//!     .guest_mut()
//!     .aspace_mut(pid)
//!     .map_vma(VirtRange::new(VirtAddr::new(0x40_0000), 2 << 20), VmaKind::Anon);
//! vm.populate_vma(pid, vma)?;
//! assert!(!two_dimensional_mappings(&vm, pid).is_empty());
//! # Ok::<(), contig_types::FaultError>(())
//! ```

#![warn(missing_docs)]

mod migrate;
mod shadow;
mod twod;
mod vm;

pub use migrate::{
    contig_profile, migrate_with_retries, ContigProfile, Delivery, GuestStateCodec,
    LoopbackTransport, MigrationConfig, MigrationError, MigrationOutcome, MigrationReport,
    MigrationSession, MigrationStats, MigrationTarget, ReleaseReport, Transport, TransportClosed,
};
pub use shadow::ShadowPageTable;
pub use twod::{two_dimensional_mappings, NativeBackend, VmBackend};
pub use vm::{GuestMce, HostPoisonReport, VirtualMachine, VmConfig, VmSnapshot};
