//! Core value types shared by every crate in the `contig` workspace.
//!
//! This crate defines the vocabulary of the simulator: virtual and physical
//! addresses, page frame numbers, page sizes, virtual-to-physical offsets, and
//! address ranges. Everything is a thin newtype over `u64`/`usize` so that the
//! type system distinguishes the three address spaces involved in memory
//! virtualization (guest-virtual, guest-physical, host-physical) and the two
//! numbering schemes (byte addresses vs. page frame numbers). It is also the
//! one crate below every other, so what every wire format shares lives here:
//! the FNV-1a-64 digest primitive and the canonical integer-only [`json`]
//! value, writer and parser.
//!
//! # Examples
//!
//! ```
//! use contig_types::{VirtAddr, PhysAddr, PageSize, MapOffset};
//!
//! let va = VirtAddr::new(0x7f00_0000_1000);
//! let pa = PhysAddr::new(0x2_0000_3000);
//! let off = MapOffset::between(va, pa);
//! assert_eq!(off.apply(va), pa);
//! assert_eq!(va.page_offset(PageSize::Base4K), 0);
//! ```

#![warn(missing_docs)]

mod addr;
mod error;
mod hash;
mod inject;
pub mod json;
mod page;
mod range;

pub use addr::{Access, MapOffset, PhysAddr, VirtAddr};
pub use error::{AllocError, ContigError, FaultError, TranslateError};
pub use hash::{fnv1a64, Fnv1a64};
pub use inject::{
    jittered_backoff, splitmix64, FailMode, FailPolicy, PoisonMode, PoisonPolicy, TransportFault,
    TransportMode, TransportPolicy,
};
pub use page::{PageSize, Pfn, Vpn, BASE_PAGE_SHIFT, BASE_PAGE_SIZE, PAGES_PER_HUGE};
pub use range::{ContigMapping, PhysRange, VirtRange};
