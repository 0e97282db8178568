//! Byte-granularity addresses and the virtual-to-physical offset.

use core::fmt;
use core::ops::{Add, AddAssign, Sub};

use crate::page::{PageSize, Pfn, Vpn, BASE_PAGE_SHIFT};

macro_rules! byte_address {
    ($(#[$doc:meta])* $name:ident, $page_number:ident) => {
        $(#[$doc])*
        #[derive(Clone, Copy, Debug, PartialEq, Eq, PartialOrd, Ord, Hash, Default)]
        pub struct $name(pub u64);

        impl $name {
            /// Wraps a raw byte address.
            pub const fn new(addr: u64) -> Self {
                Self(addr)
            }

            /// The raw byte address.
            pub const fn raw(self) -> u64 {
                self.0
            }

            /// The 4 KiB page number containing this address.
            pub const fn page_number(self) -> $page_number {
                $page_number::new(self.0 >> BASE_PAGE_SHIFT)
            }

            /// Byte offset inside the containing page of the given size.
            pub const fn page_offset(self, size: PageSize) -> u64 {
                self.0 & (size.bytes() - 1)
            }

            /// Rounds down to the start of the containing page.
            #[must_use]
            pub const fn align_down(self, size: PageSize) -> Self {
                Self(self.0 & !(size.bytes() - 1))
            }

            /// Rounds up to the next page boundary (identity if aligned).
            #[must_use]
            pub const fn align_up(self, size: PageSize) -> Self {
                Self((self.0 + size.bytes() - 1) & !(size.bytes() - 1))
            }

            /// Whether this address sits on a boundary of the given page size.
            pub const fn is_aligned(self, size: PageSize) -> bool {
                self.0 & (size.bytes() - 1) == 0
            }

            /// Checked addition of a byte count.
            pub fn checked_add(self, bytes: u64) -> Option<Self> {
                self.0.checked_add(bytes).map(Self)
            }
        }

        impl fmt::Display for $name {
            fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
                write!(f, "{:#x}", self.0)
            }
        }

        impl fmt::LowerHex for $name {
            fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
                fmt::LowerHex::fmt(&self.0, f)
            }
        }

        impl From<$page_number> for $name {
            fn from(n: $page_number) -> Self {
                Self(n.byte_offset())
            }
        }

        impl Add<u64> for $name {
            type Output = Self;
            fn add(self, rhs: u64) -> Self {
                Self(self.0 + rhs)
            }
        }

        impl AddAssign<u64> for $name {
            fn add_assign(&mut self, rhs: u64) {
                self.0 += rhs;
            }
        }

        impl Sub<$name> for $name {
            type Output = u64;
            fn sub(self, rhs: $name) -> u64 {
                self.0 - rhs.0
            }
        }
    };
}

byte_address! {
    /// A byte-granularity virtual address.
    ///
    /// In native configurations this is a process virtual address; in
    /// virtualized configurations it is a *guest* virtual address (gVA).
    ///
    /// # Examples
    ///
    /// ```
    /// use contig_types::{VirtAddr, PageSize};
    /// let va = VirtAddr::new(0x2001_1234);
    /// assert_eq!(va.align_down(PageSize::Base4K), VirtAddr::new(0x2001_1000));
    /// assert_eq!(va.page_offset(PageSize::Base4K), 0x234);
    /// ```
    VirtAddr, Vpn
}

byte_address! {
    /// A byte-granularity physical address.
    ///
    /// Depending on context this is a native physical, guest-physical (gPA),
    /// or host-physical (hPA) address.
    ///
    /// # Examples
    ///
    /// ```
    /// use contig_types::{PhysAddr, Pfn};
    /// assert_eq!(PhysAddr::from(Pfn::new(2)).raw(), 8192);
    /// ```
    PhysAddr, Pfn
}

/// One memory reference: what the workload generators yield and the TLB
/// simulator replays.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct Access {
    /// Program counter of the memory instruction (SpOT's prediction index).
    pub pc: u64,
    /// Referenced virtual address.
    pub va: VirtAddr,
    /// Whether the access writes.
    pub write: bool,
}

impl Access {
    /// A read access.
    pub fn read(pc: u64, va: VirtAddr) -> Self {
        Self { pc, va, write: false }
    }

    /// A write access.
    pub fn write(pc: u64, va: VirtAddr) -> Self {
        Self { pc, va, write: true }
    }
}

/// The signed distance `virtual_address - physical_address` shared by every
/// page of one contiguous virtual-to-physical mapping.
///
/// This is the paper's central observation (§III-B): a larger-than-a-page
/// contiguous mapping is fully described by a single offset, with no need to
/// track its boundaries or alignment. CA paging stores one (or a few)
/// `MapOffset`s per VMA; SpOT's prediction table caches gVA→hPA offsets.
///
/// # Examples
///
/// ```
/// use contig_types::{MapOffset, VirtAddr, PhysAddr};
/// let off = MapOffset::between(VirtAddr::new(0x9000), PhysAddr::new(0x4000));
/// // Every address in the same contiguous mapping translates by subtraction:
/// assert_eq!(off.apply(VirtAddr::new(0x9abc)), PhysAddr::new(0x4abc));
/// ```
#[derive(Clone, Copy, Debug, PartialEq, Eq, PartialOrd, Ord, Hash, Default)]
pub struct MapOffset(pub i128);

impl MapOffset {
    /// Offset that identifies the mapping containing the pair `(va, pa)`.
    pub const fn between(va: VirtAddr, pa: PhysAddr) -> Self {
        Self(va.0 as i128 - pa.0 as i128)
    }

    /// Translates a virtual address through this offset (`pa = va - offset`).
    ///
    /// # Panics
    ///
    /// Panics if the resulting physical address would be negative or exceed
    /// `u64::MAX`, which indicates the offset is being applied outside the
    /// mapping it was derived from.
    pub fn apply(self, va: VirtAddr) -> PhysAddr {
        let pa = va.0 as i128 - self.0;
        assert!(
            (0..=u64::MAX as i128).contains(&pa),
            "offset {} applied to {} escapes the physical address space",
            self.0,
            va
        );
        PhysAddr(pa as u64)
    }

    /// Translates without panicking; `None` when the result is out of range.
    pub fn try_apply(self, va: VirtAddr) -> Option<PhysAddr> {
        let pa = va.0 as i128 - self.0;
        if (0..=u64::MAX as i128).contains(&pa) {
            Some(PhysAddr(pa as u64))
        } else {
            None
        }
    }

    /// The target 4 KiB frame for a virtual page under this offset, if it
    /// exists in the physical address space.
    pub fn target_frame(self, vpn: Vpn) -> Option<Pfn> {
        self.try_apply(VirtAddr::from(vpn)).map(|pa| pa.page_number())
    }

    /// The raw signed byte distance.
    pub const fn raw(self) -> i128 {
        self.0
    }
}

impl fmt::Display for MapOffset {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "offset({:+#x})", self.0)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn align_and_offset() {
        let va = VirtAddr::new(0x40_0000 + 0x1234);
        assert_eq!(va.align_down(PageSize::Huge2M), VirtAddr::new(0x40_0000));
        assert_eq!(va.page_offset(PageSize::Huge2M), 0x1234);
        assert!(VirtAddr::new(0x40_0000).is_aligned(PageSize::Huge2M));
        assert_eq!(
            VirtAddr::new(0x40_0001).align_up(PageSize::Base4K),
            VirtAddr::new(0x40_1000)
        );
        assert_eq!(VirtAddr::new(0x40_1000).align_up(PageSize::Base4K), VirtAddr::new(0x40_1000));
    }

    #[test]
    fn offset_roundtrip() {
        let va = VirtAddr::new(0x7fff_0000_0000);
        let pa = PhysAddr::new(0x1_2345_6000);
        let off = MapOffset::between(va, pa);
        assert_eq!(off.apply(va), pa);
        assert_eq!(off.apply(va + 0x5000), pa + 0x5000);
    }

    #[test]
    fn negative_offset_when_pa_above_va() {
        let va = VirtAddr::new(0x1000);
        let pa = PhysAddr::new(0x100_0000);
        let off = MapOffset::between(va, pa);
        assert!(off.raw() < 0);
        assert_eq!(off.apply(va), pa);
    }

    #[test]
    fn try_apply_out_of_range() {
        let off = MapOffset::between(VirtAddr::new(0x10_0000), PhysAddr::new(0));
        assert_eq!(off.try_apply(VirtAddr::new(0)), None);
        assert!(off.try_apply(VirtAddr::new(0x10_0000)).is_some());
    }

    #[test]
    fn target_frame_translates_page_numbers() {
        let off = MapOffset::between(VirtAddr::new(0x8000), PhysAddr::new(0x3000));
        assert_eq!(off.target_frame(Vpn::new(8)), Some(Pfn::new(3)));
        assert_eq!(off.target_frame(Vpn::new(9)), Some(Pfn::new(4)));
    }

    #[test]
    fn address_subtraction_gives_distance() {
        assert_eq!(VirtAddr::new(0x3000) - VirtAddr::new(0x1000), 0x2000);
    }
}
