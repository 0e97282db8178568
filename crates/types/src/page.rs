//! Page sizes, frame numbers, and page-number arithmetic.

use core::fmt;

/// Log2 of the base (4 KiB) page size.
pub const BASE_PAGE_SHIFT: u32 = 12;
/// Size in bytes of a base page (4 KiB).
pub const BASE_PAGE_SIZE: u64 = 1 << BASE_PAGE_SHIFT;
/// Log2 of the huge (2 MiB) page size.
pub(crate) const HUGE_PAGE_SHIFT: u32 = 21;
/// Size in bytes of a huge page (2 MiB).
pub(crate) const HUGE_PAGE_SIZE: u64 = 1 << HUGE_PAGE_SHIFT;
/// Number of base pages per huge page (512 on x86-64).
pub const PAGES_PER_HUGE: u64 = HUGE_PAGE_SIZE / BASE_PAGE_SIZE;

/// The translation granularities supported by the simulated x86-64 MMU.
///
/// The paper (and Linux THP) manage two sizes transparently: 4 KiB base pages
/// and 2 MiB huge pages. 1 GiB pages exist on real hardware but are out of
/// scope, exactly as in the paper.
///
/// # Examples
///
/// ```
/// use contig_types::PageSize;
/// assert_eq!(PageSize::Huge2M.bytes() / PageSize::Base4K.bytes(), 512);
/// assert!(PageSize::Huge2M > PageSize::Base4K);
/// ```
#[derive(Clone, Copy, Debug, PartialEq, Eq, PartialOrd, Ord, Hash, Default)]
pub enum PageSize {
    /// 4 KiB base page.
    #[default]
    Base4K,
    /// 2 MiB transparent huge page.
    Huge2M,
}

impl PageSize {
    /// Size of the page in bytes.
    pub const fn bytes(self) -> u64 {
        match self {
            PageSize::Base4K => BASE_PAGE_SIZE,
            PageSize::Huge2M => HUGE_PAGE_SIZE,
        }
    }

    /// Log2 of the page size in bytes.
    pub const fn shift(self) -> u32 {
        match self {
            PageSize::Base4K => BASE_PAGE_SHIFT,
            PageSize::Huge2M => HUGE_PAGE_SHIFT,
        }
    }

    /// Number of 4 KiB base frames this page spans (1 or 512).
    pub const fn base_pages(self) -> u64 {
        self.bytes() / BASE_PAGE_SIZE
    }

    /// Buddy-allocator order of one page of this size (0 or 9).
    pub const fn order(self) -> u32 {
        match self {
            PageSize::Base4K => 0,
            PageSize::Huge2M => 9,
        }
    }
}

impl fmt::Display for PageSize {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            PageSize::Base4K => f.write_str("4K"),
            PageSize::Huge2M => f.write_str("2M"),
        }
    }
}

macro_rules! frame_number {
    ($(#[$doc:meta])* $name:ident) => {
        $(#[$doc])*
        #[derive(Clone, Copy, Debug, PartialEq, Eq, PartialOrd, Ord, Hash, Default)]
        pub struct $name(pub u64);

        impl $name {
            /// Wraps a raw frame/page number.
            pub const fn new(n: u64) -> Self {
                Self(n)
            }

            /// The raw number.
            pub const fn raw(self) -> u64 {
                self.0
            }

            /// Byte address of the start of this page.
            pub const fn byte_offset(self) -> u64 {
                self.0 << BASE_PAGE_SHIFT
            }

            /// Returns the number advanced by `n` base pages.
            #[must_use]
            pub const fn add(self, n: u64) -> Self {
                Self(self.0 + n)
            }

            /// Returns the number moved back by `n` base pages.
            ///
            /// # Panics
            ///
            /// Panics in debug builds if the subtraction underflows.
            #[must_use]
            pub const fn sub(self, n: u64) -> Self {
                Self(self.0 - n)
            }

            /// Whether this number is aligned to a block of `1 << order` base pages.
            pub const fn is_aligned(self, order: u32) -> bool {
                self.0 & ((1 << order) - 1) == 0
            }

            /// Rounds down to the nearest multiple of `1 << order` base pages.
            #[must_use]
            pub const fn align_down(self, order: u32) -> Self {
                Self(self.0 & !((1u64 << order) - 1))
            }
        }

        impl fmt::Display for $name {
            fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
                write!(f, "{}#{:#x}", stringify!($name), self.0)
            }
        }

        impl fmt::LowerHex for $name {
            fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
                fmt::LowerHex::fmt(&self.0, f)
            }
        }

        impl From<u64> for $name {
            fn from(n: u64) -> Self {
                Self(n)
            }
        }

        impl From<$name> for u64 {
            fn from(n: $name) -> u64 {
                n.0
            }
        }
    };
}

frame_number! {
    /// A physical page frame number: a physical address divided by 4 KiB.
    ///
    /// In virtualized configurations a `Pfn` may number either guest-physical
    /// or host-physical frames; the owning structure disambiguates.
    ///
    /// # Examples
    ///
    /// ```
    /// use contig_types::Pfn;
    /// let f = Pfn::new(512);
    /// assert!(f.is_aligned(9)); // 2 MiB aligned
    /// assert_eq!(f.add(1).raw(), 513);
    /// ```
    Pfn
}

frame_number! {
    /// A virtual page number: a virtual address divided by 4 KiB.
    ///
    /// # Examples
    ///
    /// ```
    /// use contig_types::Vpn;
    /// assert_eq!(Vpn::new(3).byte_offset(), 3 * 4096);
    /// ```
    Vpn
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn page_size_relations() {
        assert_eq!(PageSize::Base4K.bytes(), 4096);
        assert_eq!(PageSize::Huge2M.bytes(), 2 * 1024 * 1024);
        assert_eq!(PageSize::Huge2M.base_pages(), PAGES_PER_HUGE);
        assert_eq!(PageSize::Base4K.order(), 0);
        assert_eq!(PageSize::Huge2M.order(), 9);
        assert_eq!(PageSize::Base4K.to_string(), "4K");
        assert_eq!(PageSize::Huge2M.to_string(), "2M");
    }

    #[test]
    fn frame_alignment() {
        assert!(Pfn::new(0).is_aligned(11));
        assert!(Pfn::new(1024).is_aligned(10));
        assert!(!Pfn::new(1025).is_aligned(1));
        assert_eq!(Pfn::new(1027).align_down(9), Pfn::new(1024));
    }

    #[test]
    fn frame_arithmetic_roundtrip() {
        let f = Vpn::new(77);
        assert_eq!(f.add(23).sub(23), f);
        assert_eq!(u64::from(f), 77);
        assert_eq!(Vpn::from(77u64), f);
    }

    #[test]
    fn ordering_follows_raw_value() {
        assert!(Pfn::new(1) < Pfn::new(2));
        assert!(Vpn::new(9) > Vpn::new(3));
    }
}
