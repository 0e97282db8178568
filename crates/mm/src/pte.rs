//! Page-table entries and their flag bits.

use core::fmt;

use contig_types::Pfn;

/// Flag bits of a page-table entry.
///
/// Only the bits the simulation consumes are modelled. `CONTIG` is the
/// reserved PTE bit the paper's OS support sets on translations belonging to
/// large contiguous mappings (§IV-C, "Preventing thrashing"): SpOT's
/// prediction table is only filled from walks whose PTEs carry this bit in
/// *both* dimensions.
///
/// # Examples
///
/// ```
/// use contig_mm::PteFlags;
/// let f = PteFlags::WRITE | PteFlags::CONTIG;
/// assert!(f.contains(PteFlags::CONTIG));
/// assert!(!f.contains(PteFlags::COW));
/// ```
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash, Default)]
pub struct PteFlags(u8);

impl PteFlags {
    /// No flags set.
    pub const NONE: PteFlags = PteFlags(0);
    /// Writable mapping.
    pub const WRITE: PteFlags = PteFlags(1 << 0);
    /// Copy-on-write: shared read-only until the first write fault.
    pub const COW: PteFlags = PteFlags(1 << 1);
    /// The reserved contiguity bit set by CA paging.
    pub const CONTIG: PteFlags = PteFlags(1 << 2);
    /// Frame owned by the page cache, not the process.
    pub const FILE: PteFlags = PteFlags(1 << 3);

    /// Whether every bit of `other` is set in `self`.
    pub const fn contains(self, other: PteFlags) -> bool {
        self.0 & other.0 == other.0
    }

    /// Union of the two flag sets.
    #[must_use]
    pub(crate) const fn union(self, other: PteFlags) -> PteFlags {
        PteFlags(self.0 | other.0)
    }

    /// `self` with the bits of `other` cleared.
    #[must_use]
    pub(crate) const fn difference(self, other: PteFlags) -> PteFlags {
        PteFlags(self.0 & !other.0)
    }

    /// The raw bit pattern.
    pub(crate) const fn bits(self) -> u8 {
        self.0
    }

    /// Flags from a raw bit pattern (snapshot restore); unknown bits are
    /// preserved so a round-trip is exact.
    pub const fn from_bits(bits: u8) -> PteFlags {
        PteFlags(bits)
    }
}

impl core::ops::BitOr for PteFlags {
    type Output = PteFlags;
    fn bitor(self, rhs: PteFlags) -> PteFlags {
        self.union(rhs)
    }
}

impl core::ops::BitOrAssign for PteFlags {
    fn bitor_assign(&mut self, rhs: PteFlags) {
        *self = self.union(rhs);
    }
}

impl fmt::Display for PteFlags {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let mut first = true;
        for (bit, name) in [
            (PteFlags::WRITE, "W"),
            (PteFlags::COW, "C"),
            (PteFlags::CONTIG, "G"),
            (PteFlags::FILE, "F"),
        ] {
            if self.contains(bit) {
                if !first {
                    f.write_str("|")?;
                }
                f.write_str(name)?;
                first = false;
            }
        }
        if first {
            f.write_str("-")?;
        }
        Ok(())
    }
}

/// A present leaf page-table entry: the backing frame plus flags.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub struct Pte {
    /// First 4 KiB frame of the backing page.
    pub pfn: Pfn,
    /// Flag bits.
    pub flags: PteFlags,
}

impl Pte {
    /// The largest frame number a packed entry can hold (52 bits).
    /// [`crate::PageTable::map`] panics on a larger one, so decoders of
    /// untrusted input must check against this first.
    pub const MAX_PFN: Pfn = Pfn::new(u64::MAX >> PAYLOAD_SHIFT);

    /// A present entry mapping onto `pfn` with the given flags.
    pub const fn new(pfn: Pfn, flags: PteFlags) -> Self {
        Self { pfn, flags }
    }
}

/// Tags of a packed 8-byte page-table entry (bits 0..2). The flags sit in
/// bits 2..10 and the PFN or child-table number in the high 52 bits, where an
/// x86 PTE keeps its frame number. The all-zero word is the empty entry.
pub(crate) const EMPTY: u64 = 0;
pub(crate) const TABLE: u64 = 1;
pub(crate) const LEAF: u64 = 2;
const PAYLOAD_SHIFT: u32 = 12;

/// Packs a tag, flags and a PFN or child-table number into one entry.
///
/// # Panics
///
/// Panics if `payload` exceeds [`Pte::MAX_PFN`]: truncating it would alias
/// another frame.
pub(crate) fn pack(tag: u64, flags: PteFlags, payload: u64) -> u64 {
    assert!(payload <= Pte::MAX_PFN.raw(), "frame or table number {payload:#x} exceeds 52 bits");
    payload << PAYLOAD_SHIFT | u64::from(flags.bits()) << 2 | tag
}

/// The `(tag, flags, payload)` a packed entry holds.
pub(crate) fn unpack(entry: u64) -> (u64, PteFlags, u64) {
    (entry & 3, PteFlags::from_bits((entry >> 2) as u8), entry >> PAYLOAD_SHIFT)
}

impl fmt::Display for Pte {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "pte[{} {}]", self.pfn, self.flags)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn flag_algebra() {
        let f = PteFlags::WRITE | PteFlags::COW;
        assert!(f.contains(PteFlags::WRITE));
        assert!(f.contains(PteFlags::COW));
        assert!(!f.contains(PteFlags::CONTIG));
        assert_eq!(f.difference(PteFlags::COW), PteFlags::WRITE);
        assert!(PteFlags::NONE.contains(PteFlags::NONE));
        assert!(!PteFlags::NONE.contains(PteFlags::WRITE));
    }

    #[test]
    fn display_is_never_empty() {
        assert_eq!(PteFlags::NONE.to_string(), "-");
        assert_eq!((PteFlags::WRITE | PteFlags::CONTIG).to_string(), "W|G");
        assert!(!Pte::new(Pfn::new(7), PteFlags::FILE).to_string().is_empty());
    }

    #[test]
    fn pack_unpack_round_trips_every_tag_flag_and_payload_extreme() {
        let max = Pte::MAX_PFN.raw();
        for tag in [EMPTY, TABLE, LEAF] {
            for bits in 0..=u8::MAX {
                for payload in [0, 1, 0x1ff, u64::from(u32::MAX), max - 1, max] {
                    let flags = PteFlags::from_bits(bits);
                    let entry = pack(tag, flags, payload);
                    assert_eq!(unpack(entry), (tag, flags, payload));
                    assert_eq!(entry == EMPTY, tag == EMPTY && bits == 0 && payload == 0);
                }
            }
        }
    }

    #[test]
    #[should_panic(expected = "exceeds 52 bits")]
    fn pack_rejects_a_payload_it_would_truncate() {
        pack(LEAF, PteFlags::NONE, Pte::MAX_PFN.raw() + 1);
    }

    #[test]
    fn bitor_assign_accumulates() {
        let mut f = PteFlags::NONE;
        f |= PteFlags::CONTIG;
        f |= PteFlags::FILE;
        assert_eq!(f, PteFlags::CONTIG | PteFlags::FILE);
    }
}
