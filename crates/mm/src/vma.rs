//! Virtual memory areas and CA paging's per-VMA offset metadata.

use core::fmt;

use contig_types::{MapOffset, VirtAddr, VirtRange};

use crate::page_cache::FileId;

/// Maximum tracked sub-VMA offsets (paper §III-C: "we track up to 64 Offsets
/// per VMA and apply a FIFO policy").
pub const MAX_OFFSETS_PER_VMA: usize = 64;

/// What backs a VMA.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub enum VmaKind {
    /// Anonymous memory (heap, stacks, `mmap(MAP_ANONYMOUS)`).
    Anon,
    /// A file mapping served through the page cache.
    File {
        /// The backing file.
        file: FileId,
        /// File page index corresponding to the VMA start.
        start_page: u64,
    },
}

/// FIFO-bounded set of `(fault address, offset)` placements for one VMA.
///
/// A fresh VMA has no offsets; the first placement installs one. Under
/// external fragmentation a VMA may be distributed over multiple free blocks,
/// each with its own offset; page faults pick the offset recorded by the
/// *closest* previous fault (paper §III-C, "Dealing with external
/// fragmentation").
///
/// # Examples
///
/// ```
/// use contig_mm::OffsetSet;
/// use contig_types::{MapOffset, VirtAddr, PhysAddr};
///
/// let mut set = OffsetSet::new();
/// set.push(VirtAddr::new(0x1000), MapOffset::between(VirtAddr::new(0x1000), PhysAddr::new(0x10_0000)));
/// set.push(VirtAddr::new(0x9000), MapOffset::between(VirtAddr::new(0x9000), PhysAddr::new(0x80_0000)));
/// let near_first = set.nearest(VirtAddr::new(0x2000)).unwrap();
/// assert_eq!(near_first.apply(VirtAddr::new(0x2000)), PhysAddr::new(0x10_1000));
/// ```
#[derive(Clone, Debug, Default)]
pub struct OffsetSet {
    /// FIFO order: oldest first.
    entries: Vec<(VirtAddr, MapOffset)>,
}

impl OffsetSet {
    /// An empty set.
    pub fn new() -> Self {
        Self::default()
    }

    /// Number of tracked offsets.
    pub fn len(&self) -> usize {
        self.entries.len()
    }

    /// Whether no offset has been recorded yet.
    pub fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }

    /// Records a placement, evicting the oldest entry beyond
    /// [`MAX_OFFSETS_PER_VMA`].
    pub fn push(&mut self, fault_va: VirtAddr, offset: MapOffset) {
        if self.entries.len() == MAX_OFFSETS_PER_VMA {
            self.entries.remove(0);
        }
        self.entries.push((fault_va, offset));
    }

    /// The offset recorded by the fault whose address is closest to `va`.
    pub fn nearest(&self, va: VirtAddr) -> Option<MapOffset> {
        self.entries
            .iter()
            .min_by_key(|(fva, _)| fva.raw().abs_diff(va.raw()))
            .map(|&(_, off)| off)
    }

    /// Iterates `(fault address, offset)` pairs oldest-first.
    pub(crate) fn iter(&self) -> impl Iterator<Item = (VirtAddr, MapOffset)> + '_ {
        self.entries.iter().copied()
    }
}

/// A process virtual memory area: a contiguous virtual range, its backing
/// kind, and the CA paging metadata attached to Linux's `vma` struct.
#[derive(Clone, Debug)]
pub struct Vma {
    range: VirtRange,
    kind: VmaKind,
    /// CA paging placement metadata.
    offsets: OffsetSet,
    /// The per-VMA replacement flag (paper §III-C, "Avoiding multithreading
    /// pitfalls"): only the first thread that observes a target failure may
    /// run a re-placement; others retry.
    replacement_claimed: bool,
}

impl Vma {
    /// A VMA over `range` backed by `kind`.
    pub(crate) fn new(range: VirtRange, kind: VmaKind) -> Self {
        Self { range, kind, offsets: OffsetSet::new(), replacement_claimed: false }
    }

    /// The virtual extent.
    pub fn range(&self) -> VirtRange {
        self.range
    }

    /// The backing kind.
    pub fn kind(&self) -> VmaKind {
        self.kind
    }

    /// Whether `va` falls inside the VMA.
    pub(crate) fn contains(&self, va: VirtAddr) -> bool {
        self.range.contains(va)
    }

    /// Bytes of the VMA not yet faulted before `va`'s sub-region: the
    /// remaining length from `va` to the VMA end, used as the placement key
    /// for sub-VMA re-placements.
    pub fn remaining_from(&self, va: VirtAddr) -> u64 {
        self.range.end().raw().saturating_sub(va.raw())
    }

    /// CA paging offsets recorded for this VMA.
    pub fn offsets(&self) -> &OffsetSet {
        &self.offsets
    }

    /// Mutable access to the offsets (placement policies update them).
    pub fn offsets_mut(&mut self) -> &mut OffsetSet {
        &mut self.offsets
    }

    /// Attempts to claim the VMA's re-placement slot; returns `false` when
    /// another in-flight fault already claimed it.
    pub fn claim_replacement(&mut self) -> bool {
        if self.replacement_claimed {
            false
        } else {
            self.replacement_claimed = true;
            true
        }
    }

    /// Releases the re-placement slot after the offset update completes.
    pub fn release_replacement(&mut self) {
        self.replacement_claimed = false;
    }

    /// Whether the re-placement slot is currently claimed.
    pub(crate) fn replacement_claimed(&self) -> bool {
        self.replacement_claimed
    }
}

impl fmt::Display for Vma {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "vma {} ({:?}, {} offsets)", self.range, self.kind, self.offsets.len())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use contig_types::PhysAddr;

    fn off(va: u64, pa: u64) -> MapOffset {
        MapOffset::between(VirtAddr::new(va), PhysAddr::new(pa))
    }

    #[test]
    fn fifo_eviction_beyond_cap() {
        let mut set = OffsetSet::new();
        for i in 0..(MAX_OFFSETS_PER_VMA as u64 + 10) {
            set.push(VirtAddr::new(i * 0x1000), off(i * 0x1000, i * 0x2000));
        }
        assert_eq!(set.len(), MAX_OFFSETS_PER_VMA);
        // The ten oldest entries are gone.
        let first = set.iter().next().unwrap();
        assert_eq!(first.0, VirtAddr::new(10 * 0x1000));
    }

    #[test]
    fn nearest_picks_closest_fault_address() {
        let mut set = OffsetSet::new();
        set.push(VirtAddr::new(0x10_0000), off(0x10_0000, 0x1000));
        set.push(VirtAddr::new(0x80_0000), off(0x80_0000, 0x2000));
        let near_low = set.nearest(VirtAddr::new(0x20_0000)).unwrap();
        assert_eq!(near_low, off(0x10_0000, 0x1000));
        let near_high = set.nearest(VirtAddr::new(0x70_0000)).unwrap();
        assert_eq!(near_high, off(0x80_0000, 0x2000));
    }

    #[test]
    fn nearest_on_empty_is_none() {
        assert_eq!(OffsetSet::new().nearest(VirtAddr::new(0)), None);
    }

    #[test]
    fn replacement_claim_is_exclusive() {
        let mut vma =
            Vma::new(VirtRange::new(VirtAddr::new(0x1000), 0x10_0000), VmaKind::Anon);
        assert!(vma.claim_replacement());
        assert!(!vma.claim_replacement());
        vma.release_replacement();
        assert!(vma.claim_replacement());
    }

    #[test]
    fn remaining_from_measures_to_vma_end() {
        let vma = Vma::new(VirtRange::new(VirtAddr::new(0x10_0000), 0x40_0000), VmaKind::Anon);
        assert_eq!(vma.remaining_from(VirtAddr::new(0x10_0000)), 0x40_0000);
        assert_eq!(vma.remaining_from(VirtAddr::new(0x30_0000)), 0x20_0000);
        assert_eq!(vma.remaining_from(VirtAddr::new(0x60_0000)), 0);
    }
}
