//! A process address space: VMAs plus a page table plus fault statistics.

use std::collections::BTreeMap;

use contig_types::{VirtAddr, VirtRange};

use crate::page_table::PageTable;
use crate::stats::FaultStats;
use crate::vma::{Vma, VmaKind};

/// Identifier of a VMA within one address space (its start address).
#[derive(Clone, Copy, Debug, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct VmaId(pub VirtAddr);

/// A single process (or guest-physical) address space.
///
/// # Examples
///
/// ```
/// use contig_mm::{AddressSpace, VmaKind};
/// use contig_types::{VirtAddr, VirtRange};
///
/// let mut aspace = AddressSpace::new();
/// let vma = aspace.map_vma(VirtRange::new(VirtAddr::new(0x10_0000), 0x40_0000), VmaKind::Anon);
/// assert!(aspace.vma_containing(VirtAddr::new(0x20_0000)).is_some());
/// assert_eq!(aspace.vma(vma).range().len(), 0x40_0000);
/// ```
#[derive(Debug, Default)]
pub struct AddressSpace {
    vmas: BTreeMap<VirtAddr, Vma>,
    page_table: PageTable,
    stats: FaultStats,
    /// NUMA home node: default placement allocates from that zone first.
    /// `None` (the default) means machine-wide first-fill placement.
    home: Option<usize>,
}

impl AddressSpace {
    /// An empty address space.
    pub fn new() -> Self {
        Self::default()
    }

    /// An address space whose statistics record individual fault latencies.
    pub(crate) fn with_latency_recording() -> Self {
        Self { stats: FaultStats::recording(), ..Self::default() }
    }

    /// Installs a VMA over `range`.
    ///
    /// # Panics
    ///
    /// Panics if the range is empty, not page aligned, or overlaps an
    /// existing VMA.
    pub fn map_vma(&mut self, range: VirtRange, kind: VmaKind) -> VmaId {
        assert!(!range.is_empty(), "empty VMA at {}", range.start());
        assert!(
            range.is_aligned(contig_types::PageSize::Base4K),
            "VMA {range} not page aligned"
        );
        let overlap = self
            .vmas
            .range(..=range.start())
            .next_back()
            .map(|(_, v)| v.range().overlaps(&range))
            .unwrap_or(false)
            || self
                .vmas
                .range(range.start()..)
                .next()
                .map(|(_, v)| v.range().overlaps(&range))
                .unwrap_or(false);
        assert!(!overlap, "VMA {range} overlaps an existing mapping");
        self.vmas.insert(range.start(), Vma::new(range, kind));
        VmaId(range.start())
    }

    /// The VMA with the given id.
    ///
    /// # Panics
    ///
    /// Panics if the id is stale.
    pub fn vma(&self, id: VmaId) -> &Vma {
        &self.vmas[&id.0]
    }

    /// Mutable access to a VMA.
    ///
    /// # Panics
    ///
    /// Panics if the id is stale.
    pub fn vma_mut(&mut self, id: VmaId) -> &mut Vma {
        self.vmas.get_mut(&id.0).expect("stale VmaId")
    }

    /// The VMA containing `va`, if any.
    pub fn vma_containing(&self, va: VirtAddr) -> Option<VmaId> {
        let (&start, vma) = self.vmas.range(..=va).next_back()?;
        vma.contains(va).then_some(VmaId(start))
    }

    /// Iterates VMA ids in address order.
    pub fn vma_ids(&self) -> impl Iterator<Item = VmaId> + '_ {
        self.vmas.keys().map(|&start| VmaId(start))
    }

    /// The process page table.
    pub fn page_table(&self) -> &PageTable {
        &self.page_table
    }

    /// Mutable access to the page table.
    pub fn page_table_mut(&mut self) -> &mut PageTable {
        &mut self.page_table
    }

    /// Replaces the (empty) page table with one of the given radix depth.
    ///
    /// # Panics
    ///
    /// Panics if any mapping was already installed, or on an unsupported
    /// depth.
    pub(crate) fn set_page_table_levels(&mut self, levels: u32) {
        assert_eq!(self.page_table.mapped_bytes(), 0, "depth change after mappings exist");
        self.page_table = PageTable::with_levels(levels);
    }

    /// Fault statistics.
    pub fn stats(&self) -> &FaultStats {
        &self.stats
    }

    /// Mutable access to the statistics.
    pub(crate) fn stats_mut(&mut self) -> &mut FaultStats {
        &mut self.stats
    }

    /// The NUMA home node, if one is assigned (see
    /// [`crate::System::set_home_node`]).
    pub(crate) fn home(&self) -> Option<usize> {
        self.home
    }

    pub(crate) fn set_home(&mut self, home: Option<usize>) {
        self.home = home;
    }

    /// Splits the borrow into the pieces a fault needs simultaneously.
    pub(crate) fn fault_parts(
        &mut self,
        vma: VmaId,
    ) -> (&mut Vma, &mut PageTable, &mut FaultStats) {
        let vma = self.vmas.get_mut(&vma.0).expect("stale VmaId");
        (vma, &mut self.page_table, &mut self.stats)
    }

    /// Total bytes currently mapped in the page table.
    pub fn mapped_bytes(&self) -> u64 {
        self.page_table.mapped_bytes()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn range(start: u64, len: u64) -> VirtRange {
        VirtRange::new(VirtAddr::new(start), len)
    }

    #[test]
    fn vma_lookup_by_address() {
        let mut a = AddressSpace::new();
        let low = a.map_vma(range(0x1000, 0x2000), VmaKind::Anon);
        let high = a.map_vma(range(0x10_0000, 0x1000), VmaKind::Anon);
        assert_eq!(a.vma_containing(VirtAddr::new(0x1000)), Some(low));
        assert_eq!(a.vma_containing(VirtAddr::new(0x2fff)), Some(low));
        assert_eq!(a.vma_containing(VirtAddr::new(0x3000)), None);
        assert_eq!(a.vma_containing(VirtAddr::new(0x10_0abc)), Some(high));
        assert_eq!(a.vmas.len(), 2);
    }

    #[test]
    #[should_panic(expected = "overlaps")]
    fn overlapping_vma_rejected() {
        let mut a = AddressSpace::new();
        a.map_vma(range(0x1000, 0x3000), VmaKind::Anon);
        a.map_vma(range(0x3000, 0x1000), VmaKind::Anon); // ok: adjacent
        a.map_vma(range(0x2000, 0x1000), VmaKind::Anon); // overlaps first
    }

    #[test]
    #[should_panic(expected = "not page aligned")]
    fn unaligned_vma_rejected() {
        let mut a = AddressSpace::new();
        a.map_vma(range(0x1234, 0x1000), VmaKind::Anon);
    }
}
