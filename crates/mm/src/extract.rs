//! Extraction of larger-than-a-page contiguous mappings from a page table —
//! the simulator's analogue of the paper's `pagemap`-based contiguity
//! statistics (§V, "Contiguity results").

use contig_types::{ContigMapping, MapOffset, PhysAddr, VirtAddr};

use crate::page_table::PageTable;

/// Collects the maximal contiguous virtual-to-physical mappings of a page
/// table: runs of consecutive virtual pages whose `va - pa` offset is
/// constant, regardless of page size or alignment.
///
/// # Examples
///
/// ```
/// use contig_mm::{contiguous_mappings, PageTable, Pte, PteFlags};
/// use contig_types::{PageSize, Pfn, VirtAddr};
///
/// let mut pt = PageTable::new();
/// // Two consecutive huge pages, physically adjacent -> one 4 MiB mapping.
/// pt.map(VirtAddr::new(0x40_0000), Pte::new(Pfn::new(1024), PteFlags::NONE), PageSize::Huge2M);
/// pt.map(VirtAddr::new(0x60_0000), Pte::new(Pfn::new(1536), PteFlags::NONE), PageSize::Huge2M);
/// let mappings = contiguous_mappings(&pt);
/// assert_eq!(mappings.len(), 1);
/// assert_eq!(mappings[0].len(), 4 << 20);
/// ```
pub fn contiguous_mappings(pt: &PageTable) -> Vec<ContigMapping> {
    compose_mappings(pt.iter_mappings().map(|m| (m.va, PhysAddr::from(m.pte.pfn), m.size.bytes())))
}

/// Merges `(va, pa, bytes)` pieces, ascending in `va`, into the maximal runs
/// whose `va - pa` offset is constant: the one run extractor.
/// [`contiguous_mappings`] feeds it a page table's leaves; the
/// virtualization crate feeds it composed gVA→hPA pieces (2D contiguity,
/// where a run must be contiguous in both dimensions) and a VM's host
/// backing.
pub fn compose_mappings(
    pages: impl Iterator<Item = (VirtAddr, PhysAddr, u64)>,
) -> Vec<ContigMapping> {
    let mut result = Vec::new();
    let mut current: Option<(VirtAddr, MapOffset, u64)> = None;
    for (va, pa, bytes) in pages {
        let offset = MapOffset::between(va, pa);
        match current {
            Some((start, off, len)) if off == offset && start.raw() + len == va.raw() => {
                current = Some((start, off, len + bytes));
            }
            Some((start, off, len)) => {
                result.push(ContigMapping {
                    virt: contig_types::VirtRange::new(start, len),
                    offset: off,
                });
                current = Some((va, offset, bytes));
            }
            None => current = Some((va, offset, bytes)),
        }
    }
    if let Some((start, off, len)) = current {
        result.push(ContigMapping { virt: contig_types::VirtRange::new(start, len), offset: off });
    }
    result
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::pte::{Pte, PteFlags};
    use contig_types::{PageSize, Pfn};

    fn map4k(pt: &mut PageTable, va: u64, pfn: u64) {
        pt.map(VirtAddr::new(va), Pte::new(Pfn::new(pfn), PteFlags::NONE), PageSize::Base4K);
    }

    #[test]
    fn empty_table_has_no_mappings() {
        assert!(contiguous_mappings(&PageTable::new()).is_empty());
    }

    #[test]
    fn scattered_pages_are_singleton_mappings() {
        let mut pt = PageTable::new();
        map4k(&mut pt, 0x1000, 100);
        map4k(&mut pt, 0x2000, 50); // offset changes
        map4k(&mut pt, 0x3000, 200);
        let m = contiguous_mappings(&pt);
        assert_eq!(m.len(), 3);
        assert!(m.iter().all(|x| x.len() == 4096));
    }

    #[test]
    fn consecutive_offset_pages_coalesce() {
        let mut pt = PageTable::new();
        for i in 0..16 {
            map4k(&mut pt, 0x10_0000 + i * 0x1000, 500 + i);
        }
        let m = contiguous_mappings(&pt);
        assert_eq!(m.len(), 1);
        assert_eq!(m[0].len(), 16 * 4096);
        assert_eq!(m[0].phys().start(), PhysAddr::from(Pfn::new(500)));
    }

    #[test]
    fn virtual_gap_breaks_run_even_with_same_offset() {
        let mut pt = PageTable::new();
        map4k(&mut pt, 0x1000, 1);
        // Same offset (va-pa), but VA 0x2000 unmapped.
        map4k(&mut pt, 0x3000, 3);
        let m = contiguous_mappings(&pt);
        assert_eq!(m.len(), 2);
    }

    #[test]
    fn mixed_sizes_coalesce_when_offsets_match() {
        let mut pt = PageTable::new();
        // A huge page followed by 4 KiB pages continuing the same offset.
        pt.map(
            VirtAddr::new(0x40_0000),
            Pte::new(Pfn::new(2048), PteFlags::NONE),
            PageSize::Huge2M,
        );
        for i in 0..4 {
            map4k(&mut pt, 0x60_0000 + i * 0x1000, 2048 + 512 + i);
        }
        let m = contiguous_mappings(&pt);
        assert_eq!(m.len(), 1);
        assert_eq!(m[0].len(), (2 << 20) + 4 * 4096);
    }

    #[test]
    fn compose_mappings_mirrors_page_runs() {
        let pages = (0..8u64).map(|i| {
            (VirtAddr::new(0x1000 * (i + 1)), PhysAddr::new(0x9000 + 0x1000 * i), 4096u64)
        });
        let m = compose_mappings(pages);
        assert_eq!(m.len(), 1);
        assert_eq!(m[0].len(), 8 * 4096);
    }
}
