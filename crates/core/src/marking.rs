//! PTE contiguity-bit marking (paper §IV-C, "Preventing thrashing").
//!
//! CA paging sets a reserved bit in the PTEs of translations that belong to
//! large contiguous mappings so the nested walker only fills SpOT's
//! prediction table with offsets that have real prediction potential. The
//! marking runs at the end of each successful fault: if the neighbouring PTE
//! already carries the bit the new page simply inherits it; otherwise the
//! run around the new page is measured, and once it crosses the threshold
//! every PTE in it is marked. Crucially, the exact size and boundaries of
//! the mapping are never tracked anywhere — this walk is local and bounded,
//! and reads adjacent entries of the leaf tables (`PageTable::offset_run`),
//! not one translation per page.

use contig_mm::{PageTable, PteFlags};
use contig_types::{MapOffset, PhysAddr, VirtAddr};

/// Hard bound on how far the marker walks in either direction, so the fault
/// path stays O(1)-ish even for gigantic runs (once a run is marked, new
/// pages inherit from their neighbour in a single probe).
const SCAN_CAP_PAGES: u64 = 4096;

/// Marks the contiguity bit on the run containing the just-mapped page at
/// `va` if the run spans at least `threshold_pages` base pages. Returns the
/// run length in base pages (capped by the scan bound).
pub fn mark_contiguity(pt: &mut PageTable, va: VirtAddr, threshold_pages: u64) -> u64 {
    let Ok(here) = pt.translate(va) else {
        return 0;
    };
    let my_size = here.size;
    let my_start = va.align_down(my_size);
    let my_offset = MapOffset::between(my_start, PhysAddr::from(here.pfn));

    // Fast path: a physically-adjacent neighbour already marked means the run
    // was measured before; inherit.
    for neighbour in [my_start.raw().checked_sub(1), Some(my_start.raw() + my_size.bytes())] {
        let Some(addr) = neighbour else { continue };
        let nva = VirtAddr::new(addr);
        if let Ok(t) = pt.translate(nva) {
            let n_start = nva.align_down(t.size);
            let n_offset = MapOffset::between(n_start, PhysAddr::from(t.pfn));
            if n_offset == my_offset && t.flags.contains(PteFlags::CONTIG) {
                pt.update_flags(my_start, |f| f | PteFlags::CONTIG);
                return my_size.base_pages();
            }
        }
    }

    // Measure the run around the new page, bounded by the scan cap, over
    // adjacent entries; mark it leaf table by leaf table once it is long enough.
    let run = pt.offset_run(va, SCAN_CAP_PAGES).expect("translated above");
    if run.pages() >= threshold_pages {
        pt.add_flags_in(run, PteFlags::CONTIG);
    }
    run.pages()
}

#[cfg(test)]
mod tests {
    use super::*;
    use contig_mm::Pte;
    use contig_types::{PageSize, Pfn};

    fn map_run(pt: &mut PageTable, va: u64, pfn: u64, pages: u64) {
        for i in 0..pages {
            pt.map(
                VirtAddr::new(va + i * 4096),
                Pte::new(Pfn::new(pfn + i), PteFlags::WRITE),
                PageSize::Base4K,
            );
        }
    }

    fn contig_count(pt: &PageTable) -> usize {
        pt.iter_mappings().filter(|m| m.pte.flags.contains(PteFlags::CONTIG)).count()
    }

    #[test]
    fn short_runs_stay_unmarked() {
        let mut pt = PageTable::new();
        map_run(&mut pt, 0x10_0000, 100, 8);
        let run = mark_contiguity(&mut pt, VirtAddr::new(0x10_7000), 32);
        assert_eq!(run, 8);
        assert_eq!(contig_count(&pt), 0);
    }

    #[test]
    fn crossing_threshold_marks_whole_run() {
        let mut pt = PageTable::new();
        map_run(&mut pt, 0x10_0000, 100, 32);
        mark_contiguity(&mut pt, VirtAddr::new(0x10_0000 + 31 * 4096), 32);
        assert_eq!(contig_count(&pt), 32);
    }

    #[test]
    fn new_page_inherits_from_marked_neighbour() {
        let mut pt = PageTable::new();
        map_run(&mut pt, 0x10_0000, 100, 32);
        mark_contiguity(&mut pt, VirtAddr::new(0x10_0000), 32);
        assert_eq!(contig_count(&pt), 32);
        // Extend the run by one page; only a neighbour probe is needed.
        map_run(&mut pt, 0x10_0000 + 32 * 4096, 132, 1);
        mark_contiguity(&mut pt, VirtAddr::new(0x10_0000 + 32 * 4096), 32);
        assert_eq!(contig_count(&pt), 33);
    }

    #[test]
    fn offset_break_bounds_the_run() {
        let mut pt = PageTable::new();
        map_run(&mut pt, 0x10_0000, 100, 40);
        // Adjacent VA but discontinuous PA.
        map_run(&mut pt, 0x10_0000 + 40 * 4096, 900, 40);
        mark_contiguity(&mut pt, VirtAddr::new(0x10_0000), 32);
        // Only the first run is marked.
        let marked: Vec<_> = pt
            .iter_mappings()
            .filter(|m| m.pte.flags.contains(PteFlags::CONTIG))
            .map(|m| m.va.raw())
            .collect();
        assert_eq!(marked.len(), 40);
        assert!(marked.iter().all(|&va| va < 0x10_0000 + 40 * 4096));
    }

    #[test]
    fn huge_pages_count_their_base_pages() {
        let mut pt = PageTable::new();
        pt.map(VirtAddr::new(0x40_0000), Pte::new(Pfn::new(1024), PteFlags::WRITE), PageSize::Huge2M);
        let run = mark_contiguity(&mut pt, VirtAddr::new(0x40_0000), 32);
        assert_eq!(run, 512);
        assert!(pt
            .translate(VirtAddr::new(0x40_0000))
            .unwrap()
            .flags
            .contains(PteFlags::CONTIG));
    }

    #[test]
    fn mixed_sizes_merge_into_one_run() {
        let mut pt = PageTable::new();
        pt.map(VirtAddr::new(0x40_0000), Pte::new(Pfn::new(1024), PteFlags::WRITE), PageSize::Huge2M);
        map_run(&mut pt, 0x60_0000, 1536, 4);
        mark_contiguity(&mut pt, VirtAddr::new(0x60_3000), 32);
        assert_eq!(contig_count(&pt), 5, "huge leaf + 4 base pages all marked");
    }

    #[test]
    fn unmapped_address_is_a_noop() {
        let mut pt = PageTable::new();
        assert_eq!(mark_contiguity(&mut pt, VirtAddr::new(0x1000), 32), 0);
    }
}
