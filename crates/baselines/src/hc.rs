//! vHC: virtualized hybrid TLB coalescing (Park et al., ISCA'17) — the
//! anchor-entry analysis behind Table I.
//!
//! Hybrid coalescing stores *anchor* entries in the page table at a fixed
//! power-of-two virtual stride (the anchor distance). An anchor covers the
//! contiguous run starting at its own (aligned) virtual address, up to the
//! next anchor. Because anchors are virtually aligned, unaligned contiguity
//! is chopped: one unaligned multi-gigabyte mapping needs many anchors where
//! vRMM needs one range. Table I quantifies exactly this gap (ranges vs
//! anchor entries to cover 99 % of the footprint).

use contig_types::{ContigMapping, PageSize};

/// Picks vHC's anchor distance for a process: the largest power-of-two
/// number of base pages not exceeding the footprint-weighted average
/// contiguous-mapping length (the OS "dynamically adjusts the anchor
/// distance to reflect the process's average contiguity").
pub fn anchor_distance_pages(mappings: &[ContigMapping]) -> u64 {
    /// Smallest useful anchor distance: one huge page (512 base pages).
    const MIN_DISTANCE: u64 = 512;
    /// Hardware cap on the anchor stride (128 MiB), bounding how much
    /// contiguity one anchor entry may describe.
    const MAX_DISTANCE: u64 = 32_768;
    let total: u64 = mappings.iter().map(|m| m.len()).sum();
    if total == 0 || mappings.is_empty() {
        return MIN_DISTANCE;
    }
    // Footprint-weighted mean run length in base pages.
    let weighted: f64 = mappings
        .iter()
        .map(|m| {
            let pages = (m.len() >> contig_types::BASE_PAGE_SHIFT) as f64;
            pages * (m.len() as f64 / total as f64)
        })
        .sum();
    let mean = weighted.max(1.0);
    let mut d = 1u64;
    while (d << 1) as f64 <= mean {
        d <<= 1;
    }
    d.clamp(MIN_DISTANCE, MAX_DISTANCE)
}

/// The coverage, in bytes, of each entry vHC needs to map `mappings` with
/// the given anchor distance (in base pages): the vHC column of Table I
/// counts the largest of them that reach the coverage goal.
///
/// Each anchor-aligned virtual window intersecting a mapping contributes one
/// entry whose coverage is the part of the mapping from the window start (an
/// anchor cannot describe contiguity that begins mid-window, so a mapping
/// entering a window mid-way wastes the head of that window). The entries
/// partition the footprint: their sum is the mappings' total length.
///
/// # Panics
///
/// Panics if `distance_pages` is zero.
pub fn anchor_entries(mappings: &[ContigMapping], distance_pages: u64) -> Vec<u64> {
    assert!(distance_pages > 0, "anchor distance must be positive");
    let window = distance_pages * PageSize::Base4K.bytes();
    let huge = PageSize::Huge2M.bytes();
    let mut entries: Vec<u64> = Vec::new();
    // The unaligned head of a mapping (before its first anchor point) is
    // covered by ordinary translations — huge-page entries where the run
    // allows, i.e. up to 2 MiB of coverage apiece.
    fn head_entries(entries: &mut Vec<u64>, mut bytes: u64, huge: u64) {
        while bytes > 0 {
            let cov = bytes.min(huge);
            entries.push(cov);
            bytes -= cov;
        }
    }
    for m in mappings {
        let start = m.virt.start().raw();
        let end = m.virt.end().raw();
        let first_anchor = start.div_ceil(window) * window;
        if first_anchor >= end {
            head_entries(&mut entries, end - start, huge);
            continue;
        }
        head_entries(&mut entries, first_anchor - start, huge);
        let mut anchor = first_anchor;
        while anchor < end {
            let cov = (end - anchor).min(window);
            entries.push(cov);
            anchor += window;
        }
    }
    entries
}

#[cfg(test)]
mod tests {
    use super::*;
    use contig_types::{PhysAddr, VirtAddr};

    fn mapping(va: u64, len: u64) -> ContigMapping {
        ContigMapping::new(VirtAddr::new(va), PhysAddr::new(va + 0x1_0000_0000), len)
    }

    #[test]
    fn single_aligned_mapping_needs_len_over_distance_anchors() {
        // 64 MiB mapping, window 2 MiB, aligned: 32 full anchors.
        let maps = vec![mapping(0, 64 << 20)];
        assert_eq!(anchor_entries(&maps, 512), vec![2 << 20; 32]);
    }

    #[test]
    fn unaligned_mapping_needs_extra_head_entries() {
        // Mapping starts 1 MiB into a 4 MiB window: the head is covered by
        // ordinary entries, costing more than the aligned equivalent.
        let a = anchor_entries(&[mapping(0, 64 << 20)], 1024);
        let b = anchor_entries(&[mapping(1 << 20, 64 << 20)], 1024);
        assert!(b.len() > a.len(), "unaligned {b:?} must exceed aligned {a:?}");
    }

    #[test]
    fn anchor_distance_tracks_average_contiguity() {
        // One vast mapping: distance grows to the hardware cap (128 MiB).
        let big = vec![mapping(0, 16 << 30)];
        assert_eq!(anchor_distance_pages(&big), 32_768);
        // Scattered 2 MiB mappings: distance ≈ 512 pages (one huge page).
        let huge_pages: Vec<_> =
            (0..64).map(|i| mapping(i * (4 << 20), 2 << 20)).collect();
        assert_eq!(anchor_distance_pages(&huge_pages), 512);
        assert_eq!(anchor_distance_pages(&[]), 512);
    }

    #[test]
    fn empty_footprint_has_no_entries() {
        assert!(anchor_entries(&[], 512).is_empty());
    }
}

/// The emulated vHC anchor TLB on the last-level miss path.
///
/// An anchor entry describes the contiguous run *starting at* an
/// anchor-aligned virtual address, covering at most one anchor distance.
/// Addresses in the unaligned head of a mapping — before its first anchor
/// point — can never be covered, which is exactly the alignment restriction
/// that keeps vHC behind vRMM and SpOT on unaligned contiguity (§IV-A).
///
/// # Examples
///
/// ```
/// use contig_baselines::VhcAnchorTlb;
/// use contig_tlb::{Access, MissHandler, MissHandling, WalkResult};
/// use contig_types::{ContigMapping, PageSize, PhysAddr, VirtAddr};
///
/// let maps = vec![ContigMapping::new(VirtAddr::new(0x40_0000), PhysAddr::new(0x800_0000), 8 << 20)];
/// let mut vhc = VhcAnchorTlb::new(32, 1024, maps); // 4 MiB anchor distance
/// let walk = WalkResult { pa: PhysAddr::new(0x800_1000), size: PageSize::Base4K,
///                         refs: 24, contig: true, write: false };
/// // First miss fills the anchor; a later miss in the same window hides.
/// vhc.on_miss(Access::read(1, VirtAddr::new(0x40_1000)), &walk);
/// assert_eq!(vhc.on_miss(Access::read(1, VirtAddr::new(0x42_0000)), &walk),
///            MissHandling::Hidden);
/// ```
#[derive(Clone, Debug)]
pub struct VhcAnchorTlb {
    /// Cached anchor entries: `(anchor VA, coverage bytes, last used)`.
    entries: Vec<(u64, u64, u64)>,
    capacity: usize,
    distance_pages: u64,
    /// Oracle coalesced page table: the process's mappings, sorted by VA.
    table: Vec<ContigMapping>,
    tick: u64,
}

impl VhcAnchorTlb {
    /// An anchor TLB of `capacity` entries with the given anchor distance
    /// (in base pages) over the process's current mappings.
    ///
    /// # Panics
    ///
    /// Panics if `capacity` or `distance_pages` is zero.
    pub fn new(capacity: usize, distance_pages: u64, mut mappings: Vec<ContigMapping>) -> Self {
        assert!(capacity > 0, "anchor TLB needs capacity");
        assert!(distance_pages > 0, "anchor distance must be positive");
        mappings.sort_by_key(|m| m.virt.start());
        Self { entries: Vec::new(), capacity, distance_pages, table: mappings, tick: 0 }
    }

    /// An anchor TLB whose distance adapts to the mappings, as the vHC OS
    /// logic would (see [`anchor_distance_pages`]).
    pub fn with_adaptive_distance(capacity: usize, mappings: Vec<ContigMapping>) -> Self {
        let d = anchor_distance_pages(&mappings);
        Self::new(capacity, d, mappings)
    }

    fn window_bytes(&self) -> u64 {
        self.distance_pages * PageSize::Base4K.bytes()
    }

    /// Coverage (bytes) the anchor entry at `anchor_va` provides: the part of
    /// the run containing the anchor from the anchor onward, clipped to one
    /// window. Zero when no mapping covers the anchor point itself.
    fn coverage_at(&self, anchor_va: u64) -> u64 {
        let idx = self
            .table
            .partition_point(|m| m.virt.start().raw() <= anchor_va);
        let Some(m) = idx.checked_sub(1).map(|i| &self.table[i]) else {
            return 0;
        };
        if anchor_va >= m.virt.end().raw() {
            return 0;
        }
        (m.virt.end().raw() - anchor_va).min(self.window_bytes())
    }
}

impl contig_tlb::MissHandler for VhcAnchorTlb {
    fn on_miss(
        &mut self,
        access: contig_tlb::Access,
        _walk: &contig_tlb::WalkResult,
    ) -> contig_tlb::MissHandling {
        self.tick += 1;
        let window = self.window_bytes();
        let anchor = access.va.raw() / window * window;
        if let Some(e) = self.entries.iter_mut().find(|e| e.0 == anchor) {
            e.2 = self.tick;
            if access.va.raw() < anchor + e.1 {
                return contig_tlb::MissHandling::Hidden;
            }
            // Anchor cached but this address lies beyond its coverage (an
            // unaligned head or hole): the walk is exposed.
            return contig_tlb::MissHandling::Exposed;
        }
        let coverage = self.coverage_at(anchor);
        if coverage > 0 && access.va.raw() < anchor + coverage {
            // Cover future misses of this window; this one already walked.
            if self.entries.len() == self.capacity {
                let victim = self
                    .entries
                    .iter()
                    .enumerate()
                    .min_by_key(|(_, e)| e.2)
                    .map(|(i, _)| i)
                    .expect("non-empty at capacity");
                self.entries.swap_remove(victim);
            }
            self.entries.push((anchor, coverage, self.tick));
        }
        contig_tlb::MissHandling::Exposed
    }

    fn scheme_name(&self) -> &'static str {
        "vHC"
    }
}

#[cfg(test)]
mod anchor_tlb_tests {
    use super::*;
    use contig_tlb::{Access, MissHandler, MissHandling, WalkResult};
    use contig_types::{PhysAddr, VirtAddr};

    fn walk() -> WalkResult {
        WalkResult {
            pa: PhysAddr::new(0),
            size: PageSize::Base4K,
            refs: 24,
            contig: true,
            write: false,
        }
    }

    fn mapping(va: u64, len: u64) -> ContigMapping {
        ContigMapping::new(VirtAddr::new(va), PhysAddr::new(va + 0x1_0000_0000), len)
    }

    #[test]
    fn fill_then_hide_within_anchor_window() {
        // 4 MiB distance over an aligned 8 MiB mapping.
        let mut vhc = VhcAnchorTlb::new(8, 1024, vec![mapping(0x40_0000, 8 << 20)]);
        assert_eq!(
            vhc.on_miss(Access::read(1, VirtAddr::new(0x40_0000)), &walk()),
            MissHandling::Exposed,
            "first miss fills"
        );
        assert_eq!(
            vhc.on_miss(Access::read(1, VirtAddr::new(0x7f_f000)), &walk()),
            MissHandling::Hidden,
            "same window hides"
        );
        // Next window needs its own anchor entry.
        assert_eq!(
            vhc.on_miss(Access::read(1, VirtAddr::new(0x80_0000)), &walk()),
            MissHandling::Exposed
        );
        assert_eq!(
            vhc.on_miss(Access::read(1, VirtAddr::new(0x81_0000)), &walk()),
            MissHandling::Hidden
        );
        assert_eq!(vhc.entries.len(), 2, "one anchor entry per window");
    }

    #[test]
    fn unaligned_head_is_never_covered() {
        // Mapping starts 1 MiB into the 4 MiB window: the window's anchor
        // point (0x0) is unmapped, so the head can never be hidden.
        let m = mapping(0x10_0000, 4 << 20);
        let mut vhc = VhcAnchorTlb::new(8, 1024, vec![m]);
        for _ in 0..3 {
            assert_eq!(
                vhc.on_miss(Access::read(1, VirtAddr::new(0x10_0000)), &walk()),
                MissHandling::Exposed
            );
        }
        assert!(vhc.entries.is_empty(), "no anchor entry covers the head");
        // The aligned part (second window, anchored at 0x40_0000) works.
        vhc.on_miss(Access::read(1, VirtAddr::new(0x40_0000)), &walk());
        assert_eq!(
            vhc.on_miss(Access::read(1, VirtAddr::new(0x41_0000)), &walk()),
            MissHandling::Hidden
        );
    }

    #[test]
    fn coverage_stops_at_run_end() {
        // 1 MiB mapping inside a 4 MiB window: addresses past the run are
        // uncovered even though the anchor entry exists.
        let mut vhc = VhcAnchorTlb::new(8, 1024, vec![mapping(0, 1 << 20)]);
        vhc.on_miss(Access::read(1, VirtAddr::new(0x0)), &walk());
        assert_eq!(
            vhc.on_miss(Access::read(1, VirtAddr::new(0x8_0000)), &walk()),
            MissHandling::Hidden
        );
        let m2 = mapping(0x20_0000, 1 << 20); // separate run, same window
        let _ = m2;
        assert_eq!(
            vhc.on_miss(Access::read(1, VirtAddr::new(0x30_0000)), &walk()),
            MissHandling::Exposed,
            "beyond the anchored run's coverage"
        );
    }

    #[test]
    fn adaptive_distance_matches_analysis() {
        let maps = vec![mapping(0, 256 << 20)];
        let vhc = VhcAnchorTlb::with_adaptive_distance(32, maps.clone());
        assert_eq!(vhc.distance_pages, anchor_distance_pages(&maps));
    }

    #[test]
    fn lru_eviction_on_capacity() {
        let maps = vec![mapping(0, 64 << 20)];
        let mut vhc = VhcAnchorTlb::new(2, 1024, maps);
        // Fill windows 0 and 1; touch 0; fill 2 (evicts 1).
        vhc.on_miss(Access::read(1, VirtAddr::new(0x0)), &walk());
        vhc.on_miss(Access::read(1, VirtAddr::new(0x40_0000)), &walk());
        assert_eq!(vhc.on_miss(Access::read(1, VirtAddr::new(0x1000)), &walk()), MissHandling::Hidden);
        vhc.on_miss(Access::read(1, VirtAddr::new(0x80_0000)), &walk());
        assert_eq!(
            vhc.on_miss(Access::read(1, VirtAddr::new(0x41_0000)), &walk()),
            MissHandling::Exposed,
            "evicted window refills"
        );
    }
}
