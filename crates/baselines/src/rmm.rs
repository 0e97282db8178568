//! vRMM: virtualized Redundant Memory Mappings (Karakostas et al. ISCA'15,
//! extended to nested paging as in paper §IV-A).
//!
//! RMM caches *range translations* — `[base, limit, offset]` descriptors of
//! arbitrarily large unaligned contiguous mappings — in a small fully-
//! associative range TLB beside the regular hierarchy. Virtualizing it
//! requires nested range tables and a walker able to intersect mismatched
//! guest/host ranges; following the paper's emulation, the range table here
//! is a flat sorted array of the process's current 2D mappings, and range
//! walks are assumed to be hidden behind the page walk. A miss in the range
//! TLB therefore exposes the nested page walk; a hit hides it.

use contig_tlb::{Access, MissHandler, MissHandling, WalkResult};
use contig_types::{ContigMapping, VirtAddr};

/// Counters exposed by [`VrmmRangeTlb`].
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct VrmmStats {
    /// Misses covered by a cached range (walk hidden).
    pub range_hits: u64,
    /// Misses that consulted the range table and refilled the range TLB.
    pub range_fills: u64,
    /// Misses for addresses outside every range (degenerate mappings).
    pub uncovered: u64,
}

/// The emulated range TLB plus oracle range table.
///
/// # Examples
///
/// ```
/// use contig_baselines::VrmmRangeTlb;
/// use contig_tlb::{Access, MissHandler, MissHandling, WalkResult};
/// use contig_types::{ContigMapping, PageSize, PhysAddr, VirtAddr};
///
/// let ranges = vec![ContigMapping::new(VirtAddr::new(0x10_0000), PhysAddr::new(0x400_0000), 8 << 20)];
/// let mut rmm = VrmmRangeTlb::new(32, ranges);
/// let walk = WalkResult { pa: PhysAddr::new(0x400_1000), size: PageSize::Base4K,
///                         refs: 24, contig: true, write: true };
/// // First miss fills the range TLB; later misses inside the range hide.
/// rmm.on_miss(Access::read(1, VirtAddr::new(0x10_1000)), &walk);
/// assert_eq!(rmm.on_miss(Access::read(1, VirtAddr::new(0x50_0000)), &walk),
///            MissHandling::Hidden);
/// ```
#[derive(Clone, Debug)]
pub struct VrmmRangeTlb {
    /// Fully-associative range TLB: `(mapping, last used)`.
    cached: Vec<(ContigMapping, u64)>,
    capacity: usize,
    /// The oracle nested range table, sorted by virtual start.
    table: Vec<ContigMapping>,
    tick: u64,
    stats: VrmmStats,
}

impl VrmmRangeTlb {
    /// A range TLB of `capacity` entries over the given 2D mappings.
    ///
    /// # Panics
    ///
    /// Panics if `capacity` is zero.
    pub fn new(capacity: usize, mut ranges: Vec<ContigMapping>) -> Self {
        assert!(capacity > 0, "range TLB needs capacity");
        ranges.sort_by_key(|m| m.virt.start());
        Self { cached: Vec::new(), capacity, table: ranges, tick: 0, stats: VrmmStats::default() }
    }

    /// Counters accumulated so far.
    pub fn stats(&self) -> VrmmStats {
        self.stats
    }

    fn lookup_cached(&mut self, va: VirtAddr) -> bool {
        self.tick += 1;
        for (m, used) in &mut self.cached {
            if m.virt.contains(va) {
                *used = self.tick;
                return true;
            }
        }
        false
    }

    fn lookup_table(&self, va: VirtAddr) -> Option<ContigMapping> {
        let idx = self.table.partition_point(|m| m.virt.start() <= va);
        idx.checked_sub(1)
            .map(|i| self.table[i])
            .filter(|m| m.virt.contains(va))
    }

    fn insert(&mut self, mapping: ContigMapping) {
        self.tick += 1;
        if self.cached.len() < self.capacity {
            self.cached.push((mapping, self.tick));
            return;
        }
        let victim = self
            .cached
            .iter()
            .enumerate()
            .min_by_key(|(_, (_, used))| *used)
            .map(|(i, _)| i)
            .expect("non-empty at capacity");
        self.cached[victim] = (mapping, self.tick);
    }
}

impl MissHandler for VrmmRangeTlb {
    fn on_miss(&mut self, access: Access, _walk: &WalkResult) -> MissHandling {
        if self.lookup_cached(access.va) {
            self.stats.range_hits += 1;
            return MissHandling::Hidden;
        }
        match self.lookup_table(access.va) {
            Some(mapping) => {
                self.insert(mapping);
                self.stats.range_fills += 1;
                MissHandling::Exposed
            }
            None => {
                self.stats.uncovered += 1;
                MissHandling::Exposed
            }
        }
    }

    fn scheme_name(&self) -> &'static str {
        "vRMM"
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use contig_types::{PageSize, PhysAddr};

    fn walk() -> WalkResult {
        WalkResult {
            pa: PhysAddr::new(0),
            size: PageSize::Base4K,
            refs: 24,
            contig: true,
            write: true,
        }
    }

    fn mapping(va: u64, pa: u64, len: u64) -> ContigMapping {
        ContigMapping::new(VirtAddr::new(va), PhysAddr::new(pa), len)
    }

    #[test]
    fn fill_then_hide_within_range() {
        let mut rmm = VrmmRangeTlb::new(4, vec![mapping(0x10_0000, 0x100_0000, 16 << 20)]);
        assert_eq!(
            rmm.on_miss(Access::read(1, VirtAddr::new(0x10_0000)), &walk()),
            MissHandling::Exposed
        );
        for i in 1..10u64 {
            assert_eq!(
                rmm.on_miss(Access::read(1, VirtAddr::new(0x10_0000 + i * 0x10_0000)), &walk()),
                MissHandling::Hidden
            );
        }
        assert_eq!(rmm.stats().range_hits, 9);
        assert_eq!(rmm.stats().range_fills, 1);
    }

    #[test]
    fn uncovered_addresses_stay_exposed() {
        let mut rmm = VrmmRangeTlb::new(4, vec![mapping(0x10_0000, 0x100_0000, 1 << 20)]);
        assert_eq!(
            rmm.on_miss(Access::read(1, VirtAddr::new(0x90_0000)), &walk()),
            MissHandling::Exposed
        );
        assert_eq!(rmm.stats().uncovered, 1);
    }

    #[test]
    fn lru_eviction_across_many_ranges() {
        let ranges: Vec<_> = (0..8u64)
            .map(|i| mapping(i * 0x100_0000, i * 0x800_0000, 1 << 20))
            .collect();
        let mut rmm = VrmmRangeTlb::new(2, ranges);
        // Fill ranges 0 and 1.
        rmm.on_miss(Access::read(1, VirtAddr::new(0)), &walk());
        rmm.on_miss(Access::read(1, VirtAddr::new(0x100_0000)), &walk());
        // Touch 0 so 1 is LRU, then fill 2 (evicts 1).
        assert_eq!(rmm.on_miss(Access::read(1, VirtAddr::new(0x1000)), &walk()), MissHandling::Hidden);
        rmm.on_miss(Access::read(1, VirtAddr::new(0x200_0000)), &walk());
        assert_eq!(
            rmm.on_miss(Access::read(1, VirtAddr::new(0x100_1000)), &walk()),
            MissHandling::Exposed,
            "evicted range must refill"
        );
    }

    #[test]
    fn binary_search_matches_containment() {
        let rmm = VrmmRangeTlb::new(
            2,
            vec![mapping(0x1000, 0x10_0000, 0x1000), mapping(0x3000, 0x20_0000, 0x2000)],
        );
        assert!(rmm.lookup_table(VirtAddr::new(0x1000)).is_some());
        assert!(rmm.lookup_table(VirtAddr::new(0x2000)).is_none());
        assert!(rmm.lookup_table(VirtAddr::new(0x4fff)).is_some());
        assert!(rmm.lookup_table(VirtAddr::new(0x5000)).is_none());
    }
}
