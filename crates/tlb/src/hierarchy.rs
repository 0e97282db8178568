//! The two-level data-TLB hierarchy of the evaluation machine.

use contig_types::{PageSize, VirtAddr};

use crate::cache::{CacheSnapshot, SetAssocCache};

/// Geometry of one TLB structure.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct TlbGeometry {
    /// Total entries.
    pub entries: usize,
    /// Associativity.
    pub ways: usize,
}

/// Geometry of the full hierarchy.
///
/// The paper's Broadwell (Table II): split L1 (4 KiB: 64-entry 4-way;
/// 2 MiB: 32-entry 4-way) and a unified 1536-entry 6-way L2 STLB.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct TlbConfig {
    /// L1 DTLB for 4 KiB translations.
    pub l1_4k: TlbGeometry,
    /// L1 DTLB for 2 MiB translations.
    pub l1_2m: TlbGeometry,
    /// Unified L2 STLB (both sizes).
    pub l2: TlbGeometry,
}

impl TlbConfig {
    /// The evaluation machine's geometry (Table II).
    pub fn broadwell() -> Self {
        Self {
            l1_4k: TlbGeometry { entries: 64, ways: 4 },
            l1_2m: TlbGeometry { entries: 32, ways: 4 },
            l2: TlbGeometry { entries: 1536, ways: 6 },
        }
    }

    /// Broadwell geometry scaled down by `factor` (entries divided, floors at
    /// one way). Used when workload footprints are scaled so the
    /// footprint-to-TLB-reach ratio matches the paper's.
    ///
    /// # Panics
    ///
    /// Panics if `factor` is zero.
    pub fn broadwell_scaled(factor: usize) -> Self {
        assert!(factor > 0, "scale factor must be positive");
        let scale = |g: TlbGeometry| {
            let entries = (g.entries / factor).max(g.ways);
            TlbGeometry { entries: entries - entries % g.ways, ways: g.ways }
        };
        let b = Self::broadwell();
        Self { l1_4k: scale(b.l1_4k), l1_2m: scale(b.l1_2m), l2: scale(b.l2) }
    }
}

impl Default for TlbConfig {
    fn default() -> Self {
        Self::broadwell()
    }
}

/// Which level satisfied a lookup.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub enum TlbHit {
    /// Hit in the (split) L1.
    L1,
    /// Missed L1, hit the unified L2.
    L2,
    /// Missed the whole hierarchy: a page walk is required.
    Miss,
}

/// A split-L1 + unified-L2 data TLB.
///
/// Lookups probe both page sizes (real hardware probes both L1s and tags L2
/// entries with their size); fills install the translation's actual size.
///
/// # Examples
///
/// ```
/// use contig_tlb::{TlbConfig, TlbHierarchy, TlbHit};
/// use contig_types::{PageSize, VirtAddr};
///
/// let mut tlb = TlbHierarchy::new(TlbConfig::broadwell());
/// let va = VirtAddr::new(0x40_0000);
/// assert_eq!(tlb.lookup(va), TlbHit::Miss);
/// tlb.fill(va, PageSize::Huge2M);
/// assert_eq!(tlb.lookup(VirtAddr::new(0x5f_ffff)), TlbHit::L1);
/// ```
#[derive(Clone, Debug)]
pub struct TlbHierarchy {
    l1_4k: SetAssocCache,
    l1_2m: SetAssocCache,
    l2: SetAssocCache,
    lookups: u64,
    l1_hits: u64,
    l2_hits: u64,
    misses: u64,
    /// The L1 slot the last lookup hit. Derived state, not model state:
    /// kept out of [`TlbSnapshot`], cleared by every fill, flush and L1
    /// miss.
    memo: Option<L1Memo>,
}

/// An L1 slot that holds the translation of one page, and what a repeated
/// lookup of that page touches: a 2 MiB entry is found by the first probe,
/// a 4 KiB entry only after the 2 MiB L1 has missed.
#[derive(Clone, Copy, Debug)]
pub(crate) struct L1Memo {
    huge: bool,
    key: u64,
    slot: usize,
}

impl L1Memo {
    /// Whether `va` lies in the remembered page.
    #[inline(always)]
    pub(crate) fn covers(self, va: VirtAddr) -> bool {
        let shift = if self.huge { PageSize::Huge2M.shift() } else { PageSize::Base4K.shift() };
        va.raw() >> shift == self.key
    }
}

#[inline]
fn key_4k(va: VirtAddr) -> u64 {
    va.raw() >> PageSize::Base4K.shift()
}

#[inline]
fn key_2m(va: VirtAddr) -> u64 {
    va.raw() >> PageSize::Huge2M.shift()
}

/// L2 is unified: tag keys with a size bit so 4 KiB and 2 MiB entries for
/// overlapping regions never alias.
#[inline]
fn l2_key(va: VirtAddr, size: PageSize) -> u64 {
    match size {
        PageSize::Base4K => key_4k(va) << 1,
        PageSize::Huge2M => (key_2m(va) << 1) | 1,
    }
}

impl TlbHierarchy {
    /// An empty hierarchy with the given geometry.
    pub fn new(config: TlbConfig) -> Self {
        Self {
            l1_4k: SetAssocCache::new(config.l1_4k.entries, config.l1_4k.ways),
            l1_2m: SetAssocCache::new(config.l1_2m.entries, config.l1_2m.ways),
            l2: SetAssocCache::new(config.l2.entries, config.l2.ways),
            lookups: 0,
            l1_hits: 0,
            l2_hits: 0,
            misses: 0,
            memo: None,
        }
    }

    /// Probes the hierarchy for `va` (either page size).
    #[inline(always)]
    pub fn lookup(&mut self, va: VirtAddr) -> TlbHit {
        if let Some(memo) = self.memo.filter(|m| m.covers(va)) {
            self.hit_memo(memo, 1);
            return TlbHit::L1;
        }
        self.lookups += 1;
        let huge = key_2m(va);
        if let Some(slot) = self.l1_2m.access_slot(huge) {
            self.l1_hits += 1;
            self.memo = Some(L1Memo { huge: true, key: huge, slot });
            return TlbHit::L1;
        }
        let base = key_4k(va);
        if let Some(slot) = self.l1_4k.access_slot(base) {
            self.l1_hits += 1;
            self.memo = Some(L1Memo { huge: false, key: base, slot });
            return TlbHit::L1;
        }
        self.lookup_l2(va)
    }

    /// The page the last lookup hit in an L1, while nothing since has
    /// changed a slot: every lookup inside it is an L1 hit on that slot.
    #[inline(always)]
    pub(crate) fn memo(&self) -> Option<L1Memo> {
        self.memo
    }

    /// Exactly what `n` lookups inside `memo`'s page do. Each structure
    /// has its own clock and an L1 hit touches nothing else, so `n` hits
    /// are `n` ticks, the last of them stamped on the slot; a 4 KiB hit
    /// also counts the 2 MiB L1's miss. The L2 is not probed.
    #[inline(always)]
    pub(crate) fn hit_memo(&mut self, memo: L1Memo, n: u64) {
        self.lookups += n;
        self.l1_hits += n;
        if memo.huge {
            self.l1_2m.hit_again(memo.slot, n);
        } else {
            self.l1_2m.miss_again(n);
            self.l1_4k.hit_again(memo.slot, n);
        }
    }

    /// The L1-miss half of [`TlbHierarchy::lookup`], out of line so the
    /// L1-hit half stays small enough to inline into a replay loop.
    #[inline(never)]
    fn lookup_l2(&mut self, va: VirtAddr) -> TlbHit {
        self.memo = None;
        // Hardware refills the L1 from the L2; model that so repeated
        // accesses hit L1. The L2 key that matched carries the size.
        if self.l2.access(l2_key(va, PageSize::Huge2M)) {
            self.l1_2m.fill(key_2m(va));
        } else if self.l2.access(l2_key(va, PageSize::Base4K)) {
            self.l1_4k.fill(key_4k(va));
        } else {
            self.misses += 1;
            return TlbHit::Miss;
        }
        self.l2_hits += 1;
        TlbHit::L2
    }

    /// Installs the translation for `va` with its actual page size into L1
    /// and L2, as the page-walker does after a miss.
    #[inline]
    pub fn fill(&mut self, va: VirtAddr, size: PageSize) {
        self.memo = None;
        match size {
            PageSize::Base4K => self.l1_4k.fill(key_4k(va)),
            PageSize::Huge2M => self.l1_2m.fill(key_2m(va)),
        }
        self.l2.fill(l2_key(va, size));
    }

    /// Drops every cached translation (context switch with full flush).
    pub fn flush(&mut self) {
        self.memo = None;
        self.l1_4k.flush();
        self.l1_2m.flush();
        self.l2.flush();
    }

    /// `(lookups, l1 hits, l2 hits, misses)` since construction.
    pub fn stats(&self) -> (u64, u64, u64, u64) {
        (self.lookups, self.l1_hits, self.l2_hits, self.misses)
    }

    /// Captures all three structures and the hierarchy counters as plain
    /// data for a crash-consistency checkpoint.
    pub fn snapshot(&self) -> TlbSnapshot {
        TlbSnapshot {
            l1_4k: self.l1_4k.snapshot(),
            l1_2m: self.l1_2m.snapshot(),
            l2: self.l2.snapshot(),
            counters: [self.lookups, self.l1_hits, self.l2_hits, self.misses],
        }
    }

}

contig_types::wire_struct! {
    /// Plain-data image of a [`TlbHierarchy`].
    #[derive(Clone, Debug, PartialEq, Eq)]
    pub struct TlbSnapshot {
        /// The split L1 for 4 KiB translations.
        pub l1_4k: CacheSnapshot,
        /// The split L1 for 2 MiB translations.
        pub l1_2m: CacheSnapshot,
        /// The unified L2 STLB.
        pub l2: CacheSnapshot,
        /// `lookups, l1_hits, l2_hits, misses` in order.
        pub counters: [u64; 4],
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn miss_then_fill_then_hit() {
        let mut t = TlbHierarchy::new(TlbConfig::broadwell());
        let va = VirtAddr::new(0x1234_5000);
        assert_eq!(t.lookup(va), TlbHit::Miss);
        t.fill(va, PageSize::Base4K);
        assert_eq!(t.lookup(va), TlbHit::L1);
        assert_eq!(t.lookup(va + 0xfff), TlbHit::L1, "same page");
        assert_eq!(t.lookup(va + 0x1000), TlbHit::Miss, "next page");
    }

    #[test]
    fn huge_entry_covers_whole_region() {
        let mut t = TlbHierarchy::new(TlbConfig::broadwell());
        t.fill(VirtAddr::new(0x20_0000), PageSize::Huge2M);
        assert_eq!(t.lookup(VirtAddr::new(0x20_0000)), TlbHit::L1);
        assert_eq!(t.lookup(VirtAddr::new(0x3f_ffff)), TlbHit::L1);
        assert_eq!(t.lookup(VirtAddr::new(0x40_0000)), TlbHit::Miss);
    }

    #[test]
    fn l2_backstops_l1_evictions() {
        let mut t = TlbHierarchy::new(TlbConfig {
            l1_4k: TlbGeometry { entries: 2, ways: 2 },
            l1_2m: TlbGeometry { entries: 2, ways: 2 },
            l2: TlbGeometry { entries: 64, ways: 4 },
        });
        // Fill more 4 KiB pages than L1 holds.
        for i in 0..8u64 {
            t.fill(VirtAddr::new(i * 0x1000), PageSize::Base4K);
        }
        // Oldest pages fell out of L1 but live in L2.
        assert_eq!(t.lookup(VirtAddr::new(0)), TlbHit::L2);
        // And the L2 hit refilled L1.
        assert_eq!(t.lookup(VirtAddr::new(0)), TlbHit::L1);
    }

    #[test]
    fn scaled_geometry_divides_entries() {
        let c = TlbConfig::broadwell_scaled(8);
        assert_eq!(c.l1_4k.entries, 8);
        assert_eq!(c.l1_2m.entries, 4);
        assert_eq!(c.l2.entries, 192);
        assert_eq!(c.l2.ways, 6);
        // Extreme scaling floors at one full set.
        let tiny = TlbConfig::broadwell_scaled(10_000);
        assert!(tiny.l1_4k.entries >= tiny.l1_4k.ways);
    }

    #[test]
    fn stats_accumulate() {
        let mut t = TlbHierarchy::new(TlbConfig::broadwell());
        t.lookup(VirtAddr::new(0x1000));
        t.fill(VirtAddr::new(0x1000), PageSize::Base4K);
        t.lookup(VirtAddr::new(0x1000));
        let (lookups, l1, l2, miss) = t.stats();
        assert_eq!((lookups, l1, l2, miss), (2, 1, 0, 1));
    }
}
