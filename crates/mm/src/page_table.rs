//! A 4-level x86-64-style radix page table.
//!
//! The table is "software-walked": translation returns the number of table
//! levels touched so the TLB simulator can charge page-walk memory references
//! exactly as hardware would (4 for a base page, 3 for a 2 MiB leaf at the
//! PMD level, and `(g+1)*(h+1)-1` for a nested 2D walk).
//!
//! Tables live in one arena of packed 8-byte entries ([`crate::pte`]) beside an
//! occupancy bit per entry, so a scan visits only what is mapped, and the last
//! PT table a writer reached is remembered, so the walks of one fault, and of
//! the next in the same 2 MiB region, skip the upper levels (DESIGN §2).

use contig_types::{PageSize, Pfn, TranslateError, VirtAddr, VirtRange};

use crate::pte::{pack, unpack, Pte, PteFlags, EMPTY, LEAF, TABLE};

/// Entries per table at every level (x86-64: 9 bits of index).
pub(crate) const ENTRIES_PER_TABLE: usize = 512;
/// Default number of radix levels (PGD, PUD, PMD, PT).
pub const LEVELS: u32 = 4;
/// Radix levels with Intel's 57-bit "la57" extension (5-level paging). The
/// paper's introduction names 5-level paging as a looming multiplier of
/// nested-walk costs: a 5×5 nested walk issues up to 35 references.
pub const LEVELS_LA57: u32 = 5;

/// Level at which 2 MiB leaves live (1 = PT, 2 = PMD, ...).
const HUGE_LEVEL: u32 = 2;
/// `va >> REGION_SHIFT` numbers the 2 MiB region a PT table maps.
const REGION_SHIFT: u32 = contig_types::BASE_PAGE_SHIFT + 9 * (HUGE_LEVEL - 1);

/// The result of a successful page-table walk.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct Translation {
    /// First 4 KiB frame of the leaf page.
    pub pfn: Pfn,
    /// Leaf page size.
    pub size: PageSize,
    /// Leaf flags.
    pub flags: PteFlags,
    /// Table levels referenced by the walk (4 for 4 KiB, 3 for 2 MiB).
    pub levels: u32,
}

impl Translation {
    /// The frame backing the specific 4 KiB page of `va` (for huge leaves,
    /// the base frame plus the intra-page index).
    pub fn frame_for(&self, va: VirtAddr) -> Pfn {
        self.pfn.add(va.page_offset(self.size) >> contig_types::BASE_PAGE_SHIFT)
    }
}

/// A mapped region reported by [`PageTable::iter_mappings`].
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct MappedPage {
    /// Virtual address of the page start.
    pub va: VirtAddr,
    /// Leaf entry.
    pub pte: Pte,
    /// Page size of the leaf.
    pub size: PageSize,
}

/// A 4-level radix page table with 4 KiB and 2 MiB leaves.
///
/// # Examples
///
/// ```
/// use contig_mm::{PageTable, Pte, PteFlags};
/// use contig_types::{PageSize, Pfn, VirtAddr};
///
/// let mut pt = PageTable::new();
/// pt.map(VirtAddr::new(0x20_0000), Pte::new(Pfn::new(512), PteFlags::WRITE), PageSize::Huge2M);
/// let t = pt.translate(VirtAddr::new(0x20_1234)).unwrap();
/// assert_eq!(t.size, PageSize::Huge2M);
/// assert_eq!(t.frame_for(VirtAddr::new(0x20_1234)), Pfn::new(513));
/// ```
#[derive(Clone, Debug)]
pub struct PageTable {
    /// Table `t` owns `entries[t << 9..][..512]`; table 0 is the root.
    entries: Vec<u64>,
    /// Bit `s & 63` of `present[s >> 6]` is set iff `entries[s]` is not empty.
    present: Vec<u64>,
    levels: u32,
    /// Mapped leaves by level: `[4 KiB, 2 MiB]`.
    leaves: [u64; 2],
    /// The PT-level table a `&mut self` walker last reached, as `(region,
    /// table)`: a walk inside that region is a compare and one load. Tables
    /// never move; `map(Huge2M)`, which alone can orphan one, drops the pair.
    last_pt: (u64, usize),
}

/// The `last_pt` of a table that remembers nothing: no address has this region.
const NO_PT: (u64, usize) = (u64::MAX, 0);

impl Default for PageTable {
    fn default() -> Self {
        Self::new()
    }
}

/// A leaf as the run scan sees it: arena slot, level, start address.
type Leaf = (usize, u32, u64);

fn leaf_of(entry: u64, level: u32) -> (Pte, PageSize) {
    let (_, flags, pfn) = unpack(entry);
    let size = if level == HUGE_LEVEL { PageSize::Huge2M } else { PageSize::Base4K };
    (Pte::new(Pfn::new(pfn), flags), size)
}

impl PageTable {
    /// An empty 4-level page table.
    pub fn new() -> Self {
        Self::with_levels(LEVELS)
    }

    /// An empty page table with the given radix depth (4 = x86-64 default,
    /// 5 = la57). Deeper tables translate the same addresses but issue more
    /// walk references.
    ///
    /// # Panics
    ///
    /// Panics unless `levels` is 4 or 5.
    pub fn with_levels(levels: u32) -> Self {
        assert!((LEVELS..=LEVELS_LA57).contains(&levels), "unsupported radix depth {levels}");
        Self { entries: vec![EMPTY; 512], present: vec![0; 8], levels, leaves: [0; 2], last_pt: NO_PT }
    }

    /// The radix depth (4 or 5).
    pub fn levels(&self) -> u32 {
        self.levels
    }

    /// Number of mapped 4 KiB leaves.
    pub fn mapped_base_pages(&self) -> u64 {
        self.leaves[0]
    }

    /// Number of mapped 2 MiB leaves.
    pub fn mapped_huge_pages(&self) -> u64 {
        self.leaves[1]
    }

    /// Total mapped bytes.
    pub fn mapped_bytes(&self) -> u64 {
        self.leaves[0] * PageSize::Base4K.bytes() + self.leaves[1] * PageSize::Huge2M.bytes()
    }

    /// Bit position of the radix index of `level` (1-based from the leaf).
    fn shift(level: u32) -> u32 {
        contig_types::BASE_PAGE_SHIFT + 9 * (level - 1)
    }

    /// Arena slot of `va`'s entry in `table` at `level`.
    fn slot(table: usize, va: u64, level: u32) -> usize {
        table << 9 | (va >> Self::shift(level)) as usize & (ENTRIES_PER_TABLE - 1)
    }

    /// The only writer of `entries`: keeps the occupancy bit in step.
    fn set(&mut self, slot: usize, entry: u64) {
        self.entries[slot] = entry;
        let word = &mut self.present[slot >> 6];
        *word = *word & !(1 << (slot & 63)) | u64::from(entry != EMPTY) << (slot & 63);
    }

    /// Whether `table` holds any non-empty entry.
    fn populated(&self, table: usize) -> bool {
        self.present[table << 3..][..8].iter().any(|&word| word != 0)
    }

    /// Bytes mapped by one entry at `level`.
    fn span(level: u32) -> u64 {
        1 << Self::shift(level)
    }

    /// Arena slot and level of the leaf covering `va`.
    fn find(&self, va: VirtAddr) -> Option<(usize, u32)> {
        let (mut table, mut level) =
            if va.raw() >> REGION_SHIFT == self.last_pt.0 { (self.last_pt.1, 1) } else { (0, self.levels) };
        loop {
            let slot = Self::slot(table, va.raw(), level);
            match unpack(self.entries[slot]) {
                (TABLE, _, child) if level > 1 => (table, level) = (child as usize, level - 1),
                (LEAF, ..) => return Some((slot, level)),
                _ => return None,
            }
        }
    }

    /// [`Self::find`], remembering the PT table a 4 KiB leaf was found in.
    fn find_mut(&mut self, va: VirtAddr) -> Option<(usize, u32)> {
        let (slot, level) = self.find(va)?;
        if level == 1 {
            self.last_pt = (va.raw() >> REGION_SHIFT, slot >> 9);
        }
        Some((slot, level))
    }

    /// Installs a leaf mapping `va -> pte` of the given size.
    ///
    /// # Panics
    ///
    /// Panics if `va` is not size-aligned, if the slot already holds a
    /// mapping, if a huge mapping would overlap existing 4 KiB leaves, or if
    /// the frame number exceeds [`Pte::MAX_PFN`].
    pub fn map(&mut self, va: VirtAddr, pte: Pte, size: PageSize) {
        assert!(va.is_aligned(size), "mapping {va} unaligned for {size}");
        let leaf_level = if size == PageSize::Huge2M { HUGE_LEVEL } else { 1 };
        let region = va.raw() >> REGION_SHIFT;
        let (mut table, top) =
            if (leaf_level, region) == (1, self.last_pt.0) { (self.last_pt.1, 1) } else { (0, self.levels) };
        for level in (leaf_level + 1..=top).rev() {
            let slot = Self::slot(table, va.raw(), level);
            table = match unpack(self.entries[slot]) {
                (TABLE, _, child) => child as usize,
                (EMPTY, ..) => {
                    let child = self.entries.len() >> 9;
                    self.entries.resize(self.entries.len() + ENTRIES_PER_TABLE, EMPTY);
                    self.present.resize(self.present.len() + ENTRIES_PER_TABLE / 64, 0);
                    self.set(slot, pack(TABLE, PteFlags::NONE, child as u64));
                    child
                }
                _ => panic!("mapping {va} overlaps an existing huge leaf"),
            };
        }
        let slot = Self::slot(table, va.raw(), leaf_level);
        match unpack(self.entries[slot]) {
            (EMPTY, ..) => {}
            (LEAF, ..) => panic!("double map at {va}"),
            // A leftover (empty) leaf table from earlier 4 KiB mappings may
            // be replaced by a huge leaf — the promotion path does exactly
            // this after unmapping the base pages. The table is orphaned.
            (_, _, child) if !self.populated(child as usize) => {}
            _ => panic!("huge mapping at {va} overlaps 4 KiB leaves"),
        }
        self.set(slot, pack(LEAF, pte.flags, pte.pfn.raw()));
        self.leaves[leaf_level as usize - 1] += 1;
        if leaf_level == 1 {
            self.last_pt = (region, table);
        } else if region == self.last_pt.0 {
            // The huge leaf took the PMD slot that named the remembered table.
            self.last_pt = NO_PT;
        }
    }

    /// Removes the leaf covering `va` (for huge leaves, any interior address
    /// removes the whole 2 MiB leaf), returning the entry and its size.
    ///
    /// Intermediate tables are left in place (like a kernel that does not
    /// reclaim page-table pages eagerly); translation correctness is
    /// unaffected.
    pub fn unmap(&mut self, va: VirtAddr) -> Option<(Pte, PageSize)> {
        let (slot, level) = self.find_mut(va)?;
        let old = leaf_of(self.entries[slot], level);
        self.set(slot, EMPTY);
        self.leaves[level as usize - 1] -= 1;
        Some(old)
    }

    /// Walks the table for `va`.
    ///
    /// # Errors
    ///
    /// [`TranslateError::NotMapped`] when no leaf covers `va`.
    pub fn translate(&self, va: VirtAddr) -> Result<Translation, TranslateError> {
        let (slot, level) = self.find(va).ok_or(TranslateError::NotMapped { addr: va })?;
        let (Pte { pfn, flags }, size) = leaf_of(self.entries[slot], level);
        Ok(Translation { pfn, size, flags, levels: self.levels - level + 1 })
    }

    /// Whether any leaf exists inside the 2 MiB-aligned region containing
    /// `va`. O(levels): the THP fault path uses this to decide whether a huge
    /// fault is still possible.
    pub fn huge_region_populated(&self, va: VirtAddr) -> bool {
        match self.pt_table(va.raw()) {
            Ok(table) => self.populated(table),
            Err(tag) => tag == LEAF,
        }
    }

    /// Root walk to `va`'s PT table, or the tag of the entry that ends it.
    fn pt_table(&self, va: u64) -> Result<usize, u64> {
        let mut table = 0;
        for level in (HUGE_LEVEL..=self.levels).rev() {
            match unpack(self.entries[Self::slot(table, va, level)]) {
                (TABLE, _, child) => table = child as usize,
                (tag, ..) => return Err(tag),
            }
        }
        Ok(table)
    }

    /// Mutates the flags of the leaf covering `va`, returning the new flags.
    pub fn update_flags(
        &mut self,
        va: VirtAddr,
        update: impl FnOnce(PteFlags) -> PteFlags,
    ) -> Option<PteFlags> {
        let (slot, _) = self.find_mut(va)?;
        let (_, flags, pfn) = unpack(self.entries[slot]);
        let flags = update(flags);
        self.set(slot, pack(LEAF, flags, pfn));
        Some(flags)
    }

    /// Replaces the frame of the leaf covering `va` (used by migration and
    /// COW break), preserving size. Returns the old entry.
    pub fn remap(&mut self, va: VirtAddr, new: Pte) -> Option<(Pte, PageSize)> {
        let (slot, level) = self.find_mut(va)?;
        let old = leaf_of(self.entries[slot], level);
        self.set(slot, pack(LEAF, new.flags, new.pfn.raw()));
        Some(old)
    }

    /// The leaf covering `va`.
    fn leaf(&self, va: u64) -> Option<Leaf> {
        let (slot, level) = self.find(VirtAddr::new(va))?;
        Some((slot, level, va & !(Self::span(level) - 1)))
    }

    /// Start address minus backing address of `leaf`, in pages.
    fn offset_pages(&self, (slot, _, va): Leaf) -> i64 {
        (va >> contig_types::BASE_PAGE_SHIFT) as i64 - unpack(self.entries[slot]).2 as i64
    }

    /// The leaf that starts where `leaf` ends (`forward`) or ends where it
    /// starts: the adjacent entry inside a PT table, a walk at its edges.
    fn beside(&self, (slot, level, va): Leaf, forward: bool) -> Option<Leaf> {
        let edge = if forward { ENTRIES_PER_TABLE - 1 } else { 0 };
        if level == 1 && slot & (ENTRIES_PER_TABLE - 1) != edge {
            let (slot, va) = if forward { (slot + 1, va + Self::span(1)) } else { (slot - 1, va - Self::span(1)) };
            return (unpack(self.entries[slot]).0 == LEAF).then_some((slot, 1, va));
        }
        self.leaf(if forward { va.checked_add(Self::span(level))? } else { va.checked_sub(1)? })
    }

    /// The run of leaves around the one covering `va` that continue its
    /// virtual-to-physical offset, measured backwards then forwards until
    /// `cap_pages` base pages are counted (the leaf that crosses the cap is
    /// kept). `None` when `va` is unmapped. For CA paging's marker only.
    pub fn offset_run(&self, va: VirtAddr, cap_pages: u64) -> Option<VirtRange> {
        let here = self.leaf(va.raw())?;
        let offset = self.offset_pages(here);
        let mut ends = [here; 2];
        let mut scanned = Self::span(here.1) >> contig_types::BASE_PAGE_SHIFT;
        for forward in [false, true] {
            let end = &mut ends[usize::from(forward)];
            while scanned < cap_pages {
                match self.beside(*end, forward) {
                    Some(leaf) if self.offset_pages(leaf) == offset => *end = leaf,
                    _ => break,
                }
                scanned += Self::span(end.1) >> contig_types::BASE_PAGE_SHIFT;
            }
        }
        let [(_, _, start), (_, level, last)] = ends;
        Some(VirtRange::new(VirtAddr::new(start), last - start + Self::span(level)))
    }

    /// Adds `flags` to the leaves of `range`, which [`Self::offset_run`]
    /// measured: entry by entry, walking only from one PT table to the next.
    pub fn add_flags_in(&mut self, range: VirtRange, flags: PteFlags) {
        let start = range.start().raw();
        let mut next = self.leaf(start);
        while let Some(leaf) = next.filter(|leaf| leaf.2.saturating_sub(start) < range.len()) {
            let (_, old, pfn) = unpack(self.entries[leaf.0]);
            self.set(leaf.0, pack(LEAF, old | flags, pfn));
            next = self.beside(leaf, true);
        }
    }

    /// Panics unless every occupancy bit mirrors its entry and the remembered
    /// PT table is the one a root walk reaches (reads the whole arena).
    pub fn verify_integrity(&self) {
        for (slot, &entry) in self.entries.iter().enumerate() {
            let bit = self.present[slot >> 6] >> (slot & 63) & 1;
            assert_eq!(bit == 1, entry != EMPTY, "occupancy bit of slot {slot} out of step");
        }
        let (region, table) = self.last_pt;
        if self.last_pt != NO_PT {
            let reached = self.pt_table(region << REGION_SHIFT);
            assert_eq!(reached, Ok(table), "remembered PT table of region {region:#x} is stale");
        }
    }

    /// Iterates every leaf in ascending virtual-address order.
    pub fn iter_mappings(&self) -> impl Iterator<Item = MappedPage> + '_ {
        self.mappings_in(VirtRange::new(VirtAddr::new(0), u64::MAX))
    }

    /// Iterates the leaves that start inside `range`, ascending, without
    /// visiting the tables that lie wholly outside it.
    pub fn mappings_in(&self, range: VirtRange) -> impl Iterator<Item = MappedPage> + '_ {
        let (start, end) = (range.start().raw(), range.end().raw());
        let left = (self.leaves[0] + self.leaves[1]) as usize;
        let (top, stack) = Default::default();
        let mut iter = MappingIter { pt: self, top, stack, depth: 0, start, end, left };
        iter.push(0, self.levels, 0);
        iter
    }
}

struct MappingIter<'a> {
    pt: &'a PageTable,
    /// The table being walked — (`present` index of the current word, its
    /// unvisited bits, level, va) — and its ancestors in `stack[..depth]`.
    top: (usize, u64, u32, u64),
    stack: [(usize, u64, u32, u64); LEVELS_LA57 as usize],
    depth: usize,
    start: u64,
    end: u64,
    /// Leaves of the whole table not yet yielded.
    left: usize,
}

impl MappingIter<'_> {
    /// Enters `table` at its first entry that reaches past the range's start.
    fn push(&mut self, table: usize, level: u32, va: u64) {
        let first = if self.start > va { PageTable::slot(0, self.start, level) } else { 0 };
        let word = table << 3 | first >> 6;
        let bits = self.pt.present[word] & u64::MAX << (first & 63);
        self.stack[self.depth] = self.top;
        self.depth += 1;
        self.top = (word, bits, level, va);
    }
}

impl Iterator for MappingIter<'_> {
    type Item = MappedPage;

    fn next(&mut self) -> Option<Self::Item> {
        while self.depth > 0 {
            let (word, bits, level, base) = self.top;
            if bits == 0 {
                if word & 7 == 7 {
                    self.depth -= 1;
                    self.top = self.stack[self.depth];
                } else {
                    self.top = (word + 1, self.pt.present[word + 1], level, base);
                }
                continue;
            }
            let slot = word << 6 | bits.trailing_zeros() as usize;
            self.top.1 = bits & (bits - 1);
            let va = base | ((slot & (ENTRIES_PER_TABLE - 1)) as u64) << PageTable::shift(level);
            if va >= self.end {
                self.depth = 0;
            } else if let (TABLE, _, child) = unpack(self.pt.entries[slot]) {
                self.push(child as usize, level - 1, va);
            } else if va >= self.start {
                self.left -= 1;
                let (pte, size) = leaf_of(self.pt.entries[slot], level);
                return Some(MappedPage { va: VirtAddr::new(va), pte, size });
            }
        }
        None
    }

    /// Exact for a walk of the whole table, so `collect` allocates once.
    fn size_hint(&self) -> (usize, Option<usize>) {
        (if (self.start, self.end) == (0, u64::MAX) { self.left } else { 0 }, Some(self.left))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn pte(pfn: u64) -> Pte {
        Pte::new(Pfn::new(pfn), PteFlags::WRITE)
    }

    #[test]
    fn map_translate_unmap_base_page() {
        let mut pt = PageTable::new();
        let va = VirtAddr::new(0x7f12_3456_7000);
        pt.map(va, pte(42), PageSize::Base4K);
        let t = pt.translate(va + 0xabc).unwrap();
        assert_eq!(t.pfn, Pfn::new(42));
        assert_eq!(t.size, PageSize::Base4K);
        assert_eq!(t.levels, 4);
        assert_eq!(pt.unmap(va), Some((pte(42), PageSize::Base4K)));
        assert!(pt.translate(va).is_err());
        assert_eq!(pt.mapped_base_pages(), 0);
    }

    #[test]
    fn huge_leaf_walk_touches_three_levels() {
        let mut pt = PageTable::new();
        let va = VirtAddr::new(0x4000_0000);
        pt.map(va, pte(512), PageSize::Huge2M);
        let t = pt.translate(va + 0x10_1234).unwrap();
        assert_eq!(t.size, PageSize::Huge2M);
        assert_eq!(t.levels, 3);
        assert_eq!(t.frame_for(va + 0x10_1234), Pfn::new(512 + 0x101));
        assert_eq!(pt.mapped_bytes(), 2 << 20);
    }

    #[test]
    #[should_panic(expected = "double map")]
    fn double_map_panics() {
        let mut pt = PageTable::new();
        pt.map(VirtAddr::new(0x1000), pte(1), PageSize::Base4K);
        pt.map(VirtAddr::new(0x1000), pte(2), PageSize::Base4K);
    }

    #[test]
    #[should_panic(expected = "unaligned")]
    fn unaligned_huge_map_panics() {
        let mut pt = PageTable::new();
        pt.map(VirtAddr::new(0x1000), pte(1), PageSize::Huge2M);
    }

    #[test]
    #[should_panic(expected = "overlaps")]
    fn huge_over_base_panics() {
        let mut pt = PageTable::new();
        pt.map(VirtAddr::new(0x20_0000), pte(1), PageSize::Base4K);
        pt.map(VirtAddr::new(0x20_0000), pte(2), PageSize::Huge2M);
    }

    #[test]
    fn adjacent_mappings_do_not_interfere() {
        let mut pt = PageTable::new();
        for i in 0..1024u64 {
            pt.map(VirtAddr::new(i * 0x1000), pte(i), PageSize::Base4K);
        }
        for i in 0..1024u64 {
            assert_eq!(pt.translate(VirtAddr::new(i * 0x1000)).unwrap().pfn, Pfn::new(i));
        }
        assert_eq!(pt.mapped_base_pages(), 1024);
    }

    #[test]
    fn huge_region_populated_detects_leaves() {
        let mut pt = PageTable::new();
        assert!(!pt.huge_region_populated(VirtAddr::new(0x20_0000)));
        pt.map(VirtAddr::new(0x20_1000), pte(5), PageSize::Base4K);
        assert!(pt.huge_region_populated(VirtAddr::new(0x20_0000)));
        assert!(pt.huge_region_populated(VirtAddr::new(0x3f_ffff)));
        assert!(!pt.huge_region_populated(VirtAddr::new(0x40_0000)));
        pt.unmap(VirtAddr::new(0x20_1000));
        assert!(!pt.huge_region_populated(VirtAddr::new(0x20_0000)));
    }

    #[test]
    fn iter_mappings_yields_sorted_leaves() {
        let mut pt = PageTable::new();
        pt.map(VirtAddr::new(0x40_0000), pte(100), PageSize::Huge2M);
        pt.map(VirtAddr::new(0x1000), pte(1), PageSize::Base4K);
        pt.map(VirtAddr::new(0x7f00_0000_0000), pte(9), PageSize::Base4K);
        let all: Vec<_> = pt.iter_mappings().collect();
        assert_eq!(all.len(), 3);
        assert_eq!(all[0].va, VirtAddr::new(0x1000));
        assert_eq!(all[1].va, VirtAddr::new(0x40_0000));
        assert_eq!(all[1].size, PageSize::Huge2M);
        assert_eq!(all[2].va, VirtAddr::new(0x7f00_0000_0000));
    }

    #[test]
    fn iteration_order_is_pinned() {
        let mut pt = PageTable::with_levels(LEVELS_LA57);
        let small = [1 << 48, 0x7f00_0000_0000, 0x3000, 0x20_1000, 0x1000];
        for (i, va) in small.into_iter().enumerate() {
            pt.map(VirtAddr::new(va), pte(i as u64), PageSize::Base4K);
        }
        pt.map(VirtAddr::new(0x8000_0000), pte(10), PageSize::Huge2M);
        pt.map(VirtAddr::new(0x40_0000), pte(11), PageSize::Huge2M);
        pt.unmap(VirtAddr::new(0x3000));
        let vas: Vec<_> = pt.iter_mappings().map(|m| m.va.raw()).collect();
        assert_eq!(vas, [0x1000, 0x20_1000, 0x40_0000, 0x8000_0000, 0x7f00_0000_0000, 1 << 48]);
    }

    #[test]
    fn update_flags_sets_contiguity_bit() {
        let mut pt = PageTable::new();
        let va = VirtAddr::new(0x5000);
        pt.map(va, pte(3), PageSize::Base4K);
        let flags = pt.update_flags(va, |f| f | PteFlags::CONTIG).unwrap();
        assert!(flags.contains(PteFlags::CONTIG));
        assert!(pt.translate(va).unwrap().flags.contains(PteFlags::CONTIG));
        assert_eq!(pt.update_flags(VirtAddr::new(0x9000), |f| f), None);
    }

    #[test]
    fn remap_replaces_frame_in_place() {
        let mut pt = PageTable::new();
        let va = VirtAddr::new(0x60_0000);
        pt.map(va, pte(100), PageSize::Huge2M);
        let (old, size) = pt.remap(va + 0x1000, pte(700)).unwrap();
        assert_eq!(old.pfn, Pfn::new(100));
        assert_eq!(size, PageSize::Huge2M);
        assert_eq!(pt.translate(va).unwrap().pfn, Pfn::new(700));
    }

    #[test]
    fn five_level_table_translates_with_extra_reference() {
        let mut pt = PageTable::with_levels(LEVELS_LA57);
        assert_eq!(pt.levels(), 5);
        let va = VirtAddr::new(0x7f12_3456_7000);
        pt.map(va, pte(42), PageSize::Base4K);
        let t = pt.translate(va).unwrap();
        assert_eq!(t.pfn, Pfn::new(42));
        assert_eq!(t.levels, 5, "la57 walks one extra level");
        let hva = VirtAddr::new(0x40_0000);
        pt.map(hva, pte(512), PageSize::Huge2M);
        assert_eq!(pt.translate(hva).unwrap().levels, 4);
        // Addresses using bit 48+ no longer alias into the 4-level space.
        let high = VirtAddr::new(1 << 48);
        pt.map(high, pte(7), PageSize::Base4K);
        assert_eq!(pt.translate(high).unwrap().pfn, Pfn::new(7));
        assert!(pt.translate(VirtAddr::new(0)).is_err());
        // Iteration and unmap work across the deeper radix.
        assert_eq!(pt.iter_mappings().count(), 3);
        assert!(pt.unmap(high).is_some());
        assert_eq!(pt.iter_mappings().count(), 2);
    }

    #[test]
    #[should_panic(expected = "unsupported radix depth")]
    fn unsupported_depth_rejected() {
        let _ = PageTable::with_levels(3);
    }

    #[test]
    fn unmap_missing_returns_none() {
        let mut pt = PageTable::new();
        assert_eq!(pt.unmap(VirtAddr::new(0x1000)), None);
        pt.map(VirtAddr::new(0x40_0000), pte(1), PageSize::Huge2M);
        // Any interior address removes the covering huge leaf.
        assert_eq!(pt.unmap(VirtAddr::new(0x40_1000)), Some((pte(1), PageSize::Huge2M)));
        assert_eq!(pt.unmap(VirtAddr::new(0x40_0000)), None);
    }
}
