//! Per-frame metadata: the simulator's analogue of Linux's `mem_map`.
//!
//! CA paging examines the availability of a *target* page "relying completely
//! on existing OS metadata" (paper §III-B): in Linux via `struct page`'s
//! `_mapcount`/`_count`, here via [`FrameTable`] lookups. Like `struct page`,
//! one packed entry per frame answers everything the allocator's hot paths
//! ask about a frame, so none of them keeps a side index.
//!
//! The per-frame accessors are `#[inline]` on purpose: they are a load and a
//! mask, `contig-mm` calls them on every fault, and the workspace builds
//! without LTO, so whether they inlined used to depend on how unrelated
//! edits moved functions between codegen units.

use contig_types::Pfn;

/// State of one 4 KiB physical frame.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub enum FrameState {
    /// First frame of a free buddy block of the recorded order.
    FreeHead {
        /// Buddy order of the free block this frame heads.
        order: u32,
    },
    /// Free frame inside a free block headed elsewhere.
    FreeTail,
    /// First frame of an allocated block of the recorded order.
    AllocatedHead {
        /// Buddy order of the allocation this frame heads.
        order: u32,
    },
    /// Allocated frame inside an allocation headed elsewhere.
    AllocatedTail,
}

impl FrameState {
    /// Whether the frame is free (head or tail of a free block).
    pub(crate) const fn is_free(self) -> bool {
        matches!(self, FrameState::FreeHead { .. } | FrameState::FreeTail)
    }
}

const HEAD: u32 = 1;
const ALLOCATED: u32 = 1 << 1;
const ORDER_SHIFT: u32 = 2;
const ORDER_MASK: u32 = 0x1f;
const PCP_RESIDENT: u32 = 1 << 7;
const POISONED: u32 = 1 << 8;

/// One frame's packed metadata, 8 bytes. `meta` holds the state tag (bit 0
/// head, bit 1 allocated), the block order (bits 2–6, heads only) and the
/// pcp-resident and poisoned flags. `aux` is a union keyed by the state, like
/// `struct page`'s `lru`/`_mapcount`: the block's position in its order's
/// free stack while the frame is a free head, the COW share count while it
/// is an allocated head, zero on every tail.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
struct Entry {
    meta: u32,
    aux: u32,
}

impl Entry {
    const FREE_TAIL: Entry = Entry::new(FrameState::FreeTail, 0, 0);
    const ALLOCATED_TAIL: Entry = Entry::new(FrameState::AllocatedTail, 0, 0);

    const fn new(state: FrameState, flags: u32, aux: u32) -> Entry {
        let tag = match state {
            FrameState::FreeTail => 0,
            FrameState::FreeHead { order } => HEAD | order << ORDER_SHIFT,
            FrameState::AllocatedTail => ALLOCATED,
            FrameState::AllocatedHead { order } => ALLOCATED | HEAD | order << ORDER_SHIFT,
        };
        Entry { meta: tag | flags, aux }
    }

    const fn order(self) -> u32 {
        (self.meta >> ORDER_SHIFT) & ORDER_MASK
    }

    const fn state(self) -> FrameState {
        let order = self.order();
        match (self.meta & ALLOCATED != 0, self.meta & HEAD != 0) {
            (false, true) => FrameState::FreeHead { order },
            (false, false) => FrameState::FreeTail,
            (true, true) => FrameState::AllocatedHead { order },
            (true, false) => FrameState::AllocatedTail,
        }
    }

    const fn has(self, flag: u32) -> bool {
        self.meta & flag != 0
    }

    const fn is_allocated_head(self) -> bool {
        self.meta & (ALLOCATED | HEAD) == ALLOCATED | HEAD
    }
}

/// Dense per-frame metadata for one zone, indexed by frame number relative to
/// the zone base.
#[derive(Clone, Debug)]
pub struct FrameTable {
    base: Pfn,
    entries: Vec<Entry>,
}

impl FrameTable {
    /// A table of `frames` frames starting at absolute frame number `base`,
    /// all initially free tails (the zone constructor installs the heads).
    ///
    /// # Panics
    ///
    /// Panics if `frames` exceeds `u32::MAX`: free-stack positions are stored
    /// in the entry's 32-bit half.
    pub fn new(base: Pfn, frames: u64) -> Self {
        assert!(frames <= u64::from(u32::MAX), "zone of {frames} frames exceeds the frame table");
        Self { base, entries: vec![Entry::FREE_TAIL; frames as usize] }
    }

    /// Number of frames tracked.
    pub(crate) fn len(&self) -> u64 {
        self.entries.len() as u64
    }

    /// Whether `pfn` falls inside this zone.
    #[inline]
    pub(crate) fn contains(&self, pfn: Pfn) -> bool {
        pfn >= self.base && pfn.raw() < self.base.raw() + self.len()
    }

    #[inline]
    fn index(&self, pfn: Pfn) -> usize {
        debug_assert!(self.contains(pfn), "{pfn} outside zone [{}, +{})", self.base, self.len());
        (pfn.raw() - self.base.raw()) as usize
    }

    #[inline]
    fn entry(&self, pfn: Pfn) -> Entry {
        self.entries[self.index(pfn)]
    }

    #[inline]
    fn entry_mut(&mut self, pfn: Pfn) -> &mut Entry {
        let idx = self.index(pfn);
        &mut self.entries[idx]
    }

    /// State of the given frame.
    ///
    /// # Panics
    ///
    /// Panics if `pfn` is outside the zone.
    #[inline]
    pub fn state(&self, pfn: Pfn) -> FrameState {
        self.entry(pfn).state()
    }

    /// Whether the frame is currently free. This is the check CA paging
    /// performs on its allocation target before attempting to claim it.
    #[inline]
    pub(crate) fn is_free(&self, pfn: Pfn) -> bool {
        self.contains(pfn) && !self.entry(pfn).has(ALLOCATED)
    }

    /// Whether the frame is parked on a per-CPU cache list (it then reads as
    /// an allocated order-0 block). False outside the zone.
    #[inline]
    pub(crate) fn is_pcp_resident(&self, pfn: Pfn) -> bool {
        self.contains(pfn) && self.entry(pfn).has(PCP_RESIDENT)
    }

    /// Whether the frame is marked poisoned. False outside the zone.
    #[inline]
    pub(crate) fn is_poisoned(&self, pfn: Pfn) -> bool {
        self.contains(pfn) && self.entry(pfn).has(POISONED)
    }

    /// The COW share count of the allocation `pfn` heads; 0 for an
    /// exclusively owned block and for a frame that heads no allocation.
    #[inline]
    pub fn share_count(&self, pfn: Pfn) -> u32 {
        let e = self.entry(pfn);
        if e.is_allocated_head() { e.aux } else { 0 }
    }

    /// Allocated heads with a non-zero share count, in address order.
    pub fn shared_heads(&self) -> impl Iterator<Item = (Pfn, u32)> + '_ {
        self.heads(0)
            .filter(|(_, e)| e.is_allocated_head() && e.aux != 0)
            .map(|(pfn, e)| (pfn, e.aux))
    }

    /// Every entry from `start` on that carries the head bit, in address
    /// order — exactly what a filter over every entry finds, on any table.
    /// A head of order `k` is trusted to cover its `2^k − 1` tails only once
    /// they are verified: their `meta` words are OR-folded (no short-circuit,
    /// so the fold vectorises) and the walk jumps past the block when no tail
    /// carries the head bit, and steps one entry otherwise, so a stray head
    /// inside a block is still found. The cost follows the blocks, not the
    /// frames, on a well-formed table.
    fn heads(&self, start: usize) -> impl Iterator<Item = (Pfn, Entry)> + '_ {
        let mut at = start;
        std::iter::from_fn(move || {
            while let Some(&e) = self.entries.get(at) {
                let head = at;
                at += 1;
                if e.has(HEAD) {
                    let end = (head + (1usize << e.order())).min(self.entries.len());
                    if self.entries[at..end].iter().fold(0, |acc, t| acc | t.meta) & HEAD == 0 {
                        at = end;
                    }
                    return Some((self.base.add(head as u64), e));
                }
            }
            None
        })
    }

    /// # Panics
    ///
    /// Panics if `head` heads no allocation (a free head's second half is
    /// its free-stack position).
    #[inline]
    pub(crate) fn set_share_count(&mut self, head: Pfn, count: u32) {
        let e = self.entry_mut(head);
        assert!(e.is_allocated_head(), "share count on {head}, which heads no allocation");
        e.aux = count;
    }

    /// The free-stack position stored on a free head; `None` elsewhere.
    #[inline]
    pub(crate) fn position(&self, pfn: Pfn) -> Option<usize> {
        let e = self.entry(pfn);
        (!e.has(ALLOCATED) && e.has(HEAD)).then_some(e.aux as usize)
    }

    #[inline]
    pub(crate) fn set_position(&mut self, head: Pfn, pos: usize) {
        let e = self.entry_mut(head);
        debug_assert!(!e.has(ALLOCATED) && e.has(HEAD), "{head} heads no free block");
        e.aux = pos as u32;
    }

    /// Parks or unparks an allocated order-0 frame. The whole entry is
    /// rewritten, so a frame freed with a share count still on it cannot
    /// hand that count to its next owner.
    #[inline]
    pub(crate) fn set_pcp_resident(&mut self, pfn: Pfn, resident: bool) {
        let e = self.entry_mut(pfn);
        debug_assert_eq!(e.state(), FrameState::AllocatedHead { order: 0 });
        let flags = (e.meta & POISONED) | if resident { PCP_RESIDENT } else { 0 };
        *e = Entry::new(FrameState::AllocatedHead { order: 0 }, flags, 0);
    }

    /// Whether any frame of `[head, head + 2^order)` is pcp-resident.
    pub(crate) fn any_pcp_resident(&self, head: Pfn, order: u32) -> bool {
        self.any_flagged(head, order, PCP_RESIDENT)
    }

    /// Whether any frame of `[head, head + 2^order)` is poisoned.
    pub(crate) fn any_poisoned(&self, head: Pfn, order: u32) -> bool {
        self.any_flagged(head, order, POISONED)
    }

    fn any_flagged(&self, head: Pfn, order: u32, flag: u32) -> bool {
        let idx = self.index(head);
        // No short-circuit, so the scan vectorises.
        self.entries[idx..idx + (1usize << order)].iter().fold(0, |acc, e| acc | e.meta) & flag != 0
    }

    /// The flag is permanent: every later rewrite of the entry carries it.
    pub(crate) fn set_poisoned(&mut self, pfn: Pfn) {
        self.entry_mut(pfn).meta |= POISONED;
    }

    /// The poisoned frames, ascending: the flag is the badframe list, as
    /// `PG_hwpoison` in `struct page` is the kernel's.
    pub(crate) fn poisoned(&self) -> impl Iterator<Item = Pfn> + '_ {
        let base = self.base;
        self.entries.iter().zip(0..).filter(|(e, _)| e.has(POISONED)).map(move |(_, i)| base.add(i))
    }

    /// Whether every frame behind the head of `[head, head + 2^order)` is a
    /// bare tail of the head's kind: nothing in the second half and no flag
    /// but, inside an allocation, a deferred poison.
    pub(crate) fn tails_intact(&self, head: Pfn, order: u32) -> bool {
        let idx = self.index(head);
        let want = self.entries[idx].meta & ALLOCATED;
        let ignore = if want == 0 { 0 } else { POISONED };
        // No short-circuit, so the scan vectorises: it covers the whole zone.
        let stray = self.entries[idx + 1..idx + (1usize << order)]
            .iter()
            .fold(0, |acc, e| acc | ((e.meta & !ignore) ^ want) | e.aux);
        stray == 0
    }

    /// Marks `1 << order` frames starting at `head` as a free block listed at
    /// `pos` of its order's free stack. Free blocks never contain poisoned
    /// frames, so the tail run is one fill.
    #[inline]
    pub(crate) fn mark_free_block(&mut self, head: Pfn, order: u32, pos: usize) {
        let idx = self.index(head);
        let block = &mut self.entries[idx..idx + (1usize << order)];
        debug_assert!(block.iter().all(|e| !e.has(POISONED)), "poison in free block {head}");
        block[0] = Entry::new(FrameState::FreeHead { order }, 0, pos as u32);
        block[1..].fill(Entry::FREE_TAIL);
    }

    /// Marks `1 << order` frames starting at `head` as an exclusively owned
    /// allocated block. Blocks above order 0 are only carved out of free
    /// space, so the tail run holds no poisoned frame and is one fill.
    #[inline]
    pub(crate) fn mark_allocated_block(&mut self, head: Pfn, order: u32) {
        let idx = self.index(head);
        let block = &mut self.entries[idx..idx + (1usize << order)];
        debug_assert!(block[1..].iter().all(|e| !e.has(POISONED)), "poisoned tail under {head}");
        block[0] = Entry::new(FrameState::AllocatedHead { order }, block[0].meta & POISONED, 0);
        block[1..].fill(Entry::ALLOCATED_TAIL);
    }

    /// Makes an allocated frame the head of an order-`order` allocation,
    /// keeping its flags and share count — one piece of a `split_page()`,
    /// whose tails already read allocated.
    pub(crate) fn set_allocated_order(&mut self, pfn: Pfn, order: u32) {
        let e = self.entry_mut(pfn);
        debug_assert!(e.has(ALLOCATED), "split piece {pfn} is not allocated");
        *e = Entry::new(FrameState::AllocatedHead { order }, e.meta & (POISONED | PCP_RESIDENT), e.aux);
    }

    /// Finds the head and order of the free buddy block containing `pfn`,
    /// if the frame is free.
    ///
    /// Buddy blocks are naturally aligned, so the head must be one of the
    /// `max_order + 1` alignment candidates of `pfn`; we test them from the
    /// smallest up.
    pub(crate) fn free_block_containing(&self, pfn: Pfn, max_order: u32) -> Option<(Pfn, u32)> {
        if !self.is_free(pfn) {
            return None;
        }
        for order in 0..=max_order {
            let candidate = Pfn::new(self.base.raw() + ((pfn.raw() - self.base.raw()) & !((1u64 << order) - 1)));
            if let FrameState::FreeHead { order: found } = self.state(candidate) {
                if found >= order && pfn.raw() < candidate.raw() + (1 << found) {
                    return Some((candidate, found));
                }
            }
        }
        None
    }

    /// Iterates maximal runs of consecutive free frames as `(head, len)`
    /// pairs, ignoring buddy block boundaries. This is the *unaligned* free
    /// contiguity the paper's Fig. 9 histograms. It reads every entry, heads
    /// or not: the auditor recounts free frames from it, so it must not
    /// trust a head's order.
    pub fn free_runs(&self) -> impl Iterator<Item = (Pfn, u64)> + '_ {
        let mut next = self.base;
        self.entries.chunk_by(|a, b| a.has(ALLOCATED) == b.has(ALLOCATED)).filter_map(move |run| {
            let head = next;
            next = head.add(run.len() as u64);
            (!run[0].has(ALLOCATED)).then_some((head, run.len() as u64))
        })
    }

    /// Iterates every allocated block as `(head, order)` pairs in address
    /// order — the compaction migrate-scanner's candidate source.
    pub fn allocated_blocks(&self) -> impl Iterator<Item = (Pfn, u32)> + '_ {
        self.allocated_heads(0)
    }

    fn allocated_heads(&self, start: usize) -> impl Iterator<Item = (Pfn, u32)> + '_ {
        self.heads(start).filter(|(_, e)| e.is_allocated_head()).map(|(pfn, e)| (pfn, e.order()))
    }

    /// Iterates at most `limit` allocated blocks whose head lies at or above
    /// `from`, in address order — the budgeted, cursor-resumable migrate scan
    /// the background maintenance daemon walks one epoch slice at a time.
    /// A `from` below the zone base starts at the base; a `from` past the
    /// zone end yields nothing.
    pub fn allocated_blocks_from(
        &self,
        from: Pfn,
        limit: u64,
    ) -> impl Iterator<Item = (Pfn, u32)> + '_ {
        let start = from.raw().saturating_sub(self.base.raw()).min(self.len()) as usize;
        self.allocated_heads(start).take(limit as usize)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn mark_and_query_blocks() {
        let mut t = FrameTable::new(Pfn::new(100), 64);
        t.mark_free_block(Pfn::new(100), 5, 0);
        t.mark_allocated_block(Pfn::new(132), 5);
        assert!(t.is_free(Pfn::new(100)));
        assert!(t.is_free(Pfn::new(131)));
        assert!(!t.is_free(Pfn::new(132)));
        assert!(!t.is_free(Pfn::new(163)));
        assert_eq!(t.state(Pfn::new(100)), FrameState::FreeHead { order: 5 });
        assert_eq!(t.state(Pfn::new(132)), FrameState::AllocatedHead { order: 5 });
    }

    #[test]
    fn out_of_zone_frames_are_not_free() {
        let t = FrameTable::new(Pfn::new(10), 4);
        assert!(!t.is_free(Pfn::new(9)));
        assert!(!t.is_free(Pfn::new(14)));
    }

    #[test]
    fn find_containing_free_block() {
        let mut t = FrameTable::new(Pfn::new(0), 64);
        t.mark_free_block(Pfn::new(32), 5, 0);
        t.mark_allocated_block(Pfn::new(0), 5);
        assert_eq!(t.free_block_containing(Pfn::new(40), 5), Some((Pfn::new(32), 5)));
        assert_eq!(t.free_block_containing(Pfn::new(32), 5), Some((Pfn::new(32), 5)));
        assert_eq!(t.free_block_containing(Pfn::new(63), 5), Some((Pfn::new(32), 5)));
        assert_eq!(t.free_block_containing(Pfn::new(0), 5), None);
    }

    #[test]
    fn free_block_containing_with_unaligned_zone_base() {
        // Zone bases need not be aligned to the top order; containment must
        // use zone-relative alignment.
        let mut t = FrameTable::new(Pfn::new(96), 64);
        t.mark_free_block(Pfn::new(96), 4, 0);
        t.mark_allocated_block(Pfn::new(112), 4);
        t.mark_free_block(Pfn::new(128), 5, 0);
        assert_eq!(t.free_block_containing(Pfn::new(100), 5), Some((Pfn::new(96), 4)));
        assert_eq!(t.free_block_containing(Pfn::new(140), 5), Some((Pfn::new(128), 5)));
    }

    #[test]
    fn cursored_scan_is_budgeted_and_resumable() {
        let mut t = FrameTable::new(Pfn::new(100), 64);
        t.mark_free_block(Pfn::new(100), 5, 0);
        t.mark_allocated_block(Pfn::new(132), 2);
        t.mark_allocated_block(Pfn::new(136), 2);
        t.mark_allocated_block(Pfn::new(140), 0);
        let all: Vec<_> = t.allocated_blocks().collect();
        let first: Vec<_> = t.allocated_blocks_from(Pfn::new(0), 2).collect();
        assert_eq!(first, all[..2]);
        // Resuming just past the last head picks up the remainder exactly.
        let resumed: Vec<_> = t.allocated_blocks_from(first[1].0.add(1), 64).collect();
        assert_eq!(resumed, all[2..]);
        assert!(t.allocated_blocks_from(Pfn::new(500), 64).next().is_none());
    }

    #[test]
    fn free_runs_merge_adjacent_blocks() {
        let mut t = FrameTable::new(Pfn::new(0), 16);
        t.mark_allocated_block(Pfn::new(0), 1);
        t.mark_free_block(Pfn::new(2), 1, 0);
        t.mark_free_block(Pfn::new(4), 2, 0);
        t.mark_allocated_block(Pfn::new(8), 3);
        let runs: Vec<_> = t.free_runs().collect();
        assert_eq!(runs, vec![(Pfn::new(2), 6)]);
    }

    #[test]
    fn free_runs_handle_trailing_run() {
        let mut t = FrameTable::new(Pfn::new(0), 8);
        t.mark_allocated_block(Pfn::new(0), 2);
        t.mark_free_block(Pfn::new(4), 2, 0);
        let runs: Vec<_> = t.free_runs().collect();
        assert_eq!(runs, vec![(Pfn::new(4), 4)]);
    }

    #[test]
    fn packed_entry_round_trips_every_state_order_and_flag() {
        assert!(std::mem::size_of::<Entry>() <= 8);
        for order in 0..=ORDER_MASK {
            for flags in [0, PCP_RESIDENT, POISONED, PCP_RESIDENT | POISONED] {
                for state in [
                    FrameState::FreeHead { order },
                    FrameState::FreeTail,
                    FrameState::AllocatedHead { order },
                    FrameState::AllocatedTail,
                ] {
                    let e = Entry::new(state, flags, 0xdead_beef);
                    assert_eq!(e.state(), state);
                    assert_eq!(e.meta & (PCP_RESIDENT | POISONED), flags);
                    assert_eq!(e.aux, 0xdead_beef);
                    assert_eq!(!e.has(ALLOCATED), state.is_free());
                }
            }
        }
    }

    #[test]
    fn aux_half_is_a_position_on_free_heads_and_a_share_count_on_allocated_ones() {
        let mut t = FrameTable::new(Pfn::new(0), 8);
        t.mark_free_block(Pfn::new(0), 2, 7);
        assert_eq!(t.position(Pfn::new(0)), Some(7));
        assert_eq!(t.share_count(Pfn::new(0)), 0, "a position is never read as a count");
        t.mark_allocated_block(Pfn::new(0), 2);
        assert_eq!(t.position(Pfn::new(0)), None);
        assert_eq!(t.share_count(Pfn::new(0)), 0, "a stale position must not survive allocation");
        t.set_share_count(Pfn::new(0), 3);
        assert_eq!(t.shared_heads().collect::<Vec<_>>(), vec![(Pfn::new(0), 3)]);
        // Splitting keeps the count on the original head; new heads start at 0.
        t.set_allocated_order(Pfn::new(0), 1);
        t.set_allocated_order(Pfn::new(2), 1);
        assert_eq!(t.share_count(Pfn::new(0)), 3);
        assert_eq!(t.state(Pfn::new(2)), FrameState::AllocatedHead { order: 1 });
        assert_eq!(t.share_count(Pfn::new(2)), 0);
        // Poison survives every rewrite of an allocated head.
        t.set_poisoned(Pfn::new(0));
        t.mark_allocated_block(Pfn::new(0), 0);
        t.set_pcp_resident(Pfn::new(0), true);
        t.set_pcp_resident(Pfn::new(0), false);
        assert!(t.is_poisoned(Pfn::new(0)));
    }

    /// The walks' answers against the per-entry filters they replaced,
    /// transcribed: from every start, under every small limit.
    fn assert_walks_are_exact(t: &FrameTable) {
        let filter = |start: usize| -> Vec<(Pfn, u32)> {
            let first = t.base.add(start as u64);
            t.entries[start..]
                .iter()
                .enumerate()
                .filter(|(_, e)| e.is_allocated_head())
                .map(move |(i, e)| (first.add(i as u64), e.order()))
                .collect()
        };
        let shared: Vec<_> = t
            .entries
            .iter()
            .enumerate()
            .filter(|(_, e)| e.is_allocated_head() && e.aux != 0)
            .map(|(i, e)| (t.base.add(i as u64), e.aux))
            .collect();
        assert_eq!(t.allocated_blocks().collect::<Vec<_>>(), filter(0));
        assert_eq!(t.shared_heads().collect::<Vec<_>>(), shared);
        let poisoned = (0..t.len()).map(|i| t.base.add(i)).filter(|&p| t.is_poisoned(p));
        assert_eq!(t.poisoned().collect::<Vec<_>>(), poisoned.collect::<Vec<_>>());
        for from in 0..t.base.raw() + t.len() + 2 {
            let start = from.saturating_sub(t.base.raw()).min(t.len()) as usize;
            let want = filter(start);
            for limit in [0, 1, 2, 3, u64::MAX] {
                let got: Vec<_> = t.allocated_blocks_from(Pfn::new(from), limit).collect();
                let want = &want[..want.len().min(limit as usize)];
                assert_eq!(got, want, "from {from} limit {limit}");
            }
        }
    }

    #[test]
    fn walks_are_exact_on_malformed_tables() {
        let head = |order| Entry::new(FrameState::AllocatedHead { order }, 0, 0);
        // A stray (shared) head inside an allocated block, and one inside a
        // free block.
        let mut t = FrameTable::new(Pfn::new(4), 32);
        t.mark_allocated_block(Pfn::new(4), 3);
        t.entries[5] = Entry::new(FrameState::AllocatedHead { order: 0 }, 0, 2);
        t.mark_free_block(Pfn::new(12), 3, 0);
        t.entries[13] = head(1);
        t.mark_allocated_block(Pfn::new(20), 4);
        t.set_share_count(Pfn::new(20), 3);
        assert_walks_are_exact(&t);
        // The only stray right behind its head: the first tail is folded too.
        let mut t = FrameTable::new(Pfn::new(0), 8);
        t.mark_allocated_block(Pfn::new(0), 3);
        t.entries[1] = head(0);
        assert_walks_are_exact(&t);
        // A run of free tails with no head in front of it, then a head whose
        // order overruns the zone end.
        let mut t = FrameTable::new(Pfn::new(0), 12);
        t.entries[6] = head(0);
        t.entries[8] = Entry::new(FrameState::AllocatedHead { order: 3 }, 0, 1);
        t.entries[11] = head(2);
        assert_walks_are_exact(&t);
        let mut t = FrameTable::new(Pfn::new(0), 8);
        t.entries[0] = Entry::new(FrameState::FreeHead { order: ORDER_MASK }, 0, 0);
        t.entries[7] = head(ORDER_MASK);
        assert_walks_are_exact(&t);
        // Arbitrary entries: every state, order, flag and second half.
        let mut rng = 26;
        for _ in 0..200 {
            let mut t = FrameTable::new(Pfn::new(contig_types::splitmix64(&mut rng) % 5), 40);
            for e in &mut t.entries {
                let draw = contig_types::splitmix64(&mut rng);
                let flags = draw as u32 & (ALLOCATED | PCP_RESIDENT | POISONED);
                // One head in eight, so that some blocks hold no stray head.
                let order = (draw >> 16) as u32 % 6;
                let is_head = (draw >> 24).is_multiple_of(8);
                let head = if is_head { HEAD | order << ORDER_SHIFT } else { 0 };
                *e = Entry { meta: flags | head, aux: (draw >> 40) as u32 % 3 };
            }
            assert_walks_are_exact(&t);
        }
    }
}
