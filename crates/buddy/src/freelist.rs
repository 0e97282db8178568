//! Per-order free lists with O(1) arbitrary removal.
//!
//! Linux's buddy free lists are intrusive doubly-linked lists: blocks are
//! pushed and popped at the head (LIFO) and can be unlinked from the middle
//! when a targeted allocation splits them.
//!
//! The list here is a stack whose blocks remember their own position in the
//! [`FrameTable`] entry of their head frame (the role `struct page.lru` plays
//! for the kernel), so a mid-list unlink is a `swap_remove` at a known index.
//! Which block pops next after an unlink is part of the model's observable
//! behaviour — snapshots store lists in iteration order — so the
//! stack-plus-`swap_remove` discipline is the contract, not an implementation
//! detail. CA paging's address-sorted top-order list (paper §III-C) is not a
//! second discipline here: the zone pops that list's lowest block as the
//! contiguity map names it and unlinks it from the stack by position.

use contig_types::Pfn;

use crate::frame::FrameTable;

/// The free list of one buddy order: a LIFO stack whose `pop` returns the
/// most recently inserted block, which after a history of scattered frees
/// yields scattered allocations — the behaviour that inhibits contiguity.
/// Every mutation also writes the block's frame-table entries, so list
/// membership and frame state cannot disagree.
#[derive(Clone, Debug, Default)]
pub struct FreeList(Vec<Pfn>);

impl FreeList {
    /// Whether the list holds no blocks.
    #[inline]
    pub(crate) fn is_empty(&self) -> bool {
        self.0.is_empty()
    }

    /// Inserts the block `[head, head + 2^order)` and marks its frames free
    /// in `frames`.
    ///
    /// # Panics
    ///
    /// Panics if the block is already on the list (a double free).
    #[inline]
    pub fn insert(&mut self, frames: &mut FrameTable, head: Pfn, order: u32) {
        assert!(!self.contains(frames, head), "block {head} double-inserted into free list");
        self.0.push(head);
        frames.mark_free_block(head, order, self.0.len() - 1);
    }

    /// Removes and returns the most recently inserted block. The block's
    /// frames still read free; the caller marks what it carves.
    #[inline]
    pub fn pop(&mut self) -> Option<Pfn> {
        self.0.pop()
    }

    /// Removes a specific block, returning whether it was present. The top
    /// block takes the vacated position.
    #[inline]
    pub fn remove(&mut self, frames: &mut FrameTable, head: Pfn) -> bool {
        let Some(pos) = frames.position(head).filter(|&p| self.0.get(p) == Some(&head)) else {
            return false;
        };
        self.0.swap_remove(pos);
        if let Some(&moved) = self.0.get(pos) {
            frames.set_position(moved, pos);
        }
        true
    }

    /// Whether the block is on the list.
    #[inline]
    pub fn contains(&self, frames: &FrameTable, head: Pfn) -> bool {
        frames.position(head).is_some_and(|p| self.0.get(p) == Some(&head))
    }

    /// Iterates the blocks in stack order, oldest first.
    pub fn iter(&self) -> impl Iterator<Item = Pfn> + '_ {
        self.0.iter().copied()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn table() -> FrameTable {
        FrameTable::new(Pfn::new(0), 64)
    }

    #[test]
    fn lifo_pops_most_recent() {
        let (mut l, mut t) = (FreeList::default(), table());
        l.insert(&mut t, Pfn::new(10), 0);
        l.insert(&mut t, Pfn::new(20), 0);
        l.insert(&mut t, Pfn::new(5), 0);
        assert_eq!(l.pop(), Some(Pfn::new(5)));
        assert_eq!(l.pop(), Some(Pfn::new(20)));
        assert_eq!(l.pop(), Some(Pfn::new(10)));
        assert_eq!(l.pop(), None);
    }

    #[test]
    fn middle_removal_keeps_index_consistent() {
        let (mut l, mut t) = (FreeList::default(), table());
        for i in 0..8 {
            l.insert(&mut t, Pfn::new(i * 4), 0);
        }
        assert!(l.remove(&mut t, Pfn::new(8)));
        assert!(!l.remove(&mut t, Pfn::new(8)));
        assert!(!l.contains(&t, Pfn::new(8)));
        // Every other element still reachable.
        let mut seen = Vec::new();
        while let Some(p) = l.pop() {
            seen.push(p.raw());
        }
        seen.sort_unstable();
        assert_eq!(seen, vec![0, 4, 12, 16, 20, 24, 28]);
    }

    #[test]
    #[should_panic(expected = "double-inserted")]
    fn double_insert_panics() {
        let (mut l, mut t) = (FreeList::default(), table());
        l.insert(&mut t, Pfn::new(1), 0);
        l.insert(&mut t, Pfn::new(1), 0);
    }

    #[test]
    fn len_tracks_mutations() {
        let (mut l, mut t) = (FreeList::default(), table());
        assert!(l.is_empty());
        l.insert(&mut t, Pfn::new(3), 0);
        l.insert(&mut t, Pfn::new(9), 0);
        assert_eq!(l.iter().count(), 2);
        l.remove(&mut t, Pfn::new(3));
        assert_eq!(l.iter().count(), 1);
    }
}
