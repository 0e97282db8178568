//! Per-order free lists with O(1)/O(log n) arbitrary removal.
//!
//! Linux's buddy free lists are intrusive doubly-linked lists: blocks are
//! pushed and popped at the head (LIFO) and can be unlinked from the middle
//! when a targeted allocation splits them. CA paging additionally keeps the
//! MAX_ORDER list *sorted by physical address* (paper §III-C, "fragmentation
//! restraint") so that fallback 4 KiB allocations carve the lowest block
//! instead of splintering random large blocks.
//!
//! The LIFO list here is a stack whose blocks remember their own position in
//! the [`FrameTable`] entry of their head frame (the role `struct page.lru`
//! plays for the kernel), so a mid-list unlink is a `swap_remove` at a known
//! index. Which block pops next after an unlink is part of the model's
//! observable behaviour — snapshots store lists in iteration order — so the
//! stack-plus-`swap_remove` discipline is the contract, not an
//! implementation detail.

use std::collections::BTreeSet;

use contig_types::Pfn;

use crate::frame::FrameTable;

/// A free list for one buddy order.
///
/// Two disciplines are supported, mirroring the kernel default and the paper's
/// sorted-MAX_ORDER-list optimization. Every mutation also writes the block's
/// frame-table entries, so list membership and frame state cannot disagree.
#[derive(Clone, Debug)]
pub enum FreeList {
    /// LIFO discipline (kernel default): `pop` returns the most recently
    /// inserted block, which after a history of scattered frees yields
    /// scattered allocations — the behaviour that inhibits contiguity.
    Lifo(Vec<Pfn>),
    /// Address-sorted discipline: `pop` returns the lowest-addressed block.
    Sorted(BTreeSet<Pfn>),
}

impl FreeList {
    /// Creates an empty list with the requested discipline.
    pub fn new(sorted: bool) -> Self {
        if sorted {
            FreeList::Sorted(BTreeSet::new())
        } else {
            FreeList::Lifo(Vec::new())
        }
    }

    /// Number of blocks on the list.
    #[inline]
    pub(crate) fn len(&self) -> usize {
        match self {
            FreeList::Lifo(l) => l.len(),
            FreeList::Sorted(s) => s.len(),
        }
    }

    /// Whether the list holds no blocks.
    #[inline]
    pub(crate) fn is_empty(&self) -> bool {
        self.len() == 0
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
        let pos = match self {
            FreeList::Lifo(l) => {
                l.push(head);
                l.len() - 1
            }
            FreeList::Sorted(s) => {
                s.insert(head);
                0
            }
        };
        frames.mark_free_block(head, order, pos);
    }

    /// Removes and returns a block according to the list discipline. The
    /// block's frames still read free; the caller marks what it carves.
    #[inline]
    pub fn pop(&mut self) -> Option<Pfn> {
        match self {
            FreeList::Lifo(l) => l.pop(),
            FreeList::Sorted(s) => s.pop_first(),
        }
    }

    /// Removes a specific block, returning whether it was present. On a LIFO
    /// list the top block takes the vacated position.
    #[inline]
    pub fn remove(&mut self, frames: &mut FrameTable, head: Pfn) -> bool {
        match self {
            FreeList::Lifo(l) => {
                let Some(pos) = frames.position(head).filter(|&p| l.get(p) == Some(&head)) else {
                    return false;
                };
                l.swap_remove(pos);
                if let Some(&moved) = l.get(pos) {
                    frames.set_position(moved, pos);
                }
                true
            }
            FreeList::Sorted(s) => s.remove(&head),
        }
    }

    /// Whether the block is on the list.
    #[inline]
    pub fn contains(&self, frames: &FrameTable, head: Pfn) -> bool {
        match self {
            FreeList::Lifo(l) => frames.position(head).is_some_and(|p| l.get(p) == Some(&head)),
            FreeList::Sorted(s) => s.contains(&head),
        }
    }

    /// Iterates the blocks in stack (LIFO, oldest first) or ascending
    /// (sorted) order. One side of the chain is always empty.
    pub fn iter(&self) -> impl Iterator<Item = Pfn> + '_ {
        let (stack, sorted) = match self {
            FreeList::Lifo(l) => (Some(l), None),
            FreeList::Sorted(s) => (None, Some(s)),
        };
        stack.into_iter().flatten().chain(sorted.into_iter().flatten()).copied()
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
        let (mut l, mut t) = (FreeList::new(false), table());
        l.insert(&mut t, Pfn::new(10), 0);
        l.insert(&mut t, Pfn::new(20), 0);
        l.insert(&mut t, Pfn::new(5), 0);
        assert_eq!(l.pop(), Some(Pfn::new(5)));
        assert_eq!(l.pop(), Some(Pfn::new(20)));
        assert_eq!(l.pop(), Some(Pfn::new(10)));
        assert_eq!(l.pop(), None);
    }

    #[test]
    fn sorted_pops_lowest_address() {
        let (mut l, mut t) = (FreeList::new(true), table());
        l.insert(&mut t, Pfn::new(10), 0);
        l.insert(&mut t, Pfn::new(20), 0);
        l.insert(&mut t, Pfn::new(5), 0);
        assert_eq!(l.pop(), Some(Pfn::new(5)));
        assert_eq!(l.pop(), Some(Pfn::new(10)));
        assert_eq!(l.pop(), Some(Pfn::new(20)));
    }

    #[test]
    fn middle_removal_keeps_index_consistent() {
        let (mut l, mut t) = (FreeList::new(false), table());
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
        let (mut l, mut t) = (FreeList::new(false), table());
        l.insert(&mut t, Pfn::new(1), 0);
        l.insert(&mut t, Pfn::new(1), 0);
    }

    #[test]
    fn len_tracks_mutations() {
        let (mut l, mut t) = (FreeList::new(true), table());
        assert!(l.is_empty());
        l.insert(&mut t, Pfn::new(3), 0);
        l.insert(&mut t, Pfn::new(9), 0);
        assert_eq!(l.len(), 2);
        l.remove(&mut t, Pfn::new(3));
        assert_eq!(l.len(), 1);
    }
}
