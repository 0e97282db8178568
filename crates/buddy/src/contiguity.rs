//! The `contiguity_map`: CA paging's index of unaligned free contiguity.
//!
//! Linux's buddy allocator only tracks *aligned* free blocks up to
//! `MAX_ORDER` (4 MiB), so the largest free region it can name is 4 MiB even
//! when gigabytes of physically consecutive blocks are free. The paper
//! (§III-B, Fig. 3) layers an indexing structure on top of the MAX_ORDER free
//! list whose entries are variable-length *clusters* of consecutive top-order
//! blocks, recording the start address and total size of each maximal run.
//!
//! Here that structure is an array: one bit per top-order block, set while
//! the block is free, and each maximal run of set bits stores its length at
//! both ends (boundary tags), so a freed block merges in O(1) and every query
//! is a `trailing_zeros` walk that hops a whole run per tag.
//!
//! Placement decisions query the map with a next-fit policy driven by a rover
//! pointer (§III-C): next-fit defers the racing of concurrent placement
//! requests because the block just chosen is the last one reconsidered.

use contig_types::{PhysAddr, PhysRange, Pfn};

/// A maximal run of consecutive free top-order buddy blocks.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub struct Cluster {
    /// First frame of the run.
    pub start: Pfn,
    /// Length of the run in 4 KiB frames.
    pub frames: u64,
}

impl Cluster {
    /// The physical byte extent of the cluster.
    pub(crate) fn range(&self) -> PhysRange {
        PhysRange::new(PhysAddr::from(self.start), self.frames * contig_types::BASE_PAGE_SIZE)
    }

    /// Size of the cluster in bytes.
    pub const fn bytes(&self) -> u64 {
        self.frames * contig_types::BASE_PAGE_SIZE
    }
}

/// Index of maximal free clusters at top-order-block granularity, with a
/// next-fit rover for placement decisions.
///
/// Block `i` is `[base + i·2^top_order, base + (i+1)·2^top_order)`; the array
/// grows to cover the highest block ever freed into it.
///
/// # Examples
///
/// ```
/// use contig_buddy::ContiguityMap;
/// use contig_types::Pfn;
///
/// let mut map = ContiguityMap::new(10); // 1024-frame (4 MiB) top-order blocks
/// map.on_block_freed(Pfn::new(0));
/// map.on_block_freed(Pfn::new(1024)); // merges into one 8 MiB cluster
/// assert_eq!(map.largest().unwrap().frames, 2048);
/// ```
#[derive(Clone, Debug)]
pub struct ContiguityMap {
    /// Frame of block 0.
    base: Pfn,
    /// `log2` of the frames per top-order block.
    shift: u32,
    /// One bit per block, set while the block is free.
    free: Vec<u64>,
    /// Run length in blocks, valid at the first and the last block of every
    /// maximal run of set bits; every other entry is stale.
    tags: Vec<u32>,
    /// Next-fit rover: placement resumes from the first cluster starting
    /// strictly after this frame (`None` until the first placement).
    rover: Option<Pfn>,
    updates: u64,
}

impl ContiguityMap {
    /// An empty map over top-order blocks of `1 << top_order` frames,
    /// indexed from frame 0.
    pub fn new(top_order: u32) -> Self {
        Self::with_base(Pfn::new(0), top_order)
    }

    /// An empty map whose block 0 starts at the zone's `base`.
    pub(crate) fn with_base(base: Pfn, top_order: u32) -> Self {
        Self { base, shift: top_order, free: Vec::new(), tags: Vec::new(), rover: None, updates: 0 }
    }

    /// Frames per top-order block.
    pub fn block_frames(&self) -> u64 {
        1 << self.shift
    }

    fn index(&self, pfn: Pfn) -> usize {
        ((pfn.raw() - self.base.raw()) >> self.shift) as usize
    }

    fn is_set(&self, i: usize) -> bool {
        self.free.get(i / 64).is_some_and(|w| w >> (i % 64) & 1 == 1)
    }

    /// The cluster whose run starts at block `first`.
    fn cluster(&self, first: usize) -> Cluster {
        let frames = u64::from(self.tags[first]) << self.shift;
        Cluster { start: self.base.add((first as u64) << self.shift), frames }
    }

    /// Records the run `[first, last]` in its two boundary tags.
    fn tag(&mut self, first: usize, last: usize) {
        let len = (last - first + 1) as u32;
        self.tags[first] = len;
        self.tags[last] = len;
    }

    /// The first block of the run holding the set bit `i`: one past the
    /// highest clear bit below it.
    fn run_start(&self, i: usize) -> usize {
        let mut w = i / 64;
        let mut clear = !self.free[w] & (u64::MAX >> (63 - i % 64));
        while clear == 0 {
            if w == 0 {
                return 0;
            }
            w -= 1;
            clear = !self.free[w];
        }
        w * 64 + 64 - clear.leading_zeros() as usize
    }

    /// The lowest set bit at or above `from`.
    fn next_set(&self, from: usize) -> Option<usize> {
        let mut w = from / 64;
        let mut word = self.free.get(w)? & (u64::MAX << (from % 64));
        while word == 0 {
            w += 1;
            word = *self.free.get(w)?;
        }
        Some(w * 64 + word.trailing_zeros() as usize)
    }

    /// The cluster containing `pfn`, if any.
    pub(crate) fn cluster_containing(&self, pfn: Pfn) -> Option<Cluster> {
        let i = self.index(pfn);
        self.is_set(i).then(|| self.cluster(self.run_start(i)))
    }

    /// Clusters whose first block is at or above block `from`, ascending.
    fn clusters_from(&self, from: usize) -> impl Iterator<Item = Cluster> + '_ {
        // A run that began below `from` is not one of them: hop past it.
        let mut at = from;
        if from > 0 && self.is_set(from - 1) {
            let first = self.run_start(from - 1);
            at = first + self.tags[first] as usize;
        }
        std::iter::from_fn(move || {
            let first = self.next_set(at)?;
            at = first + self.tags[first] as usize;
            Some(self.cluster(first))
        })
    }

    /// The largest cluster, breaking ties toward the lowest address.
    pub fn largest(&self) -> Option<Cluster> {
        self.iter().reduce(|best, c| if c.frames > best.frames { c } else { best })
    }

    /// Iterates clusters in ascending address order.
    pub fn iter(&self) -> impl Iterator<Item = Cluster> + '_ {
        self.clusters_from(0)
    }

    /// The free top-order blocks, ascending: the address-sorted top-order
    /// free list of paper §III-C.
    pub(crate) fn blocks(&self) -> impl Iterator<Item = Pfn> + '_ {
        let step = self.block_frames() as usize;
        self.iter()
            .flat_map(move |c| (c.start.raw()..c.start.raw() + c.frames).step_by(step))
            .map(Pfn::new)
    }

    /// Called by the zone when a block enters the top-order free list.
    /// Merges with adjacent clusters.
    pub fn on_block_freed(&mut self, block: Pfn) {
        self.updates += 1;
        let i = self.index(block);
        if i / 64 >= self.free.len() {
            self.free.resize(i / 64 + 1, 0);
            self.tags.resize(self.free.len() * 64, 0);
        }
        debug_assert!(!self.is_set(i), "block {block} freed twice into the contiguity map");
        self.free[i / 64] |= 1 << (i % 64);
        let first = if i > 0 && self.is_set(i - 1) { i - self.tags[i - 1] as usize } else { i };
        let last = if self.is_set(i + 1) { i + self.tags[i + 1] as usize } else { i };
        self.tag(first, last);
    }

    /// Called by the zone when a block leaves the top-order free list.
    /// Splits the containing cluster.
    ///
    /// # Panics
    ///
    /// Panics if no cluster covers the block — the map would be out of sync
    /// with the free list.
    pub fn on_block_allocated(&mut self, block: Pfn) {
        self.updates += 1;
        let run = self
            .cluster_containing(block)
            .unwrap_or_else(|| panic!("contiguity map lost track of block {block}"));
        let (i, first) = (self.index(block), self.index(run.start));
        let last = first + (run.frames >> self.shift) as usize - 1;
        self.free[i / 64] &= !(1 << (i % 64));
        if i > first {
            self.tag(first, i - 1);
        }
        if i < last {
            self.tag(i + 1, last);
        }
    }

    /// Next-fit placement (paper §III-C, Fig. 4): starting from the rover,
    /// returns the first cluster of at least `frames` frames; if none is large
    /// enough anywhere, returns the largest cluster found. Advances the rover
    /// past the chosen cluster so it is the last one reconsidered.
    pub(crate) fn next_fit(&mut self, frames: u64) -> Option<Cluster> {
        // The first block starting strictly after the rover.
        let from = match self.rover {
            Some(r) if r >= self.base => self.index(r) + 1,
            _ => 0,
        };
        let fits = |c: &Cluster| c.frames >= frames;
        let pick = self
            .clusters_from(from)
            .find(fits)
            .or_else(|| self.iter().take_while(|c| self.index(c.start) < from).find(fits))
            .or_else(|| self.largest())?;
        // Advance past the *entire* selected cluster: it becomes the last
        // one reconsidered, deferring racing between placement requests.
        self.rover = Some(Pfn::new(pick.start.raw() + pick.frames - 1));
        Some(pick)
    }

    /// The next-fit rover (`None` before the first placement) and the
    /// number of map updates performed (for overhead accounting).
    pub(crate) fn cursor(&self) -> (Option<Pfn>, u64) {
        (self.rover, self.updates)
    }

    /// Restores the next-fit rover and the update counter from a snapshot.
    ///
    /// The rover is functional state — placement after a restore must resume
    /// from the same position the live run would have — while the update
    /// counter only feeds overhead accounting, but both must round-trip for
    /// the state digest to be stable across `restore(snapshot(s))`.
    pub(crate) fn restore_cursor(&mut self, rover: Option<Pfn>, updates: u64) {
        self.rover = rover;
        self.updates = updates;
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn map_with_blocks(top_order: u32, blocks: &[u64]) -> ContiguityMap {
        let mut m = ContiguityMap::new(top_order);
        for &b in blocks {
            m.on_block_freed(Pfn::new(b));
        }
        m
    }

    #[test]
    fn adjacent_blocks_merge_into_one_cluster() {
        let m = map_with_blocks(2, &[0, 4, 8, 16]);
        let clusters: Vec<_> = m.iter().collect();
        assert_eq!(
            clusters,
            vec![
                Cluster { start: Pfn::new(0), frames: 12 },
                Cluster { start: Pfn::new(16), frames: 4 },
            ]
        );
    }

    #[test]
    fn merge_bridges_predecessor_and_successor() {
        let mut m = map_with_blocks(2, &[0, 8]);
        assert_eq!(m.iter().count(), 2);
        m.on_block_freed(Pfn::new(4));
        assert_eq!(m.iter().count(), 1);
        assert_eq!(m.largest().unwrap(), Cluster { start: Pfn::new(0), frames: 12 });
    }

    #[test]
    fn allocation_splits_cluster() {
        let mut m = map_with_blocks(2, &[0, 4, 8]);
        m.on_block_allocated(Pfn::new(4));
        let clusters: Vec<_> = m.iter().collect();
        assert_eq!(
            clusters,
            vec![
                Cluster { start: Pfn::new(0), frames: 4 },
                Cluster { start: Pfn::new(8), frames: 4 },
            ]
        );
    }

    #[test]
    fn allocation_at_cluster_edges_trims() {
        let mut m = map_with_blocks(2, &[0, 4, 8]);
        m.on_block_allocated(Pfn::new(0));
        m.on_block_allocated(Pfn::new(8));
        assert_eq!(m.iter().collect::<Vec<_>>(), vec![Cluster { start: Pfn::new(4), frames: 4 }]);
    }

    #[test]
    #[should_panic(expected = "lost track")]
    fn allocating_untracked_block_panics() {
        let mut m = ContiguityMap::new(2);
        m.on_block_allocated(Pfn::new(0));
    }

    #[test]
    fn next_fit_advances_rover() {
        let mut m = map_with_blocks(2, &[0, 8, 16]);
        // Three 4-frame clusters at 0, 8, 16.
        let a = m.next_fit(4).unwrap();
        assert_eq!(a.start, Pfn::new(0));
        let b = m.next_fit(4).unwrap();
        assert_eq!(b.start, Pfn::new(8), "rover must move past the previous pick");
        let c = m.next_fit(4).unwrap();
        assert_eq!(c.start, Pfn::new(16));
        let d = m.next_fit(4).unwrap();
        assert_eq!(d.start, Pfn::new(0), "rover wraps around");
    }

    #[test]
    fn next_fit_falls_back_to_largest() {
        let mut m = map_with_blocks(2, &[0, 8, 12]);
        // Clusters: 4 frames at 0, 8 frames at 8.
        let pick = m.next_fit(100).unwrap();
        assert_eq!(pick, Cluster { start: Pfn::new(8), frames: 8 });
    }

    #[test]
    fn cluster_containing_boundaries() {
        let m = map_with_blocks(2, &[4]);
        assert_eq!(m.cluster_containing(Pfn::new(3)), None);
        assert!(m.cluster_containing(Pfn::new(4)).is_some());
        assert!(m.cluster_containing(Pfn::new(7)).is_some());
        assert_eq!(m.cluster_containing(Pfn::new(8)), None);
    }
}
