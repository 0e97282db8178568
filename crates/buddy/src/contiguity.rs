//! The `contiguity_map`: CA paging's index of unaligned free contiguity.
//!
//! Linux's buddy allocator only tracks *aligned* free blocks up to
//! `MAX_ORDER` (4 MiB), so the largest free region it can name is 4 MiB even
//! when gigabytes of physically consecutive blocks are free. The paper
//! (§III-B, Fig. 3) layers an indexing structure on top of the MAX_ORDER free
//! list whose entries are variable-length *clusters* of consecutive top-order
//! blocks, recording the start address and total size of each maximal run.
//!
//! Placement decisions query the map with a next-fit policy driven by a rover
//! pointer (§III-C): next-fit defers the racing of concurrent placement
//! requests because the block just chosen is the last one reconsidered.

use std::collections::BTreeMap;

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
/// The map is keyed and kept sorted by physical address, exactly like the
/// paper's linked-list implementation, but with `O(log n)` updates.
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
    /// start frame -> length in frames; invariant: clusters are disjoint,
    /// non-adjacent (adjacent runs are merged), and multiples of the block size.
    clusters: BTreeMap<Pfn, u64>,
    /// Frames per top-order block.
    block_frames: u64,
    /// Next-fit rover: placement resumes from the first cluster strictly
    /// after this address (`None` until the first placement).
    rover: Option<Pfn>,
    updates: u64,
}

impl ContiguityMap {
    /// An empty map over top-order blocks of `1 << top_order` frames.
    pub fn new(top_order: u32) -> Self {
        Self {
            clusters: BTreeMap::new(),
            block_frames: 1 << top_order,
            rover: None,
            updates: 0,
        }
    }

    /// Total number of map updates performed (for overhead accounting).
    pub(crate) fn update_count(&self) -> u64 {
        self.updates
    }

    /// Frames per top-order block.
    pub fn block_frames(&self) -> u64 {
        self.block_frames
    }

    /// The cluster containing `pfn`, if any.
    pub(crate) fn cluster_containing(&self, pfn: Pfn) -> Option<Cluster> {
        let (&start, &frames) = self.clusters.range(..=pfn).next_back()?;
        if pfn.raw() < start.raw() + frames {
            Some(Cluster { start, frames })
        } else {
            None
        }
    }

    /// The largest cluster, breaking ties toward the lowest address.
    pub fn largest(&self) -> Option<Cluster> {
        self.clusters
            .iter()
            .max_by(|a, b| a.1.cmp(b.1).then(b.0.cmp(a.0)))
            .map(|(&start, &frames)| Cluster { start, frames })
    }

    /// Iterates clusters in ascending address order.
    pub fn iter(&self) -> impl Iterator<Item = Cluster> + '_ {
        self.clusters.iter().map(|(&start, &frames)| Cluster { start, frames })
    }

    /// Called by the zone when a block enters the top-order free list.
    /// Merges with adjacent clusters.
    pub fn on_block_freed(&mut self, block: Pfn) {
        self.updates += 1;
        let mut start = block;
        let mut frames = self.block_frames;
        // Merge with a predecessor ending exactly at `block`.
        if let Some((&pstart, &pframes)) = self.clusters.range(..block).next_back() {
            debug_assert!(
                pstart.raw() + pframes <= block.raw(),
                "cluster {pstart}+{pframes} overlaps freed block {block}"
            );
            if pstart.raw() + pframes == block.raw() {
                self.clusters.remove(&pstart);
                start = pstart;
                frames += pframes;
            }
        }
        // Merge with a successor starting exactly at the end of the run.
        let end = Pfn::new(block.raw() + self.block_frames);
        if let Some(&sframes) = self.clusters.get(&end) {
            self.clusters.remove(&end);
            frames += sframes;
        }
        self.clusters.insert(start, frames);
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
        let cluster = self
            .cluster_containing(block)
            .unwrap_or_else(|| panic!("contiguity map lost track of block {block}"));
        self.clusters.remove(&cluster.start);
        let left = block.raw() - cluster.start.raw();
        if left > 0 {
            self.clusters.insert(cluster.start, left);
        }
        let right = cluster.start.raw() + cluster.frames - (block.raw() + self.block_frames);
        if right > 0 {
            self.clusters.insert(Pfn::new(block.raw() + self.block_frames), right);
        }
    }

    /// Next-fit placement (paper §III-C, Fig. 4): starting from the rover,
    /// returns the first cluster of at least `frames` frames; if none is large
    /// enough anywhere, returns the largest cluster found. Advances the rover
    /// past the chosen cluster so it is the last one reconsidered.
    pub(crate) fn next_fit(&mut self, frames: u64) -> Option<Cluster> {
        if self.clusters.is_empty() {
            return None;
        }
        let pick = match self.rover {
            None => self
                .clusters
                .iter()
                .find(|(_, &len)| len >= frames)
                .map(|(&start, &len)| Cluster { start, frames: len }),
            Some(rover) => self
                .clusters
                .range(Pfn::new(rover.raw().saturating_add(1))..)
                .chain(self.clusters.range(..=rover))
                .find(|(_, &len)| len >= frames)
                .map(|(&start, &len)| Cluster { start, frames: len }),
        }
        .or_else(|| self.largest());
        if let Some(c) = pick {
            // Advance past the *entire* selected cluster: it becomes the last
            // one reconsidered, deferring racing between placement requests.
            self.rover = Some(Pfn::new(c.start.raw() + c.frames - 1));
        }
        pick
    }

    /// Current rover position (for inspection and tests); `None` before the
    /// first placement.
    pub(crate) fn rover(&self) -> Option<Pfn> {
        self.rover
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
