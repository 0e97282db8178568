//! The contiguity map and the sorted top-order list in lock-step with their
//! transcribed ancestors.
//!
//! Until the map became a bit per top-order block with boundary-tagged runs,
//! it was a `BTreeMap` from cluster start to length, and a sorted top-order
//! list was a `BTreeSet` of block heads. Both are transcribed below as they
//! were, and every random sequence of block frees, block allocations (at a
//! chosen block and at the lowest one), next-fit placements, largest-cluster
//! queries and snapshot/restore round trips must get the same answer from
//! both: every returned block and cluster, the rover and the update count.

use std::collections::{BTreeMap, BTreeSet};

use proptest::prelude::*;

use contig_buddy::{ContiguityMap, Machine, MachineConfig, NodeId};
use contig_types::{PhysAddr, PhysRange, Pfn, BASE_PAGE_SIZE};

/// The map as a `BTreeMap<start, frames>`, transcribed.
#[derive(Clone, Debug)]
struct AncestorMap {
    clusters: BTreeMap<Pfn, u64>,
    block_frames: u64,
    rover: Option<Pfn>,
    updates: u64,
}

impl AncestorMap {
    fn new(top_order: u32) -> Self {
        Self { clusters: BTreeMap::new(), block_frames: 1 << top_order, rover: None, updates: 0 }
    }

    fn cluster_containing(&self, pfn: Pfn) -> Option<(Pfn, u64)> {
        let (&start, &frames) = self.clusters.range(..=pfn).next_back()?;
        (pfn.raw() < start.raw() + frames).then_some((start, frames))
    }

    fn largest(&self) -> Option<(Pfn, u64)> {
        self.clusters
            .iter()
            .max_by(|a, b| a.1.cmp(b.1).then(b.0.cmp(a.0)))
            .map(|(&start, &frames)| (start, frames))
    }

    fn on_block_freed(&mut self, block: Pfn) {
        self.updates += 1;
        let mut start = block;
        let mut frames = self.block_frames;
        if let Some((&pstart, &pframes)) = self.clusters.range(..block).next_back() {
            if pstart.raw() + pframes == block.raw() {
                self.clusters.remove(&pstart);
                start = pstart;
                frames += pframes;
            }
        }
        let end = Pfn::new(block.raw() + self.block_frames);
        if let Some(&sframes) = self.clusters.get(&end) {
            self.clusters.remove(&end);
            frames += sframes;
        }
        self.clusters.insert(start, frames);
    }

    fn on_block_allocated(&mut self, block: Pfn) {
        self.updates += 1;
        let (start, frames) = self.cluster_containing(block).expect("ancestor lost the block");
        self.clusters.remove(&start);
        let left = block.raw() - start.raw();
        if left > 0 {
            self.clusters.insert(start, left);
        }
        let right = start.raw() + frames - (block.raw() + self.block_frames);
        if right > 0 {
            self.clusters.insert(Pfn::new(block.raw() + self.block_frames), right);
        }
    }

    fn next_fit(&mut self, frames: u64) -> Option<(Pfn, u64)> {
        if self.clusters.is_empty() {
            return None;
        }
        let pick = match self.rover {
            None => self.clusters.iter().find(|(_, &len)| len >= frames),
            Some(rover) => self
                .clusters
                .range(Pfn::new(rover.raw().saturating_add(1))..)
                .chain(self.clusters.range(..=rover))
                .find(|(_, &len)| len >= frames),
        }
        .map(|(&start, &len)| (start, len))
        .or_else(|| self.largest());
        if let Some((start, len)) = pick {
            self.rover = Some(Pfn::new(start.raw() + len - 1));
        }
        pick
    }
}

const TOP: u32 = 2;
/// Zone 0 is 13 frames and held whole, so zone 1 starts at a frame that is
/// not a multiple of its block size, and every placement lands in zone 1.
const NODE0: u64 = 13;
/// Zone 1: 101 top-order blocks (two bitmap words) and a 3-frame tail.
const BLOCKS: u64 = 101;

#[derive(Clone, Debug)]
enum Op {
    Free(u64),
    Alloc(u64),
    AllocLowest,
    NextFit(u64),
    Largest,
    Restore,
}

fn op() -> impl Strategy<Value = Op> {
    prop_oneof![
        (0..BLOCKS).prop_map(Op::Free),
        (0..BLOCKS).prop_map(Op::Alloc),
        Just(Op::AllocLowest),
        // Up to 12 blocks, so one-block clusters are often the pick.
        (1..(12 * BASE_PAGE_SIZE) << TOP).prop_map(Op::NextFit),
        Just(Op::Largest),
        Just(Op::Restore),
    ]
}

fn head(slot: u64) -> Pfn {
    Pfn::new(NODE0 + (slot << TOP))
}

fn clusters(m: &Machine) -> Vec<(Pfn, u64)> {
    m.zone(NodeId(1)).contiguity_map().iter().map(|c| (c.start, c.frames)).collect()
}

fn as_range((start, frames): (Pfn, u64)) -> PhysRange {
    PhysRange::new(PhysAddr::from(start), frames * BASE_PAGE_SIZE)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    #[test]
    fn map_and_sorted_list_match_their_ancestors(ops in proptest::collection::vec(op(), 1..300)) {
        let mut m = Machine::new(MachineConfig {
            node_frames: vec![NODE0, (BLOCKS << TOP) + 3],
            top_order: TOP,
            sorted_top_list: true,
        });
        for pfn in 0..NODE0 {
            m.alloc_specific(Pfn::new(pfn), 0).unwrap();
        }
        let mut map = AncestorMap::new(TOP);
        let mut sorted = BTreeSet::new();
        for slot in 0..BLOCKS {
            map.on_block_freed(head(slot));
            sorted.insert(head(slot));
        }
        for op in ops {
            match op {
                Op::Free(slot) => {
                    if !sorted.contains(&head(slot)) {
                        m.free(head(slot), TOP);
                        map.on_block_freed(head(slot));
                        sorted.insert(head(slot));
                    }
                }
                Op::Alloc(slot) => {
                    let got = m.alloc_specific(head(slot), TOP);
                    prop_assert_eq!(got.is_ok(), sorted.remove(&head(slot)));
                    if got.is_ok() {
                        map.on_block_allocated(head(slot));
                    }
                }
                Op::AllocLowest => {
                    let got = m.alloc_on(NodeId(1), TOP).ok();
                    let want = sorted.pop_first();
                    prop_assert_eq!(got, want);
                    if let Some(block) = want {
                        map.on_block_allocated(block);
                    }
                }
                Op::NextFit(bytes) => {
                    let got = m.next_fit_cluster_on(NodeId(1), bytes);
                    let want = map.next_fit(bytes.div_ceil(BASE_PAGE_SIZE)).map(as_range);
                    prop_assert_eq!(got, want);
                }
                Op::Largest => {
                    let got = m.zone(NodeId(1)).contiguity_map().largest();
                    prop_assert_eq!(got.map(|c| (c.start, c.frames)), map.largest());
                }
                Op::Restore => m = Machine::from_snapshot(&m.snapshot()),
            }
            let snap = m.snapshot();
            let zone = &snap.zones[1];
            prop_assert_eq!(zone.contig_rover, map.rover.map(Pfn::raw));
            prop_assert_eq!(zone.contig_updates, map.updates);
            let listed: Vec<u64> = sorted.iter().map(|p| p.raw()).collect();
            prop_assert_eq!(&zone.free_lists[TOP as usize], &listed);
            let want: Vec<(Pfn, u64)> = map.clusters.iter().map(|(&s, &f)| (s, f)).collect();
            prop_assert_eq!(clusters(&m), want);
        }
        m.zone(NodeId(1)).verify_integrity();
    }

    /// The bare map, as the layer probes drive it: indexed from frame 0,
    /// growing to any block freed into it.
    #[test]
    fn bare_map_matches_its_ancestor(
        ops in proptest::collection::vec((any::<bool>(), 0u64..300), 1..400),
    ) {
        let (mut new, mut old) = (ContiguityMap::new(3), AncestorMap::new(3));
        let mut free = BTreeSet::new();
        for (alloc, slot) in ops {
            let block = Pfn::new(slot << 3);
            if alloc && free.remove(&block) {
                new.on_block_allocated(block);
                old.on_block_allocated(block);
            } else if !alloc && free.insert(block) {
                new.on_block_freed(block);
                old.on_block_freed(block);
            }
            let got: Vec<(Pfn, u64)> = new.iter().map(|c| (c.start, c.frames)).collect();
            let want: Vec<(Pfn, u64)> = old.clusters.iter().map(|(&s, &f)| (s, f)).collect();
            prop_assert_eq!(got, want);
            prop_assert_eq!(new.largest().map(|c| (c.start, c.frames)), old.largest());
        }
    }
}
