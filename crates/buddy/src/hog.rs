//! The "hog" fragmentation micro-benchmark (paper §VI-A, after Ingens/CoLT).
//!
//! The hog occupies a target fraction of physical memory with long-lived
//! allocations at coarse (>2 MiB) granularity, scattered across the address
//! space. The result is plenty of free 2 MiB pages — so THP is unaffected —
//! but few *vast* free regions, stressing contiguity-seeking allocators.

use rand::rngs::StdRng;
use rand::seq::SliceRandom;
use rand::SeedableRng;

use contig_types::Pfn;

use crate::machine::Machine;

/// A set of long-lived scattered allocations pinning physical memory.
///
/// # Examples
///
/// ```
/// use contig_buddy::{Hog, Machine, MachineConfig};
///
/// let mut m = Machine::new(MachineConfig::single_node_mib(64));
/// let hog = Hog::occupy(&mut m, 0.25, 7);
/// assert!(m.free_frames() <= m.total_frames() * 3 / 4);
/// hog.release(&mut m);
/// assert_eq!(m.free_frames(), m.total_frames());
/// ```
#[derive(Debug)]
pub struct Hog {
    blocks: Vec<(Pfn, u32)>,
}

impl Hog {
    /// Order of each hogged block: 4 MiB, comfortably above the 2 MiB huge
    /// page so THP-sized holes remain abundant.
    pub(crate) const BLOCK_ORDER: u32 = 10;

    /// Pins approximately `fraction` of the machine's memory (0.0–1.0) in
    /// scattered `Hog::BLOCK_ORDER` blocks chosen pseudo-randomly with the
    /// given seed.
    ///
    /// # Panics
    ///
    /// Panics if `fraction` is outside `[0, 1)`.
    pub fn occupy(machine: &mut Machine, fraction: f64, seed: u64) -> Self {
        assert!((0.0..1.0).contains(&fraction), "hog fraction {fraction} out of range");
        let mut rng = StdRng::seed_from_u64(seed);
        let block_frames = 1u64 << Self::BLOCK_ORDER;
        let want_frames = (machine.total_frames() as f64 * fraction) as u64;
        let want_blocks = want_frames / block_frames;
        // Enumerate every block-aligned candidate across all zones, shuffle,
        // and claim the first `want_blocks` that are still free.
        let mut candidates: Vec<Pfn> = Vec::new();
        for zone in machine.iter_zones() {
            let base = zone.base().raw();
            let mut rel = 0;
            while rel + block_frames <= zone.total_frames() {
                candidates.push(Pfn::new(base + rel));
                rel += block_frames;
            }
        }
        candidates.shuffle(&mut rng);
        let mut blocks = Vec::new();
        for target in candidates {
            if blocks.len() as u64 >= want_blocks {
                break;
            }
            if machine.alloc_specific(target, Self::BLOCK_ORDER).is_ok() {
                blocks.push((target, Self::BLOCK_ORDER));
            }
        }
        Hog { blocks }
    }

    /// Frames pinned by the hog.
    pub fn pinned_frames(&self) -> u64 {
        self.blocks.iter().map(|(_, order)| 1u64 << order).sum()
    }

    /// Releases every pinned block back to the machine.
    pub fn release(self, machine: &mut Machine) {
        for (head, order) in self.blocks {
            machine.free(head, order);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::machine::MachineConfig;
    use crate::stats::SizeClass;

    #[test]
    fn hog_pins_requested_fraction() {
        let mut m = Machine::new(MachineConfig::single_node_mib(128));
        let hog = Hog::occupy(&mut m, 0.5, 42);
        let pinned = hog.pinned_frames();
        let total = m.total_frames();
        assert!(pinned >= total * 45 / 100, "pinned {pinned} of {total}");
        assert!(pinned <= total / 2);
        m.verify_integrity();
        hog.release(&mut m);
        assert_eq!(m.free_frames(), m.total_frames());
        m.verify_integrity();
    }

    #[test]
    fn hog_leaves_huge_pages_but_breaks_vast_contiguity() {
        let mut m = Machine::new(MachineConfig::single_node_mib(256));
        let before = m.zone(crate::machine::NodeId(0)).contiguity_map().largest().unwrap().frames;
        let _hog = Hog::occupy(&mut m, 0.5, 1);
        let after = m
            .zone(crate::machine::NodeId(0))
            .contiguity_map()
            .largest()
            .map(|c| c.frames)
            .unwrap_or(0);
        assert!(after < before / 4, "hog should shatter vast clusters: {after} vs {before}");
        // Free 2 MiB blocks must remain plentiful: at least half of the free
        // memory is still in >=2 MiB runs because the hog allocates aligned
        // 4 MiB chunks.
        let hist = m.free_block_histogram();
        assert!(hist.fraction(SizeClass::Under2M) < 0.5);
    }

    #[test]
    fn zero_fraction_is_a_noop() {
        let mut m = Machine::new(MachineConfig::single_node_mib(16));
        let hog = Hog::occupy(&mut m, 0.0, 3);
        assert_eq!(hog.pinned_frames(), 0);
        assert_eq!(m.free_frames(), m.total_frames());
    }

    #[test]
    fn deterministic_for_fixed_seed() {
        let mut a = Machine::new(MachineConfig::single_node_mib(64));
        let mut b = Machine::new(MachineConfig::single_node_mib(64));
        let ha = Hog::occupy(&mut a, 0.3, 9);
        let hb = Hog::occupy(&mut b, 0.3, 9);
        assert_eq!(ha.blocks.len(), hb.blocks.len());
        assert_eq!(ha.blocks, hb.blocks);
    }
}
