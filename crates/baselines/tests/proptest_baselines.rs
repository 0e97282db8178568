//! Property-based tests of the comparator systems.

use proptest::prelude::*;

use contig_baselines::{anchor_distance_pages, anchor_entries, RangerDaemon, VrmmRangeTlb};
use contig_buddy::MachineConfig;
use contig_mm::{DefaultThpPolicy, System, SystemConfig, VmaKind};
use contig_tlb::{Access, MissHandler, MissHandling, WalkResult};
use contig_types::{ContigMapping, PageSize, PhysAddr, VirtAddr, VirtRange};

fn arb_mappings() -> impl Strategy<Value = Vec<ContigMapping>> {
    proptest::collection::vec((0u64..1 << 20, 1u64..1 << 14), 1..40).prop_map(|specs| {
        let mut mappings = Vec::new();
        let mut va = 0x1_0000_0000u64;
        for (gap_pages, len_pages) in specs {
            va += gap_pages * 4096;
            mappings.push(ContigMapping::new(
                VirtAddr::new(va),
                PhysAddr::new(va / 2),
                len_pages * 4096,
            ));
            va += len_pages * 4096;
        }
        mappings
    })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// vHC's entries partition the footprint, so counting the largest of
    /// them against a coverage goal measures the same bytes as counting
    /// ranges (Table I's two columns; the count itself is
    /// `contig_metrics::CoverageStats::mappings_for_coverage`, and
    /// `contig-sim`'s `proptest_table_one` holds the comparison).
    #[test]
    fn anchor_entries_partition_the_footprint(mappings in arb_mappings()) {
        let d = anchor_distance_pages(&mappings);
        let entries = anchor_entries(&mappings, d);
        prop_assert_eq!(entries.iter().sum::<u64>(), mappings.iter().map(|m| m.len()).sum::<u64>());
        prop_assert!(entries.iter().all(|&e| e > 0 && e <= (d << 12).max(2 << 20)));
    }

    /// The range TLB is sound: a hit is only reported when a table range
    /// contains the address, and every outcome is Hidden or Exposed.
    #[test]
    fn range_tlb_soundness(
        mappings in arb_mappings(),
        probes in proptest::collection::vec(0u64..1 << 34, 1..200),
        capacity in 1usize..8,
    ) {
        let mut rmm = VrmmRangeTlb::new(capacity, mappings.clone());
        let walk = WalkResult {
            pa: PhysAddr::new(0),
            size: PageSize::Base4K,
            refs: 24,
            contig: true,
            write: false,
        };
        for p in probes {
            let va = VirtAddr::new(0x1_0000_0000 + p);
            let covered = mappings.iter().any(|m| m.virt.contains(va));
            match rmm.on_miss(Access::read(1, va), &walk) {
                MissHandling::Hidden => prop_assert!(covered, "hit outside every range at {va}"),
                MissHandling::Exposed => {}
                other => prop_assert!(false, "range TLB returned {other:?}"),
            }
        }
        let s = rmm.stats();
        prop_assert_eq!(s.range_hits + s.range_fills + s.uncovered, 200u64.min(s.range_hits + s.range_fills + s.uncovered));
    }

    /// Ranger convergence is safe for arbitrary scatter patterns: frames are
    /// conserved, the machine stays coherent, and coverage never decreases.
    #[test]
    fn ranger_converges_safely(
        touch_order in proptest::collection::vec(0u64..16, 4..16),
        budget_pow in 9u32..13,
    ) {
        let mut sys = System::new(SystemConfig::new(MachineConfig::single_node_mib(128)));
        let pid = sys.spawn();
        sys.aspace_mut(pid)
            .map_vma(VirtRange::new(VirtAddr::new(0x40_0000), 32 << 20), VmaKind::Anon);
        let mut thp = DefaultThpPolicy;
        let mut noise = Vec::new();
        for &slot in &touch_order {
            let va = VirtAddr::new(0x40_0000 + (slot % 16) * (2 << 20));
            sys.touch(&mut thp, pid, va).unwrap();
            if let Ok(n) = sys.machine_mut().alloc(9) {
                noise.push(n);
            }
        }
        for n in noise {
            sys.machine_mut().free(n, 9);
        }
        let used = sys.machine().total_frames() - sys.machine().free_frames();
        let before = contig_mm::contiguous_mappings(sys.aspace(pid).page_table()).len();
        let mut ranger = RangerDaemon::new(1 << budget_pow);
        for _ in 0..64 {
            let migrated = ranger.stats().pages_migrated;
            ranger.epoch(&mut sys, &[pid]);
            if ranger.stats().pages_migrated == migrated {
                break;
            }
        }
        let after = contig_mm::contiguous_mappings(sys.aspace(pid).page_table()).len();
        prop_assert!(after <= before, "migration made fragmentation worse: {after} > {before}");
        prop_assert_eq!(sys.machine().total_frames() - sys.machine().free_frames(), used);
        sys.machine().verify_integrity();
    }
}
