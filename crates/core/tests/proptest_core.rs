//! Property-based tests of CA paging and SpOT under arbitrary inputs.

use proptest::prelude::*;

use contig_buddy::MachineConfig;
use contig_core::{mark_contiguity, CaPaging, SpotConfig, SpotPredictor};
use contig_mm::{contiguous_mappings, PageTable, Pte, PteFlags, System, SystemConfig, VmaKind};
use contig_tlb::{Access, MissHandler, MissHandling, WalkResult};
use contig_types::{splitmix64, MapOffset, PageSize, Pfn, PhysAddr, VirtAddr, VirtRange};

/// `mark_contiguity` as it stood before it read adjacent page-table entries:
/// one `translate` per neighbour and per page scanned, one `translate` and one
/// `update_flags` per page marked. Kept verbatim as the reference the marker
/// runs against in lock-step below.
fn reference_mark_contiguity(pt: &mut PageTable, va: VirtAddr, threshold_pages: u64) -> u64 {
    const SCAN_CAP_PAGES: u64 = 4096;
    let Ok(here) = pt.translate(va) else {
        return 0;
    };
    let my_size = here.size;
    let my_start = va.align_down(my_size);
    let my_offset = MapOffset::between(my_start, PhysAddr::from(here.pfn));

    // Fast path: a physically-adjacent neighbour already marked means the run
    // was measured before; inherit.
    for neighbour in [my_start.raw().checked_sub(1), Some(my_start.raw() + my_size.bytes())] {
        let Some(addr) = neighbour else { continue };
        let nva = VirtAddr::new(addr);
        if let Ok(t) = pt.translate(nva) {
            let n_start = nva.align_down(t.size);
            let n_offset = MapOffset::between(n_start, PhysAddr::from(t.pfn));
            if n_offset == my_offset && t.flags.contains(PteFlags::CONTIG) {
                pt.update_flags(my_start, |f| f | PteFlags::CONTIG);
                return my_size.base_pages();
            }
        }
    }

    // Measure the run around the new page, bounded by the scan cap.
    let mut run_start = my_start;
    let mut scanned = my_size.base_pages();
    while scanned < SCAN_CAP_PAGES {
        let Some(prev_last) = run_start.raw().checked_sub(1) else { break };
        let pva = VirtAddr::new(prev_last);
        let Ok(t) = pt.translate(pva) else { break };
        let p_start = pva.align_down(t.size);
        if MapOffset::between(p_start, PhysAddr::from(t.pfn)) != my_offset {
            break;
        }
        run_start = p_start;
        scanned += t.size.base_pages();
    }
    let mut run_end = my_start + my_size.bytes();
    while scanned < SCAN_CAP_PAGES {
        let Ok(t) = pt.translate(run_end) else { break };
        if run_end.page_offset(t.size) != 0 {
            break; // entered the middle of a huge leaf: offset cannot match
        }
        if MapOffset::between(run_end, PhysAddr::from(t.pfn)) != my_offset {
            break;
        }
        run_end += t.size.bytes();
        scanned += t.size.base_pages();
    }

    let run_pages = (run_end - run_start) >> contig_types::BASE_PAGE_SHIFT;
    if run_pages >= threshold_pages {
        let mut cursor = run_start;
        while cursor < run_end {
            let size = pt
                .translate(cursor)
                .map(|t| t.size)
                .expect("run interior verified mapped");
            pt.update_flags(cursor, |f| f | PteFlags::CONTIG);
            cursor += size.bytes();
        }
    }
    run_pages
}

/// Pages of the two windows the marker test maps into: 24 MiB from address 0
/// (twelve PT tables, room for a run past the 4 096-page cap) and 8 MiB
/// centred on the 1 GiB line, where the PMD table changes too.
const WINDOWS: [(u64, u64); 2] = [(0, 6144), ((1 << 18) - 1024, 2048)];

/// A page of one of the `WINDOWS`: anywhere, or within four pages of a 2 MiB
/// boundary of it.
#[derive(Clone, Copy, Debug)]
struct Spot {
    window: usize,
    page: u64,
}

impl Spot {
    fn vpn(self) -> u64 {
        let (base, pages) = WINDOWS[self.window];
        base + self.page % pages
    }
}

fn spot() -> impl Strategy<Value = Spot> {
    prop_oneof![
        (0usize..2, 0u64..6144).prop_map(|(window, page)| Spot { window, page }),
        (0usize..2, 0u64..12, 0u64..8)
            .prop_map(|(window, edge, near)| Spot { window, page: (edge * 512 + near).saturating_sub(4) }),
    ]
}

/// An op of the marker test. Frames follow pages at one of a few fixed
/// distances, so neighbouring maps often continue one another's run.
#[derive(Clone, Debug)]
enum MarkerOp {
    /// `pages` 4 KiB maps from `at`, every `stride`-th page, in address order
    /// or shuffled, each followed by a mark (as a fault does) or not.
    MapRun { at: Spot, pages: u64, stride: u64, shuffle: Option<u64>, distance: usize, mark: Option<u64> },
    /// `count` 2 MiB maps from the region of `at`.
    MapHuge { at: Spot, count: u64, distance: usize, mark: Option<u64> },
    Unmap(Spot),
    Mark { at: Spot, threshold: u64 },
}

fn marker_op() -> impl Strategy<Value = MarkerOp> {
    let mark = || prop_oneof![Just(None), Just(None), (2u64..=64).prop_map(Some)];
    let pages = prop_oneof![1u64..48, 400u64..700, 4000u64..5200];
    let shuffle = prop_oneof![Just(None), Just(None), any::<u64>().prop_map(Some)];
    prop_oneof![
        (spot(), pages, 1u64..4, shuffle, 0usize..3, mark()).prop_map(
            |(at, pages, stride, shuffle, distance, mark)| {
                // Strides above one in one op of four: holes end runs.
                let stride = if stride == 3 { 2 } else { 1 };
                MarkerOp::MapRun { at, pages, stride, shuffle, distance, mark }
            }
        ),
        (spot(), 1u64..=12, 0usize..3, mark())
            .prop_map(|(at, count, distance, mark)| MarkerOp::MapHuge { at, count, distance, mark }),
        spot().prop_map(MarkerOp::Unmap),
        (spot(), 2u64..=64).prop_map(|(at, threshold)| MarkerOp::Mark { at, threshold }),
        (spot(), 2u64..=64).prop_map(|(at, threshold)| MarkerOp::Mark { at, threshold }),
    ]
}

/// Marks `va` in both tables and requires one answer.
fn mark_both(old: &mut PageTable, new: &mut PageTable, va: VirtAddr, threshold: u64) {
    let want = reference_mark_contiguity(old, va, threshold);
    prop_assert_eq!(mark_contiguity(new, va, threshold), want, "run at {} (threshold {})", va, threshold);
}

/// Maps `vpn` in both tables, `distance` pages from its frame, where that is
/// legal, then marks it if the op says so.
fn map_both(old: &mut PageTable, new: &mut PageTable, vpn: u64, size: PageSize, distance: usize, mark: Option<u64>) {
    const DISTANCES: [i64; 3] = [4096, 1 << 22, -512];
    let va = VirtAddr::new(vpn << 12);
    let free = match size {
        PageSize::Base4K => old.translate(va).is_err(),
        PageSize::Huge2M => !old.huge_region_populated(va),
    };
    let Some(pfn) = vpn.checked_add_signed(DISTANCES[distance]) else { return };
    if free {
        let pte = Pte::new(Pfn::new(pfn), PteFlags::WRITE);
        old.map(va, pte, size);
        new.map(va, pte, size);
        if let Some(threshold) = mark {
            mark_both(old, new, va, threshold);
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(32))]

    /// CA paging fully maps any set of disjoint VMAs touched in any order,
    /// conserving frames exactly; on a fresh machine the number of
    /// contiguous runs never exceeds the number of placement decisions.
    #[test]
    fn ca_paging_maps_everything_in_any_touch_order(
        vma_count in 1usize..5,
        sizes_mb in proptest::collection::vec(1u64..8, 4).prop_map(|v| v.into_iter().map(|x| x * 2).collect::<Vec<_>>()),
        seed in any::<u64>(),
    ) {
        let mut sys = System::new(SystemConfig::new(MachineConfig::single_node_mib(256)));
        let pid = sys.spawn();
        let mut ranges = Vec::new();
        let mut base = 0x1_0000_0000u64;
        for i in 0..vma_count {
            let len = sizes_mb[i % sizes_mb.len()] << 20;
            let range = VirtRange::new(VirtAddr::new(base), len);
            sys.aspace_mut(pid).map_vma(range, VmaKind::Anon);
            ranges.push(range);
            base += len + (64 << 20);
        }
        // Touch every huge region across all VMAs in a seed-scrambled order.
        let mut touches: Vec<VirtAddr> = ranges
            .iter()
            .flat_map(|r| r.iter_pages().step_by(512).map(VirtAddr::from))
            .collect();
        let n = touches.len();
        for i in 0..n {
            let j = ((seed.rotate_left(i as u32) as usize) ^ i) % n;
            touches.swap(i, j);
        }
        let mut ca = CaPaging::new();
        for va in touches {
            sys.touch(&mut ca, pid, va).unwrap();
        }
        let total: u64 = ranges.iter().map(|r| r.len()).sum();
        prop_assert_eq!(sys.aspace(pid).mapped_bytes(), total);
        // Every run boundary is caused by a VMA boundary, a placement
        // decision, or a fallback after a busy target (each busy target can
        // strand at most two discontinuities: the fallback page itself plus
        // the resumption point).
        let runs = contiguous_mappings(sys.aspace(pid).page_table()).len();
        let stats = ca.stats();
        let bound = vma_count + stats.placements as usize + 2 * stats.target_busy as usize;
        prop_assert!(runs <= bound,
            "{} runs exceed bound {} ({} placements, {} busy)",
            runs, bound, stats.placements, stats.target_busy);
        sys.exit(pid);
        prop_assert_eq!(sys.machine().free_frames(), sys.machine().total_frames());
        sys.machine().verify_integrity();
    }

    /// SpOT never panics, its counters always sum to the misses observed,
    /// and it never predicts before two confirming walks for a PC.
    #[test]
    fn spot_counters_are_consistent(
        misses in proptest::collection::vec((0u64..8, 0u64..1 << 24, any::<bool>()), 1..400),
        sets_pow in 0u32..4,
    ) {
        let mut spot = SpotPredictor::new(SpotConfig {
            entries: 4 << sets_pow,
            require_contig_bit: false,
        });
        let mut first_outcomes: std::collections::HashMap<u64, u64> = Default::default();
        for (seen, (pc, page, write)) in misses.into_iter().enumerate() {
            let va = VirtAddr::new(page << 12);
            // Derive a pa that is offset-consistent per pc so confidence can
            // build: pa = va - pc * 2^20.
            let pa = PhysAddr::new(va.raw().wrapping_sub(pc << 20));
            let walk = WalkResult { pa, size: PageSize::Base4K, refs: 24, contig: true, write };
            let outcome = spot.on_miss(Access { pc, va, write }, &walk);
            let count = first_outcomes.entry(pc).or_insert(0);
            *count += 1;
            if *count <= 2 {
                prop_assert_eq!(
                    outcome,
                    MissHandling::Exposed,
                    "prediction before confidence was built (pc {}, miss {})",
                    pc,
                    count
                );
            }
            let s = spot.stats();
            prop_assert_eq!(s.total(), seen as u64 + 1);
        }
    }

    /// With a constant per-PC offset, accuracy converges to 100 % minus the
    /// two training misses.
    #[test]
    fn spot_converges_on_stable_offsets(pcs in 1u64..6, misses_per_pc in 3u64..50) {
        let mut spot = SpotPredictor::new(SpotConfig::default());
        for round in 0..misses_per_pc {
            for pc in 0..pcs {
                let va = VirtAddr::new((1 << 45) + (round << 16) + (pc << 40));
                let pa = PhysAddr::new(va.raw() - (pc << 30) - (1 << 29));
                let walk = WalkResult { pa, size: PageSize::Base4K, refs: 24, contig: true, write: false };
                spot.on_miss(Access::read(pc, va), &walk);
            }
        }
        let s = spot.stats();
        prop_assert_eq!(s.mispredicted, 0);
        prop_assert_eq!(s.correct, (misses_per_pc - 2) * pcs);
        prop_assert_eq!(s.no_prediction, 2 * pcs);
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    /// The marker against the per-page walk it replaced, on two copies of one
    /// table: the same return value from every call and the same leaves,
    /// flags included, after every op — over runs that cross PT tables and
    /// the 1 GiB line, runs past the scan cap, 2 MiB leaves entered anywhere,
    /// holes, shuffled arrival and address 0.
    #[test]
    fn marker_matches_the_per_page_walk_it_replaced(
        ops in proptest::collection::vec(marker_op(), 1..24),
    ) {
        let mut old = PageTable::new();
        let mut new = old.clone();
        for op in ops {
            match op {
                MarkerOp::MapRun { at, pages, stride, shuffle, distance, mark } => {
                    let (base, window) = WINDOWS[at.window];
                    let last = (at.vpn() + pages).min(base + window);
                    let mut vpns: Vec<u64> = (at.vpn()..last).step_by(stride as usize).collect();
                    if let Some(mut seed) = shuffle {
                        for i in (1..vpns.len()).rev() {
                            vpns.swap(i, (splitmix64(&mut seed) % (i as u64 + 1)) as usize);
                        }
                    }
                    for vpn in vpns {
                        map_both(&mut old, &mut new, vpn, PageSize::Base4K, distance, mark);
                    }
                }
                MarkerOp::MapHuge { at, count, distance, mark } => {
                    let (base, window) = WINDOWS[at.window];
                    let first = at.vpn() & !511;
                    for vpn in (first..(first + count * 512).min(base + window)).step_by(512) {
                        map_both(&mut old, &mut new, vpn, PageSize::Huge2M, distance, mark);
                    }
                }
                MarkerOp::Unmap(at) => {
                    let va = VirtAddr::new(at.vpn() << 12);
                    prop_assert_eq!(new.unmap(va), old.unmap(va));
                }
                MarkerOp::Mark { at, threshold } => {
                    // Not page-aligned: a mark may enter a leaf anywhere.
                    let va = VirtAddr::new(at.vpn() << 12 | (threshold * 61) & 0xfff);
                    mark_both(&mut old, &mut new, va, threshold);
                }
            }
            prop_assert!(new.iter_mappings().eq(old.iter_mappings()), "leaves differ");
            new.verify_integrity();
        }
    }
}
