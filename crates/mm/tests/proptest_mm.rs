//! Property-based tests of the page table and VMA metadata against simple
//! reference models.

use std::collections::{BTreeMap, HashMap};

use proptest::prelude::*;

use contig_mm::{
    MappedPage, OffsetSet, PageTable, Pte, PteFlags, LEVELS, LEVELS_LA57, MAX_OFFSETS_PER_VMA,
};
use contig_types::{MapOffset, PageSize, Pfn, PhysAddr, VirtAddr, VirtRange};

#[derive(Clone, Debug)]
enum PtOp {
    Map4k { slot: u64, pfn: u64 },
    MapHuge { slot: u64, pfn: u64 },
    Unmap { slot: u64 },
    SetContig { slot: u64 },
}

fn pt_op() -> impl Strategy<Value = PtOp> {
    prop_oneof![
        (0u64..2048, 0u64..1 << 20).prop_map(|(slot, pfn)| PtOp::Map4k { slot, pfn }),
        (0u64..4, 0u64..1 << 20).prop_map(|(slot, pfn)| PtOp::MapHuge { slot, pfn }),
        (0u64..2048).prop_map(|slot| PtOp::Unmap { slot }),
        (0u64..2048).prop_map(|slot| PtOp::SetContig { slot }),
    ]
}

fn va_4k(slot: u64) -> VirtAddr {
    VirtAddr::new(slot * 4096)
}

fn va_2m(slot: u64) -> VirtAddr {
    VirtAddr::new(slot * (2 << 20))
}

/// An op of the sparse reference-model test, applied at a `SparseVa`.
#[derive(Clone, Copy, Debug)]
enum SparseOp {
    Map { huge: bool, pfn: u64, flags: u8 },
    Unmap,
    Remap { pfn: u64, flags: u8 },
    OrFlags { flags: u8 },
    Translate,
    RegionPopulated,
    /// The life of a PT table that ends orphaned: see `recycle`.
    Recycle { pfn: u64, flags: u8 },
}

/// A deliberately sparse address: one of a few far-apart 4 MiB windows
/// (1 GiB apart under one PUD table, 512 GiB apart under one PGD table, and
/// — for 5-level tables only — beyond bit 48), a 2 MiB region inside it and
/// one of a few pages of that region. Most leaves get a PT table, a PMD table
/// and a PUD table to themselves; the few that share a PT table exercise the
/// emptied-table paths.
#[derive(Clone, Copy, Debug)]
struct SparseVa {
    window: u64,
    region: u64,
    page: u64,
}

impl SparseVa {
    fn resolve(self, levels: u32) -> VirtAddr {
        const WINDOWS: [u64; 8] =
            [0, 1 << 30, 3 << 30, 1 << 39, 5 << 39, 255 << 39, 1 << 48, 0xff << 48];
        let usable = if levels == LEVELS_LA57 { 8 } else { 6 };
        let base = WINDOWS[(self.window % usable) as usize];
        // The last page of the region too, so both ends of a PT table are hit.
        let page = if self.page == 3 { 511 } else { self.page };
        VirtAddr::new(base + self.region * PageSize::Huge2M.bytes() + page * 4096)
    }
}

fn sparse_va() -> impl Strategy<Value = SparseVa> {
    (0u64..8, 0u64..2, 0u64..4).prop_map(|(window, region, page)| SparseVa { window, region, page })
}

fn sparse_op() -> impl Strategy<Value = SparseOp> {
    let pfn = 0u64..=Pte::MAX_PFN.raw();
    let map = || {
        (any::<bool>(), 0u64..=Pte::MAX_PFN.raw(), any::<u8>())
            .prop_map(|(huge, pfn, flags)| SparseOp::Map { huge, pfn, flags })
    };
    prop_oneof![
        map(),
        map(),
        Just(SparseOp::Unmap),
        Just(SparseOp::Unmap),
        (pfn.clone(), any::<u8>()).prop_map(|(pfn, flags)| SparseOp::Remap { pfn, flags }),
        any::<u8>().prop_map(|flags| SparseOp::OrFlags { flags }),
        Just(SparseOp::Translate),
        Just(SparseOp::RegionPopulated),
        (pfn, any::<u8>()).prop_map(|(pfn, flags)| SparseOp::Recycle { pfn, flags }),
    ]
}

/// The model: leaf start address → (entry, size).
type Model = BTreeMap<u64, (Pte, PageSize)>;

/// The leaf of the model covering `va`, if any.
fn covering(model: &Model, va: u64) -> Option<(u64, Pte, PageSize)> {
    let (&start, &(pte, size)) = model.range(..=va).next_back()?;
    (va < start + size.bytes()).then_some((start, pte, size))
}

/// Applies one op other than `Recycle` at `va` to the table and to the model
/// and requires the same answer of both.
fn apply(pt: &mut PageTable, model: &mut Model, va: VirtAddr, op: SparseOp) {
    let levels = pt.levels();
    let want = covering(model, va.raw());
    match op {
        SparseOp::Map { huge, pfn, flags } => {
            let size = if huge { PageSize::Huge2M } else { PageSize::Base4K };
            let va = va.align_down(size).raw();
            // Legal iff no leaf overlaps [va, va + size).
            let clear = covering(model, va).is_none()
                && model.range(va..va + size.bytes()).next().is_none();
            if clear {
                let pte = Pte::new(Pfn::new(pfn), PteFlags::from_bits(flags));
                pt.map(VirtAddr::new(va), pte, size);
                model.insert(va, (pte, size));
            }
        }
        SparseOp::Unmap => {
            prop_assert_eq!(pt.unmap(va), want.map(|(_, pte, size)| (pte, size)));
            if let Some((start, ..)) = want {
                model.remove(&start);
            }
        }
        SparseOp::Remap { pfn, flags } => {
            let new = Pte::new(Pfn::new(pfn), PteFlags::from_bits(flags));
            prop_assert_eq!(pt.remap(va, new), want.map(|(_, pte, size)| (pte, size)));
            if let Some((start, _, size)) = want {
                model.insert(start, (new, size));
            }
        }
        SparseOp::OrFlags { flags } => {
            let or = PteFlags::from_bits(flags);
            prop_assert_eq!(
                pt.update_flags(va, |f| f | or),
                want.map(|(_, pte, _)| pte.flags | or)
            );
            if let Some((start, pte, size)) = want {
                model.insert(start, (Pte::new(pte.pfn, pte.flags | or), size));
            }
        }
        SparseOp::Translate => {
            let got = pt.translate(va).ok().map(|t| (t.pfn, t.flags, t.size, t.levels));
            let want = want.map(|(_, pte, size)| {
                let walked = levels - u32::from(size == PageSize::Huge2M);
                (pte.pfn, pte.flags, size, walked)
            });
            prop_assert_eq!(got, want);
        }
        SparseOp::RegionPopulated => {
            let region = va.align_down(PageSize::Huge2M).raw();
            let region = region..region + PageSize::Huge2M.bytes();
            let want = model.range(region).next().is_some();
            prop_assert_eq!(pt.huge_region_populated(va), want);
        }
        SparseOp::Recycle { .. } => unreachable!("expanded by `recycle`"),
    }
}

/// The steps of `Recycle` on the 2 MiB region of `va`: 4 KiB maps, all of
/// them unmapped, a 2 MiB map over the emptied PT table (which orphans it),
/// that unmapped too, and a 4 KiB map again. After each stage come reads and
/// in-place writes inside the region the table last walked to and just
/// outside it, and at the address whose page number is the region's number —
/// the one a remembered-region compare with the wrong shift would serve from
/// the wrong table, so the last 4 KiB page sits at that index.
fn recycle(model: &Model, va: VirtAddr, pfn: u64, flags: u8) -> Vec<(VirtAddr, SparseOp)> {
    let region = va.align_down(PageSize::Huge2M);
    let tag = region.raw() >> 21;
    let page = |index: u64| region + index * 4096;
    let around = [
        Some(page(0)),
        Some(page(tag & 511)),
        Some(page(511)),
        region.raw().checked_sub(4096).map(VirtAddr::new),
        Some(page(512)),
        Some(VirtAddr::new(tag << 12)),
    ];
    let probes = |steps: &mut Vec<(VirtAddr, SparseOp)>| {
        for at in around.into_iter().flatten() {
            steps.push((at, SparseOp::Translate));
            steps.push((at, SparseOp::OrFlags { flags }));
            steps.push((at, SparseOp::Translate));
            steps.push((at, SparseOp::Remap { pfn: pfn ^ 1, flags }));
            steps.push((at, SparseOp::Translate));
        }
    };
    // Whatever the stream left in the region goes first.
    let mut steps: Vec<_> = model
        .range(..region.raw() + PageSize::Huge2M.bytes())
        .rev()
        .take_while(|(&start, &(_, size))| start + size.bytes() > region.raw())
        .map(|(&start, _)| (VirtAddr::new(start), SparseOp::Unmap))
        .collect();
    let small = [0, tag & 511, 511];
    for index in small {
        steps.push((page(index), SparseOp::Map { huge: false, pfn, flags }));
    }
    probes(&mut steps);
    steps.extend(small.map(|index| (page(index), SparseOp::Unmap)));
    steps.push((region, SparseOp::Map { huge: true, pfn, flags }));
    probes(&mut steps);
    steps.push((page(7), SparseOp::Unmap));
    steps.push((page(tag & 511), SparseOp::Map { huge: false, pfn, flags }));
    probes(&mut steps);
    steps
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// The arena page table against a `BTreeMap` of its leaves, at both
    /// depths, over sparse addresses and 4 KiB / 2 MiB mixes. After every op
    /// the full walk, a ranged walk, the counters and the occupancy words
    /// must all agree with the model.
    #[test]
    fn sparse_page_table_matches_btreemap_model(
        la57 in any::<bool>(),
        ops in proptest::collection::vec(((sparse_va(), sparse_op()), sparse_va(), sparse_va()), 1..120),
    ) {
        let levels = if la57 { LEVELS_LA57 } else { LEVELS };
        let mut pt = PageTable::with_levels(levels);
        let mut model = Model::new();
        for ((at, op), lo, hi) in ops {
            let va = at.resolve(levels);
            let steps = match op {
                SparseOp::Recycle { pfn, flags } => recycle(&model, va, pfn, flags),
                op => vec![(va, op)],
            };
            for (va, op) in steps {
                apply(&mut pt, &mut model, va, op);
                let leaf = |(&va, &(pte, size)): (&u64, &(Pte, PageSize))| {
                    MappedPage { va: VirtAddr::new(va), pte, size }
                };
                let want: Vec<MappedPage> = model.iter().map(leaf).collect();
                prop_assert_eq!(pt.iter_mappings().size_hint(), (want.len(), Some(want.len())));
                prop_assert_eq!(pt.iter_mappings().collect::<Vec<_>>(), want);
                let (lo, hi) = (lo.resolve(levels).raw(), hi.resolve(levels).raw());
                let (lo, hi) = (lo.min(hi), lo.max(hi));
                let range = VirtRange::from_bounds(VirtAddr::new(lo), VirtAddr::new(hi));
                let ranged = pt.mappings_in(range);
                prop_assert!(ranged.size_hint().1 == Some(want.len()));
                prop_assert_eq!(
                    ranged.collect::<Vec<_>>(),
                    model.range(lo..hi).map(leaf).collect::<Vec<_>>()
                );
                let huge = model.values().filter(|(_, size)| *size == PageSize::Huge2M).count() as u64;
                prop_assert_eq!(pt.mapped_huge_pages(), huge);
                let base = model.len() as u64 - huge;
                prop_assert_eq!(pt.mapped_base_pages(), base);
                prop_assert_eq!(pt.mapped_bytes(), base * 4096 + huge * (2 << 20));
                pt.verify_integrity();
            }
        }
    }

    /// The radix page table behaves exactly like a flat map from 4 KiB page
    /// numbers to (frame, flags), with huge leaves expanding to 512 entries.
    #[test]
    fn page_table_matches_reference(ops in proptest::collection::vec(pt_op(), 1..150)) {
        let mut pt = PageTable::new();
        // Reference: 4 KiB page slot -> (frame, flags).
        let mut reference: HashMap<u64, (u64, PteFlags)> = HashMap::new();
        for op in ops {
            match op {
                PtOp::Map4k { slot, pfn } => {
                    // Skip if anything (4 KiB or huge) covers the slot.
                    if reference.contains_key(&slot) {
                        continue;
                    }
                    // A huge mapping cannot be installed over partial leaves,
                    // and a 4 KiB leaf cannot be installed under a huge leaf;
                    // the reference tracks at 4 KiB granularity so the check
                    // above covers both.
                    pt.map(va_4k(slot), Pte::new(Pfn::new(pfn), PteFlags::WRITE), PageSize::Base4K);
                    reference.insert(slot, (pfn, PteFlags::WRITE));
                }
                PtOp::MapHuge { slot, pfn } => {
                    let base = slot * 512;
                    if (base..base + 512).any(|s| reference.contains_key(&s)) {
                        continue;
                    }
                    let pfn = pfn & !511; // frame must be huge-aligned
                    pt.map(va_2m(slot), Pte::new(Pfn::new(pfn), PteFlags::WRITE), PageSize::Huge2M);
                    for i in 0..512 {
                        reference.insert(base + i, (pfn + i, PteFlags::WRITE));
                    }
                }
                PtOp::Unmap { slot } => {
                    let removed = pt.unmap(va_4k(slot));
                    match removed {
                        Some((_, PageSize::Base4K)) => {
                            prop_assert!(reference.remove(&slot).is_some());
                        }
                        Some((_, PageSize::Huge2M)) => {
                            let base = slot / 512 * 512;
                            for i in 0..512 {
                                prop_assert!(reference.remove(&(base + i)).is_some());
                            }
                        }
                        None => prop_assert!(!reference.contains_key(&slot)),
                    }
                }
                PtOp::SetContig { slot } => {
                    let updated = pt.update_flags(va_4k(slot), |f| f | PteFlags::CONTIG);
                    if updated.is_some() {
                        // Huge leaves update all covered reference slots.
                        let size = pt.translate(va_4k(slot)).unwrap().size;
                        let (base, n) = match size {
                            PageSize::Base4K => (slot, 1),
                            PageSize::Huge2M => (slot / 512 * 512, 512),
                        };
                        for i in 0..n {
                            let e = reference.get_mut(&(base + i)).unwrap();
                            e.1 |= PteFlags::CONTIG;
                        }
                    } else {
                        prop_assert!(!reference.contains_key(&slot));
                    }
                }
            }
        }
        // Final sweep: every reference entry translates identically.
        for (&slot, &(pfn, flags)) in &reference {
            let t = pt.translate(va_4k(slot)).expect("reference slot mapped");
            prop_assert_eq!(t.frame_for(va_4k(slot)), Pfn::new(pfn));
            prop_assert_eq!(t.flags, flags);
        }
        // And the iterator covers exactly the reference (expanded to bytes).
        let iterated: u64 = pt.iter_mappings().map(|m| m.size.base_pages()).sum();
        prop_assert_eq!(iterated, reference.len() as u64);
        prop_assert_eq!(pt.mapped_bytes(), reference.len() as u64 * 4096);
        // Extraction partitions the same bytes into runs, none of them empty.
        let runs = contig_mm::contiguous_mappings(&pt);
        prop_assert!(runs.iter().all(|m| !m.is_empty()), "an extracted run is never empty");
        prop_assert_eq!(runs.iter().map(|m| m.len()).sum::<u64>(), pt.mapped_bytes());
    }

    /// `iter_mappings` is strictly ordered and non-overlapping.
    #[test]
    fn iteration_is_sorted_and_disjoint(slots in proptest::collection::btree_set(0u64..4096, 1..200)) {
        let mut pt = PageTable::new();
        for &slot in &slots {
            pt.map(va_4k(slot * 7 % 4096), Pte::new(Pfn::new(slot), PteFlags::NONE), PageSize::Base4K);
        }
        let mut last_end = 0u64;
        for m in pt.iter_mappings() {
            prop_assert!(m.va.raw() >= last_end);
            last_end = m.va.raw() + m.size.bytes();
        }
    }

    /// OffsetSet: `nearest` equals the brute-force minimum and the FIFO cap
    /// holds.
    #[test]
    fn offset_set_nearest_matches_bruteforce(
        entries in proptest::collection::vec((0u64..1 << 30, 0u64..1 << 30), 1..100),
        probe in 0u64..1 << 30,
    ) {
        let mut set = OffsetSet::new();
        let mut reference: Vec<(u64, MapOffset)> = Vec::new();
        for (va, pa) in entries {
            let off = MapOffset::between(VirtAddr::new(va), PhysAddr::new(pa));
            set.push(VirtAddr::new(va), off);
            reference.push((va, off));
            if reference.len() > MAX_OFFSETS_PER_VMA {
                reference.remove(0);
            }
        }
        prop_assert!(set.len() <= MAX_OFFSETS_PER_VMA);
        let got = set.nearest(VirtAddr::new(probe));
        let want_dist = reference.iter().map(|(va, _)| va.abs_diff(probe)).min();
        let got_dist = got.map(|g| {
            reference
                .iter()
                .filter(|(_, off)| *off == g)
                .map(|(va, _)| va.abs_diff(probe))
                .min()
                .unwrap()
        });
        prop_assert_eq!(got_dist, want_dist);
    }
}
