//! Property-based tests of the buddy allocator's invariants under arbitrary
//! operation sequences.

use proptest::prelude::*;

use contig_buddy::{FrameTable, FreeList, PcpConfig, PoisonDisposition, Zone, ZoneConfig};
use contig_types::Pfn;

/// An abstract allocator operation the strategy generates.
#[derive(Clone, Debug)]
enum Op {
    Alloc { order: u32 },
    AllocSpecific { slot: u64, order: u32 },
    FreeOldest,
    FreeNewest,
}

fn op_strategy() -> impl Strategy<Value = Op> {
    prop_oneof![
        (0u32..=10).prop_map(|order| Op::Alloc { order }),
        (0u64..4096, 0u32..=9).prop_map(|(slot, order)| Op::AllocSpecific { slot, order }),
        Just(Op::FreeOldest),
        Just(Op::FreeNewest),
    ]
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// Any operation sequence leaves the zone internally consistent and
    /// conserves frames exactly.
    #[test]
    fn zone_invariants_hold_under_arbitrary_ops(ops in proptest::collection::vec(op_strategy(), 1..120)) {
        let mut zone = Zone::new(ZoneConfig::with_frames(4096));
        let mut live: Vec<(Pfn, u32)> = Vec::new();
        let mut live_frames = 0u64;
        for op in ops {
            match op {
                Op::Alloc { order } => {
                    if let Ok(head) = zone.alloc(order) {
                        live.push((head, order));
                        live_frames += 1 << order;
                    }
                }
                Op::AllocSpecific { slot, order } => {
                    let target = Pfn::new((slot << order) % 4096);
                    if target.raw() + (1 << order) <= 4096
                        && zone.alloc_specific(target, order).is_ok()
                    {
                        live.push((target, order));
                        live_frames += 1 << order;
                    }
                }
                Op::FreeOldest => {
                    if !live.is_empty() {
                        let (head, order) = live.remove(0);
                        zone.free(head, order);
                        live_frames -= 1 << order;
                    }
                }
                Op::FreeNewest => {
                    if let Some((head, order)) = live.pop() {
                        zone.free(head, order);
                        live_frames -= 1 << order;
                    }
                }
            }
            prop_assert_eq!(zone.free_frames(), 4096 - live_frames);
        }
        zone.verify_integrity();
        // Full teardown coalesces back to pristine.
        for (head, order) in live {
            zone.free(head, order);
        }
        prop_assert_eq!(zone.free_frames(), 4096);
        zone.verify_integrity();
        prop_assert_eq!(zone.contiguity_map().largest().unwrap().frames, 4096);
    }

    /// Allocated blocks never overlap each other.
    #[test]
    fn allocations_are_disjoint(orders in proptest::collection::vec(0u32..=9, 1..40)) {
        let mut zone = Zone::new(ZoneConfig::with_frames(8192));
        let mut owned: Vec<(u64, u64)> = Vec::new();
        for order in orders {
            if let Ok(head) = zone.alloc(order) {
                let start = head.raw();
                let end = start + (1 << order);
                for &(s, e) in &owned {
                    prop_assert!(end <= s || start >= e, "[{start},{end}) overlaps [{s},{e})");
                }
                owned.push((start, end));
            }
        }
    }

    /// `alloc_specific` succeeds exactly when every frame of the target
    /// block is free.
    #[test]
    fn alloc_specific_iff_block_free(
        pre in proptest::collection::vec(0u64..512, 0..64),
        target_slot in 0u64..64,
        order in 0u32..=3,
    ) {
        let mut zone = Zone::new(ZoneConfig::with_frames(512));
        for p in pre {
            let _ = zone.alloc_specific(Pfn::new(p), 0);
        }
        let target = Pfn::new((target_slot << order) % 512);
        let all_free =
            (0..(1u64 << order)).all(|i| zone.is_free(target.add(i)));
        let result = zone.alloc_specific(target, order);
        prop_assert_eq!(result.is_ok(), all_free, "target {} order {}", target, order);
        zone.verify_integrity();
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// Coalescing is independent of free order: however the live blocks are
    /// shuffled before teardown, the zone always merges back to one pristine
    /// top-order run with a consistent frame table.
    #[test]
    fn coalescing_is_free_order_independent(
        orders in proptest::collection::vec(0u32..=8, 1..80),
        shuffle_seed in 0u64..1_000_000,
    ) {
        let mut zone = Zone::new(ZoneConfig::with_frames(4096));
        let mut live: Vec<(Pfn, u32)> = Vec::new();
        for order in orders {
            if let Ok(head) = zone.alloc(order) {
                live.push((head, order));
            }
        }
        // Fisher-Yates with a seeded splitmix64 stream: the free order is
        // random but reproducible from the generated seed.
        let mut rng = shuffle_seed;
        for i in (1..live.len()).rev() {
            let j = (contig_types::splitmix64(&mut rng) as usize) % (i + 1);
            live.swap(i, j);
        }
        let freed = live.len() as u64;
        for (head, order) in live {
            zone.free(head, order);
        }
        zone.verify_integrity();
        prop_assert_eq!(zone.free_frames(), 4096);
        prop_assert_eq!(zone.contiguity_map().largest().unwrap().frames, 4096);
        if freed > 1 {
            prop_assert!(zone.counters().coalesces > 0, "teardown never coalesced");
        }
    }

    /// A zone snapshot restores to a bit-identical allocator: the snapshot
    /// round-trips exactly, and the restored zone hands out the same frames
    /// the original does from that point on.
    #[test]
    fn snapshot_round_trips_under_arbitrary_ops(
        ops in proptest::collection::vec(op_strategy(), 1..80),
        probes in proptest::collection::vec(0u32..=4, 1..8),
    ) {
        let mut zone = Zone::new(ZoneConfig::with_frames(4096));
        let mut live: Vec<(Pfn, u32)> = Vec::new();
        for op in ops {
            match op {
                Op::Alloc { order } => {
                    if let Ok(head) = zone.alloc(order) {
                        live.push((head, order));
                    }
                }
                Op::AllocSpecific { slot, order } => {
                    let target = Pfn::new((slot << order) % 4096);
                    if target.raw() + (1 << order) <= 4096
                        && zone.alloc_specific(target, order).is_ok()
                    {
                        live.push((target, order));
                    }
                }
                Op::FreeOldest => {
                    if !live.is_empty() {
                        let (head, order) = live.remove(0);
                        zone.free(head, order);
                    }
                }
                Op::FreeNewest => {
                    if let Some((head, order)) = live.pop() {
                        zone.free(head, order);
                    }
                }
            }
        }
        let snap = zone.snapshot();
        let mut restored = Zone::from_snapshot(&snap);
        prop_assert_eq!(restored.snapshot(), snap);
        restored.verify_integrity();
        // LIFO free-list order survived: both copies pick identical frames.
        for order in probes {
            prop_assert_eq!(zone.alloc(order), restored.alloc(order));
        }
    }
}

/// An operation for the hwpoison quarantine test: the allocator mix plus
/// poison strikes (soft-offline of a free frame is a strike on a frame that
/// happens to be free, so the same op covers both) and pcp traffic.
#[derive(Clone, Debug)]
enum PoisonOp {
    Alloc { order: u32 },
    AllocSpecific { slot: u64, order: u32 },
    FreeOldest,
    FreeNewest,
    Poison { pfn: u64 },
    SetCpu { cpu: usize },
    Drain,
}

fn poison_op_strategy() -> impl Strategy<Value = PoisonOp> {
    prop_oneof![
        (0u32..=4).prop_map(|order| PoisonOp::Alloc { order }),
        (0u64..1024, 0u32..=4).prop_map(|(slot, order)| PoisonOp::AllocSpecific { slot, order }),
        Just(PoisonOp::FreeOldest),
        Just(PoisonOp::FreeNewest),
        (0u64..1024).prop_map(|pfn| PoisonOp::Poison { pfn }),
        (0usize..2).prop_map(|cpu| PoisonOp::SetCpu { cpu }),
        Just(PoisonOp::Drain),
    ]
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// Arbitrary alloc/free/poison/soft-offline interleavings never hand out
    /// a poisoned frame, never coalesce a free block across a badframe, and
    /// keep frame accounting exact (quarantined frames leave the free pool
    /// permanently; deferred strikes on allocated frames complete on free).
    #[test]
    fn quarantine_holds_under_arbitrary_ops(
        ops in proptest::collection::vec(poison_op_strategy(), 1..150),
    ) {
        const FRAMES: u64 = 1024;
        let mut zone = Zone::new(ZoneConfig::with_frames(FRAMES));
        zone.enable_pcp(PcpConfig { cpus: 2, batch: 4, high: 8 });
        let mut live: Vec<(Pfn, u32)> = Vec::new();
        let mut live_frames = 0u64;
        let mut quarantined = std::collections::BTreeSet::new();
        let mut deferred = std::collections::BTreeSet::new();
        let free_block = |zone: &mut Zone,
                              live_frames: &mut u64,
                              quarantined: &mut std::collections::BTreeSet<u64>,
                              deferred: &mut std::collections::BTreeSet<u64>,
                              head: Pfn,
                              order: u32| {
            zone.free(head, order);
            *live_frames -= 1 << order;
            for f in head.raw()..head.raw() + (1 << order) {
                if deferred.remove(&f) {
                    quarantined.insert(f);
                }
            }
        };
        for op in ops {
            match op {
                PoisonOp::Alloc { order } => {
                    if let Ok(head) = zone.alloc(order) {
                        for f in head.raw()..head.raw() + (1 << order) {
                            prop_assert!(
                                !quarantined.contains(&f) && !deferred.contains(&f),
                                "alloc handed out poisoned frame {f}"
                            );
                        }
                        live.push((head, order));
                        live_frames += 1 << order;
                    }
                }
                PoisonOp::AllocSpecific { slot, order } => {
                    let target = Pfn::new((slot << order) % FRAMES);
                    if target.raw() + (1 << order) > FRAMES {
                        continue;
                    }
                    let poisoned_inside = (target.raw()..target.raw() + (1 << order))
                        .any(|f| quarantined.contains(&f) || deferred.contains(&f));
                    if zone.alloc_specific(target, order).is_ok() {
                        prop_assert!(
                            !poisoned_inside,
                            "alloc_specific handed out a block spanning a badframe at {target}"
                        );
                        live.push((target, order));
                        live_frames += 1 << order;
                    }
                }
                PoisonOp::FreeOldest => {
                    if !live.is_empty() {
                        let (head, order) = live.remove(0);
                        free_block(
                            &mut zone, &mut live_frames, &mut quarantined, &mut deferred,
                            head, order,
                        );
                    }
                }
                PoisonOp::FreeNewest => {
                    if let Some((head, order)) = live.pop() {
                        free_block(
                            &mut zone, &mut live_frames, &mut quarantined, &mut deferred,
                            head, order,
                        );
                    }
                }
                PoisonOp::Poison { pfn } => {
                    let target = Pfn::new(pfn % FRAMES);
                    match zone.poison(target) {
                        PoisonDisposition::QuarantinedFree
                        | PoisonDisposition::QuarantinedPcp => {
                            quarantined.insert(target.raw());
                        }
                        PoisonDisposition::Deferred => {
                            deferred.insert(target.raw());
                        }
                        PoisonDisposition::AlreadyPoisoned => {
                            prop_assert!(
                                quarantined.contains(&target.raw())
                                    || deferred.contains(&target.raw())
                            );
                        }
                    }
                }
                PoisonOp::SetCpu { cpu } => zone.set_cpu(cpu),
                PoisonOp::Drain => {
                    zone.drain_pcp();
                }
            }
            prop_assert_eq!(
                zone.free_frames(),
                FRAMES - live_frames - quarantined.len() as u64,
                "frame accounting drifted"
            );
            zone.verify_integrity();
        }
        // Teardown: all deferred strikes complete, then no free block may
        // span a badframe and every badframe is out of the free pool.
        for (head, order) in std::mem::take(&mut live) {
            free_block(&mut zone, &mut live_frames, &mut quarantined, &mut deferred, head, order);
        }
        zone.drain_pcp();
        zone.verify_integrity();
        prop_assert!(deferred.is_empty());
        prop_assert_eq!(zone.free_frames(), FRAMES - quarantined.len() as u64);
        prop_assert_eq!(zone.poisoned_frames(), quarantined.len() as u64);
        let badframes: Vec<u64> = zone.badframes().map(Pfn::raw).collect();
        prop_assert_eq!(&badframes, &quarantined.iter().copied().collect::<Vec<_>>());
        for pfn in 0..FRAMES {
            let p = Pfn::new(pfn);
            if let contig_buddy::FrameState::FreeHead { order } = zone.frame_table().state(p) {
                for f in pfn..pfn + (1 << order) {
                    prop_assert!(
                        !quarantined.contains(&f),
                        "free block at {pfn} order {order} coalesced across badframe {f}"
                    );
                }
            }
        }
        for &f in &quarantined {
            let p = Pfn::new(f);
            prop_assert!(zone.is_poisoned(p));
            prop_assert!(!zone.is_free(p), "badframe {f} is on a free list");
            prop_assert!(!zone.pcp_contains(p), "badframe {f} is in a pcp cache");
        }
    }
}

/// An operation for the frame-walk test: the allocator mix, poison, pcp
/// traffic, `split_page()` and COW share counts.
#[derive(Clone, Debug)]
enum WalkOp {
    Alloc { order: u32 },
    AllocSpecific { slot: u64, order: u32 },
    Free { nth: usize },
    Poison { pfn: u64 },
    SetCpu { cpu: usize },
    Drain,
    Split { nth: usize, by: u32 },
    Share { nth: usize, count: u32 },
    Walk { from: u64, limit: u64 },
}

fn walk_op_strategy() -> impl Strategy<Value = WalkOp> {
    prop_oneof![
        (0u32..=6).prop_map(|order| WalkOp::Alloc { order }),
        (0u64..1024, 0u32..=6).prop_map(|(slot, order)| WalkOp::AllocSpecific { slot, order }),
        (0usize..64).prop_map(|nth| WalkOp::Free { nth }),
        (0u64..1024).prop_map(|pfn| WalkOp::Poison { pfn }),
        (0usize..2).prop_map(|cpu| WalkOp::SetCpu { cpu }),
        Just(WalkOp::Drain),
        (0usize..64, 1u32..=3).prop_map(|(nth, by)| WalkOp::Split { nth, by }),
        (0usize..64, 0u32..4).prop_map(|(nth, count)| WalkOp::Share { nth, count }),
        (0u64..1100, 0u64..40).prop_map(|(from, limit)| WalkOp::Walk { from, limit }),
    ]
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// `allocated_blocks`, `allocated_blocks_from` and `shared_heads` skip
    /// the tails of verified blocks; whatever the interleaving, they answer
    /// exactly what a filter over every frame's state answers.
    #[test]
    fn frame_walks_equal_the_per_frame_filters(
        ops in proptest::collection::vec(walk_op_strategy(), 1..150),
    ) {
        const FRAMES: u64 = 1024;
        let mut zone = Zone::new(ZoneConfig::with_frames(FRAMES));
        zone.enable_pcp(PcpConfig { cpus: 2, batch: 4, high: 8 });
        let mut live: Vec<(Pfn, u32)> = Vec::new();
        for op in ops {
            let (mut from, mut limit) = (0, u64::MAX);
            match op {
                WalkOp::Alloc { order } => {
                    if let Ok(head) = zone.alloc(order) {
                        live.push((head, order));
                    }
                }
                WalkOp::AllocSpecific { slot, order } => {
                    let target = Pfn::new((slot << order) % FRAMES);
                    let fits = target.raw() + (1 << order) <= FRAMES;
                    if fits && zone.alloc_specific(target, order).is_ok() {
                        live.push((target, order));
                    }
                }
                WalkOp::Free { nth } if !live.is_empty() => {
                    let (head, order) = live.swap_remove(nth % live.len());
                    zone.free(head, order);
                }
                WalkOp::Poison { pfn } => {
                    zone.poison(Pfn::new(pfn % FRAMES));
                }
                WalkOp::SetCpu { cpu } => zone.set_cpu(cpu),
                WalkOp::Drain => {
                    zone.drain_pcp();
                }
                WalkOp::Split { nth, by } if !live.is_empty() => {
                    let (head, order) = live.swap_remove(nth % live.len());
                    let new_order = order.saturating_sub(by);
                    zone.split_allocated(head, new_order);
                    let pieces = 0..1u64 << (order - new_order);
                    live.extend(pieces.map(|i| (head.add(i << new_order), new_order)));
                }
                WalkOp::Share { nth, count } if !live.is_empty() => {
                    zone.set_share_count(live[nth % live.len()].0, count);
                }
                WalkOp::Walk { from: f, limit: l } => (from, limit) = (f, l),
                _ => {}
            }
            let table = zone.frame_table();
            let heads: Vec<(Pfn, u32)> = (0..FRAMES)
                .map(Pfn::new)
                .filter_map(|p| match table.state(p) {
                    contig_buddy::FrameState::AllocatedHead { order } => Some((p, order)),
                    _ => None,
                })
                .collect();
            let shared: Vec<(Pfn, u32)> = heads
                .iter()
                .map(|&(p, _)| (p, table.share_count(p)))
                .filter(|&(_, count)| count != 0)
                .collect();
            let resumed: Vec<(Pfn, u32)> = heads
                .iter()
                .copied()
                .filter(|&(p, _)| p.raw() >= from)
                .take(limit as usize)
                .collect();
            prop_assert_eq!(table.allocated_blocks().collect::<Vec<_>>(), heads);
            prop_assert_eq!(table.shared_heads().collect::<Vec<_>>(), shared);
            let got: Vec<_> = table.allocated_blocks_from(Pfn::new(from), limit).collect();
            prop_assert_eq!(got, resumed);
        }
        zone.verify_integrity();
    }
}

/// An operation for the pcp differential test, including CPU migration and
/// explicit drains.
#[derive(Clone, Debug)]
enum PcpOp {
    Alloc { order: u32 },
    AllocSpecific { slot: u64, order: u32 },
    FreeOldest,
    FreeNewest,
    SetCpu { cpu: usize },
    Drain,
}

fn pcp_op_strategy() -> impl Strategy<Value = PcpOp> {
    prop_oneof![
        (0u32..=3).prop_map(|order| PcpOp::Alloc { order }),
        (0u64..1024, 0u32..=3).prop_map(|(slot, order)| PcpOp::AllocSpecific { slot, order }),
        Just(PcpOp::FreeOldest),
        Just(PcpOp::FreeNewest),
        (0usize..4).prop_map(|cpu| PcpOp::SetCpu { cpu }),
        Just(PcpOp::Drain),
    ]
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// Differential test of the per-CPU frame caches: a pcp-enabled zone and
    /// a plain (pcp-disabled) shadow zone stay observationally equivalent
    /// under arbitrary operation sequences.
    ///
    /// Every frame the pcp zone hands out is mirrored into the shadow via
    /// `alloc_specific`, which must succeed — the two zones' allocated sets
    /// are equal by induction, and a pcp-resident frame still counts as free.
    /// OOM and targeted-allocation outcomes must agree in both directions,
    /// and after a final drain the buddy structures coalesce to the same
    /// canonical per-frame decomposition.
    #[test]
    fn pcp_zone_is_observationally_equivalent_to_plain_zone(
        ops in proptest::collection::vec(pcp_op_strategy(), 1..150),
        cpus in 1usize..4,
    ) {
        const FRAMES: u64 = 1024;
        let mut pcp = Zone::new(ZoneConfig::with_frames(FRAMES));
        pcp.enable_pcp(PcpConfig { cpus, batch: 4, high: 8 });
        let mut shadow = Zone::new(ZoneConfig::with_frames(FRAMES));
        let mut live: Vec<(Pfn, u32)> = Vec::new();
        for op in ops {
            match op {
                PcpOp::Alloc { order } => {
                    match pcp.alloc(order) {
                        Ok(head) => {
                            prop_assert!(
                                shadow.alloc_specific(head, order).is_ok(),
                                "shadow rejected frame {head} order {order} the pcp zone handed out"
                            );
                            live.push((head, order));
                        }
                        Err(_) => {
                            prop_assert!(
                                shadow.alloc(order).is_err(),
                                "pcp zone reported OOM at order {order} but the shadow allocated"
                            );
                        }
                    }
                }
                PcpOp::AllocSpecific { slot, order } => {
                    let target = Pfn::new((slot << order) % FRAMES);
                    if target.raw() + (1 << order) > FRAMES {
                        continue;
                    }
                    let a = pcp.alloc_specific(target, order).is_ok();
                    let b = shadow.alloc_specific(target, order).is_ok();
                    prop_assert_eq!(
                        a, b,
                        "targeted alloc at {} order {} diverged (pcp {}, shadow {})",
                        target, order, a, b
                    );
                    if a {
                        live.push((target, order));
                    }
                }
                PcpOp::FreeOldest => {
                    if !live.is_empty() {
                        let (head, order) = live.remove(0);
                        pcp.free(head, order);
                        shadow.free(head, order);
                    }
                }
                PcpOp::FreeNewest => {
                    if let Some((head, order)) = live.pop() {
                        pcp.free(head, order);
                        shadow.free(head, order);
                    }
                }
                PcpOp::SetCpu { cpu } => {
                    if cpu < cpus {
                        pcp.set_cpu(cpu);
                    }
                }
                PcpOp::Drain => {
                    pcp.drain_pcp();
                }
            }
            // Frame accounting agrees at every step, pcp residency included.
            prop_assert_eq!(pcp.free_frames(), shadow.free_frames());
            for &(head, _) in &live {
                prop_assert!(!pcp.is_free(head) && !shadow.is_free(head));
            }
        }
        pcp.verify_integrity();
        shadow.verify_integrity();
        // After draining, eager coalescing makes the decomposition canonical:
        // both frame tables must match state-for-state.
        pcp.drain_pcp();
        prop_assert_eq!(pcp.pcp_frames(), 0);
        pcp.verify_integrity();
        for pfn in 0..FRAMES {
            let p = Pfn::new(pfn);
            prop_assert_eq!(
                pcp.frame_table().state(p),
                shadow.frame_table().state(p),
                "frame {} diverged after drain",
                p
            );
        }
    }
}

/// The order contract of a LIFO free list, readable: a mid-list unlink moves
/// the top block into the hole (`swap_remove`), so what pops next — and what
/// a snapshot records — depends on it.
#[test]
fn unlink_moves_the_top_block_into_the_hole() {
    let (mut list, mut table) = (FreeList::default(), FrameTable::new(Pfn::new(0), 64));
    for raw in [10, 20, 30, 40] {
        list.insert(&mut table, Pfn::new(raw), 0);
    }
    assert!(list.remove(&mut table, Pfn::new(20)));
    assert_eq!(list.iter().map(Pfn::raw).collect::<Vec<_>>(), [10, 40, 30]);
    assert_eq!(list.pop(), Some(Pfn::new(30)));
    assert!(list.remove(&mut table, Pfn::new(10)));
    assert_eq!(list.iter().map(Pfn::raw).collect::<Vec<_>>(), [40]);
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// A LIFO list whose positions live in the frame table iterates exactly
    /// like a plain `Vec` with `push` / `pop` / `swap_remove`, after every
    /// operation of any insert/pop/remove sequence.
    #[test]
    fn lifo_list_is_a_vec_with_swap_remove(
        ops in proptest::collection::vec((0u8..3, 0u64..64), 1..200),
    ) {
        let (mut list, mut table) = (FreeList::default(), FrameTable::new(Pfn::new(0), 64));
        let mut model: Vec<Pfn> = Vec::new();
        for (kind, slot) in ops {
            let pfn = Pfn::new(slot);
            let at = model.iter().position(|&p| p == pfn);
            prop_assert_eq!(list.contains(&table, pfn), at.is_some());
            match (kind, at) {
                (0, None) => {
                    list.insert(&mut table, pfn, 0);
                    model.push(pfn);
                }
                (1, _) => prop_assert_eq!(list.pop(), model.pop()),
                (2, _) => {
                    prop_assert_eq!(list.remove(&mut table, pfn), at.is_some());
                    at.map(|i| model.swap_remove(i));
                }
                _ => {}
            }
            prop_assert_eq!(list.iter().collect::<Vec<_>>(), model.clone());
        }
    }
}
