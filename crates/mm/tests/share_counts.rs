//! COW share counts live in the frame table's per-frame entry. The reference
//! here is the `HashMap<Pfn, u32>` the system used to keep beside it,
//! transcribed with its exact update rules and driven in lock-step from the
//! page tables: every snapshot must carry the vector that map would have
//! produced, through restore as well, and no freed block may keep a count.

use std::collections::HashMap;

use contig_buddy::{MachineConfig, PcpConfig};
use contig_mm::{DefaultThpPolicy, Pid, PteFlags, System, SystemConfig, VmaKind};
use contig_types::{PageSize, Pfn, VirtAddr, VirtRange};

const BASE: u64 = 0x4000_0000;
const PAGES: u64 = 64;

fn page(i: u64) -> VirtAddr {
    VirtAddr::new(BASE + i * PageSize::Base4K.bytes())
}

fn frame_of(sys: &System, pid: Pid, i: u64) -> Pfn {
    sys.aspace(pid).page_table().translate(page(i)).expect("mapped").pfn
}

/// The old table's `unshare_frame`: decrement above one, drop the entry at
/// one. Returns whether the frame was freed.
fn unshare(model: &mut HashMap<Pfn, u32>, pfn: Pfn) -> bool {
    match model.get_mut(&pfn) {
        Some(count) if *count > 1 => {
            *count -= 1;
            false
        }
        _ => {
            model.remove(&pfn);
            true
        }
    }
}

fn sorted(model: &HashMap<Pfn, u32>) -> Vec<(u64, u32)> {
    let mut shared: Vec<_> = model.iter().map(|(pfn, &count)| (pfn.raw(), count)).collect();
    shared.sort_unstable();
    shared
}

fn check(sys: &System, model: &HashMap<Pfn, u32>, freed: &[Pfn]) {
    let snap = sys.snapshot();
    assert_eq!(snap.shared, sorted(model));
    let restored = System::restore(&snap);
    assert_eq!(restored.snapshot(), snap, "restore must carry every count");
    for &pfn in freed {
        assert_eq!(sys.cow_shared_count(pfn), None, "freed {pfn} kept a share count");
    }
    assert!(sys.audit().is_clean(), "{}", sys.audit());
}

fn fork_break_exit(pcp: bool) {
    let mut sys = System::new(SystemConfig {
        thp: false,
        ..SystemConfig::new(MachineConfig::single_node_mib(16))
    });
    if pcp {
        sys.enable_pcp(PcpConfig::default());
    }
    let mut policy = DefaultThpPolicy;
    let parent = sys.spawn();
    let range = VirtRange::new(VirtAddr::new(BASE), PAGES * PageSize::Base4K.bytes());
    let vma = sys.aspace_mut(parent).map_vma(range, VmaKind::Anon);
    sys.populate_vma(&mut policy, parent, vma).expect("populate");
    let mut model: HashMap<Pfn, u32> = HashMap::new();
    let mut freed = Vec::new();
    check(&sys, &model, &freed);

    // fork: every mapped anonymous page gains a sharer (1 -> 2).
    let child = sys.fork_vma(parent, vma);
    for i in 0..PAGES {
        *model.entry(frame_of(&sys, parent, i)).or_insert(1) += 1;
    }
    let grandchild = sys.fork_vma(child, vma);
    for i in 0..PAGES {
        *model.entry(frame_of(&sys, child, i)).or_insert(1) += 1;
    }
    check(&sys, &model, &freed);

    // COW breaks drop the writer's reference to the original.
    for (pid, pages) in [(child, 0..24), (parent, 8..32), (grandchild, 16..40)] {
        for i in pages {
            let old = frame_of(&sys, pid, i);
            let out = sys.touch_write(&mut policy, pid, page(i)).expect("cow break");
            assert_ne!(out.pfn, old);
            if unshare(&mut model, old) {
                freed.push(old);
            }
        }
    }
    check(&sys, &model, &freed);

    // exit releases COW mappings through the count, private ones directly.
    for pid in [child, parent, grandchild] {
        for m in sys.aspace(pid).page_table().iter_mappings() {
            if !m.pte.flags.contains(PteFlags::COW) || unshare(&mut model, m.pte.pfn) {
                freed.push(m.pte.pfn);
            }
        }
        sys.exit(pid);
        check(&sys, &model, &freed);
    }
    assert!(model.is_empty());
    assert_eq!(sys.machine().shared_frames().count(), 0);
    sys.drain_pcp();
    assert_eq!(sys.machine().free_frames(), sys.machine().total_frames());
}

#[test]
fn snapshots_carry_the_vector_the_side_table_produced() {
    fork_break_exit(false);
}

#[test]
fn snapshots_carry_the_vector_the_side_table_produced_with_pcp() {
    fork_break_exit(true);
}

/// A block freed with a count still on it (the memory-failure kill path
/// frees first and never looks back) hands nothing to its next owner, whether
/// it goes back to the heap or parks on a per-CPU list.
#[test]
fn a_freed_block_never_keeps_its_count() {
    for pcp in [false, true] {
        let mut sys = System::new(SystemConfig::new(MachineConfig::single_node_mib(4)));
        if pcp {
            sys.enable_pcp(PcpConfig::default());
        }
        let machine = sys.machine_mut();
        for order in [0, 3] {
            let head = machine.alloc(order).expect("room");
            machine.set_share_count(head, 3);
            assert_eq!(machine.shared_frames().collect::<Vec<_>>(), vec![(head, 3)]);
            machine.free(head, order);
            assert_eq!(machine.share_count(head), 0);
            machine.alloc_specific(head, order).expect("just freed");
            assert_eq!(machine.share_count(head), 0, "order {order}, pcp {pcp}");
            machine.free(head, order);
        }
        machine.verify_integrity();
    }
}
