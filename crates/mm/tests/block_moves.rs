//! Directed tests of the movers built on `contig_mm`'s reverse map: evacuating
//! a page while the allocation it needs reclaims memory, and the one knob of
//! the maintenance daemon whose levels must differ in effect.

use contig_buddy::MachineConfig;
use contig_mm::{
    BasePagesPolicy, DaemonConfig, FailureAction, FileId, Pid, System, SystemConfig, VmaKind,
};
use contig_types::{VirtAddr, VirtRange};

fn system_4mib() -> System {
    let config = SystemConfig::new(MachineConfig::single_node_mib(4));
    System::new(SystemConfig { thp: false, ..config })
}

/// Reads every still-free frame into one file: zero free frames, all of the
/// cache reclaimable.
fn fill_with_cache(sys: &mut System) -> FileId {
    let file = sys.page_cache_mut().create_file();
    let free = sys.machine().free_frames();
    let (cache, machine) = sys.cache_and_machine();
    cache.readahead(machine, file, 0, free).unwrap();
    assert_eq!(sys.machine().free_frames(), 0);
    file
}

fn assert_sound(sys: &System) {
    assert!(sys.audit().is_clean(), "{}", sys.audit());
    sys.machine().verify_integrity();
}

/// Every evacuation allocates its replacement through the OOM escalation,
/// and on a full machine that escalation reclaims page cache — possibly the
/// very page being moved. The parent of this test panicked in the first
/// case ("relocating a page that is not cached").
#[test]
fn evacuation_survives_the_reclaim_its_own_allocation_triggers() {
    // Reclaim takes the lowest file indices first, so page 0 is evicted by
    // the allocation made to move it: its frame is quarantined directly.
    let mut sys = system_4mib();
    let file = fill_with_cache(&mut sys);
    let evicted = sys.page_cache().lookup(file, 0).unwrap();
    assert!(sys.soft_offline(evicted));
    assert!(sys.machine().is_poisoned(evicted));
    assert_eq!(sys.page_cache().lookup(file, 0), None);
    assert_sound(&sys);

    // The last page survives the same reclaim and is really moved.
    let last = sys.machine().total_frames() - 1;
    let survivor = sys.page_cache().lookup(file, last).unwrap();
    while sys.machine().free_frames() > 0 {
        sys.machine_mut().alloc(0).unwrap();
    }
    assert!(sys.soft_offline(survivor));
    assert!(sys.machine().is_poisoned(survivor));
    let moved = sys.page_cache().lookup(file, last).expect("still cached");
    assert_ne!(moved, survivor);
    assert_eq!(sys.poison_stats().soft_offline_ok, 2);

    // The anonymous twins: soft-offline and heal of a 4 KiB page with zero
    // free frames and a reclaimable cache.
    let mut sys = system_4mib();
    let pid = sys.spawn();
    let base = VirtAddr::new(0x40_0000);
    sys.aspace_mut(pid).map_vma(VirtRange::new(base, 0x2000), VmaKind::Anon);
    let mut policy = BasePagesPolicy;
    let suspect = sys.touch(&mut policy, pid, base).unwrap().pfn;
    let stricken = sys.touch(&mut policy, pid, base + 0x1000).unwrap().pfn;
    fill_with_cache(&mut sys);
    assert!(sys.soft_offline(suspect));
    let frame_at = |sys: &System, va| sys.aspace(pid).page_table().translate(va).unwrap().pfn;
    assert_ne!(frame_at(&sys, base), suspect);
    while sys.machine().free_frames() > 0 {
        sys.machine_mut().alloc(0).unwrap();
    }
    let healed = sys.memory_failure(stricken);
    let FailureAction::Healed { replacement } = healed.action else {
        panic!("expected heal, got {:?}", healed.action);
    };
    assert_eq!(frame_at(&sys, base + 0x1000), replacement);
    assert!(sys.machine().is_poisoned(suspect) && sys.machine().is_poisoned(stricken));
    assert!(sys.recovery_stats().reclaimed_pages > 0, "no pressure materialized");
    assert_sound(&sys);
}

/// Two processes fault 4 KiB pages alternately and one exits: half the
/// machine is free, no two free frames adjacent.
fn checkerboard(sys: &mut System) -> Pid {
    let (a, b) = (sys.spawn(), sys.spawn());
    let mut policy = BasePagesPolicy;
    for (pid, base) in [(a, 0x40_1000u64), (b, 0x100_1000u64)] {
        sys.aspace_mut(pid).map_vma(VirtRange::new(VirtAddr::new(base), 0x20_0000), VmaKind::Anon);
    }
    for i in 0..512u64 {
        sys.touch(&mut policy, a, VirtAddr::new(0x40_1000 + i * 4096)).unwrap();
        sys.touch(&mut policy, b, VirtAddr::new(0x100_1000 + i * 4096)).unwrap();
    }
    sys.exit(b);
    a
}

/// `DaemonConfig::aggressiveness` 1, 2 and 3 are distinguishable by effect:
/// on one fragmented system, background compaction stops once a free block
/// of order 4, 7 and 9 exists — three different amounts of migration and
/// three different largest free blocks.
#[test]
fn aggressiveness_levels_differ_in_effect() {
    let outcome = |aggressiveness: u8| {
        let mut sys = system_4mib();
        checkerboard(&mut sys);
        assert!(!sys.machine().has_free_block(1), "not a checkerboard");
        sys.enable_daemon(DaemonConfig { aggressiveness, ..DaemonConfig::default() });
        for _ in 0..400 {
            sys.daemon_tick();
        }
        // Stopping is the target order's doing, not the budget's: once the
        // block exists, more ticks move nothing more.
        let moves = sys.daemon_stats().compact_moves;
        for _ in 0..100 {
            sys.daemon_tick();
        }
        assert_eq!(sys.daemon_stats().compact_moves, moves);
        assert_sound(&sys);
        let largest = (0..=9).rev().find(|&o| sys.machine().has_free_block(o)).unwrap();
        (largest, moves)
    };
    let (gentle, normal, eager) = (outcome(1), outcome(2), outcome(3));
    assert!((4..7).contains(&gentle.0), "level 1 stops at order 4: {gentle:?}");
    assert!((7..9).contains(&normal.0), "level 2 stops at order 7: {normal:?}");
    assert_eq!(eager.0, 9, "level 3 assembles a huge block: {eager:?}");
    assert!(gentle.1 < normal.1 && normal.1 < eager.1, "{gentle:?} {normal:?} {eager:?}");
}
