//! Frame-conservation invariants across complex lifecycles: whatever
//! combination of policies, forks, migrations, evictions, and exits runs,
//! every frame must come home and the buddy structures must stay coherent.

use contig::prelude::*;
use contig_baselines::{IngensPolicy, RangerDaemon};

fn system(mib: u64) -> System {
    System::new(SystemConfig::new(MachineConfig::single_node_mib(mib)))
}

#[test]
fn fork_cow_exit_conserves_frames() {
    let mut sys = system(64);
    let parent = sys.spawn();
    let vma = sys
        .aspace_mut(parent)
        .map_vma(VirtRange::new(VirtAddr::new(0x40_0000), 8 << 20), VmaKind::Anon);
    let mut ca = CaPaging::new();
    sys.populate_vma(&mut ca, parent, vma).unwrap();
    // Chain of forks, partial COW breaks, exits in mixed order.
    let child_a = sys.fork_vma(parent, vma);
    let child_b = sys.fork_vma(parent, vma);
    for i in 0..3u64 {
        sys.touch_write(&mut ca, child_a, VirtAddr::new(0x40_0000 + i * (2 << 20))).unwrap();
    }
    sys.touch_write(&mut ca, child_b, VirtAddr::new(0x40_0000)).unwrap();
    sys.exit(parent);
    sys.exit(child_a);
    sys.exit(child_b);
    assert_eq!(sys.machine().free_frames(), sys.machine().total_frames());
    sys.machine().verify_integrity();
}

#[test]
fn ranger_migrations_conserve_frames() {
    let mut sys = system(128);
    let pid = sys.spawn();
    let vma = sys
        .aspace_mut(pid)
        .map_vma(VirtRange::new(VirtAddr::new(0x40_0000), 16 << 20), VmaKind::Anon);
    // Scatter with interleaved noise allocations.
    let mut thp = DefaultThpPolicy;
    let mut noise = Vec::new();
    for i in 0..8u64 {
        sys.touch(&mut thp, pid, VirtAddr::new(0x40_0000 + i * (2 << 20))).unwrap();
        noise.push(sys.machine_mut().alloc(9).unwrap());
    }
    for n in noise {
        sys.machine_mut().free(n, 9);
    }
    let used_before = sys.machine().total_frames() - sys.machine().free_frames();
    let mut ranger = RangerDaemon::new(1 << 20);
    for _ in 0..64 {
        let migrated = ranger.stats().pages_migrated;
        ranger.epoch(&mut sys, &[pid]);
        if ranger.stats().pages_migrated == migrated {
            break;
        }
    }
    let used_after = sys.machine().total_frames() - sys.machine().free_frames();
    assert_eq!(used_before, used_after, "migration must not leak or free in-use frames");
    let _ = vma;
    sys.exit(pid);
    assert_eq!(sys.machine().free_frames(), sys.machine().total_frames());
    sys.machine().verify_integrity();
}

#[test]
fn ingens_promotion_conserves_frames() {
    let mut sys = system(64);
    let pid = sys.spawn();
    let vma = sys
        .aspace_mut(pid)
        .map_vma(VirtRange::new(VirtAddr::new(0x40_0000), 8 << 20), VmaKind::Anon);
    let mut ingens = IngensPolicy::new();
    sys.populate_vma(&mut ingens, pid, vma).unwrap();
    let used_before = sys.machine().total_frames() - sys.machine().free_frames();
    ingens.promote(&mut sys, pid);
    assert!(sys.aspace(pid).page_table().mapped_huge_pages() > 0);
    let used_after = sys.machine().total_frames() - sys.machine().free_frames();
    assert_eq!(used_before, used_after);
    sys.exit(pid);
    assert_eq!(sys.machine().free_frames(), sys.machine().total_frames());
    sys.machine().verify_integrity();
}

#[test]
fn page_cache_outlives_processes_until_eviction() {
    let mut sys = system(64);
    let file = sys.page_cache_mut().create_file();
    let pid = sys.spawn();
    sys.aspace_mut(pid).map_vma(
        VirtRange::new(VirtAddr::new(0x40_0000), 4 << 20),
        VmaKind::File { file, start_page: 0 },
    );
    let mut ca = CaPaging::new();
    for i in 0..1024u64 {
        sys.touch(&mut ca, pid, VirtAddr::new(0x40_0000 + i * 4096)).unwrap();
    }
    sys.exit(pid);
    let cached = sys.page_cache().cached_pages(file);
    assert_eq!(cached, 1024);
    assert_eq!(sys.machine().free_frames(), sys.machine().total_frames() - cached);
    sys.evict_file(file);
    assert_eq!(sys.machine().free_frames(), sys.machine().total_frames());
    sys.machine().verify_integrity();
}

#[test]
fn hog_under_live_workload_conserves_frames() {
    let mut sys = system(128);
    let hog = Hog::occupy(sys.machine_mut(), 0.3, 17);
    let pid = sys.spawn();
    let vma = sys
        .aspace_mut(pid)
        .map_vma(VirtRange::new(VirtAddr::new(0x40_0000), 32 << 20), VmaKind::Anon);
    let mut ca = CaPaging::new();
    sys.populate_vma(&mut ca, pid, vma).unwrap();
    sys.exit(pid);
    hog.release(sys.machine_mut());
    assert_eq!(sys.machine().free_frames(), sys.machine().total_frames());
    sys.machine().verify_integrity();
}

#[test]
fn vm_teardown_returns_guest_frames() {
    let mut vm = VirtualMachine::new(
        VmConfig::with_mib(64, 96),
        Box::new(CaPaging::new()),
        Box::new(CaPaging::new()),
    );
    for round in 0..3 {
        let pid = vm.guest_mut().spawn();
        let vma = vm.guest_mut().aspace_mut(pid).map_vma(
            VirtRange::new(VirtAddr::new(0x40_0000), 16 << 20),
            VmaKind::Anon,
        );
        vm.populate_vma(pid, vma).unwrap();
        vm.exit_guest_process(pid);
        assert_eq!(
            vm.guest().machine().free_frames(),
            vm.guest().machine().total_frames(),
            "round {round}: guest frames leaked"
        );
        vm.guest().machine().verify_integrity();
        vm.host().machine().verify_integrity();
    }
}
