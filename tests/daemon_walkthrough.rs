//! Pins the README's "Keeping memory defragmented" walkthrough: the code
//! shown there must keep compiling and its claims must keep holding — the
//! maintenance daemon collapses a churn-shattered VMA to a huge mapping
//! without the process observing anything, and mid-epoch daemon state
//! rides the snapshot to a bit-identical continuation.

use contig::prelude::*;

#[test]
fn keeping_memory_defragmented() {
    // Fault-path THP off: the daemon's async promotion is the only
    // collapser, exactly Ingens' split of 4 KiB fault service plus
    // background collapse.
    let base = SystemConfig::new(MachineConfig::single_node_mib(16));
    let mut sys = System::new(SystemConfig { thp: false, ..base });
    let mut policy = BasePagesPolicy;

    // A long-lived process interleaved with a transient neighbor: when
    // the neighbor exits, the survivor's frames are riddled with holes.
    let app = sys.spawn();
    sys.aspace_mut(app)
        .map_vma(VirtRange::new(VirtAddr::new(0x4000_0000), 2 << 20), VmaKind::Anon);
    let churn = sys.spawn();
    sys.aspace_mut(churn)
        .map_vma(VirtRange::new(VirtAddr::new(0x4000_0000), 2 << 20), VmaKind::Anon);
    for i in 0..512 {
        let va = VirtAddr::new(0x4000_0000 + i * 4096);
        sys.touch(&mut policy, app, va).unwrap();
        sys.touch(&mut policy, churn, va).unwrap();
    }
    sys.exit(churn);

    // Arm the daemon and tick it at op boundaries — never a thread: each
    // tick is a pure function of system state, so replays and
    // 1-vs-N-worker runs stay bit-identical.
    sys.enable_daemon(DaemonConfig::default());
    let mut ticks = 0;
    while sys.daemon_stats().promoted == 0 {
        sys.daemon_tick();
        ticks += 1;
        assert!(ticks < 256, "daemon never promoted the shattered VMA");
    }

    // The fully populated, 2 MiB-aligned VMA collapsed to a huge mapping
    // without the process seeing anything: same VAs, same permissions.
    assert_eq!(sys.aspace(app).mapped_bytes(), 2 << 20);
    assert!(sys.audit().is_clean());

    // Crash-consistent: mid-epoch cursors, budget and the backoff RNG
    // ride the snapshot and continue bit-identically.
    let snap = sys.snapshot();
    let mut twin = System::restore(&snap);
    assert_eq!(sys.daemon_tick(), twin.daemon_tick());
    assert_eq!(digest_system(&sys.snapshot()), digest_system(&twin.snapshot()));

    // Beyond the README text: the narration is also true. Promotion really
    // produced a 2 MiB mapping, the ledger saw real work, and the whole
    // frame population still conserves.
    let huge = sys
        .aspace(app)
        .page_table()
        .iter_mappings()
        .filter(|m| m.size.base_pages() == 512)
        .count();
    assert!(huge >= 1, "no 2 MiB mapping after promotion");
    let stats = sys.daemon_stats();
    assert!(stats.ticks > 0 && stats.promoted >= 1);
    sys.machine().verify_integrity();
}

/// One VM of long-horizon churn: a base-pages VM (fault-path THP off in both
/// dimensions, so the host maintenance daemon is the only collapser) whose
/// backing faults interleave with transient host-side processes; each exit
/// leaves the backing riddled with scattered holes. The daemon-off arm runs
/// the identical op stream — its ticks are strict no-ops. Returns the final
/// host-backing profile and the daemon ledger.
fn churn_vm(seed: u64, daemon: Option<DaemonConfig>) -> (ContigProfile, DaemonStats) {
    /// Guest pages the VM touches (4 MiB: two aligned 2 MiB promotion
    /// windows in the host backing).
    const GUEST_PAGES: u64 = 1024;
    /// Pages per transient host-side churn process (2 MiB).
    const PROC_PAGES: u64 = 512;

    let mut rng = seed;
    let mut config = VmConfig::with_mib(8, 32);
    config.guest = SystemConfig { thp: false, ..config.guest };
    config.host = SystemConfig { thp: false, ..config.host };
    let mut vm =
        VirtualMachine::new(config, Box::new(BasePagesPolicy), Box::new(BasePagesPolicy));
    // Host dimension only: the guest keeps its frames still, so the profile
    // isolates what the hypervisor's kcompactd/khugepaged does to the backing.
    if let Some(daemon) = daemon {
        vm.host_mut().enable_daemon(daemon);
    }
    let pid = vm.guest_mut().spawn();
    vm.guest_mut()
        .aspace_mut(pid)
        .map_vma(VirtRange::new(VirtAddr::new(0x4000_0000), GUEST_PAGES << 12), VmaKind::Anon);
    let mut cursor = 0u64;
    let mut churn = BasePagesPolicy;
    for _ in 0..4 {
        let churn_pid = vm.host_mut().spawn();
        vm.host_mut()
            .aspace_mut(churn_pid)
            .map_vma(VirtRange::new(VirtAddr::new(0x4000_0000), PROC_PAGES << 12), VmaKind::Anon);
        for i in 0..PROC_PAGES {
            vm.host_mut()
                .touch(&mut churn, churn_pid, VirtAddr::new(0x4000_0000 + i * 4096))
                .unwrap();
            // The sequential sweep guarantees full promotion windows exist;
            // the seeded extra write keeps the interleaving irregular.
            let page = cursor % GUEST_PAGES;
            cursor += 1;
            vm.touch_write(pid, VirtAddr::new(0x4000_0000 + page * 4096)).unwrap();
            let extra = contig::types::splitmix64(&mut rng) % GUEST_PAGES;
            vm.touch_write(pid, VirtAddr::new(0x4000_0000 + extra * 4096)).unwrap();
            if i % 128 == 64 {
                vm.host_mut().daemon_tick();
            }
        }
        vm.host_mut().exit(churn_pid);
    }
    // Convergence tail: the long horizon where background maintenance gets
    // to repair what the churn shattered.
    for _ in 0..48 {
        vm.host_mut().daemon_tick();
    }
    (contig_profile(&vm), *vm.host().daemon_stats())
}

/// The daemon's payoff: after identical churn, the armed VM's backing ends
/// in longer contiguity runs than the daemon-off VM's, and the ledger shows
/// the daemon did the work.
#[test]
fn daemon_recovers_contiguity_after_identical_churn() {
    let mean_run_milli = |p: &ContigProfile| p.backed_pages * 1000 / p.runs.max(1);
    let (off, off_stats) = churn_vm(0x5EED_CAFE, None);
    let (armed, stats) = churn_vm(0x5EED_CAFE, Some(DaemonConfig::default()));
    assert_eq!(off.backed_pages, armed.backed_pages, "the arms ran different op streams");
    assert_eq!(off_stats.compact_moves + off_stats.promoted, 0, "the off arm's ticks are no-ops");
    assert!(
        stats.compact_moves + stats.promoted > 0,
        "the armed daemon never compacted or promoted: {stats:?}"
    );
    assert!(
        mean_run_milli(&armed) > mean_run_milli(&off),
        "daemon-off mean run {} milli-pages, armed {}",
        mean_run_milli(&off),
        mean_run_milli(&armed)
    );
}
