//! Differential equivalence: a multi-zone (NUMA-sharded) machine must be
//! observationally identical to a flat single-zone machine of the same
//! total size. Zone topology changes *where* frames come from, never what
//! a process can see: the same interleaving of faults, COW writes, frees
//! and poison strikes must produce the same per-VA oracle contents, the same op-level outcomes, a clean audit, and
//! exact frame conservation (free + mapped + pcp + badframes == total) on
//! both machines.
//!
//! A third property pins the codec side of the topology work: snapshotting
//! a mid-stream multi-zone system and restoring it must be exact, and the
//! restored system must continue bit-identically with the original.

use std::collections::BTreeSet;

use contig::mm::FaultOutcome;
use contig::prelude::*;
use contig::types::FaultError;
use contig_types::splitmix64;
use proptest::prelude::*;

/// Total memory, chosen divisible by every zone count we sweep (2, 3, 4)
/// so the sharded machine always has exactly the flat machine's capacity.
const TOTAL_MIB: u64 = 12;
/// Concurrent processes driving the interleaving.
const PROCS: usize = 3;
/// Pages per process VMA (2 MiB of 4 KiB pages).
const VMA_PAGES: u64 = 512;

fn vma_base(slot: usize) -> u64 {
    0x40_0000 + (slot as u64) * 0x80_0000
}

/// THP off: every touch is exactly one 4 KiB allocation, so op outcomes
/// and frame accounting line up page-for-page across topologies.
fn flat_system() -> System {
    let cfg = SystemConfig::new(MachineConfig::single_node_mib(TOTAL_MIB));
    System::new(SystemConfig { thp: false, ..cfg })
}

fn zoned_system(zones: usize) -> System {
    let nodes = vec![TOTAL_MIB / zones as u64; zones];
    let cfg = SystemConfig::new(MachineConfig::with_node_mib(&nodes));
    System::new(SystemConfig { thp: false, ..cfg })
}

/// Spawns a process in `slot`, maps its VMA, and (on a multi-zone machine)
/// homes it round-robin across zones — mirroring how the fleet and the
/// torture harness place tenants.
fn spawn_slot(sys: &mut System, slot: usize) -> Pid {
    let pid = sys.spawn();
    sys.aspace_mut(pid).map_vma(
        VirtRange::new(VirtAddr::new(vma_base(slot)), VMA_PAGES << 12),
        VmaKind::Anon,
    );
    let zones = sys.machine().nodes();
    if zones > 1 {
        sys.set_home_node(pid, Some(slot % zones));
    }
    pid
}

/// The observable facts about one fault, with physical placement erased.
fn fault_obs(res: Result<FaultOutcome, FaultError>) -> Result<(bool, u64), String> {
    match res {
        Ok(o) => Ok((o.already_mapped, o.size.base_pages())),
        Err(e) => Err(format!("{e:?}")),
    }
}

/// Poison outcome with frame numbers erased: the action's discriminant
/// (a `Healed` replacement pfn differs across topologies) plus the number
/// of mappings torn down.
fn poison_obs(out: &MemoryFailureOutcome) -> (&'static str, usize) {
    let action = match out.action {
        FailureAction::AlreadyPoisoned => "already",
        FailureAction::Quarantined => "quarantined",
        FailureAction::CacheDropped => "cache",
        FailureAction::Healed { .. } => "healed",
        FailureAction::Killed => "killed",
        FailureAction::Deferred => "deferred",
        FailureAction::NoSuchFrame => "no_such_frame",
    };
    (action, out.victims.len())
}

/// Frame conservation: every frame is free, pcp-cached, quarantined, or
/// backing exactly one mapping (the op streams here never share frames).
fn assert_conserved(sys: &System, label: &str) {
    let mapped: u64 = sys
        .pids()
        .iter()
        .map(|&pid| {
            sys.aspace(pid)
                .page_table()
                .iter_mappings()
                .map(|m| m.size.base_pages())
                .sum::<u64>()
        })
        .sum();
    let m = sys.machine();
    // `free_frames` counts pcp-resident frames too (they are free, just
    // parked off the buddy lists); split them out so all four tiers of the
    // conservation law are visible.
    let buddy_free = m.free_frames() - m.pcp_frames();
    assert_eq!(
        buddy_free + m.pcp_frames() + m.poisoned_frames() + mapped,
        m.total_frames(),
        "{label}: free {buddy_free} + pcp {} + badframes {} + mapped {mapped} != total {}",
        m.pcp_frames(),
        m.poisoned_frames(),
        m.total_frames()
    );
    m.verify_integrity();
}

/// The per-process oracle: every mapped VA with its page size and
/// writability. Physical frame numbers are deliberately absent — that is
/// the degree of freedom topology is allowed to use.
fn oracle(sys: &System) -> BTreeSet<(u32, u64, u64, bool)> {
    let mut set = BTreeSet::new();
    for pid in sys.pids() {
        for m in sys.aspace(pid).page_table().iter_mappings() {
            set.insert((
                pid.0,
                m.va.raw(),
                m.size.base_pages(),
                m.pte.flags.contains(PteFlags::WRITE),
            ));
        }
    }
    set
}

/// Drives the same seeded interleaving of touches, COW-backed writes,
/// exits/respawns and poison strikes against both systems, checking
/// op-level equivalence as it goes.
fn drive_pair(flat: &mut System, zoned: &mut System, seed: u64, ops: usize, use_pcp: bool) {
    if use_pcp {
        flat.enable_pcp(PcpConfig::default());
        zoned.enable_pcp(PcpConfig::default());
    }
    let mut policy = BasePagesPolicy;
    let mut pids = Vec::new();
    for slot in 0..PROCS {
        let fp = spawn_slot(flat, slot);
        let zp = spawn_slot(zoned, slot);
        assert_eq!(fp, zp, "pid streams must stay in lockstep");
        pids.push(fp);
    }
    let mut state = seed;
    for step in 0..ops {
        let r = splitmix64(&mut state);
        let slot = (r % PROCS as u64) as usize;
        let pid = pids[slot];
        let va = VirtAddr::new(vma_base(slot) + ((r >> 16) % VMA_PAGES) * 4096);
        match (r >> 8) % 100 {
            0..=49 => {
                let f = fault_obs(flat.touch(&mut policy, pid, va));
                let z = fault_obs(zoned.touch(&mut policy, pid, va));
                assert_eq!(f, z, "step {step}: touch diverged at {va:?}");
            }
            50..=79 => {
                let f = fault_obs(flat.touch_write(&mut policy, pid, va));
                let z = fault_obs(zoned.touch_write(&mut policy, pid, va));
                assert_eq!(f, z, "step {step}: touch_write diverged at {va:?}");
            }
            80..=89 => {
                // Strike the frame backing `va` on each machine — each
                // resolves its *own* pfn, the recovery path must agree.
                let ft = flat.aspace(pid).page_table().translate(va);
                let zt = zoned.aspace(pid).page_table().translate(va);
                assert_eq!(
                    ft.is_ok(),
                    zt.is_ok(),
                    "step {step}: mapped-ness diverged before strike at {va:?}"
                );
                if let (Ok(ft), Ok(zt)) = (ft, zt) {
                    let f = flat.memory_failure(ft.pfn);
                    let z = zoned.memory_failure(zt.pfn);
                    assert_eq!(
                        poison_obs(&f),
                        poison_obs(&z),
                        "step {step}: poison recovery diverged at {va:?}"
                    );
                }
            }
            _ => {
                flat.exit(pid);
                zoned.exit(pid);
                let fp = spawn_slot(flat, slot);
                let zp = spawn_slot(zoned, slot);
                assert_eq!(fp, zp, "step {step}: respawn pids diverged");
                pids[slot] = fp;
            }
        }
    }
}

fn assert_equivalent(flat: &System, zoned: &System) {
    assert_eq!(oracle(flat), oracle(zoned), "per-VA oracle contents diverged");
    let fa = flat.audit();
    let za = zoned.audit();
    assert!(fa.is_clean(), "flat machine audit dirty: {fa}");
    assert!(za.is_clean(), "zoned machine audit dirty: {za}");
    assert_conserved(flat, "flat");
    assert_conserved(zoned, "zoned");
    assert_eq!(
        flat.machine().poisoned_frames(),
        zoned.machine().poisoned_frames(),
        "quarantine counts diverged"
    );
    assert_eq!(
        flat.machine().free_frames(),
        zoned.machine().free_frames(),
        "free frame counts diverged"
    );
}

/// Regression (ROADMAP item-1 leftover): CA placement was fallback-blind
/// under multi-zone spill — `place` searched the contiguity maps from zone
/// 0 regardless of the faulting process's home, so a process homed on a
/// later zone had its contiguity run carved out of zone 0 while its
/// base-page allocations landed locally. A homed process whose home zone
/// can hold the whole VMA must get every CA-placed page from that zone.
#[test]
fn ca_placement_prefers_the_home_zone() {
    for home in 0..2usize {
        let mut sys = zoned_system(2);
        let mut policy = CaPaging::new();
        let pid = sys.spawn();
        sys.aspace_mut(pid).map_vma(
            VirtRange::new(VirtAddr::new(vma_base(0)), VMA_PAGES << 12),
            VmaKind::Anon,
        );
        sys.set_home_node(pid, Some(home));
        for i in 0..VMA_PAGES {
            let va = VirtAddr::new(vma_base(0) + i * 4096);
            let out = sys.touch(&mut policy, pid, va).expect("touch");
            let node = sys.machine().node_of(out.pfn).expect("mapped pfn is in a zone");
            assert_eq!(node.0, home, "page {i} of a homed VMA placed off the home zone");
        }
        let report = sys.audit();
        assert!(report.is_clean(), "audit dirty: {report}");
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// The tentpole equivalence: arbitrary fault/free/poison interleavings
    /// on an N-zone machine match a single-zone machine of the same size.
    #[test]
    fn sharded_machine_is_observationally_equivalent_to_flat(
        seed in 0u64..1_000_000,
        zones in 2usize..=4,
    ) {
        let mut flat = flat_system();
        let mut zoned = zoned_system(zones);
        drive_pair(&mut flat, &mut zoned, seed, 140, false);
        assert_equivalent(&flat, &zoned);
        // The zoned run exercised homed placement for real.
        let local = zoned.pids().into_iter().any(|pid| {
            let home = zoned.home_node(pid).map(NodeId);
            let mut frames = zoned.aspace(pid).page_table().iter_mappings().map(|m| m.pte.pfn);
            frames.any(|pfn| home.is_some() && zoned.machine().node_of(pfn) == home)
        });
        prop_assert!(local, "homed processes should allocate locally");
    }

    /// Same equivalence with per-cpu page caches armed on both sides:
    /// conservation must hold with frames parked in the pcp tier too.
    #[test]
    fn sharded_machine_with_pcp_conserves_frames(
        seed in 0u64..1_000_000,
        zones in 2usize..=4,
    ) {
        let mut flat = flat_system();
        let mut zoned = zoned_system(zones);
        drive_pair(&mut flat, &mut zoned, seed, 100, true);
        assert_equivalent(&flat, &zoned);
    }

    /// Cross-zone restore round-trip: a mid-stream multi-zone snapshot
    /// restores exactly (homes, zone layout), and the
    /// restored system continues bit-identically with the original.
    #[test]
    fn cross_zone_snapshot_round_trips(
        seed in 0u64..1_000_000,
        zones in 2usize..=4,
    ) {
        let mut sys = zoned_system(zones);
        let mut policy = BasePagesPolicy;
        let mut pids = Vec::new();
        for slot in 0..PROCS {
            pids.push(spawn_slot(&mut sys, slot));
        }
        let mut state = seed;
        for _ in 0..60 {
            let r = splitmix64(&mut state);
            let slot = (r % PROCS as u64) as usize;
            let va = VirtAddr::new(vma_base(slot) + ((r >> 16) % VMA_PAGES) * 4096);
            if r.is_multiple_of(3) {
                let _ = sys.touch_write(&mut policy, pids[slot], va);
            } else {
                let _ = sys.touch(&mut policy, pids[slot], va);
            }
        }
        let snap = sys.snapshot();
        let mut restored = System::restore(&snap);
        prop_assert_eq!(restored.snapshot(), snap.clone(), "restore must be exact");
        prop_assert_eq!(digest_system(&restored.snapshot()), digest_system(&snap));
        // Divergence-free continuation: the same op suffix lands both
        // systems on the same snapshot, homes and counters included.
        for _ in 0..40 {
            let r = splitmix64(&mut state);
            let slot = (r % PROCS as u64) as usize;
            let va = VirtAddr::new(vma_base(slot) + ((r >> 16) % VMA_PAGES) * 4096);
            let a = fault_obs(sys.touch_write(&mut policy, pids[slot], va));
            let b = fault_obs(restored.touch_write(&mut policy, pids[slot], va));
            prop_assert_eq!(a, b, "restored system diverged from original");
        }
        prop_assert_eq!(
            digest_system(&sys.snapshot()),
            digest_system(&restored.snapshot()),
            "continuations diverged after restore"
        );
    }
}
