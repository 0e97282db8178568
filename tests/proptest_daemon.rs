//! Differential equivalence for the background maintenance daemon: a
//! system with the daemon armed must be observationally identical to one
//! with the daemon off. Compaction, THP promotion, and poison-run repair
//! change *where* frames live and how big the mappings backing them are —
//! never what a process can see: the same interleaving of faults, COW
//! writes, exits, poison strikes, and daemon ticks must produce the same
//! per-VA oracle (translate-ability and write bit at 4 KiB granularity —
//! page size is deliberately erased, promotion is allowed to collapse
//! runs), a clean audit, and exact four-tier frame conservation on both
//! machines.
//!
//! A second property pins crash consistency: snapshotting mid-epoch —
//! live cursors, partial budget, backoff RNG —
//! and restoring must be exact, and the restored system must continue
//! bit-identically with the original under the same op/tick suffix.
//!
//! Every op of the first property also checks the reverse map the movers
//! share (`System::frame_users`) against the three scans it replaced,
//! transcribed below from `daemon.rs` and `poison.rs` as they were.

use std::collections::{BTreeMap, HashMap};

use contig::mm::{FaultOutcome, FileId, FrameRef, PteRef};
use contig::prelude::*;
use contig::types::FaultError;
use contig_types::splitmix64;
use proptest::prelude::*;

const TOTAL_MIB: u64 = 16;
/// Concurrent processes driving the interleaving.
const PROCS: usize = 3;
/// Pages per process VMA (2 MiB of 4 KiB pages), 2 MiB-aligned so the
/// daemon's promotion scan sees whole aligned windows.
const VMA_PAGES: u64 = 512;

fn vma_base(slot: usize) -> u64 {
    0x4000_0000 + (slot as u64) * 0x80_0000
}

/// Fault-path THP off on both machines: the daemon's asynchronous
/// promotion is the only huge-page collapser in play (the Ingens-style
/// split it exists to serve), so any observable divergence is the
/// daemon's fault alone.
fn base_system() -> System {
    let cfg = SystemConfig::new(MachineConfig::single_node_mib(TOTAL_MIB));
    System::new(SystemConfig { thp: false, ..cfg })
}

fn spawn_slot(sys: &mut System, slot: usize) -> Pid {
    let pid = sys.spawn();
    sys.aspace_mut(pid).map_vma(
        VirtRange::new(VirtAddr::new(vma_base(slot)), VMA_PAGES << 12),
        VmaKind::Anon,
    );
    pid
}

/// The observable facts about one fault, with physical placement erased.
fn fault_obs(res: Result<FaultOutcome, FaultError>) -> Result<(bool, u64), String> {
    match res {
        Ok(o) => Ok((o.already_mapped, o.size.base_pages())),
        Err(e) => Err(format!("{e:?}")),
    }
}

/// Per-process oracle at 4 KiB granularity: every mapped page VA with its
/// write bit. Frame numbers *and page sizes* are deliberately erased —
/// those are exactly the degrees of freedom compaction and promotion are
/// allowed to use.
fn oracle(sys: &System) -> BTreeMap<(u32, u64), bool> {
    let mut map = BTreeMap::new();
    for pid in sys.pids() {
        for m in sys.aspace(pid).page_table().iter_mappings() {
            let write = m.pte.flags.contains(PteFlags::WRITE);
            for i in 0..m.size.base_pages() {
                map.insert((pid.0, m.va.raw() + i * 4096), write);
            }
        }
    }
    map
}

/// Frame conservation: every frame is buddy-free, pcp-cached, quarantined,
/// or backing a mapping (huge mappings count 512). The streams here never
/// fork, so mapped references equal backing frames and the four tiers must
/// sum exactly — daemon moves, promotions, and repairs all conserve.
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

/// `daemon.rs`'s `RevMaps`, as `build_rev_maps` filled it once per tick.
#[derive(Default)]
struct RevMaps {
    ptes: HashMap<Pfn, Vec<PteRef>>,
    cache: HashMap<Pfn, (FileId, u64)>,
}

fn build_rev_maps(sys: &System) -> RevMaps {
    let mut maps = RevMaps::default();
    for pid in sys.pids() {
        for m in sys.aspace(pid).page_table().iter_mappings() {
            maps.ptes.entry(m.pte.pfn).or_default().push((pid, m.va, m.size, m.pte.flags));
        }
    }
    for f in 0..sys.page_cache().file_count() {
        let file = FileId(f);
        for (idx, pfn) in sys.page_cache().pages_of(file) {
            maps.cache.insert(pfn, (file, idx));
        }
    }
    maps
}

/// `poison.rs`'s scan for the cache slot holding `pfn`.
fn cache_slot_of(sys: &System, pfn: Pfn) -> Option<(FileId, u64)> {
    for f in 0..sys.page_cache().file_count() {
        let file = FileId(f);
        for (index, frame) in sys.page_cache().pages_of(file) {
            if frame == pfn {
                return Some((file, index));
            }
        }
    }
    None
}

/// `poison.rs`'s scan for every mapping whose frame block covers `pfn`.
fn mappings_covering(sys: &System, pfn: Pfn) -> Vec<FrameRef> {
    let mut refs = Vec::new();
    for pid in sys.pids() {
        for m in sys.aspace(pid).page_table().iter_mappings() {
            let start = m.pte.pfn.raw();
            if (start..start + m.size.base_pages()).contains(&pfn.raw()) {
                refs.push((pid, m.va, m.size, m.pte.flags, m.pte.pfn));
            }
        }
    }
    refs
}

/// The reverse map agrees with its ancestors: with the daemon's maps over
/// every frame of the machine, and with the two poison scans on frames
/// `draw` picks (they cost a walk of every page table each).
fn assert_frame_users_match_ancestors(sys: &System, mut draw: u64) {
    let users = sys.frame_users();
    let old = build_rev_maps(sys);
    let frames = || (0..sys.machine().total_frames()).map(Pfn::new);
    let mut ptes: Vec<_> = old.ptes.into_iter().collect();
    ptes.sort_unstable_by_key(|&(head, _)| head);
    let heads = frames().filter(|&pfn| !users.mappings_of(pfn).is_empty());
    assert_eq!(heads.map(|pfn| (pfn, users.mappings_of(pfn).to_vec())).collect::<Vec<_>>(), ptes);
    let mut slots: Vec<_> = old.cache.into_iter().collect();
    slots.sort_unstable_by_key(|&(pfn, _)| pfn);
    let cached = frames().filter_map(|pfn| Some((pfn, users.cache_slot(pfn)?)));
    assert_eq!(cached.collect::<Vec<_>>(), slots);
    for _ in 0..4 {
        let pfn = Pfn::new(splitmix64(&mut draw) % sys.machine().total_frames());
        assert_eq!(users.covering(pfn), mappings_covering(sys, pfn), "covering {pfn}");
        assert_eq!(users.cache_slot(pfn), cache_slot_of(sys, pfn), "slot of {pfn}");
    }
}

/// Drives the same seeded interleaving against both systems. Daemon ticks
/// run on both — a strict no-op on the disarmed side, maintenance work on
/// the armed one — so the streams stay structurally identical.
fn drive_pair(plain: &mut System, armed: &mut System, seed: u64, ops: usize) {
    let mut policy = BasePagesPolicy;
    let mut pids = Vec::new();
    for slot in 0..PROCS {
        let p = spawn_slot(plain, slot);
        let a = spawn_slot(armed, slot);
        assert_eq!(p, a, "pid streams must stay in lockstep");
        pids.push(p);
    }
    let mut state = seed;
    for step in 0..ops {
        let r = splitmix64(&mut state);
        let slot = (r % PROCS as u64) as usize;
        let pid = pids[slot];
        let va = VirtAddr::new(vma_base(slot) + ((r >> 16) % VMA_PAGES) * 4096);
        match (r >> 8) % 100 {
            0..=39 => {
                let p = fault_obs(plain.touch(&mut policy, pid, va));
                let a = fault_obs(armed.touch(&mut policy, pid, va));
                assert_eq!(p, a, "step {step}: touch diverged at {va:?}");
            }
            40..=64 => {
                let p = fault_obs(plain.touch_write(&mut policy, pid, va));
                let a = fault_obs(armed.touch_write(&mut policy, pid, va));
                assert_eq!(p, a, "step {step}: touch_write diverged at {va:?}");
            }
            65..=79 => {
                // The daemon tick itself, racing the surrounding faults.
                plain.daemon_tick();
                armed.daemon_tick();
            }
            80..=87 => {
                // Strike the frame backing `va` on each machine — each side
                // resolves its *own* pfn (the daemon may have moved the
                // armed side's copy), and recovery must keep the page
                // serving faults on both.
                let pt = plain.aspace(pid).page_table().translate(va);
                let at = armed.aspace(pid).page_table().translate(va);
                assert_eq!(
                    pt.is_ok(),
                    at.is_ok(),
                    "step {step}: mapped-ness diverged before strike at {va:?}"
                );
                if let (Ok(pt), Ok(at)) = (pt, at) {
                    plain.memory_failure(pt.pfn);
                    armed.memory_failure(at.pfn);
                }
            }
            _ => {
                plain.exit(pid);
                armed.exit(pid);
                let p = spawn_slot(plain, slot);
                let a = spawn_slot(armed, slot);
                assert_eq!(p, a, "step {step}: respawn pids diverged");
                pids[slot] = p;
            }
        }
        assert_frame_users_match_ancestors(armed, r);
    }
}

fn assert_equivalent(plain: &System, armed: &System) {
    assert_eq!(oracle(plain), oracle(armed), "per-VA oracle contents diverged");
    let pa = plain.audit();
    let aa = armed.audit();
    assert!(pa.is_clean(), "daemon-off audit dirty: {pa}");
    assert!(aa.is_clean(), "daemon-armed audit dirty: {aa}");
    assert_conserved(plain, "daemon-off");
    assert_conserved(armed, "daemon-armed");
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// The tentpole equivalence: arbitrary fault/exit/poison/tick
    /// interleavings with the daemon armed match the daemon-off run at
    /// every guest-visible observation point.
    #[test]
    fn daemon_armed_system_is_observationally_equivalent_to_daemon_off(
        seed in 0u64..1_000_000,
        aggressiveness in 1u8..=3,
    ) {
        let mut plain = base_system();
        let mut armed = base_system();
        armed.enable_daemon(DaemonConfig {
            aggressiveness,
            // Small budget so scans span epochs and the cursor-preserving
            // refill path runs under the interleaving, not just in units.
            epoch_budget: 48,
            ..DaemonConfig::default()
        });
        drive_pair(&mut plain, &mut armed, seed, 160);
        assert_equivalent(&plain, &armed);
        prop_assert!(
            armed.daemon_stats().ticks > 0,
            "the interleaving never ticked the armed daemon"
        );
    }

    /// Crash consistency: a snapshot taken mid-epoch restores exactly and
    /// the restored system continues bit-identically with the original
    /// under the same fault/tick suffix.
    #[test]
    fn mid_epoch_snapshot_restores_and_continues_bit_identically(
        seed in 0u64..1_000_000,
        prefix_ticks in 1usize..6,
    ) {
        let mut sys = base_system();
        sys.enable_daemon(DaemonConfig {
            epoch_budget: 48,
            ..DaemonConfig::default()
        });
        let mut policy = BasePagesPolicy;
        let mut pids = Vec::new();
        for slot in 0..PROCS {
            pids.push(spawn_slot(&mut sys, slot));
        }
        let mut state = seed;
        for _ in 0..120 {
            let r = splitmix64(&mut state);
            let slot = (r % PROCS as u64) as usize;
            let va = VirtAddr::new(vma_base(slot) + ((r >> 16) % VMA_PAGES) * 4096);
            if r.is_multiple_of(3) {
                let _ = sys.touch_write(&mut policy, pids[slot], va);
            } else {
                let _ = sys.touch(&mut policy, pids[slot], va);
            }
        }
        for _ in 0..prefix_ticks {
            sys.daemon_tick();
        }
        let snap = sys.snapshot();
        prop_assert!(snap.daemon.enabled, "fixture daemon must be armed in the snapshot");
        let mut restored = System::restore(&snap);
        prop_assert_eq!(restored.snapshot(), snap.clone(), "restore must be exact");
        prop_assert_eq!(digest_system(&restored.snapshot()), digest_system(&snap));
        // Bit-identical continuation: same ops, same ticks, same state —
        // cursors, budget and backoff RNG all resumed exactly.
        for _ in 0..60 {
            let r = splitmix64(&mut state);
            let slot = (r % PROCS as u64) as usize;
            let va = VirtAddr::new(vma_base(slot) + ((r >> 16) % VMA_PAGES) * 4096);
            if r.is_multiple_of(5) {
                prop_assert_eq!(sys.daemon_tick(), restored.daemon_tick());
            } else {
                let a = fault_obs(sys.touch_write(&mut policy, pids[slot], va));
                let b = fault_obs(restored.touch_write(&mut policy, pids[slot], va));
                prop_assert_eq!(a, b, "restored system diverged from original");
            }
        }
        prop_assert_eq!(sys.daemon_state(), restored.daemon_state());
        prop_assert_eq!(
            digest_system(&sys.snapshot()),
            digest_system(&restored.snapshot()),
            "continuations diverged after restore"
        );
    }
}
