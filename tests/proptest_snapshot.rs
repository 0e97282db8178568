//! Property tests of the crash-consistency layer: for arbitrary seeded
//! workloads, a snapshot survives the JSONL codec exactly, restores to a
//! digest-identical system, and the restored system continues bit-identically.

use proptest::prelude::*;

use contig::check::json::{self, Wire};
use contig::check::{decode_vm_file, digest_system, digest_vm, encode_vm_file};
use contig::mm::SystemSnapshot;
use contig::virt::VmSnapshot;
use contig::prelude::*;
use contig_types::splitmix64;

/// Drives a VM through a deterministic workload derived from `seed`:
/// a few processes, anonymous and file VMAs, demand faults, COW forks.
fn seeded_vm(seed: u64, steps: usize) -> VirtualMachine {
    let mut vm = VirtualMachine::new(
        VmConfig::with_mib(16, 64),
        Box::new(DefaultThpPolicy),
        Box::new(DefaultThpPolicy),
    );
    let mut rng = seed;
    let mut vmas: Vec<(Pid, VirtAddr, u64)> = Vec::new();
    let mut pids: Vec<Pid> = Vec::new();
    let mut cursor = 0x4000_0000u64;
    for _ in 0..steps {
        match splitmix64(&mut rng) % 10 {
            0 | 1 => {
                // Map a fresh VMA (new process every few maps).
                let pid = if pids.is_empty() || splitmix64(&mut rng).is_multiple_of(3) {
                    let p = vm.guest_mut().spawn();
                    pids.push(p);
                    p
                } else {
                    pids[(splitmix64(&mut rng) as usize) % pids.len()]
                };
                let pages = 1 + splitmix64(&mut rng) % 64;
                let file_backed = splitmix64(&mut rng).is_multiple_of(4);
                let kind = if file_backed {
                    let f = vm.guest_mut().page_cache_mut().create_file();
                    VmaKind::File { file: f, start_page: 0 }
                } else {
                    VmaKind::Anon
                };
                let start = VirtAddr::new(cursor);
                vm.guest_mut()
                    .aspace_mut(pid)
                    .map_vma(VirtRange::new(start, pages * 4096), kind);
                cursor += 4 << 20;
                vmas.push((pid, start, pages));
            }
            2..=7 => {
                // Touch a page of a live VMA, alternating read and write.
                if let Some(&(pid, start, pages)) =
                    vmas.get((splitmix64(&mut rng) as usize) % vmas.len().max(1))
                {
                    let va = start + (splitmix64(&mut rng) % pages) * 4096;
                    if splitmix64(&mut rng).is_multiple_of(2) {
                        let _ = vm.touch(pid, va);
                    } else {
                        let _ = vm.touch_write(pid, va);
                    }
                }
            }
            _ => {
                // COW-fork an anonymous VMA.
                if let Some(&(pid, start, pages)) = vmas.iter().find(|_| !vmas.is_empty()) {
                    let id = VmaId(start);
                    if matches!(vm.guest().aspace(pid).vma(id).kind(), VmaKind::Anon) {
                        let child = vm.guest_mut().fork_vma(pid, id);
                        pids.push(child);
                        vmas.push((child, start, pages));
                    }
                }
            }
        }
    }
    vm
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// The snapshot digest is invariant through capture → encode → decode →
    /// restore → recapture, for arbitrary seeded workloads.
    #[test]
    fn snapshot_round_trip_preserves_digest(seed in 0u64..1_000_000, steps in 10usize..60) {
        let vm = seeded_vm(seed, steps);
        let snap = vm.snapshot();
        let digest = digest_vm(&snap);

        // Codec round trip is lossless.
        let decoded = decode_vm_file(&encode_vm_file(&snap)).unwrap();
        prop_assert_eq!(&decoded, &snap);
        prop_assert_eq!(digest_vm(&decoded), digest);

        // The line buffer and the running hash are fed the same bytes, and
        // the line decodes back to the snapshot through the value tree.
        let line = json::line(|e| snap.enc(e));
        prop_assert_eq!(fnv1a64(line.as_bytes()), digest);
        let tree = json::parse(&line).unwrap();
        prop_assert_eq!(&json::decode::<VmSnapshot>(&line, "vm").unwrap(), &snap);
        prop_assert_eq!(tree.to_line(), line);

        // Restore reproduces the digest and passes the cross-layer audit.
        let recovered =
            VirtualMachine::restore(&snap, Box::new(DefaultThpPolicy), Box::new(DefaultThpPolicy));
        prop_assert_eq!(digest_vm(&recovered.snapshot()), digest);
        let audit = audit_vm(&recovered);
        prop_assert!(audit.is_clean(), "{}", audit);
    }

    /// Two restores of the same snapshot stay bit-identical while being
    /// driven through further identical work.
    #[test]
    fn restored_systems_continue_identically(seed in 0u64..1_000_000) {
        let vm = seeded_vm(seed, 30);
        let snap = vm.snapshot();
        let restore = || {
            VirtualMachine::restore(&snap, Box::new(DefaultThpPolicy), Box::new(DefaultThpPolicy))
        };
        let (mut a, mut b) = (restore(), restore());
        for pid in a.guest().pids() {
            let ids: Vec<_> = a.guest().aspace(pid).vma_ids().collect();
            for id in ids {
                let start = a.guest().aspace(pid).vma(id).range().start();
                let ra = a.touch_write(pid, start);
                let rb = b.touch_write(pid, start);
                prop_assert_eq!(ra, rb);
            }
        }
        prop_assert_eq!(digest_vm(&a.snapshot()), digest_vm(&b.snapshot()));
    }
}

/// Drives a pcp-enabled system so frames end up parked on per-CPU lists,
/// then returns it mid-flight (caches deliberately not drained).
fn seeded_pcp_system(seed: u64, steps: usize) -> System {
    let mut sys = System::new(SystemConfig::new(MachineConfig::single_node_mib(32)));
    sys.enable_pcp(PcpConfig { cpus: 3, batch: 4, high: 16 });
    let pid = sys.spawn();
    let mut ca = CaPaging::new();
    sys.aspace_mut(pid)
        .map_vma(VirtRange::new(VirtAddr::new(0x4000_0000), 8 << 20), VmaKind::Anon);
    let mut rng = seed;
    let mut held: Vec<Pfn> = Vec::new();
    for i in 0..steps {
        sys.set_cpu(i % 3);
        match splitmix64(&mut rng) % 4 {
            0 | 1 => {
                // Demand fault through CA paging (pcp order-0 path for 4K).
                let page = splitmix64(&mut rng) % (8 << 20) / 4096;
                let _ = sys.touch(&mut ca, pid, VirtAddr::new(0x4000_0000 + page * 4096));
            }
            2 => {
                if let Ok(p) = sys.machine_mut().alloc(0) {
                    held.push(p);
                }
            }
            _ => {
                // Frees park on the current CPU's pcp list.
                if let Some(p) = held.pop() {
                    sys.machine_mut().free(p, 0);
                }
            }
        }
    }
    sys
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// Snapshots taken with frames still parked on per-CPU lists survive the
    /// v2 codec exactly and restore to a system that is digest-identical,
    /// pcp state included — list contents, CPU selection, and counters.
    #[test]
    fn pcp_state_round_trips_through_snapshot(seed in 0u64..1_000_000, steps in 20usize..120) {
        let sys = seeded_pcp_system(seed, steps);
        let snap = sys.snapshot();
        let digest = digest_system(&snap);

        // The codec preserves the snapshot bit-for-bit.
        let line = json::line(|e| snap.enc(e));
        let decoded = json::decode::<SystemSnapshot>(&line, "system").unwrap();
        // The line buffer and the running hash are fed the same bytes.
        prop_assert_eq!(fnv1a64(line.as_bytes()), digest);
        prop_assert_eq!(&decoded, &snap);
        prop_assert_eq!(digest_system(&decoded), digest);

        // Restore preserves pcp residency and counters exactly.
        let mut restored = System::restore(&snap);
        prop_assert_eq!(digest_system(&restored.snapshot()), digest);
        prop_assert_eq!(restored.machine().pcp_frames(), sys.machine().pcp_frames());
        prop_assert_eq!(restored.machine().pcp_counters(), sys.machine().pcp_counters());

        // The restored allocator continues identically: draining both yields
        // the same count, and the next allocations hand out the same frames.
        let mut original = System::restore(&snap);
        prop_assert_eq!(original.drain_pcp(), restored.drain_pcp());
        for order in [0u32, 0, 1, 0] {
            prop_assert_eq!(original.machine_mut().alloc(order), restored.machine_mut().alloc(order));
        }
    }
}
