//! Property tests of fault-tolerant live migration: for arbitrary seeded
//! source workloads, arbitrary interruption points, and concurrent guest
//! writes, a disconnected migration either *resumes* to the exact digest an
//! uninterrupted run produces, or *aborts* to a clean rollback — the source
//! keeps serving faults and the destination host ends fully free.

use proptest::prelude::*;

use contig::check::json::{self, Wire};
use contig::prelude::*;
use contig::virt::VmSnapshot;
use contig_types::splitmix64;

const VMA_BASE: u64 = 0x4000_0000;

/// The source's and the destination's machines. With `host_thp` off the
/// destination backs each transferred guest frame with its own 4 KiB host
/// leaf, so a frame the engine fails to send leaves a hole in the digest;
/// with 2 MiB host leaves a neighbour's leaf usually covers it.
fn config(host_thp: bool) -> VmConfig {
    let mut config = VmConfig::with_mib(8, 24);
    config.host.thp = host_thp;
    config
}

/// Boots a seeded source VM: one process, one anonymous VMA of 1–4 MiB, a
/// seeded burst of dirtying writes.
fn source_vm(seed: u64, host_thp: bool) -> (VirtualMachine, Pid, u64) {
    let mut rng = seed;
    let mut vm = VirtualMachine::new(
        config(host_thp),
        Box::new(DefaultThpPolicy),
        Box::new(DefaultThpPolicy),
    );
    let pid = vm.guest_mut().spawn();
    let vma_bytes = (1u64 << 20) + (splitmix64(&mut rng) % 4) * (1 << 20);
    vm.guest_mut()
        .aspace_mut(pid)
        .map_vma(VirtRange::new(VirtAddr::new(VMA_BASE), vma_bytes), VmaKind::Anon);
    let touches = 8 + splitmix64(&mut rng) % 48;
    for _ in 0..touches {
        let page = splitmix64(&mut rng) % (vma_bytes / 4096);
        vm.touch_write(pid, VirtAddr::new(VMA_BASE + page * 4096)).expect("touch");
    }
    (vm, pid, vma_bytes)
}

/// The still-running guest: a seeded write burst pinned to round boundaries
/// (the model's deterministic form of concurrent guest writes).
fn writer(seed: u64, pid: Pid, vma_bytes: u64) -> impl FnMut(&mut VirtualMachine, u32) {
    move |vm, round| {
        let mut rng = seed ^ (u64::from(round) + 1).wrapping_mul(0x9E37_79B9_7F4A_7C15);
        for _ in 0..4 {
            let page = splitmix64(&mut rng) % (vma_bytes / 4096);
            let _ = vm.touch_write(pid, VirtAddr::new(VMA_BASE + page * 4096));
        }
    }
}

fn fresh_target(host_thp: bool) -> MigrationTarget {
    MigrationTarget::new(config(host_thp), Box::new(DefaultThpPolicy), Box::new(DefaultThpPolicy))
}

fn replica(snap: &VmSnapshot) -> VirtualMachine {
    VirtualMachine::restore(snap, Box::new(DefaultThpPolicy), Box::new(DefaultThpPolicy))
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// Kill the wire on an arbitrary frame, resume on a fresh transport:
    /// the destination digest equals the uninterrupted run's, bit for bit,
    /// on 2 MiB and on 4 KiB host leaves.
    #[test]
    fn interrupted_migration_resumes_bit_identically(
        seed in 0u64..1_000_000,
        kill_at in 1u64..48,
        host_thp in any::<bool>(),
    ) {
        let (mut src, pid, vma_bytes) = source_vm(seed, host_thp);
        let start = src.snapshot();

        // Uninterrupted baseline on an identical source replica.
        let mut base_src = replica(&start);
        let mut base_target = fresh_target(host_thp);
        let mut base_session = MigrationSession::new(Tracer::disabled());
        let mut base_wire = LoopbackTransport::reliable();
        let base = base_session.run(
            &mut base_src,
            &mut base_target,
            &mut base_wire,
            &SnapshotGuestCodec,
            writer(seed, pid, vma_bytes),
        );
        prop_assert!(base.is_ok(), "reliable baseline failed: {:?}", base.err());
        let baseline = digest_vm(&base_target.into_vm().snapshot());

        // Real run: the kill_at-th frame disconnects the channel.
        let mut session = MigrationSession::new(Tracer::disabled());
        let mut target = fresh_target(host_thp);
        let mut wire = LoopbackTransport::new(TransportPolicy::new(TransportMode::FaultNth {
            n: kill_at,
            kind: TransportFault::Disconnect,
        }));
        let mut work = writer(seed, pid, vma_bytes);
        let first = session.run(&mut src, &mut target, &mut wire, &SnapshotGuestCodec, &mut work);
        if let Err(e) = first {
            // Short streams may finish before frame `kill_at`; when the
            // fault does land it must be resumable, and the checkpointed
            // resume must converge.
            prop_assert!(e.is_resumable(), "disconnect must be resumable, got {e}");
            let mut wire2 = LoopbackTransport::reliable();
            let resumed =
                session.run(&mut src, &mut target, &mut wire2, &SnapshotGuestCodec, &mut work);
            prop_assert!(resumed.is_ok(), "resume failed: {:?}", resumed.err());
            prop_assert_eq!(session.stats().resumes, 1);
        }
        prop_assert_eq!(digest_vm(&target.into_vm().snapshot()), baseline);
        // The counters are a wire block like the snapshots' own.
        let stats = *session.stats();
        prop_assert_eq!(json::decode::<MigrationStats>(&json::line(|e| stats.enc(e)), "stats"), Ok(stats));
    }

    /// Kill the wire on an arbitrary frame, then abort instead of resuming:
    /// the source keeps serving faults audit-clean and the destination host
    /// releases every frame it had applied.
    #[test]
    fn interrupted_migration_aborts_to_clean_rollback(
        seed in 0u64..1_000_000,
        kill_at in 1u64..32,
    ) {
        let (mut src, pid, vma_bytes) = source_vm(seed, true);
        let mut session = MigrationSession::new(Tracer::disabled());
        let mut target = fresh_target(true);
        let mut wire = LoopbackTransport::new(TransportPolicy::new(TransportMode::FaultNth {
            n: kill_at,
            kind: TransportFault::Disconnect,
        }));
        let first = session.run(
            &mut src,
            &mut target,
            &mut wire,
            &SnapshotGuestCodec,
            writer(seed, pid, vma_bytes),
        );
        match first {
            Err(e) => {
                prop_assert!(e.is_resumable(), "disconnect must be resumable, got {e}");
                session.abort(&mut src);
                prop_assert_eq!(session.stats().aborts, 1);
                let release = target.release();
                prop_assert!(
                    release.fully_free,
                    "rollback leaked destination frames (freed {})",
                    release.freed_frames
                );
                // The rolled-back source is audit-clean and still live.
                let audit = audit_vm(&src);
                prop_assert!(audit.is_clean(), "{}", audit);
                let mut rng = seed ^ 0xABCD;
                let page = splitmix64(&mut rng) % (vma_bytes / 4096);
                prop_assert!(
                    src.touch_write(pid, VirtAddr::new(VMA_BASE + page * 4096)).is_ok(),
                    "source must keep serving faults after rollback"
                );
            }
            Ok(_) => {
                // The stream finished before frame `kill_at`: nothing to
                // roll back, the destination simply cut over.
                prop_assert!(target.is_cut_over());
            }
        }
    }
}
