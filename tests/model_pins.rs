//! The model, pinned as literals in tier-1.
//!
//! `benchmark/ci.sh` compares two runs of one build, so a change that moves
//! every digest deterministically passes it. The literals below were
//! recorded on the commit *before* the digest path stopped building a JSON
//! tree (PR 16) and must never move with a host-speed change: a digest value
//! is the contract, how fast it is computed is not. They go through the same
//! library entry points the benchmark's `torture_mix`, `native_churn` and
//! `nested_boot` workloads call. A PR that *means* to change the model
//! updates the literals and says why.

use contig::check::{generate_ops, run_ops};
use contig::prelude::*;
use contig_types::splitmix64;

/// What one torture run is pinned on.
#[derive(Debug, PartialEq, Eq)]
struct Pin {
    seed: u64,
    final_digest: u64,
    fleet_digest: u64,
    buddy_allocs: u64,
    crash_checks: u64,
    audits: u64,
    sweeps: u64,
    migrations: u64,
    fleet_ops: u64,
}

/// The benchmark's `torture_mix` configuration at smoke-and-full op count.
fn torture(seed: u64) -> Pin {
    let cfg = TortureConfig {
        poison: true,
        migrate: true,
        fleet: true,
        pcp: true,
        daemon: true,
        shards: 2,
        ..TortureConfig::with_seed_and_ops(seed, 128)
    };
    let report = run_ops(&cfg, &generate_ops(&cfg));
    assert!(report.is_ok(), "seed {seed:#x}: {:?}", report.failure);
    Pin {
        seed,
        final_digest: report.final_digest,
        fleet_digest: report.fleet_digest,
        buddy_allocs: report.metrics.counter("buddy.alloc"),
        crash_checks: report.crash_checks,
        audits: report.audits,
        sweeps: report.sweeps,
        migrations: report.migrations,
        fleet_ops: report.fleet_ops,
    }
}

#[test]
fn torture_mix_runs_are_pinned() {
    let expected = [
        Pin {
            seed: 0x5EED_CAFE,
            final_digest: 0xe134dd8ba1912434,
            fleet_digest: 0x3e38d0082fa0dc7b,
            buddy_allocs: 510,
            crash_checks: 1,
            audits: 2,
            sweeps: 5,
            migrations: 1,
            fleet_ops: 3,
        },
        Pin {
            seed: 7,
            final_digest: 0xd63be0ed0a9344d4,
            fleet_digest: 0xfae15ac660b6f5ac,
            buddy_allocs: 389,
            crash_checks: 1,
            audits: 2,
            sweeps: 5,
            migrations: 2,
            fleet_ops: 10,
        },
        Pin {
            seed: 0xC0FFEE,
            final_digest: 0x48dc72b1036ded9f,
            fleet_digest: 0x95523c3416a285ac,
            buddy_allocs: 615,
            crash_checks: 1,
            audits: 2,
            sweeps: 5,
            migrations: 0,
            fleet_ops: 6,
        },
    ];
    let got: Vec<Pin> = expected.iter().map(|want| torture(want.seed)).collect();
    assert_eq!(got, expected);
}

const PAGE: u64 = 4096;

fn va(page: u64) -> VirtAddr {
    VirtAddr::new(0x4000_0000 + page * PAGE)
}

/// One seeded native churn — aged and hogged memory, per-CPU caches, CA
/// paging, 4 KiB faults, readahead, a COW fork, exits — leaves a system
/// whose digest covers free lists, pcp lists, page tables, the page cache
/// and every counter.
#[test]
fn native_churn_digest_is_pinned() {
    let mut rng = 0x5EED_CAFEu64;
    let mut sys = System::new(SystemConfig {
        thp: false,
        cache_mode: contig_mm::CacheAllocMode::CaContiguous,
        ..SystemConfig::new(MachineConfig {
            sorted_top_list: true,
            ..MachineConfig::single_node_mib(64)
        })
    });
    sys.enable_pcp(PcpConfig { cpus: 4, batch: 16, high: 64 });
    let _hog = Hog::occupy(sys.machine_mut(), 0.25, splitmix64(&mut rng));
    let mut ca = CaPaging::new();
    let mut failed = 0u64;
    for round in 0..3u64 {
        let pages = 256 * (2 + splitmix64(&mut rng) % 3);
        let pid = sys.spawn();
        let vma = sys
            .aspace_mut(pid)
            .map_vma(VirtRange::new(va(0), pages * PAGE), VmaKind::Anon);
        for i in 0..pages {
            sys.set_cpu((i / 64) as usize % 4);
            let page = if i < pages / 2 { i } else { splitmix64(&mut rng) % pages };
            failed += u64::from(sys.touch(&mut ca, pid, va(page)).is_err());
        }
        let file = sys.page_cache_mut().create_file();
        let (cache, machine) = sys.cache_and_machine();
        failed += u64::from(cache.readahead(machine, file, 0, 96).is_err());
        let child = sys.fork_vma(pid, vma);
        for _ in 0..128 {
            let page = splitmix64(&mut rng) % pages;
            failed += u64::from(sys.touch_write(&mut ca, child, va(page)).is_err());
        }
        // The last round's processes and file stay, so the digest covers
        // live page tables, shared frames and cached pages.
        if round < 2 {
            sys.exit(child);
            sys.exit(pid);
            sys.evict_file(file);
        }
    }
    assert_eq!(failed, 0);
    assert_eq!(
        (digest_system(&sys.snapshot()), sys.machine().free_frames(), sys.now_ns()),
        (0xc9dfe4a390d73e77, 11_728, 3_959_900)
    );
}

/// One small nested boot: every guest-physical page is cold, so each guest
/// fault is backed by a host fault and both dimensions' state is digested.
#[test]
fn nested_boot_digest_is_pinned() {
    let mut vm = VirtualMachine::new(
        VmConfig::with_mib(32, 128),
        Box::new(CaPaging::new()),
        Box::new(CaPaging::new()),
    );
    let pid = vm.guest_mut().spawn();
    let vma = vm
        .guest_mut()
        .aspace_mut(pid)
        .map_vma(VirtRange::new(va(0), 12 << 20), VmaKind::Anon);
    vm.populate_vma(pid, vma).expect("12 MiB fits a 32 MiB guest");
    let mut rng = 7u64;
    for _ in 0..256 {
        vm.touch_write(pid, va(splitmix64(&mut rng) % (12 << 8))).expect("mapped");
    }
    assert_eq!(
        (digest_vm(&vm.snapshot()), vm.host().machine().free_frames(), vm.guest().now_ns()),
        (0xa304aed5e4baed90, 29_696, 3_081_400)
    );
}
