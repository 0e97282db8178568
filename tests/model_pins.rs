//! The model, pinned in tier-1 through `tests/pins.ledger`.
//!
//! `benchmark/ci.sh` compares two runs of one build, so a change that moves
//! every digest deterministically passes it. The ledger's `model_pins.*`
//! values were first recorded on the commit *before* the digest path
//! stopped building a JSON tree (PR 16) and must never move with a
//! host-speed change: a digest value is the contract, how fast it is
//! computed is not. They go through the same library entry points the
//! benchmark's `torture_mix`, `native_churn` and `nested_boot` workloads
//! call. A change that *means* to move the model writes the ledger lines
//! the failure prints and says why.

use contig::check::{generate_ops, run_ops};
use contig::prelude::*;
use contig_types::splitmix64;

mod pins;
use pins::{hex, Ledger};

/// The benchmark's `torture_mix` configuration at smoke-and-full op count,
/// pinned under the seed's hex name.
fn torture(ledger: &mut Ledger, seed: u64) {
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
    let mut pin = |field: &str, value: String| ledger.pin(&format!("{}.{field}", hex(seed)), value);
    pin("final_digest", hex(report.final_digest));
    pin("fleet_digest", hex(report.fleet_digest));
    pin("buddy_allocs", report.metrics.counter("buddy.alloc").to_string());
    pin("crash_checks", report.crash_checks.to_string());
    pin("audits", report.audits.to_string());
    pin("sweeps", report.sweeps.to_string());
    pin("migrations", report.migrations.to_string());
    pin("baselines", report.baselines.to_string());
    pin("fleet_ops", report.fleet_ops.to_string());
}

#[test]
fn torture_mix_runs_are_pinned() {
    let mut ledger = Ledger::open("torture_mix_runs_are_pinned");
    for seed in [0x5EED_CAFE, 7, 0xC0FFEE] {
        torture(&mut ledger, seed);
    }
    ledger.finish();
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
    let mut ledger = Ledger::open("native_churn_digest_is_pinned");
    ledger.pin("digest", hex(digest_system(&sys.snapshot())));
    ledger.pin("free_frames", sys.machine().free_frames());
    ledger.pin("now_ns", sys.now_ns());
    ledger.finish();
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
    let mut ledger = Ledger::open("nested_boot_digest_is_pinned");
    ledger.pin("digest", hex(digest_vm(&vm.snapshot())));
    ledger.pin("host_free_frames", vm.host().machine().free_frames());
    ledger.pin("guest_now_ns", vm.guest().now_ns());
    ledger.finish();
}
