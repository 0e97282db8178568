//! Nested-fault behaviour under host memory pressure: a host OOM raised
//! while servicing a guest fault must surface as a typed
//! [`FaultError::OutOfMemory`] at the *guest* address, leave every layer in
//! an auditable state, and heal the missing host backing once memory frees
//! up — no panics anywhere on the path.

use contig_mm::{DefaultThpPolicy, VmaKind};
use contig_types::{FailMode, FailPolicy, FaultError, VirtAddr, VirtRange};
use contig_virt::{VirtualMachine, VmConfig};

fn vm(guest_mib: u64, host_mib: u64) -> VirtualMachine {
    VirtualMachine::new(
        VmConfig::with_mib(guest_mib, host_mib),
        Box::new(DefaultThpPolicy),
        Box::new(DefaultThpPolicy),
    )
}

#[test]
fn injected_host_oom_surfaces_at_guest_address_and_heals() {
    let mut vm = vm(64, 128);
    let pid = vm.guest_mut().spawn();
    vm.guest_mut()
        .aspace_mut(pid)
        .map_vma(VirtRange::new(VirtAddr::new(0x40_0000), 4 << 20), VmaKind::Anon);

    // Make every host allocation fail. Host memory is free, so each
    // recovery round reports progress and the allocation is retried; the
    // OOM surfaces once the bounded retries run out.
    vm.host_mut()
        .set_fail_policy(FailPolicy::new(FailMode::MinOrder { min_order: 0 }));

    let va = VirtAddr::new(0x40_0000);
    let err = vm.touch(pid, va).expect_err("nested fault must hit the injected OOM");
    match err {
        FaultError::OutOfMemory { addr, .. } => {
            assert_eq!(addr, va, "host OOM must be reported at the guest address");
        }
        other => panic!("expected OutOfMemory, got {other:?}"),
    }
    let stats = *vm.host().recovery_stats();
    assert!(stats.retries > 0, "recovery must retry before giving up: {stats:?}");
    assert!(stats.hard_ooms > 0);

    // The guest mapping was established before backing failed; both layers
    // must still pass the invariant audit.
    assert!(vm.guest().audit().is_clean(), "guest audit:\n{}", vm.guest().audit());
    assert!(vm.host().audit().is_clean(), "host audit:\n{}", vm.host().audit());

    // Memory pressure lifts: the next touch of the same address detects the
    // backing hole behind the already-mapped guest page and re-backs it.
    vm.host_mut().clear_fail_policy();
    let out = vm.touch(pid, va).expect("touch after pressure lifts must heal");
    assert!(out.already_mapped, "guest mapping survived the failed backing");
    let t = vm
        .translate_2d(pid, va)
        .expect("healed page must translate in both dimensions");
    assert_eq!(t.hpa, t.hpa); // walk produced a concrete host physical address
    assert!(vm.guest().audit().is_clean());
    assert!(vm.host().audit().is_clean());
}

#[test]
fn genuine_host_exhaustion_is_typed_and_auditable() {
    // Guest memory is larger than host memory: populating it end-to-end must
    // eventually exhaust the host even after reclaim/compaction/back-off.
    let mut vm = vm(64, 16);
    let pid = vm.guest_mut().spawn();
    let range = VirtRange::new(VirtAddr::new(0x40_0000), 32 << 20);
    vm.guest_mut().aspace_mut(pid).map_vma(range, VmaKind::Anon);

    let mut va = range.start();
    let mut oom_at = None;
    while va < range.end() {
        match vm.touch(pid, va) {
            Ok(out) => va = va.align_down(out.size) + out.size.bytes(),
            Err(FaultError::OutOfMemory { addr, .. }) => {
                oom_at = Some(addr);
                break;
            }
            Err(other) => panic!("only OutOfMemory is acceptable here, got {other:?}"),
        }
    }
    let oom_at = oom_at.expect("a 64 MiB guest cannot fit in a 16 MiB host");
    assert_eq!(oom_at, va, "OOM must name the guest address that faulted");

    // The host fought back before giving up: recovery ran, then hard-OOMed.
    let stats = vm.host().recovery_stats();
    assert!(stats.oom_events > 0);
    assert!(stats.hard_ooms > 0);

    // Every layer is still consistent: no leaked frames, no dangling PTEs.
    assert!(vm.guest().audit().is_clean(), "guest audit:\n{}", vm.guest().audit());
    assert!(vm.host().audit().is_clean(), "host audit:\n{}", vm.host().audit());

    // Already-populated guest pages still translate end-to-end.
    assert!(vm.translate_2d(pid, range.start()).is_some());
}
