//! Memory-pressure resilience demo: deterministic fault injection, the
//! recovery escalation path, and the cross-layer invariant auditor.
//!
//! ```text
//! cargo run --example pressure_resilience
//! ```

use contig::check::{decode_vm_file, encode_vm_file};
use contig::prelude::*;
use contig_types::{FailMode, FailPolicy, FaultError};

fn main() {
    native_pressure();
    nested_pressure();
    snapshot_crash_restore();
}

/// A native system under a memory hog and 10 % injected allocation failure:
/// the workload completes, every failure is absorbed by the recovery path,
/// and the auditor finds a consistent system.
fn native_pressure() {
    println!("=== native: hog + 10% injected allocation failure ===");
    // THP off so the 12 MiB VMA demand-faults 3072 individual base pages —
    // enough allocation attempts for a 10 % injection rate to really bite.
    let config = SystemConfig { thp: false, ..SystemConfig::new(MachineConfig::single_node_mib(32)) };
    let mut sys = System::new(config);
    let _hog = Hog::occupy(sys.machine_mut(), 0.5, 11);
    sys.set_fail_policy(FailPolicy::new(FailMode::Probability { rate_ppm: 100_000, seed: 7 }));

    let pid = sys.spawn();
    sys.aspace_mut(pid)
        .map_vma(VirtRange::new(VirtAddr::new(0x40_0000), 12 << 20), VmaKind::Anon);
    let mut policy = DefaultThpPolicy;
    // Retries are bounded (a fault whose retries are all injected away still
    // surfaces a typed OOM), so a resilient workload skips and keeps going.
    let mut surfaced = 0u64;
    for i in 0..(12 << 20) / 4096u64 {
        match sys.touch(&mut policy, pid, VirtAddr::new(0x40_0000 + i * 4096)) {
            Ok(_) => {}
            Err(FaultError::OutOfMemory { .. }) => surfaced += 1,
            Err(e) => panic!("only typed OOM may escape: {e:?}"),
        }
    }
    println!("surfaced OOMs: {surfaced} (bounded retries, typed, non-fatal)");

    let s = sys.recovery_stats();
    println!(
        "attempts {}  injected {}  oom_events {}  retries {}  backoffs {}  hard_ooms {}",
        sys.machine().fail_attempts(),
        sys.machine().injected_failures(),
        s.oom_events,
        s.retries,
        s.order_backoffs,
        s.hard_ooms,
    );
    println!("{}", sys.audit());
}

/// A VM whose host runs dry mid-guest-fault: the guest sees a typed OOM at
/// the faulting guest address, the auditor shows the un-backed hole, and
/// the next touch after pressure lifts heals it.
fn nested_pressure() {
    println!("\n=== nested: host OOM during a guest fault, then healing ===");
    let mut vm = VirtualMachine::new(
        VmConfig::with_mib(64, 128),
        Box::new(DefaultThpPolicy),
        Box::new(DefaultThpPolicy),
    );
    let pid = vm.guest_mut().spawn();
    vm.guest_mut()
        .aspace_mut(pid)
        .map_vma(VirtRange::new(VirtAddr::new(0x40_0000), 4 << 20), VmaKind::Anon);

    // Every host allocation fails. Host recovery retries a bounded number
    // of times (memory is free, so each round looks like progress), then
    // the OOM surfaces at the guest address.
    vm.host_mut().set_fail_policy(FailPolicy::new(FailMode::MinOrder { min_order: 0 }));
    match vm.touch(pid, VirtAddr::new(0x40_0000)) {
        Err(FaultError::OutOfMemory { addr, size }) => {
            let r = vm.host().recovery_stats();
            println!(
                "guest fault failed: OutOfMemory at guest {addr} ({size}) after {} host retries",
                r.retries
            );
        }
        other => println!("unexpected: {other:?}"),
    }
    println!("{}", audit_vm(&vm));

    vm.host_mut().clear_fail_policy();
    let out = vm.touch(pid, VirtAddr::new(0x40_0000)).expect("healing touch");
    println!(
        "after pressure lifts: already_mapped={} and backing healed",
        out.already_mapped
    );
    println!("{}", audit_vm(&vm));
}

/// Crash consistency end to end: a VM under injected pressure is
/// snapshotted mid-workload, "crashes" (the live instance is dropped), and
/// is rebuilt from the serialized snapshot alone. The restored system is
/// digest-identical, passes the cross-layer audit, and resumes the workload
/// exactly where the checkpoint left it.
fn snapshot_crash_restore() {
    println!("\n=== snapshot → crash → restore → audit-clean ===");
    let mut vm = VirtualMachine::new(
        VmConfig::with_mib(16, 64),
        Box::new(DefaultThpPolicy),
        Box::new(DefaultThpPolicy),
    );
    vm.guest_mut()
        .set_fail_policy(FailPolicy::new(FailMode::Probability { rate_ppm: 20_000, seed: 3 }));
    let pid = vm.guest_mut().spawn();
    vm.guest_mut()
        .aspace_mut(pid)
        .map_vma(VirtRange::new(VirtAddr::new(0x40_0000), 8 << 20), VmaKind::Anon);

    // First half of the workload, then checkpoint to the JSONL codec — the
    // same two-line format the torture harness and `torture_replay` use.
    for i in 0..1024u64 {
        let _ = vm.touch_write(pid, VirtAddr::new(0x40_0000 + i * 4096));
    }
    let snap = vm.snapshot();
    let digest = contig::check::digest_vm(&snap);
    let file = encode_vm_file(&snap);
    println!("checkpoint: {} bytes, digest {digest:#018x}", file.len());

    // Crash: the live instance is gone; only the serialized bytes survive.
    drop(vm);

    let recovered_snap = decode_vm_file(&file).expect("snapshot file must decode");
    let mut recovered = VirtualMachine::restore(
        &recovered_snap,
        Box::new(DefaultThpPolicy),
        Box::new(DefaultThpPolicy),
    );
    assert_eq!(contig::check::digest_vm(&recovered.snapshot()), digest);
    println!("restored: digest matches, {}", audit_vm(&recovered));

    // The recovered VM picks the workload back up seamlessly.
    for i in 1024..2048u64 {
        let _ = recovered.touch_write(pid, VirtAddr::new(0x40_0000 + i * 4096));
    }
    let audit = audit_vm(&recovered);
    assert!(audit.is_clean(), "post-resume audit:\n{audit}");
    println!("resumed 4 MiB past the checkpoint: {audit}");
}
