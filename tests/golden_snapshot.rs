//! Guard for the snapshot format. The decoder reads one version, the one the
//! encoder writes; `tests/golden/snapshot_v9.jsonl` is a file of that version
//! and pins it in both directions: the encoder must reproduce its bytes from
//! the fixed workload below, and the decoder must restore every section of it
//! — poison, zone topology and homes, daemon — with its values, not its
//! defaults. A deliberate format change regenerates the
//! golden *and* bumps `SNAPSHOT_VERSION`; files of the old version are then
//! refused by name, as a file of any other version is today.

use std::path::PathBuf;

use contig::check::{decode_vm_file, digest_vm, encode_vm_file};
use contig::prelude::*;
use contig::virt::VmSnapshot;

fn golden_path() -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("tests/golden/snapshot_v9.jsonl")
}

fn golden_text() -> String {
    std::fs::read_to_string(golden_path()).expect("tests/golden/snapshot_v9.jsonl is checked in")
}

fn restore(snap: &VmSnapshot) -> VirtualMachine {
    VirtualMachine::restore(snap, Box::new(DefaultThpPolicy), Box::new(DefaultThpPolicy))
}

/// The fixed workload behind the golden files: two processes, an anonymous
/// VMA with huge and base mappings, a page-cache-backed file VMA, a COW
/// fork, and one armed fault injector — every snapshot section populated.
fn golden_vm_with(config: VmConfig) -> VirtualMachine {
    let mut vm = VirtualMachine::new(
        config,
        Box::new(DefaultThpPolicy),
        Box::new(DefaultThpPolicy),
    );
    let pid = vm.guest_mut().spawn();
    let anon = vm
        .guest_mut()
        .aspace_mut(pid)
        .map_vma(VirtRange::new(VirtAddr::new(0x4000_0000), 4 << 20), VmaKind::Anon);
    vm.populate_vma(pid, anon).expect("populate");
    let file = vm.guest_mut().page_cache_mut().create_file();
    vm.guest_mut().aspace_mut(pid).map_vma(
        VirtRange::new(VirtAddr::new(0x5000_0000), 1 << 20),
        VmaKind::File { file, start_page: 0 },
    );
    vm.touch(pid, VirtAddr::new(0x5000_0000)).expect("file touch");
    let child = vm.guest_mut().fork_vma(pid, anon);
    vm.touch_write(child, VirtAddr::new(0x4000_0000)).expect("cow write");
    vm.guest_mut().set_fail_policy(contig_types::FailPolicy::new(
        contig_types::FailMode::Probability { rate_ppm: 5_000, seed: 99 },
    ));
    vm
}

/// The base fixture plus hwpoison activity, so the poison sections of the
/// format — per-zone badframe lists, quarantine counters, the seeded poison
/// policy, and the recovery stats — are populated with non-default values
/// in the checked-in file.
fn golden_vm_v3_with(config: VmConfig) -> VirtualMachine {
    let mut vm = golden_vm_with(config);
    // A healed host-side strike on a frame backing guest memory, plus a
    // guest-side strike and a soft-offline: exercises quarantine on both
    // dimensions deterministically (no RNG involved).
    // The child's page at the fork base is a private post-COW copy (the
    // parent's pages still carry the COW flag and would be killed, not
    // healed), so the strike exercises the migrate-and-heal path.
    let child = Pid(2);
    let gframe = vm
        .guest()
        .aspace(child)
        .page_table()
        .translate(VirtAddr::new(0x4000_0000))
        .expect("cow copy mapped")
        .frame_for(VirtAddr::new(0x4000_0000));
    let hpa = vm.translate_2d(child, VirtAddr::new(0x4000_0000)).expect("host-backed").hpa;
    vm.poison_host_frame(Pfn::new(hpa.raw() / 4096));
    vm.guest_mut().memory_failure(gframe);
    let next = vm
        .guest()
        .aspace(child)
        .page_table()
        .translate(VirtAddr::new(0x4000_0000))
        .expect("healed")
        .frame_for(VirtAddr::new(0x4000_0000));
    vm.guest_mut().soft_offline(next);
    vm.guest_mut().set_poison_policy(PoisonPolicy::new(PoisonMode::Probability {
        rate_ppm: 2_500,
        seed: 2020,
    }));
    vm
}

/// The poison fixture rebuilt on a two-zone guest/host topology, with both
/// guest processes homed on different zones and fresh zone-local faults —
/// so the NUMA members (per-process `home` and the multi-zone machine
/// layout) carry non-default values in the checked-in file.
fn golden_vm_v5() -> VirtualMachine {
    let mut config = VmConfig::with_mib_nodes(16, 64, 2);
    config.guest.thp = false;
    config.host.thp = false;
    let mut vm = golden_vm_v3_with(config);
    let (parent, child) = (Pid(1), Pid(2));
    vm.guest_mut().set_home_node(parent, Some(0));
    vm.guest_mut().set_home_node(child, Some(1));
    // Fresh faults after homing populate both zones.
    for pid in [parent, child] {
        vm.guest_mut()
            .aspace_mut(pid)
            .map_vma(VirtRange::new(VirtAddr::new(0x6000_0000), 64 << 10), VmaKind::Anon);
        for i in 0..4u64 {
            vm.touch(pid, VirtAddr::new(0x6000_0000 + i * 4096)).expect("homed touch");
        }
    }
    let zone_of = |pid| {
        let t = vm.guest().aspace(pid).page_table().translate(VirtAddr::new(0x6000_0000));
        vm.guest().machine().node_of(t.expect("homed page mapped").pfn)
    };
    assert_eq!((zone_of(parent), zone_of(child)), (Some(NodeId(0)), Some(NodeId(1))));
    vm
}

/// The golden workload: the v5 fixture with the background
/// maintenance daemon enabled on both dimensions and ticked mid-epoch — so
/// the `daemon` member carries live cursors, a partially spent budget, a
/// non-default policy and non-zero counters in the checked-in file.
fn golden_vm_v6() -> VirtualMachine {
    let mut vm = golden_vm_v5();
    let config = DaemonConfig { epoch_budget: 32, ..DaemonConfig::default() };
    vm.guest_mut().enable_daemon(config);
    vm.host_mut().enable_daemon(config);
    for _ in 0..3 {
        vm.guest_mut().daemon_tick();
    }
    for _ in 0..2 {
        vm.host_mut().daemon_tick();
    }
    let daemon = vm.guest().daemon_state();
    assert!(daemon.stats.ticks > 0, "fixture daemon must have run");
    assert!(
        daemon.budget_left < config.epoch_budget || daemon.stats.epochs > 0,
        "fixture must capture mid-epoch or post-epoch daemon state"
    );
    vm
}

#[test]
fn golden_v9_snapshot_still_decodes() {
    let snap = decode_vm_file(&golden_text()).expect("current decoder must read the golden file");

    // The header digest is re-verified by the decoder; additionally pin the
    // decoded state: restore must reproduce the digest and audit clean.
    let digest = digest_vm(&snap);
    let vm = restore(&snap);
    assert_eq!(digest_vm(&vm.snapshot()), digest, "restore must be digest-exact");
    let audit = audit_vm(&vm);
    assert!(audit.is_clean(), "restored golden system must audit clean:\n{audit}");
}

#[test]
fn golden_v3_restores_poison_state() {
    // The poison sections must survive the round trip with their exact
    // values, not just re-default: the fixture quarantined frames on both
    // dimensions and left an armed probabilistic policy behind.
    let snap = decode_vm_file(&golden_text()).expect("decode golden");
    let vm = restore(&snap);
    assert!(vm.guest().poison_stats().strikes > 0, "guest strikes lost in round trip");
    assert!(vm.host().poison_stats().strikes > 0, "host strikes lost in round trip");
    assert!(vm.guest().machine().poisoned_frames() > 0, "guest badframes lost");
    assert!(vm.host().machine().poisoned_frames() > 0, "host badframes lost");
    assert!(vm.guest().poison_policy().is_armed(), "armed policy lost in round trip");
}

#[test]
fn golden_v5_restores_zone_topology_and_homes() {
    // The NUMA members must survive the round trip with their exact values:
    // the two-zone machine layout and both process homes.
    let snap = decode_vm_file(&golden_text()).expect("decode golden");
    let vm = restore(&snap);
    assert_eq!(vm.guest().machine().nodes(), 2, "zone topology lost in round trip");
    assert_eq!(vm.guest().home_node(Pid(1)), Some(0), "parent home lost");
    assert_eq!(vm.guest().home_node(Pid(2)), Some(1), "child home lost");
}

#[test]
fn golden_v6_restores_daemon_state() {
    // The mid-epoch daemon member must survive the round trip with its
    // exact values — live cursors, partially spent budget, counters — not
    // just re-default.
    let snap = decode_vm_file(&golden_text()).expect("decode golden");
    let mut vm = restore(&snap);
    let daemon = vm.guest().daemon_state();
    assert!(daemon.enabled, "daemon arming lost in round trip");
    assert!(daemon.stats.ticks > 0, "daemon tick counter lost in round trip");
    assert_eq!(daemon.config.epoch_budget, 32, "daemon policy lost in round trip");
    assert!(vm.host().daemon_state().enabled, "host daemon arming lost");
    // Restored mid-epoch state must continue bit-identically to the
    // original fixture: one more tick on each yields the same state.
    let mut fixture = golden_vm_v6();
    fixture.guest_mut().daemon_tick();
    vm.guest_mut().daemon_tick();
    assert_eq!(vm.guest().daemon_state(), fixture.guest().daemon_state());
    assert_eq!(digest_vm(&vm.snapshot()), digest_vm(&fixture.snapshot()));
}

#[test]
fn golden_file_with_anything_after_the_payload_is_refused() {
    let golden = golden_text();
    for tail in ["this is not json\n{\"more\":1}\n", "{}", "\n\n x"] {
        let err = decode_vm_file(&format!("{golden}{tail}")).unwrap_err();
        assert_eq!(err, "trailing data after payload line");
    }
    // Blank lines are not data.
    decode_vm_file(&format!("\n{golden}\n  \n")).expect("blank lines around the two are fine");
}

#[test]
fn golden_workload_is_still_deterministic() {
    // The encoder applied to the fixed golden workload must reproduce the
    // checked-in bytes exactly. If this fails while the decode tests pass,
    // the format evolved compatibly — regenerate via
    // `cargo test --test golden_snapshot -- --ignored` and review the diff.
    assert_eq!(
        encode_vm_file(&golden_vm_v6().snapshot()),
        golden_text(),
        "encoder output drifted from the golden file"
    );
}

#[test]
#[ignore = "regenerates the current-format golden fixture; run explicitly after a reviewed format change"]
fn regenerate_golden_file() {
    let path = golden_path();
    std::fs::create_dir_all(path.parent().unwrap()).expect("mkdir tests/golden");
    std::fs::write(&path, encode_vm_file(&golden_vm_v6().snapshot())).expect("write golden");
}
