//! A pid that has exited, or that no `spawn` ever returned, maps nothing: the
//! touch entry points answer with a typed error, not a panic.

use contig_buddy::MachineConfig;
use contig_mm::{DefaultThpPolicy, Pid, System, SystemConfig, VmaKind};
use contig_types::{FaultError, VirtAddr, VirtRange};

#[test]
fn touch_and_touch_write_refuse_a_pid_that_is_not_live() {
    let mut sys = System::new(SystemConfig::new(MachineConfig::single_node_mib(16)));
    let mut policy = DefaultThpPolicy;
    let va = VirtAddr::new(0x40_0000);
    let exited = sys.spawn();
    sys.aspace_mut(exited).map_vma(VirtRange::new(va, 0x20_0000), VmaKind::Anon);
    sys.touch(&mut policy, exited, va).expect("live pid faults");
    sys.exit(exited);
    let survivor = sys.spawn();
    for pid in [exited, Pid(0), Pid(99), Pid(u32::MAX)] {
        let unmapped = Err(FaultError::UnmappedAddress { addr: va });
        assert_eq!(sys.touch(&mut policy, pid, va), unmapped, "touch, {pid:?}");
        assert_eq!(sys.touch_write(&mut policy, pid, va), unmapped, "touch_write, {pid:?}");
    }
    assert_eq!(sys.pids(), [survivor], "a refused access creates nothing");
    assert_eq!(sys.machine().free_frames(), sys.machine().total_frames());
}
