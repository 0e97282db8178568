//! Pins the README's "Scaling to 8 workers" walkthrough: the code shown
//! there must keep compiling and its claims must keep holding — engine
//! results are worker-count independent, zone-homed faults allocate
//! locally, and the folded run digest agrees at 1 and 8 workers.

use contig::prelude::*;

#[test]
fn scaling_to_8_workers() {
    // Four zones, one experiment per task, task `i` homed on zone `i % 4`.
    // Worker count is free to vary; the results are not.
    let run = |workers: usize| -> Vec<u64> {
        run_seeded(PoolConfig::new(workers), 0xC0FFEE, 16, |ctx| {
            let mut sys =
                System::new(SystemConfig::new(MachineConfig::with_node_mib(&[16, 16, 16, 16])));
            let pid = sys.spawn();
            sys.set_home_node(pid, Some(ctx.index % 4)); // faults land on the home zone
            sys.aspace_mut(pid)
                .map_vma(VirtRange::new(VirtAddr::new(0x4000_0000), 8 << 20), VmaKind::Anon);
            let mut thp = DefaultThpPolicy;
            for i in 0..(ctx.seed % 3 + 2) {
                let out = sys.touch(&mut thp, pid, VirtAddr::new(0x4000_0000 + i * (2 << 20))).unwrap();
                assert_eq!(sys.machine().node_of(out.pfn), Some(NodeId(ctx.index % 4)));
            }
            digest_system(&sys.snapshot())
        })
        .iter()
        .map(|r| *r.ok().unwrap())
        .collect()
    };

    // The run digest folds the per-task digests in task order. 1 worker and
    // 8 workers agree bit for bit — per task and folded.
    let one = run(1);
    let eight = run(8);
    assert_eq!(one, eight);
    assert_eq!(fold_digests(&one), fold_digests(&eight));

    // Beyond the README text: the walkthrough's narration is also true.
    assert_eq!(one.len(), 16);
    assert!(one.windows(2).any(|w| w[0] != w[1]), "tasks must do distinct work");
    assert_eq!(run(4), one, "intermediate worker counts agree too");
}
