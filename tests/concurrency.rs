//! Concurrency coverage: the CA-paging replacement-claim semantics of paper
//! §III-C, thread-safety of the core types, and parallel experiment runs.

use std::sync::Mutex;
use std::thread;

use contig::prelude::*;

#[test]
fn core_types_are_send_and_sync() {
    fn assert_send<T: Send>() {}
    fn assert_send_sync<T: Send + Sync>() {}
    assert_send_sync::<Machine>();
    assert_send_sync::<PageTable>();
    assert_send_sync::<CaPaging>();
    assert_send_sync::<SpotPredictor>();
    assert_send::<System>();
    assert_send::<VirtualMachine>();
}

/// Paper §III-C: when two faults of the same VMA fail concurrently, only the
/// first may run a re-placement; the other retries through the fresh offset.
/// We emulate the race by holding the claim while a fault runs.
#[test]
fn replacement_claim_prevents_duplicate_placements() {
    let mut sys = System::new(SystemConfig::new(MachineConfig::single_node_mib(64)));
    let pid = sys.spawn();
    let vma = sys
        .aspace_mut(pid)
        .map_vma(VirtRange::new(VirtAddr::new(0x40_0000), 8 << 20), VmaKind::Anon);
    let mut ca = CaPaging::new();
    // First fault establishes the offset.
    sys.touch(&mut ca, pid, VirtAddr::new(0x40_0000)).unwrap();
    // Sabotage the next target so the fault must re-place, while another
    // in-flight fault "holds" the claim.
    let next_target = sys
        .aspace(pid)
        .vma(vma)
        .offsets()
        .nearest(VirtAddr::new(0x60_0000))
        .unwrap()
        .apply(VirtAddr::new(0x60_0000))
        .page_number();
    sys.machine_mut().alloc_specific(next_target, 9).unwrap();
    sys.aspace_mut(pid).vma_mut(vma).claim_replacement();
    let offsets_before = sys.aspace(pid).vma(vma).offsets().len();
    sys.touch(&mut ca, pid, VirtAddr::new(0x60_0000)).unwrap();
    let offsets_after = sys.aspace(pid).vma(vma).offsets().len();
    assert_eq!(
        offsets_before, offsets_after,
        "a held claim must suppress the re-placement (no new offset)"
    );
    assert!(ca.stats().replacement_races > 0);
    sys.aspace_mut(pid).vma_mut(vma).release_replacement();
    // With the claim free, the next busy target re-places normally.
    let t2 = sys
        .aspace(pid)
        .vma(vma)
        .offsets()
        .nearest(VirtAddr::new(0x80_0000))
        .unwrap()
        .apply(VirtAddr::new(0x80_0000))
        .page_number();
    sys.machine_mut().alloc_specific(t2, 9).unwrap();
    sys.touch(&mut ca, pid, VirtAddr::new(0x80_0000)).unwrap();
    assert!(sys.aspace(pid).vma(vma).offsets().len() > offsets_after);
}

/// Independent systems can run on separate threads (the experiment harness
/// pattern); results equal the single-threaded run.
#[test]
fn parallel_experiments_match_sequential() {
    let run_one = |seed: u64| {
        let mut sys = System::new(SystemConfig::new(MachineConfig::single_node_mib(64)));
        let hog = Hog::occupy(sys.machine_mut(), 0.25, seed);
        let pid = sys.spawn();
        let vma = sys
            .aspace_mut(pid)
            .map_vma(VirtRange::new(VirtAddr::new(0x40_0000), 16 << 20), VmaKind::Anon);
        let mut ca = CaPaging::new();
        sys.populate_vma(&mut ca, pid, vma).unwrap();
        let maps = contiguous_mappings(sys.aspace(pid).page_table());
        drop(hog);
        maps.len()
    };
    let sequential: Vec<usize> = (0..4).map(run_one).collect();
    let parallel = Mutex::new(vec![0usize; 4]);
    thread::scope(|s| {
        for seed in 0..4u64 {
            let parallel = &parallel;
            s.spawn(move || {
                let got = run_one(seed);
                parallel.lock().unwrap()[seed as usize] = got;
            });
        }
    });
    assert_eq!(*parallel.lock().unwrap(), sequential);
}

/// A shared system behind a mutex services interleaved faults from multiple
/// threads without corrupting buddy state.
#[test]
fn threaded_faults_on_shared_system() {
    let sys = Mutex::new(System::new(SystemConfig::new(MachineConfig::single_node_mib(128))));
    let mut pids = Vec::new();
    for _ in 0..4 {
        let mut guard = sys.lock().unwrap();
        let pid = guard.spawn();
        guard
            .aspace_mut(pid)
            .map_vma(VirtRange::new(VirtAddr::new(0x40_0000), 8 << 20), VmaKind::Anon);
        pids.push(pid);
    }
    thread::scope(|s| {
        for &pid in &pids {
            let sys = &sys;
            s.spawn(move || {
                let mut ca = CaPaging::new();
                for i in 0..(8 << 20) / (2 << 20) {
                    let va = VirtAddr::new(0x40_0000 + i * (2 << 20));
                    sys.lock().unwrap().touch(&mut ca, pid, va).unwrap();
                }
            });
        }
    });
    let guard = sys.lock().unwrap();
    for &pid in &pids {
        assert_eq!(guard.aspace(pid).mapped_bytes(), 8 << 20);
    }
    guard.machine().verify_integrity();
}

// ---------------------------------------------------------------------------
// Parallel experiment engine: worker-count-independent determinism.
// ---------------------------------------------------------------------------

use contig::check::{digest_fleet, digest_system};
use contig::engine::task_seed;
use contig_buddy::PcpConfig;
use contig_types::splitmix64;

const ENGINE_TASKS: usize = 12;
const ENGINE_SEED: u64 = 0xD15C_0B01;

/// One engine experiment: boot a pcp-enabled system, CA-populate a VMA, run
/// a seeded COW/touch storm across simulated CPUs, digest the final state.
fn engine_experiment(seed: u64) -> u64 {
    engine_experiment_with(seed, None)
}

/// Same experiment, optionally with a span-profiling tracer attached — the
/// digest must be identical either way.
fn engine_experiment_with(seed: u64, tracer: Option<&Tracer>) -> u64 {
    let mut rng = seed;
    let mib = 32 + (splitmix64(&mut rng) % 3) * 16;
    let mut sys = System::new(SystemConfig::new(MachineConfig::single_node_mib(mib)));
    if let Some(t) = tracer {
        sys.set_tracer(t.clone());
    }
    sys.enable_pcp(PcpConfig { cpus: 4, batch: 8, high: 32 });
    let pid = sys.spawn();
    let mut ca = CaPaging::new();
    let vma_bytes = (4 << 20) + (splitmix64(&mut rng) % 4) * (1 << 20);
    let vma = sys
        .aspace_mut(pid)
        .map_vma(VirtRange::new(VirtAddr::new(0x4000_0000), vma_bytes), VmaKind::Anon);
    sys.populate_vma(&mut ca, pid, vma).expect("populate");
    let child = sys.fork_vma(pid, vma);
    for i in 0..200u64 {
        sys.set_cpu((i % 4) as usize);
        let page = splitmix64(&mut rng) % (vma_bytes / 4096);
        let target = if i % 3 == 0 { child } else { pid };
        sys.touch_write(&mut ca, target, VirtAddr::new(0x4000_0000 + page * 4096))
            .expect("touch");
    }
    digest_system(&sys.snapshot())
}

fn engine_digests_at(workers: usize) -> Vec<u64> {
    let reports = run_seeded(PoolConfig::new(workers), ENGINE_SEED, ENGINE_TASKS, |ctx| {
        ctx.trace.tracer().add("test.experiment", 1);
        engine_experiment(ctx.seed)
    });
    assert_eq!(reports.len(), ENGINE_TASKS);
    // In task order, each task on its positional seed: the callers compare
    // these with a serial run over `task_seed(ENGINE_SEED, i)`.
    reports.iter().map(|r| *r.ok().expect("experiment task panicked")).collect()
}

/// The tentpole acceptance property: worker count never changes results.
#[test]
fn one_and_eight_workers_produce_bit_identical_digests() {
    let serial: Vec<u64> =
        (0..ENGINE_TASKS).map(|i| engine_experiment(task_seed(ENGINE_SEED, i))).collect();
    let one = engine_digests_at(1);
    let eight = engine_digests_at(8);
    assert_eq!(one, serial, "1-worker engine run diverged from plain serial execution");
    assert_eq!(eight, serial, "8-worker engine run diverged from plain serial execution");
    // Digests are seed-sensitive: distinct tasks really ran distinct work.
    assert!(serial.windows(2).any(|w| w[0] != w[1]), "all tasks produced the same digest");
}

/// A poison-enabled variant of the engine experiment: same seeded workload,
/// but a probabilistic hwpoison policy strikes frames between touches and a
/// deterministic soft-offline sweeps one mapped frame mid-run. Returns the
/// state digest plus the strike count so the test can prove the policy
/// actually engaged.
fn poison_engine_experiment(seed: u64) -> (u64, u64) {
    let mut rng = seed;
    let mut sys = System::new(SystemConfig::new(MachineConfig::single_node_mib(48)));
    sys.enable_pcp(PcpConfig { cpus: 4, batch: 8, high: 32 });
    sys.set_poison_policy(PoisonPolicy::new(PoisonMode::Probability {
        rate_ppm: 30_000,
        seed: splitmix64(&mut rng),
    }));
    let pid = sys.spawn();
    let mut ca = CaPaging::new();
    let vma_bytes = 8u64 << 20;
    let vma = sys
        .aspace_mut(pid)
        .map_vma(VirtRange::new(VirtAddr::new(0x4000_0000), vma_bytes), VmaKind::Anon);
    sys.populate_vma(&mut ca, pid, vma).expect("populate");
    for i in 0..150u64 {
        sys.set_cpu((i % 4) as usize);
        let page = splitmix64(&mut rng) % (vma_bytes / 4096);
        let va = VirtAddr::new(0x4000_0000 + page * 4096);
        sys.touch_write(&mut ca, pid, va).expect("touch");
        sys.poison_tick();
        if i == 75 {
            // Soft-offline whatever currently backs the first page: the
            // target is derived from simulator state, so it is identical
            // across runs of the same seed.
            let pfn = sys
                .aspace(pid)
                .page_table()
                .translate(VirtAddr::new(0x4000_0000))
                .expect("populated")
                .frame_for(VirtAddr::new(0x4000_0000));
            sys.soft_offline(pfn);
        }
    }
    (digest_system(&sys.snapshot()), sys.poison_stats().strikes)
}

/// The satellite acceptance property: poison-enabled workloads are just as
/// worker-count independent as clean ones — strikes, heals, SIGBUS bookkeeping
/// and quarantine state all land in the digest.
#[test]
fn poison_enabled_workloads_are_worker_count_independent() {
    let serial: Vec<(u64, u64)> = (0..ENGINE_TASKS)
        .map(|i| poison_engine_experiment(task_seed(ENGINE_SEED, i)))
        .collect();
    assert!(
        serial.iter().any(|&(_, strikes)| strikes > 0),
        "no task ever struck a frame — the poison policy never engaged"
    );
    let run_at = |workers: usize| -> Vec<(u64, u64)> {
        run_seeded(PoolConfig::new(workers), ENGINE_SEED, ENGINE_TASKS, |ctx| {
            poison_engine_experiment(ctx.seed)
        })
        .iter()
        .map(|r| *r.ok().expect("poison experiment task panicked"))
        .collect()
    };
    assert_eq!(run_at(1), serial, "1-worker poison run diverged from serial execution");
    assert_eq!(run_at(8), serial, "8-worker poison run diverged from serial execution");
}

/// A migration-enabled variant: each task boots a seeded source VM, keeps a
/// seeded writer dirtying it between copy rounds, and live-migrates it
/// through a lossy transport storm (the final budgeted attempt is reliable
/// so every task converges). Returns the destination state digest plus the
/// transport-fault engagement count (drops + corruptions + stalls + resumes)
/// so the test can prove the storm actually bit.
fn migration_engine_experiment(seed: u64) -> (u64, u64) {
    let mut rng = seed;
    let mut vm = VirtualMachine::new(
        VmConfig::with_mib(8, 24),
        Box::new(DefaultThpPolicy),
        Box::new(DefaultThpPolicy),
    );
    let pid = vm.guest_mut().spawn();
    let vma_bytes = (2u64 << 20) + (splitmix64(&mut rng) % 4) * (1 << 20);
    vm.guest_mut()
        .aspace_mut(pid)
        .map_vma(VirtRange::new(VirtAddr::new(0x4000_0000), vma_bytes), VmaKind::Anon);
    for _ in 0..32 {
        let page = splitmix64(&mut rng) % (vma_bytes / 4096);
        vm.touch_write(pid, VirtAddr::new(0x4000_0000 + page * 4096)).expect("touch");
    }
    let storm_seed = splitmix64(&mut rng);
    let write_seed = splitmix64(&mut rng);
    let target = MigrationTarget::new(
        VmConfig::with_mib(8, 24),
        Box::new(DefaultThpPolicy),
        Box::new(DefaultThpPolicy),
    );
    let outcome = migrate_with_retries(
        MigrationConfig,
        &mut vm,
        target,
        &SnapshotGuestCodec,
        |attempt| {
            if attempt >= 2 {
                Box::new(LoopbackTransport::reliable())
            } else {
                Box::new(LoopbackTransport::new(TransportPolicy::new(TransportMode::storm(
                    150_000,
                    storm_seed ^ (u64::from(attempt) << 48),
                ))))
            }
        },
        move |src, round| {
            let mut wrng =
                write_seed ^ (u64::from(round) + 1).wrapping_mul(0x9E37_79B9_7F4A_7C15);
            for _ in 0..6 {
                let page = splitmix64(&mut wrng) % (vma_bytes / 4096);
                let _ = src.touch_write(pid, VirtAddr::new(0x4000_0000 + page * 4096));
            }
        },
        3,
        Tracer::disabled(),
    );
    match outcome {
        MigrationOutcome::Completed { report, vm } => {
            let s = report.stats;
            let engaged = s.chunks_dropped + s.chunks_rejected + s.stalls + s.resumes;
            (digest_vm(&vm.snapshot()), engaged)
        }
        MigrationOutcome::Aborted { error, .. } => {
            panic!("migration aborted despite reliable final attempt: {error}")
        }
    }
}

/// The migration satellite acceptance property: lossy live migrations —
/// retries, resumes, stalls, cutovers — are just as worker-count independent
/// as the clean and poison-enabled workloads.
#[test]
fn migration_workloads_are_worker_count_independent() {
    let serial: Vec<(u64, u64)> = (0..ENGINE_TASKS)
        .map(|i| migration_engine_experiment(task_seed(ENGINE_SEED, i)))
        .collect();
    assert!(
        serial.iter().any(|&(_, engaged)| engaged > 0),
        "no task ever hit a transport fault — the storm never engaged"
    );
    let run_at = |workers: usize| -> Vec<(u64, u64)> {
        run_seeded(PoolConfig::new(workers), ENGINE_SEED, ENGINE_TASKS, |ctx| {
            migration_engine_experiment(ctx.seed)
        })
        .iter()
        .map(|r| *r.ok().expect("migration experiment task panicked"))
        .collect()
    };
    assert_eq!(run_at(1), serial, "1-worker migration run diverged from serial execution");
    assert_eq!(run_at(8), serial, "8-worker migration run diverged from serial execution");
}

/// A daemon-enabled variant: each task boots a system with the background
/// maintenance daemon armed, fragments it with a seeded COW/touch storm,
/// ticks the daemon at deterministic op boundaries, retunes its policy
/// mid-run, and strikes one mapped frame so proactive run repair has work.
/// Returns the state digest plus the daemon engagement count (epochs +
/// moves + promotions + repairs) so the test can prove maintenance ran.
fn daemon_engine_experiment(seed: u64) -> (u64, u64) {
    let mut rng = seed;
    let base = SystemConfig::new(MachineConfig::single_node_mib(32));
    // Fault-path THP off: the daemon's asynchronous promotion is the only
    // collapser, so the digest reflects its work alone.
    let mut sys = System::new(SystemConfig { thp: false, ..base });
    sys.enable_daemon(DaemonConfig {
        aggressiveness: (1 + seed % 3) as u8,
        epoch_budget: 64,
        ..DaemonConfig::default()
    });
    let pid = sys.spawn();
    let mut ca = CaPaging::new();
    let vma_bytes = (4u64 << 20) + (splitmix64(&mut rng) % 4) * (1 << 20);
    let vma = sys
        .aspace_mut(pid)
        .map_vma(VirtRange::new(VirtAddr::new(0x4000_0000), vma_bytes), VmaKind::Anon);
    sys.populate_vma(&mut ca, pid, vma).expect("populate");
    let child = sys.fork_vma(pid, vma);
    for i in 0..200u64 {
        let page = splitmix64(&mut rng) % (vma_bytes / 4096);
        let target = if i % 3 == 0 { child } else { pid };
        sys.touch_write(&mut ca, target, VirtAddr::new(0x4000_0000 + page * 4096))
            .expect("touch");
        if i % 16 == 7 {
            sys.daemon_tick();
        }
        if i == 60 {
            // Strike whatever currently backs the first page — derived from
            // simulator state, identical across runs of the same seed — so
            // the repair phase has a poisoned run to heal around.
            let pfn = sys
                .aspace(pid)
                .page_table()
                .translate(VirtAddr::new(0x4000_0000))
                .expect("populated")
                .frame_for(VirtAddr::new(0x4000_0000));
            sys.memory_failure(pfn);
        }
        if i == 120 {
            // Mid-run retune: the policy swap resets the epoch machine and
            // reseeds the backoff RNG, all of which must stay positional.
            sys.set_daemon_config(DaemonConfig {
                aggressiveness: (1 + (seed >> 8) % 3) as u8,
                epoch_budget: 48,
                ..DaemonConfig::default()
            });
        }
    }
    let s = *sys.daemon_stats();
    let engaged = s.epochs + s.compact_moves + s.promoted + s.repairs;
    (digest_system(&sys.snapshot()), engaged)
}

/// The daemon satellite acceptance property: maintenance-daemon workloads —
/// budgeted compaction, async promotion, poison-run repair, mid-run policy
/// retunes — are just as worker-count independent as every other layer.
#[test]
fn daemon_workloads_are_worker_count_independent() {
    let serial: Vec<(u64, u64)> = (0..ENGINE_TASKS)
        .map(|i| daemon_engine_experiment(task_seed(ENGINE_SEED, i)))
        .collect();
    assert!(
        serial.iter().any(|&(_, engaged)| engaged > 0),
        "no task ever compacted, promoted or repaired — the daemon never engaged"
    );
    let run_at = |workers: usize| -> Vec<(u64, u64)> {
        run_seeded(PoolConfig::new(workers), ENGINE_SEED, ENGINE_TASKS, |ctx| {
            daemon_engine_experiment(ctx.seed)
        })
        .iter()
        .map(|r| *r.ok().expect("daemon experiment task panicked"))
        .collect()
    };
    assert_eq!(run_at(1), serial, "1-worker daemon run diverged from serial execution");
    assert_eq!(run_at(8), serial, "8-worker daemon run diverged from serial execution");
}

/// A fleet-enabled variant: each task boots a seeded overcommit-capable
/// fleet (one 16 MiB host, four 2 MiB tenants) and drives a seeded mix of
/// tenant writes/reads/discards, balloon traffic, KSM scans, and controller
/// ticks. Returns the fleet state digest plus the reclaim engagement count
/// (merges + inflates + unmerges) so the test can prove the ladder actually
/// ran, and the final audit must be clean in every task.
fn fleet_engine_experiment(seed: u64) -> (u64, u64) {
    let mut rng = seed;
    let mut fleet =
        Fleet::new(FleetConfig { seed: splitmix64(&mut rng), ..FleetConfig::new(1, 16, 2) });
    for _ in 0..4 {
        fleet.admit().expect("one 16 MiB host admits four 2 MiB tenants");
    }
    let ids = fleet.tenant_ids();
    let pages = fleet.tenant(ids[0]).unwrap().workload_pages();
    for _ in 0..200 {
        let id = ids[(splitmix64(&mut rng) % ids.len() as u64) as usize];
        let page = splitmix64(&mut rng) % pages;
        // Small tag pool so KSM scans find same-content groups to merge.
        let tag = 1 + splitmix64(&mut rng) % 5;
        match splitmix64(&mut rng) % 10 {
            0..=4 => fleet.tenant_write(id, page, tag).expect("write"),
            5 => {
                fleet.tenant_read(id, page).expect("read");
            }
            6 => {
                fleet.tenant_discard(id, page).expect("discard");
            }
            7 => {
                fleet.balloon_inflate_tenant(id, 8);
            }
            8 => {
                fleet.ksm_scan_host(0);
            }
            _ => fleet.step(),
        }
    }
    let audit = fleet.audit();
    assert!(audit.is_clean(), "fleet audit must be clean:\n{audit}");
    let s = fleet.stats();
    let engaged = s.ksm_merges + s.balloon_inflates + s.ksm_unmerges;
    (digest_fleet(&fleet.snapshot()), engaged)
}

/// The fleet satellite acceptance property: multi-tenant fleet workloads —
/// overcommitted tenants, ballooning, same-page merging, write-breaks — are
/// just as worker-count independent as the single-VM workloads.
#[test]
fn fleet_workloads_are_worker_count_independent() {
    let serial: Vec<(u64, u64)> = (0..ENGINE_TASKS)
        .map(|i| fleet_engine_experiment(task_seed(ENGINE_SEED, i)))
        .collect();
    assert!(
        serial.iter().all(|&(_, engaged)| engaged > 0),
        "a task never merged, ballooned or broke a share — the reclaim ladder never engaged"
    );
    let run_at = |workers: usize| -> Vec<(u64, u64)> {
        run_seeded(PoolConfig::new(workers), ENGINE_SEED, ENGINE_TASKS, |ctx| {
            fleet_engine_experiment(ctx.seed)
        })
        .iter()
        .map(|r| *r.ok().expect("fleet experiment task panicked"))
        .collect()
    };
    assert_eq!(run_at(1), serial, "1-worker fleet run diverged from serial execution");
    assert_eq!(run_at(8), serial, "8-worker fleet run diverged from serial execution");
}

/// Intermediate worker counts agree too, and repeated runs are stable.
#[test]
fn worker_sweep_is_stable_across_counts_and_repeats() {
    let reference = engine_digests_at(2);
    for workers in [3, 4, 5] {
        assert_eq!(engine_digests_at(workers), reference, "{workers} workers diverged");
    }
    assert_eq!(engine_digests_at(2), reference, "repeat run diverged");
}

/// Profiling is observation only: per-task span sessions attached at 1 and
/// 8 workers produce digests bit-identical to the untraced serial
/// reference, and every task's span stack balances.
#[test]
fn profiled_runs_match_untraced_digests_at_all_worker_counts() {
    let serial: Vec<u64> =
        (0..ENGINE_TASKS).map(|i| engine_experiment(task_seed(ENGINE_SEED, i))).collect();
    for workers in [1usize, 8] {
        let reports = run_seeded(PoolConfig::new(workers), ENGINE_SEED, ENGINE_TASKS, |ctx| {
            let tracer = ctx.trace.tracer();
            engine_experiment_with(ctx.seed, Some(&tracer))
        });
        let digests: Vec<u64> =
            reports.iter().map(|r| *r.ok().expect("profiled task panicked")).collect();
        assert_eq!(
            digests, serial,
            "{workers}-worker profiled run diverged from the untraced serial reference"
        );
        for (i, r) in reports.iter().enumerate() {
            assert!(r.spans.is_balanced(), "task {i} left unbalanced spans");
        }
    }
}

/// A panicking task is isolated: its report carries the panic message while
/// every other task still completes with the deterministic digest.
#[test]
fn panicking_task_does_not_poison_the_fleet() {
    let reports = run_seeded(PoolConfig::new(4), ENGINE_SEED, 6, |ctx| {
        if ctx.index == 3 {
            panic!("injected failure in task {}", ctx.index);
        }
        engine_experiment(ctx.seed)
    });
    let expected: Vec<u64> =
        (0..6).map(|i| engine_experiment(task_seed(ENGINE_SEED, i))).collect();
    for (i, r) in reports.iter().enumerate() {
        match &r.outcome {
            Ok(d) => assert_eq!(*d, expected[i], "task {i} digest diverged"),
            Err(msg) => {
                assert_eq!(i, 3, "only task 3 should fail");
                assert!(msg.contains("injected failure"), "unexpected panic message: {msg}");
            }
        }
    }
}
