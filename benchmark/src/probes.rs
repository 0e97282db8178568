//! `layer_probes`: host time per call of each layer's public functions,
//! measured from outside on state shaped like the workloads'.
//!
//! A probe group is a miniature workload: every repetition rebuilds its
//! state, every batch does the same calls in every repetition, and the
//! reported figure is Σ(per-batch minimum over repetitions) ÷ Σ calls —
//! the same floor estimator as the end-to-end numbers. Work that only
//! restores state for the next batch is not timed.

use std::hint::black_box;
use std::time::Instant;

use contig::baselines::VrmmRangeTlb;
use contig::buddy::{ContiguityMap, Machine};
use contig::check::{decode_vm_file, digest_vm, encode_vm_file, SnapshotGuestCodec};
use contig::core::{CaPaging, SpotConfig, SpotPredictor};
use contig::engine::{run_seeded, PoolConfig};
use contig::fleet::{Fleet, FleetConfig};
use contig::mm::{
    DaemonConfig, DefaultThpPolicy, PageTable, PlacementPolicy, Pte, PteFlags, System, VmaKind,
};
use contig::sim::Env;
use contig::tlb::{Access, MemorySim, MissHandler, NoScheme, WalkResult};
use contig::trace::{TraceSession, Tracer};
use contig::types::{ContigMapping, PageSize, Pfn, PhysAddr, VirtAddr, VirtRange};
use contig::virt::{
    migrate_with_retries, two_dimensional_mappings, LoopbackTransport, MigrationConfig,
    MigrationOutcome, MigrationTarget, VirtualMachine, VmBackend, VmConfig,
};
use contig::workloads::{Scale, TraceGenerator, Workload as PaperWorkload};

use crate::estimator::MICRO;
use crate::report::Value;
use crate::workloads::{
    boot_vm, churn_system, fragment, machine_config, vm_mib, NativeChurn, Size, PCP,
};

const SEED: u64 = 0x5EED_CAFE;
const PAGE: u64 = 4096;
const VMA_BASE: u64 = 0x4000_0000;

fn va(page: u64) -> VirtAddr {
    VirtAddr::new(VMA_BASE + page * PAGE)
}

/// The timed laps of one batch, one slot per series of the group.
struct Lap {
    ns: Vec<u64>,
    calls: Vec<u64>,
}

impl Lap {
    /// Times `f` as `calls` calls of series `series`.
    fn time<T>(&mut self, series: usize, calls: u64, f: impl FnOnce() -> T) -> T {
        let start = Instant::now();
        let out = f();
        self.ns[series] += start.elapsed().as_nanos() as u64;
        self.calls[series] += calls;
        out
    }
}

struct Suite {
    size: Size,
    batches: usize,
    repetitions: usize,
    out: Vec<Value>,
}

impl Suite {
    /// Runs one probe group and records one value per named series (a
    /// series named `""` is timed but not reported).
    fn group<S>(
        &mut self,
        series: &[&str],
        setup: impl Fn() -> S,
        batch: impl Fn(&mut S, usize, &mut Lap),
    ) {
        let mut floor = vec![vec![u64::MAX; series.len()]; self.batches];
        let mut calls = vec![0u64; series.len()];
        for rep in 0..self.repetitions {
            let mut state = setup();
            for (i, floor) in floor.iter_mut().enumerate() {
                let mut lap = Lap {
                    ns: vec![0; series.len()],
                    calls: vec![0; series.len()],
                };
                batch(&mut state, i, &mut lap);
                for s in 0..series.len() {
                    floor[s] = floor[s].min(lap.ns[s]);
                    if rep == 0 {
                        calls[s] += lap.calls[s];
                    }
                }
            }
        }
        for (s, name) in series.iter().enumerate().filter(|(_, n)| !n.is_empty()) {
            let ns: u128 = floor.iter().map(|b| u128::from(b[s])).sum();
            self.out.push(Value::new(
                name,
                (ns * MICRO / u128::from(calls[s].max(1))) as u64,
            ));
        }
    }
}

/// The `native_churn` machine on its own, with or without per-CPU caches.
fn churn_machine(size: Size, pcp: bool) -> Machine {
    let mut machine = Machine::new(machine_config(size));
    if pcp {
        machine.enable_pcp(PCP);
    }
    fragment(&mut machine, SEED);
    machine
}

/// A scattered visiting order of `0..n` that differs per batch.
fn scattered(n: usize, batch: usize) -> Vec<usize> {
    let mut order: Vec<usize> = (0..n).collect();
    let mut rng = SEED ^ batch as u64;
    crate::workloads::shuffle(&mut order, &mut rng);
    order
}

fn buddy(suite: &mut Suite) {
    let size = suite.size;
    let (n0, n9) = size.pick((4096usize, 128usize), (256, 8));
    let churn = |order: u32, n: usize, m: &mut Machine, i: usize, lap: &mut Lap, base: usize| {
        let mut got: Vec<Pfn> = Vec::with_capacity(n);
        lap.time(base, n as u64, || {
            for _ in 0..n {
                got.push(m.alloc(order).expect("probe machine has room"));
            }
        });
        let visit = scattered(n, i);
        lap.time(base + 1, n as u64, || {
            for &j in &visit {
                m.free(got[j], order);
            }
        });
        lap.time(base + 2, n as u64, || {
            for &p in &got {
                m.alloc_specific(p, order).expect("block was just freed");
            }
        });
        for &p in &got {
            m.free(p, order);
        }
    };
    suite.group(
        &[
            "buddy.alloc_o0_ns",
            "buddy.free_o0_ns",
            "buddy.alloc_specific_o0_ns",
            "buddy.alloc_o9_ns",
            "buddy.free_o9_ns",
            "buddy.alloc_specific_o9_ns",
        ],
        || churn_machine(size, false),
        |m, i, lap| {
            churn(0, n0, m, i, lap, 0);
            churn(9, n9, m, i, lap, 3);
        },
    );
    suite.group(
        &["buddy.pcp_alloc_ns", "buddy.alloc_bulk_frame_ns"],
        || churn_machine(size, true),
        |m, _, lap| {
            let mut got: Vec<Pfn> = Vec::with_capacity(n0);
            lap.time(0, n0 as u64, || {
                for k in 0..n0 {
                    if k % 64 == 0 {
                        m.set_cpu(k / 64 % 4);
                    }
                    got.push(m.alloc(0).expect("probe machine has room"));
                }
            });
            let (bulk, err) = lap.time(1, n0 as u64, || m.alloc_bulk(n0 as u64));
            assert!(err.is_none(), "probe machine has room");
            for p in got.into_iter().chain(bulk) {
                m.free(p, 0);
            }
        },
    );
    let scan_calls = size.pick(2048u64, 128);
    suite.group(
        &[
            "buddy.next_fit_ns",
            "buddy.verify_integrity_frame_ns",
            "buddy.snapshot_frame_ns",
        ],
        || {
            // A busy frame table: scattered order-0 blocks stay allocated.
            let mut m = churn_machine(size, false);
            let held: Vec<Pfn> = (0..n0).map(|_| m.alloc(0).expect("room")).collect();
            for &j in scattered(n0, 0).iter().take(n0 / 2) {
                m.free(held[j], 0);
            }
            m
        },
        |m, _, lap| {
            lap.time(0, scan_calls, || {
                for k in 0..scan_calls {
                    black_box(m.next_fit_cluster((2 << 20) << (k % 5)));
                }
            });
            let frames = m.total_frames();
            lap.time(1, frames, || m.verify_integrity());
            lap.time(2, frames, || black_box(m.snapshot()));
        },
    );
    let blocks = size.pick(4096u64, 256);
    suite.group(
        &["buddy.contig_map_update_ns"],
        || {
            let mut map = ContiguityMap::new(10);
            for b in 0..blocks {
                map.on_block_freed(Pfn::new(b * map.block_frames()));
            }
            map
        },
        |map, i, lap| {
            let stride = map.block_frames();
            let visit = scattered(blocks as usize, i);
            let half = &visit[..visit.len() / 2];
            lap.time(0, half.len() as u64 * 2, || {
                for &b in half {
                    map.on_block_allocated(Pfn::new(b as u64 * stride));
                }
                for &b in half {
                    map.on_block_freed(Pfn::new(b as u64 * stride));
                }
            });
        },
    );
}

fn page_table(suite: &mut Suite) {
    let n = suite.size.pick(8192u64, 512);
    suite.group(
        &[
            "mm.pt_map_ns",
            "mm.pt_translate_ns",
            "mm.pt_iter_mapping_ns",
            "mm.pt_unmap_ns",
        ],
        PageTable::new,
        |pt, _, lap| {
            // The same region every batch: table nodes are reused, as they
            // are when a workload's VMAs reuse one address range.
            lap.time(0, n, || {
                for p in 0..n {
                    pt.map(
                        va(p),
                        Pte::new(Pfn::new(p), PteFlags::WRITE),
                        PageSize::Base4K,
                    );
                }
            });
            lap.time(1, n, || {
                for p in 0..n {
                    black_box(pt.translate(va(p)).is_ok());
                }
            });
            lap.time(2, n, || black_box(pt.iter_mappings().count()));
            lap.time(3, n, || {
                for p in 0..n {
                    black_box(pt.unmap(va(p)));
                }
            });
        },
    );
}

/// The fault-path group on the `native_churn` system under `policy`.
fn fault_path<P: PlacementPolicy>(suite: &mut Suite, series: &[&str; 6], policy: fn() -> P) {
    let size = suite.size;
    let n = size.pick(4096u64, 256);
    suite.group(
        series,
        || (churn_system(SEED, size, false).0, policy()),
        |(sys, policy), _, lap| {
            let pid = sys.spawn();
            let vma = sys
                .aspace_mut(pid)
                .map_vma(VirtRange::new(va(0), n * PAGE), VmaKind::Anon);
            lap.time(0, n, || {
                for p in 0..n {
                    sys.touch(policy, pid, va(p)).expect("fault");
                }
            });
            lap.time(1, n, || {
                for p in 0..n {
                    sys.touch(policy, pid, va(p)).expect("present");
                }
            });
            let child = lap.time(2, n, || sys.fork_vma(pid, vma));
            lap.time(3, n, || {
                for p in 0..n {
                    sys.touch_write(policy, child, va(p)).expect("cow break");
                }
            });
            lap.time(4, 2 * n, || {
                sys.exit(child);
                sys.exit(pid);
            });
            let file = sys.page_cache_mut().create_file();
            let (cache, machine) = sys.cache_and_machine();
            lap.time(5, n, || {
                cache.readahead(machine, file, 0, n).expect("readahead")
            });
            sys.evict_file(file);
        },
    );
}

fn mm(suite: &mut Suite) {
    let size = suite.size;
    fault_path(
        suite,
        &[
            "mm.fault_4k_ns",
            "mm.touch_present_ns",
            "mm.fork_page_ns",
            "mm.cow_break_ns",
            "mm.exit_page_ns",
            "mm.readahead_page_ns",
        ],
        || DefaultThpPolicy,
    );
    // The same probe under CA paging: the difference is placement cost.
    fault_path(
        suite,
        &["core.ca_fault_4k_ns", "", "", "", "", ""],
        CaPaging::new,
    );

    let huge = size.pick(128u64, 16);
    suite.group(
        &["mm.fault_2m_ns"],
        || churn_system(SEED, size, true).0,
        |sys, _, lap| {
            let pid = sys.spawn();
            sys.aspace_mut(pid).map_vma(
                VirtRange::new(va(0), huge * PageSize::Huge2M.bytes()),
                VmaKind::Anon,
            );
            lap.time(0, huge, || {
                for h in 0..huge {
                    let out = sys
                        .touch(&mut DefaultThpPolicy, pid, va(h * 512))
                        .expect("huge fault");
                    assert_eq!(
                        out.size,
                        PageSize::Huge2M,
                        "the probe must take the 2 MiB path"
                    );
                }
            });
            sys.exit(pid);
        },
    );

    // Whole-state operations on a populated system: anonymous pages, a
    // COW-sharing child and page-cache pages, like a torture checkpoint.
    let pages = size.pick(4096u64, 256);
    suite.group(
        &[
            "mm.snapshot_page_ns",
            "mm.restore_page_ns",
            "mm.audit_frame_ns",
        ],
        || {
            let (mut sys, _) = churn_system(SEED, Size::Smoke, false);
            let pid = sys.spawn();
            let vma = sys
                .aspace_mut(pid)
                .map_vma(VirtRange::new(va(0), pages * PAGE), VmaKind::Anon);
            sys.populate_vma(&mut CaPaging::new(), pid, vma)
                .expect("populate");
            sys.fork_vma(pid, vma);
            let file = sys.page_cache_mut().create_file();
            let (cache, machine) = sys.cache_and_machine();
            cache
                .readahead(machine, file, 0, pages / 4)
                .expect("readahead");
            sys
        },
        |sys, _, lap| {
            let snap = lap.time(0, pages, || sys.snapshot());
            lap.time(1, pages, || black_box(System::restore(&snap)));
            let frames = sys.machine().total_frames();
            assert!(lap.time(2, frames, || sys.audit()).is_clean());
        },
    );

    // Each batch leaves the daemon a freshly populated 2 MiB run of base
    // pages to collapse, then ticks it.
    let ticks = 4;
    suite.group(
        &["mm.daemon_tick_ns"],
        || {
            let (mut sys, _) = churn_system(SEED, size, true);
            sys.enable_daemon(DaemonConfig::default());
            sys
        },
        |sys, _, lap| {
            let pid = sys.spawn();
            sys.aspace_mut(pid).map_vma(
                VirtRange::new(va(0), 2 * PageSize::Huge2M.bytes()),
                VmaKind::Anon,
            );
            for p in 0..512 {
                sys.touch(&mut contig::mm::BasePagesPolicy, pid, va(p))
                    .expect("fault");
            }
            lap.time(0, ticks, || {
                for _ in 0..ticks {
                    black_box(sys.daemon_tick());
                }
            });
            sys.exit(pid);
        },
    );
}

fn miss_handlers(suite: &mut Suite) {
    let n = suite.size.pick(16_384u64, 1024);
    // Misses from 64 instructions, each striding its own contiguous mapping.
    let walk = |k: u64| -> (Access, WalkResult) {
        let pc = 0x40_0000 + (k % 64) * 8;
        let vaddr = VirtAddr::new((1 << 32) * (1 + k % 64) + (k / 64) * PAGE);
        let walk = WalkResult {
            pa: PhysAddr::new(vaddr.raw() - (1 << 30)),
            size: PageSize::Base4K,
            refs: 24,
            contig: true,
            write: true,
        };
        (Access::read(pc, vaddr), walk)
    };
    suite.group(
        &["core.spot_on_miss_ns"],
        || SpotPredictor::new(SpotConfig::default()),
        |spot, i, lap| {
            lap.time(0, n, || {
                for k in 0..n {
                    let (access, w) = walk(i as u64 * n + k);
                    black_box(spot.on_miss(access, &w));
                }
            });
        },
    );
    suite.group(
        &["baselines.vrmm_miss_ns"],
        || {
            let ranges = (1..=64u64)
                .map(|r| {
                    ContigMapping::new(
                        VirtAddr::new((1 << 32) * r),
                        PhysAddr::new((1 << 32) * r - (1 << 30)),
                        1 << 30,
                    )
                })
                .collect();
            VrmmRangeTlb::new(32, ranges)
        },
        |vrmm, i, lap| {
            lap.time(0, n, || {
                for k in 0..n {
                    let (access, w) = walk(i as u64 * n + k);
                    black_box(vrmm.on_miss(access, &w));
                }
            });
        },
    );
    suite.group(
        &["workloads.tracegen_ns"],
        || TraceGenerator::new(&PaperWorkload::PageRank.spec(Scale::tiny()), SEED),
        |gen, _, lap| {
            lap.time(0, n, || {
                for _ in 0..n {
                    black_box(gen.next_access());
                }
            });
        },
    );
}

fn virt(suite: &mut Suite) {
    let size = suite.size;
    let n = size.pick(4096u64, 256);
    let (guest_mib, host_mib) = vm_mib(size);
    suite.group(
        &[
            "virt.boot_mib_ns",
            "virt.touch_nested_ns",
            "virt.touch_backed_ns",
            "virt.translate_2d_ns",
            "virt.two_d_mappings_page_ns",
        ],
        || (),
        |(), i, lap| {
            let mut vm = lap.time(0, guest_mib + host_mib, || boot_vm(SEED + i as u64, size));
            let pid = vm.guest_mut().spawn();
            vm.guest_mut()
                .aspace_mut(pid)
                .map_vma(VirtRange::new(va(0), n * PAGE), VmaKind::Anon);
            lap.time(1, n, || {
                for p in 0..n {
                    vm.touch(pid, va(p)).expect("nested fault");
                }
            });
            lap.time(2, n, || {
                for p in 0..n {
                    vm.touch(pid, va(p)).expect("backed");
                }
            });
            lap.time(3, n, || {
                for p in 0..n {
                    black_box(vm.translate_2d(pid, va(p)));
                }
            });
            lap.time(4, n, || black_box(two_dimensional_mappings(&vm, pid)));
        },
    );

    let pages = size.pick(1024u64, 128);
    let config = || VmConfig::with_mib(16, 32);
    suite.group(
        &["virt.migrate_page_ns"],
        || (),
        |(), _, lap| {
            let mut src = VirtualMachine::new(
                config(),
                Box::new(DefaultThpPolicy),
                Box::new(DefaultThpPolicy),
            );
            let pid = src.guest_mut().spawn();
            let vma = src
                .guest_mut()
                .aspace_mut(pid)
                .map_vma(VirtRange::new(va(0), pages * PAGE), VmaKind::Anon);
            src.populate_vma(pid, vma).expect("populate");
            let target = MigrationTarget::new(
                config(),
                Box::new(DefaultThpPolicy),
                Box::new(DefaultThpPolicy),
            );
            let start = Instant::now();
            let outcome = migrate_with_retries(
                MigrationConfig::default(),
                &mut src,
                target,
                &SnapshotGuestCodec,
                |_| Box::new(LoopbackTransport::reliable()),
                |_, _| {},
                1,
                Tracer::disabled(),
            );
            let ns = start.elapsed().as_nanos() as u64;
            let MigrationOutcome::Completed { report, .. } = outcome else {
                panic!("a reliable wire cannot abort a migration");
            };
            lap.ns[0] += ns;
            lap.calls[0] += report.pages_sent;
        },
    );
}

/// A booted VM with `pages` anonymous guest pages populated.
fn populated_vm(size: Size, pages: u64) -> (VirtualMachine, contig::mm::Pid) {
    let mut vm = boot_vm(SEED, size);
    let pid = vm.guest_mut().spawn();
    let vma = vm
        .guest_mut()
        .aspace_mut(pid)
        .map_vma(VirtRange::new(va(0), pages * PAGE), VmaKind::Anon);
    vm.populate_vma(pid, vma).expect("populate");
    (vm, pid)
}

fn tlb(suite: &mut Suite) {
    let size = suite.size;
    let n = size.pick(16_384u64, 1024);
    let pages = size.pick(4096u64, 256);
    suite.group(
        &["tlb.step_hit_ns", "tlb.step_miss_ns"],
        || {
            let env = Env::tiny();
            (
                populated_vm(size, pages),
                MemorySim::new(env.tlb(), env.walk_cost()),
            )
        },
        |((vm, pid), sim), _, lap| {
            let backend = VmBackend::new(vm, *pid);
            sim.step(&backend, &mut NoScheme, Access::read(1, va(0)));
            lap.time(0, n, || {
                for k in 0..n {
                    sim.step(
                        &backend,
                        &mut NoScheme,
                        Access::read(1, va(0) + (k % 512) * 8),
                    );
                }
            });
            // Flushing before every access makes every access walk.
            lap.time(1, n, || {
                for k in 0..n {
                    sim.flush_tlbs();
                    sim.step(&backend, &mut NoScheme, Access::read(1, va(k % pages)));
                }
            });
        },
    );
}

fn check(suite: &mut Suite) {
    let pages = suite.size.pick(2048u64, 256);
    suite.group(
        &[
            "check.encode_vm_byte_ns",
            "check.decode_vm_byte_ns",
            "check.digest_vm_page_ns",
            "audit.audit_vm_frame_ns",
        ],
        // The smoke-size VM at both sizes: a torture-sized guest, not a
        // fault-benchmark-sized one.
        || populated_vm(Size::Smoke, pages).0,
        |vm, _, lap| {
            let snap = vm.snapshot();
            let text = encode_vm_file(&snap);
            let bytes = text.len() as u64;
            lap.time(0, bytes, || black_box(encode_vm_file(&snap)));
            lap.time(1, bytes, || {
                black_box(decode_vm_file(&text).expect("round trip"))
            });
            lap.time(2, pages, || black_box(digest_vm(&snap)));
            let frames = vm.guest().machine().total_frames() + vm.host().machine().total_frames();
            assert!(lap
                .time(3, frames, || contig::audit::audit_vm(vm))
                .is_clean());
        },
    );
}

fn fleet(suite: &mut Suite) {
    let n = suite.size.pick(512u64, 64);
    let steps = 4;
    suite.group(
        &["fleet.tenant_write_ns", "fleet.step_ns"],
        || {
            let mut fleet = Fleet::new(FleetConfig::new(2, 64, 16));
            let tenants: Vec<_> = (0..4)
                .map(|_| fleet.admit().expect("capacity for four tenants"))
                .collect();
            (fleet, tenants)
        },
        |(fleet, tenants), i, lap| {
            let tenant = tenants[i % tenants.len()];
            let window = fleet.tenant(tenant).expect("admitted").workload_pages();
            let page = |k: u64| (i as u64 * n + k) % window;
            lap.time(0, n, || {
                for k in 0..n {
                    fleet
                        .tenant_write(tenant, page(k), k)
                        .expect("tenant write");
                }
            });
            lap.time(1, steps, || {
                for _ in 0..steps {
                    fleet.step();
                }
            });
            for k in 0..n {
                fleet
                    .tenant_discard(tenant, page(k))
                    .expect("tenant is alive");
            }
        },
    );
}

/// Wall time of `f`, the fastest of three runs.
fn best_of_three(mut f: impl FnMut()) -> u64 {
    (0..3)
        .map(|_| {
            let start = Instant::now();
            f();
            start.elapsed().as_nanos() as u64
        })
        .min()
        .expect("three runs")
}

/// `engine.speedup_milli`: eight `native_churn` batches as eight engine
/// tasks, one worker versus `nproc` workers, real wall time.
/// `trace.probe_overhead_ppm`: `native_churn` with a ring-buffer trace
/// session attached to the system versus without.
fn engine_and_trace(suite: &mut Suite) {
    let size = suite.size;
    let sweep = |workers: usize| {
        let reports = run_seeded(PoolConfig::new(workers), SEED, 8, |ctx| {
            NativeChurn::run_batches(ctx.seed, Size::Smoke, size.pick(6, 1), None)
        });
        assert!(
            reports.iter().all(|r| r.ok().is_some()),
            "an engine task panicked"
        );
    };
    let workers = std::thread::available_parallelism().map_or(1, |n| n.get());
    let (one, many) = (best_of_three(|| sweep(1)), best_of_three(|| sweep(workers)));
    suite.out.push(Value::new(
        "engine.speedup_milli",
        (u128::from(one) * 1000 * MICRO / u128::from(many.max(1))) as u64,
    ));

    let batches = size.pick(12, 2);
    let churn =
        |tracer: Option<Tracer>| black_box(NativeChurn::run_batches(SEED, size, batches, tracer));
    let plain = best_of_three(|| {
        churn(None);
    });
    let traced = best_of_three(|| {
        let session = TraceSession::ring(65_536);
        churn(Some(session.tracer()));
    });
    let overhead = crate::metrics::ppm(traced.saturating_sub(plain), plain);
    suite
        .out
        .push(Value::new("trace.probe_overhead_ppm", overhead));
}

/// Runs every probe; the values come back in the order they were measured.
pub fn run(size: Size) -> Vec<Value> {
    let mut suite = Suite {
        size,
        batches: size.pick(200, 3),
        repetitions: size.pick(2, 2),
        out: Vec::new(),
    };
    buddy(&mut suite);
    page_table(&mut suite);
    mm(&mut suite);
    miss_handlers(&mut suite);
    virt(&mut suite);
    tlb(&mut suite);
    check(&mut suite);
    fleet(&mut suite);
    engine_and_trace(&mut suite);
    suite.out
}
