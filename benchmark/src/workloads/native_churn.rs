//! `native_churn`: one native system whose processes come and go.

use std::collections::HashSet;

use contig::buddy::{Hog, Machine, MachineConfig, PcpConfig};
use contig::check::{digest_system, fold_digests};
use contig::core::CaPaging;
use contig::mm::{CacheAllocMode, System, SystemConfig, VmaKind};
use contig::trace::Tracer;
use contig::types::{splitmix64, VirtAddr, VirtRange};

use super::{age_machine, check_system, BatchOut, Counts, Finish, Size, Spec, Workload};
use crate::rec::{Class, Recorder};

pub const SPEC: Spec = Spec {
    name: "native_churn",
    why: "buddy, contiguity map, page-table writes and the mm fault path do nearly all the work, \
          alloc and free in equal measure; tlb, virt and check do none",
    event: "4 KiB fault",
    repetitions: 7,
    batches: |size| size.pick(200, 6),
    arms: &[],
    build: |seed, size| Box::new(NativeChurn::build(seed, size)),
};

const VMA_BASE: u64 = 0x4000_0000;
const PAGE: u64 = 4096;
const CPUS: usize = 4;
/// Touches between rotations of the simulated CPU.
const CPU_ROTATE: u64 = 64;
/// Batches between re-placements of the hog. Whether CA paging finds a free
/// run for a whole VMA or falls back to the per-CPU-cache path depends on
/// where the hog's blocks landed; moving them every few batches makes every
/// seed see both behaviours instead of one or the other.
const REHOG_EVERY: usize = 10;

/// Batch inputs, generated outside the timed region.
#[derive(Default)]
struct Input {
    vma_pages: u64,
    /// The second half of the VMA in the order it is touched.
    random_half: Vec<u64>,
    /// Distinct pages the forked child writes, breaking COW.
    cow_pages: Vec<u64>,
}

pub struct NativeChurn {
    sys: System,
    ca: CaPaging,
    seed: u64,
    size: Size,
    /// `None` only while it is being moved.
    hog: Option<Hog>,
    input: Input,
    counts: Counts,
    fold: u64,
}

/// The workload's physical memory: 1 GiB (smoke: 128 MiB) on one node with
/// CA paging's address-sorted top list.
pub fn machine_config(size: Size) -> MachineConfig {
    MachineConfig {
        sorted_top_list: true,
        ..MachineConfig::single_node_mib(size.pick(1024, 128))
    }
}

/// Per-CPU frame caches as the workload configures them.
pub const PCP: PcpConfig = PcpConfig {
    cpus: CPUS,
    batch: 16,
    high: 64,
};

/// Ages the machine's free lists and pins a quarter of it with the hog.
pub fn fragment(machine: &mut Machine, seed: u64) -> Hog {
    age_machine(machine, seed ^ 0xA6E);
    Hog::occupy(machine, 0.25, seed)
}

/// Boots the workload's system: CA paging's contiguous page cache,
/// per-CPU caches on, memory fragmented by [`fragment`].
pub fn churn_system(seed: u64, size: Size, thp: bool) -> (System, Hog) {
    let mut sys = System::new(SystemConfig {
        thp,
        cache_mode: CacheAllocMode::CaContiguous,
        ..SystemConfig::new(machine_config(size))
    });
    sys.enable_pcp(PCP);
    let hog = fragment(sys.machine_mut(), seed);
    (sys, hog)
}

impl NativeChurn {
    /// THP is off, so every fault is 4 KiB.
    fn build(seed: u64, size: Size) -> Self {
        let (sys, hog) = churn_system(seed, size, false);
        Self {
            sys,
            ca: CaPaging::new(),
            seed,
            size,
            hog: Some(hog),
            input: Input::default(),
            counts: Counts::default(),
            fold: 0,
        }
    }

    /// Runs `batches` batches with `tracer` attached to the system (or none)
    /// and returns the final state's digest: the unit of work behind
    /// `engine.speedup_milli` and `trace.probe_overhead_ppm`.
    pub fn run_batches(seed: u64, size: Size, batches: usize, tracer: Option<Tracer>) -> u64 {
        let mut this = Self::build(seed, size);
        if let Some(tracer) = tracer {
            this.sys.set_tracer(tracer);
        }
        for k in 0..batches {
            this.prepare(k);
            this.run(k, &mut Recorder::off());
        }
        Box::new(this).finish().digest
    }
}

fn va(page: u64) -> VirtAddr {
    VirtAddr::new(VMA_BASE + page * PAGE)
}

impl Workload for NativeChurn {
    fn prepare(&mut self, k: usize) {
        let mut rng = self.seed.wrapping_add(0x1000 + k as u64);
        if k > 0 && k.is_multiple_of(REHOG_EVERY) {
            let machine = self.sys.machine_mut();
            if let Some(hog) = self.hog.take() {
                hog.release(machine);
            }
            self.hog = Some(Hog::occupy(machine, 0.25, splitmix64(&mut rng)));
        }
        // 24–48 MiB (smoke: 3–6 MiB) in 2 MiB steps.
        let (base_mib, steps) = self.size.pick((24, 13), (3, 2));
        let vma_pages = (base_mib + 2 * (splitmix64(&mut rng) % steps)) * 256;
        let half = vma_pages / 2;
        let mut random_half: Vec<u64> = (half..vma_pages).collect();
        super::shuffle(&mut random_half, &mut rng);
        let breaks = self.size.pick(2048, 256);
        let mut seen = HashSet::new();
        let mut cow_pages = Vec::with_capacity(breaks);
        while cow_pages.len() < breaks {
            let page = splitmix64(&mut rng) % vma_pages;
            if seen.insert(page) {
                cow_pages.push(page);
            }
        }
        self.input = Input {
            vma_pages,
            random_half,
            cow_pages,
        };
    }

    fn run(&mut self, _k: usize, rec: &mut Recorder) -> BatchOut {
        let Self {
            sys,
            ca,
            input,
            counts,
            ..
        } = self;
        let mut failed = 0u64;

        let phase = rec.open("spawn_map");
        let pid = sys.spawn();
        let vma = sys
            .aspace_mut(pid)
            .map_vma(VirtRange::new(va(0), input.vma_pages * PAGE), VmaKind::Anon);
        rec.close(phase);

        let phase = rec.open("touch_seq");
        for page in 0..input.vma_pages / 2 {
            if page % CPU_ROTATE == 0 {
                sys.set_cpu((page / CPU_ROTATE) as usize % CPUS);
            }
            failed += u64::from(
                rec.call(Class::MmTouch, || sys.touch(ca, pid, va(page)))
                    .is_err(),
            );
        }
        rec.close(phase);

        let phase = rec.open("touch_rand");
        for (i, &page) in input.random_half.iter().enumerate() {
            if (i as u64).is_multiple_of(CPU_ROTATE) {
                sys.set_cpu((i as u64 / CPU_ROTATE) as usize % CPUS);
            }
            failed += u64::from(
                rec.call(Class::MmTouch, || sys.touch(ca, pid, va(page)))
                    .is_err(),
            );
        }
        rec.close(phase);

        let phase = rec.open("readahead");
        let file = sys.page_cache_mut().create_file();
        let window = input.cow_pages.len() as u64;
        let (cache, machine) = sys.cache_and_machine();
        failed += u64::from(
            rec.call(Class::MmReadahead, || {
                cache.readahead(machine, file, 0, window)
            })
            .is_err(),
        );
        rec.close(phase);

        let phase = rec.open("fork");
        let child = rec.call(Class::MmFork, || sys.fork_vma(pid, vma));
        rec.close(phase);

        let phase = rec.open("cow");
        for (i, &page) in input.cow_pages.iter().enumerate() {
            if (i as u64).is_multiple_of(CPU_ROTATE) {
                sys.set_cpu((i as u64 / CPU_ROTATE) as usize % CPUS);
            }
            failed += u64::from(
                rec.call(Class::MmCow, || sys.touch_write(ca, child, va(page)))
                    .is_err(),
            );
        }
        rec.close(phase);

        let phase = rec.open("exit");
        let before = counts.faults_4k + counts.faults_2m;
        counts.add_faults(sys.aspace(pid).stats());
        counts.add_faults(sys.aspace(child).stats());
        let events = counts.faults_4k + counts.faults_2m - before;
        rec.call(Class::MmExit, || sys.exit(child));
        rec.call(Class::MmExit, || sys.exit(pid));
        rec.close(phase);

        let phase = rec.open("evict");
        sys.evict_file(file);
        rec.close(phase);

        self.fold = fold_digests(&[self.fold, events, sys.machine().free_frames(), sys.now_ns()]);
        BatchOut { events, failed }
    }

    fn finish(self: Box<Self>) -> Finish {
        let mut counts = self.counts;
        counts.add_system(&self.sys);
        let mut problems = Vec::new();
        let pinned = self.hog.as_ref().map_or(0, Hog::pinned_frames);
        check_system("native_churn", &self.sys, pinned, &mut problems);
        Finish {
            digest: fold_digests(&[digest_system(&self.sys.snapshot()), self.fold]),
            counts,
            problems,
        }
    }
}
