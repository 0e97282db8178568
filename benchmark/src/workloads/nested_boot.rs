//! `nested_boot`: every batch boots, populates, profiles and tears down a VM.

use contig::buddy::{MachineConfig, PcpConfig};
use contig::check::fold_digests;
use contig::core::CaPaging;
use contig::metrics::CoverageStats;
use contig::mm::{CacheAllocMode, SystemConfig, VmaKind};
use contig::types::{splitmix64, ContigMapping, VirtAddr, VirtRange};
use contig::virt::{two_dimensional_mappings, VirtualMachine, VmConfig};

use super::{age_machine, BatchOut, Counts, Finish, Size, Spec, Workload};
use crate::rec::{Class, Recorder};

pub const SPEC: Spec = Spec {
    name: "nested_boot",
    why:
        "every guest-physical page is cold, so the virt glue and the host 2 MiB path work on each \
          fault; buddy and mm run two-deep and through the huge-page path native_churn never takes",
    event: "guest fault or host nested fault",
    repetitions: 7,
    batches: |size| size.pick(200, 4),
    arms: &[],
    build: |seed, size| Box::new(NestedBoot::build(seed, size)),
};

const VMA_BASE: u64 = 0x4000_0000;
const PAGE: u64 = 4096;
const CPUS: usize = 4;
const CPU_ROTATE: u64 = 256;

pub struct NestedBoot {
    seed: u64,
    size: Size,
    vma_pages: u64,
    batch_seed: u64,
    /// The last batch's 2D mappings, folded into the digest untimed.
    pending: Vec<ContigMapping>,
    counts: Counts,
    fold: u64,
    problems: Vec<String>,
}

/// CA paging's system configuration: address-sorted top-order list and
/// contiguous page-cache readahead.
fn ca_system(mib: u64, thp: bool) -> SystemConfig {
    let machine = MachineConfig {
        sorted_top_list: true,
        ..MachineConfig::single_node_mib(mib)
    };
    SystemConfig {
        thp,
        cache_mode: CacheAllocMode::CaContiguous,
        ..SystemConfig::new(machine)
    }
}

/// Guest and host memory of [`boot_vm`]'s VM, in MiB.
pub fn vm_mib(size: Size) -> (u64, u64) {
    size.pick((128, 256), (32, 64))
}

/// Boots the workload's VM: guest 128 MiB THP off, host 256 MiB THP on
/// (smoke: 32 and 64 MiB), CA paging and per-CPU caches in both dimensions,
/// both machines aged.
pub fn boot_vm(seed: u64, size: Size) -> VirtualMachine {
    let (guest_mib, host_mib) = vm_mib(size);
    let mut vm = VirtualMachine::new(
        VmConfig {
            guest: ca_system(guest_mib, false),
            host: ca_system(host_mib, true),
            host_vma_base: VirtAddr::new(0x7f00_0000_0000),
        },
        Box::new(CaPaging::new()),
        Box::new(CaPaging::new()),
    );
    vm.enable_pcp(PcpConfig {
        cpus: CPUS,
        batch: 16,
        high: 64,
    });
    age_machine(vm.guest_mut().machine_mut(), seed ^ 0x7A);
    age_machine(vm.host_mut().machine_mut(), seed ^ 0x7B);
    vm
}

impl NestedBoot {
    fn build(seed: u64, size: Size) -> Self {
        let mut this = Self {
            seed,
            size,
            vma_pages: 0,
            batch_seed: 0,
            pending: Vec::new(),
            counts: Counts::default(),
            fold: 0,
            problems: Vec::new(),
        };
        // One throwaway batch: the first VM of a process pays for heap
        // growth that no later batch pays. It is the same for every seed, so
        // set-up time does not depend on the seed; its results are discarded.
        this.batch_seed = 0;
        this.vma_pages = size.pick(48, 8) * 256;
        this.run(0, &mut Recorder::off());
        Self {
            pending: Vec::new(),
            counts: Counts::default(),
            fold: 0,
            ..this
        }
    }

    fn fold_pending(&mut self) {
        for m in std::mem::take(&mut self.pending) {
            self.fold = fold_digests(&[
                self.fold,
                m.virt.start().raw(),
                m.phys().start().raw(),
                m.len(),
            ]);
        }
    }
}

impl Workload for NestedBoot {
    fn prepare(&mut self, k: usize) {
        self.fold_pending();
        let mut rng = self.seed.wrapping_add(0x2000).wrapping_add(k as u64);
        self.batch_seed = splitmix64(&mut rng);
        // 48–96 MiB (smoke: 8–16 MiB) in 2 MiB steps.
        let (base_mib, steps) = self.size.pick((48, 25), (8, 5));
        self.vma_pages = (base_mib + 2 * (splitmix64(&mut rng) % steps)) * 256;
    }

    fn run(&mut self, _k: usize, rec: &mut Recorder) -> BatchOut {
        let mut failed = 0u64;

        let phase = rec.open("boot");
        let mut vm = rec.call(Class::VirtBoot, || boot_vm(self.batch_seed, self.size));
        rec.close(phase);

        let phase = rec.open("map");
        let pid = vm.guest_mut().spawn();
        vm.guest_mut().aspace_mut(pid).map_vma(
            VirtRange::new(VirtAddr::new(VMA_BASE), self.vma_pages * PAGE),
            VmaKind::Anon,
        );
        rec.close(phase);

        let phase = rec.open("touch_read");
        for page in 0..self.vma_pages {
            if page % CPU_ROTATE == 0 {
                vm.set_cpu((page / CPU_ROTATE) as usize % CPUS);
            }
            let va = VirtAddr::new(VMA_BASE + page * PAGE);
            failed += u64::from(rec.call(Class::VirtTouch, || vm.touch(pid, va)).is_err());
        }
        rec.close(phase);

        let phase = rec.open("touch_write");
        for page in 0..self.vma_pages {
            let va = VirtAddr::new(VMA_BASE + page * PAGE);
            failed += u64::from(
                rec.call(Class::VirtTouch, || vm.touch_write(pid, va))
                    .is_err(),
            );
        }
        rec.close(phase);

        // The paper's contiguity measurement: 2D mappings and their top-32
        // footprint coverage.
        let phase = rec.open("profile");
        let (maps, top32) = rec.call(Class::VirtProfile, || {
            let maps = two_dimensional_mappings(&vm, pid);
            let top32 = CoverageStats::from_mappings(&maps).top_k_coverage(32);
            (maps, top32)
        });
        rec.close(phase);

        let phase = rec.open("exit");
        let before = self.counts.faults_4k + self.counts.faults_2m;
        let host_pid = vm.host_pid();
        let host_stats = vm.host().aspace(host_pid).stats();
        self.counts.host_faults += host_stats.total_faults();
        self.counts.add_faults(host_stats);
        self.counts.add_faults(vm.guest().aspace(pid).stats());
        let events = self.counts.faults_4k + self.counts.faults_2m - before;
        let sim_ns = vm.guest().now_ns() + vm.host().now_ns();
        rec.call(Class::VirtExit, || {
            vm.exit_guest_process(pid);
            vm.host_mut().exit(host_pid);
        });
        let leaked =
            [vm.guest().machine(), vm.host().machine()].map(|m| m.total_frames() - m.free_frames());
        self.counts.add_system(vm.guest());
        self.counts.add_system(vm.host());
        rec.call(Class::VirtExit, || drop(vm));
        rec.close(phase);

        if leaked != [0, 0] {
            self.problems
                .push(format!("nested_boot: frames left after exit: {leaked:?}"));
        }
        let top32_ppm = (top32 * 1e6).round() as u64;
        self.counts.top32_coverage_ppm_sum += top32_ppm;
        self.counts.coverage_samples += 1;
        self.fold = fold_digests(&[self.fold, events, sim_ns, top32_ppm, maps.len() as u64]);
        self.pending = maps;
        BatchOut { events, failed }
    }

    fn finish(mut self: Box<Self>) -> Finish {
        self.fold_pending();
        Finish {
            digest: self.fold,
            counts: self.counts,
            problems: self.problems,
        }
    }
}
