//! The one experiment path: boot a native system or a VM, install a
//! workload, and drive its allocation phase.
//!
//! Population interleaves the workload's VMAs in chunks — real applications
//! fault heap regions while streaming dataset files through the page cache
//! (paper §III-C) — and gives daemons (ranger, Ingens promotion) a tick
//! every few chunks, sampling contiguity for the timeline figures.

use contig_buddy::{Hog, Machine};
use contig_metrics::{CoverageStats, TimelinePoint};
use contig_mm::{
    contiguous_mappings, FaultOutcome, Pid, PlacementPolicy, System, SystemConfig, VmaKind,
};
use contig_types::{ContigMapping, FaultError, VirtAddr, VirtRange};
use contig_virt::{two_dimensional_mappings, VirtualMachine, VmConfig};
use contig_workloads::WorkloadSpec;
use rand::rngs::StdRng;
use rand::seq::SliceRandom;
use rand::SeedableRng;

use crate::env::Env;
use crate::policies::PolicyKind;

/// Ages a machine's buddy free lists: every top-order block is allocated and
/// freed back in shuffled order, leaving memory fully free and coalesced but
/// with the LIFO list order randomized — the state of a long-running system
/// whose default THP allocations land on scattered blocks. Address-sorted
/// lists (CA paging's configuration) and the contiguity map are unaffected
/// by construction.
fn age_machine(machine: &mut Machine, seed: u64) {
    let mut rng = StdRng::seed_from_u64(seed);
    let nodes = machine.nodes();
    let mut blocks = Vec::new();
    for n in 0..nodes {
        let zone = machine.zone_mut(contig_buddy::NodeId(n));
        let top = zone.config().top_order;
        while let Ok(b) = zone.alloc(top) {
            blocks.push((b, top));
        }
    }
    blocks.shuffle(&mut rng);
    for (b, top) in blocks {
        machine.free(b, top);
    }
}

/// Bytes populated per VMA before rotating to the next (the interleaving
/// granularity of the allocation phase).
const CHUNK_BYTES: u64 = 8 << 20;

/// How many chunks pass between daemon ticks and timeline samples.
pub(crate) const TICK_EVERY_CHUNKS: u64 = 8;

/// An installed workload instance inside one system.
#[derive(Debug)]
pub struct Instance {
    /// The owning process.
    pub pid: Pid,
    /// Installed VMAs in spec order, each with whether a dataset file backs
    /// it.
    vmas: Vec<(VirtRange, bool)>,
}

/// What a native run varies in its set-up. The rest is common: the kind's
/// [`SystemConfig`] on the scaled machine, then one fresh process per
/// installed workload.
#[derive(Clone, Copy, Debug, Default)]
pub(crate) struct Setup {
    /// Seed of the free-list aging ([`age_machine`]); `None` keeps the
    /// boot order.
    pub(crate) age: Option<u64>,
    /// `(fraction, seed)` of memory a hog pins after aging. A pressured
    /// machine is single-node, as in the paper's NUMA-off fragmentation runs.
    pub(crate) hog: Option<(f64, u64)>,
    /// Installs every VMA anonymous ([`install`]'s `anon_only`).
    pub(crate) anon_only: bool,
    /// Records every fault's latency (Table V).
    pub(crate) latencies: bool,
}

impl Setup {
    /// Aged with `seed`: no hog, the spec's own VMA kinds.
    pub(crate) fn aged(seed: u64) -> Self {
        Self { age: Some(seed), ..Self::default() }
    }

    /// Boots the native system for `kind`.
    pub(crate) fn boot(self, env: &Env, kind: PolicyKind) -> System {
        let mut config = kind.system_config(env.native_machine(self.hog.is_none()));
        config.record_latencies = self.latencies;
        let mut sys = System::new(config);
        if let Some(seed) = self.age {
            age_machine(sys.machine_mut(), seed);
        }
        if let Some((fraction, seed)) = self.hog {
            Hog::occupy(sys.machine_mut(), fraction, seed);
        }
        sys
    }

    /// Boots, then installs and populates `spec` under `kind`'s policy.
    pub(crate) fn run(
        self,
        env: &Env,
        kind: PolicyKind,
        spec: &WorkloadSpec,
    ) -> (System, Populated) {
        let mut sys = self.boot(env, kind);
        let run = populate_native(env, kind, &mut sys, spec, self.anon_only);
        (sys, run)
    }
}

/// A workload installed natively and populated under its kind's policy.
pub(crate) struct Populated {
    pub(crate) instance: Instance,
    /// The policy that placed it, with its daemon's counters.
    pub(crate) policy: Box<dyn PlacementPolicy>,
    pub(crate) timeline: Vec<TimelinePoint>,
}

/// Maps a workload's VMAs into a fresh process of `sys`: datasets through
/// the page cache, or every VMA anonymous with `anon_only`.
pub(crate) fn install(spec: &WorkloadSpec, sys: &mut System, anon_only: bool) -> Instance {
    let pid = sys.spawn();
    let mut vmas = Vec::with_capacity(spec.vmas.len());
    for v in &spec.vmas {
        let file = v.file_backed && !anon_only;
        let kind = if file {
            VmaKind::File { file: sys.page_cache_mut().create_file(), start_page: 0 }
        } else {
            VmaKind::Anon
        };
        sys.aspace_mut(pid).map_vma(v.range(), kind);
        vmas.push((v.range(), file));
    }
    Instance { pid, vmas }
}

/// The ranges of a spec (for ideal-paging planning).
pub(crate) fn spec_ranges(spec: &WorkloadSpec) -> Vec<VirtRange> {
    spec.vmas.iter().map(|v| v.range()).collect()
}

/// Installs `spec` into a fresh process of `sys`, builds `kind`'s policy
/// against the machine as it now stands, and populates the process.
///
/// # Panics
///
/// Panics if the workload does not fit.
pub(crate) fn populate_native(
    env: &Env,
    kind: PolicyKind,
    sys: &mut System,
    spec: &WorkloadSpec,
    anon_only: bool,
) -> Populated {
    let instance = install(spec, sys, anon_only);
    let mut policy = kind.policy(env, Some((sys.machine(), &spec_ranges(spec))));
    let mut timeline = Vec::new();
    populate(&mut Native { sys, policy: &mut *policy }, &instance, &mut timeline)
        .unwrap_or_else(|e| panic!("{} under {}: {e}", spec.name, kind.name()));
    Populated { instance, policy, timeline }
}

/// Installs a workload into the guest of a VM.
pub fn install_in_vm(spec: &WorkloadSpec, vm: &mut VirtualMachine) -> Instance {
    install(spec, vm.guest_mut(), false)
}

/// Drives the allocation phase inside a VM: guest faults raise nested faults
/// transparently; the timeline samples *2D* coverage.
///
/// # Errors
///
/// Propagates the first fault failure.
pub fn populate_vm(
    vm: &mut VirtualMachine,
    instance: &Instance,
    timeline: &mut Vec<TimelinePoint>,
) -> Result<(), FaultError> {
    populate(vm, instance, timeline)
}

/// Boots a VM whose guest and host both run `kind` (its [`SystemConfig`]
/// with `pt_levels`-deep tables, and its policy) on the environment's guest
/// and host machines, ages the guest's and the host's free lists with
/// `age`'s seeds or keeps their boot order, then installs `spec` in a fresh
/// guest process and populates it.
///
/// # Panics
///
/// Panics for a kind the VM cannot honour, and if the workload does not
/// fit. [`PolicyKind::Ideal`] has no plan in a VM. A VM ticks no daemon, so
/// [`PolicyKind::Ingens`] would never promote and [`PolicyKind::Ranger`] and
/// [`PolicyKind::CaRanger`] would never migrate.
pub(crate) fn boot_vm(
    env: &Env,
    kind: PolicyKind,
    age: Option<(u64, u64)>,
    pt_levels: u32,
    spec: &WorkloadSpec,
) -> (VirtualMachine, Instance) {
    use PolicyKind::{CaRanger, Ideal, Ingens, Ranger};
    assert!(
        !matches!(kind, Ideal | Ingens | Ranger | CaRanger),
        "{} cannot run in a VM: it needs an offline plan or a daemon tick",
        kind.name()
    );
    let config = |machine| SystemConfig { pt_levels, ..kind.system_config(machine) };
    let mut vm = VirtualMachine::new(
        VmConfig {
            guest: config(env.guest_machine()),
            host: config(env.host_machine()),
            host_vma_base: VirtAddr::new(0x7f00_0000_0000),
        },
        kind.policy(env, None),
        kind.policy(env, None),
    );
    if let Some((guest, host)) = age {
        age_machine(vm.guest_mut().machine_mut(), guest);
        age_machine(vm.host_mut().machine_mut(), host);
    }
    let instance = install_in_vm(spec, &mut vm);
    populate_vm(&mut vm, &instance, &mut Vec::new())
        .unwrap_or_else(|e| panic!("{} in a {} VM: {e}", spec.name, kind.name()));
    (vm, instance)
}

/// What population faults pages into: a native system under one policy, or
/// a VM running its own two.
pub(crate) trait Target {
    /// Faults `va` in.
    fn touch(&mut self, pid: Pid, va: VirtAddr) -> Result<FaultOutcome, FaultError>;

    /// One daemon tick over `pids`; returns the pages migrated so far.
    fn tick(&mut self, pids: &[Pid]) -> u64;

    /// Samples `pid`'s top-32 coverage at `t` and emits it to the trace.
    fn sample(&self, pid: Pid, t: u64) -> TimelinePoint;
}

/// A native system driven under one policy.
pub(crate) struct Native<'a> {
    pub(crate) sys: &'a mut System,
    pub(crate) policy: &'a mut dyn PlacementPolicy,
}

impl Target for Native<'_> {
    fn touch(&mut self, pid: Pid, va: VirtAddr) -> Result<FaultOutcome, FaultError> {
        self.sys.touch(self.policy, pid, va)
    }

    fn tick(&mut self, pids: &[Pid]) -> u64 {
        self.policy.tick(self.sys, pids);
        self.policy.pages_migrated()
    }

    fn sample(&self, pid: Pid, t: u64) -> TimelinePoint {
        let p = timeline_point(&contiguous_mappings(self.sys.aspace(pid).page_table()), t);
        self.sys.tracer().emit(p.to_event());
        p
    }
}

/// A VM ticks no daemon ([`boot_vm`] refuses the kinds that need one), and
/// samples the *2D* (gVA→hPA) mappings.
impl Target for VirtualMachine {
    fn touch(&mut self, pid: Pid, va: VirtAddr) -> Result<FaultOutcome, FaultError> {
        VirtualMachine::touch(self, pid, va)
    }

    fn tick(&mut self, _pids: &[Pid]) -> u64 {
        0
    }

    fn sample(&self, pid: Pid, t: u64) -> TimelinePoint {
        let p = timeline_point(&two_dimensional_mappings(self, pid), t);
        self.tracer().emit(p.to_event());
        p
    }
}

fn timeline_point(maps: &[ContigMapping], t: u64) -> TimelinePoint {
    let cov = CoverageStats::from_mappings(maps);
    TimelinePoint { t, top32_bytes: cov.top_k_bytes(32), mapped_bytes: cov.total_bytes() }
}

/// Faults one chunk: from `*cursor` up to [`CHUNK_BYTES`] further, stopping
/// at `end`, and leaves `cursor` past the last page mapped.
pub(crate) fn fault_chunk(
    target: &mut impl Target,
    pid: Pid,
    cursor: &mut VirtAddr,
    end: VirtAddr,
) -> Result<(), FaultError> {
    let chunk_end = VirtAddr::new((cursor.raw() + CHUNK_BYTES).min(end.raw()));
    while *cursor < chunk_end {
        let out = target.touch(pid, *cursor)?;
        *cursor = cursor.align_down(out.size) + out.size.bytes();
    }
    Ok(())
}

/// Drives the allocation phase: faults every page of every VMA in
/// [`CHUNK_BYTES`] chunks, group by group of [`population_groups`]. Every
/// [`TICK_EVERY_CHUNKS`] chunks a daemon ticks and the timeline is sampled;
/// afterwards up to 32 settling ticks run, still sampling, until one
/// migrates nothing.
fn populate(
    target: &mut impl Target,
    instance: &Instance,
    timeline: &mut Vec<TimelinePoint>,
) -> Result<(), FaultError> {
    let pid = instance.pid;
    let (ranges, is_file): (Vec<VirtRange>, Vec<bool>) = instance.vmas.iter().copied().unzip();
    let mut cursors: Vec<VirtAddr> = ranges.iter().map(|r| r.start()).collect();
    let (mut chunks, mut migrated) = (0u64, 0);
    for group in population_groups(&is_file, &ranges) {
        while group.iter().any(|&i| cursors[i] < ranges[i].end()) {
            for &i in &group {
                if cursors[i] >= ranges[i].end() {
                    continue;
                }
                fault_chunk(target, pid, &mut cursors[i], ranges[i].end())?;
                chunks += 1;
                if chunks.is_multiple_of(TICK_EVERY_CHUNKS) {
                    migrated = target.tick(&[pid]);
                    timeline.push(target.sample(pid, chunks));
                }
            }
        }
    }
    for t in chunks + 1..=chunks + 32 {
        let before = migrated;
        migrated = target.tick(&[pid]);
        timeline.push(target.sample(pid, t));
        if migrated == before {
            break;
        }
    }
    Ok(())
}

/// The population schedule: applications initialize one structure at a time,
/// except that dataset files are streamed *while* the heap structure they
/// populate is written (paper §III-C: "readahead allocations are usually
/// interleaved with anonymous faults"). Each file VMA is therefore grouped
/// with the largest still-unpaired anonymous VMA; groups run sequentially
/// and members of a group alternate in [`CHUNK_BYTES`] chunks.
fn population_groups(is_file: &[bool], ranges: &[VirtRange]) -> Vec<Vec<usize>> {
    let n = is_file.len();
    let mut partner: Vec<Option<usize>> = vec![None; n];
    let mut taken = vec![false; n];
    for i in (0..n).filter(|&i| is_file[i]) {
        let best = (0..n).filter(|&j| !is_file[j] && !taken[j]).max_by_key(|&j| ranges[j].len());
        if let Some(j) = best {
            partner[i] = Some(j);
            taken[j] = true;
        }
    }
    // Anonymous VMAs claimed by a file VMA run with it, wherever it sits.
    (0..n)
        .filter(|&i| is_file[i] || !taken[i])
        .map(|i| std::iter::once(i).chain(partner[i]).collect())
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use contig_mm::FileId;
    use contig_workloads::{Scale, Workload};

    fn run(kind: PolicyKind) -> (System, Populated) {
        let spec = Workload::PageRank.spec(Scale::tiny());
        Setup::aged(0xfeed).run(&Env::tiny(), kind, &spec)
    }

    #[test]
    fn population_maps_the_full_footprint() {
        let footprint = Workload::PageRank.spec(Scale::tiny()).footprint_bytes();
        for kind in [PolicyKind::Thp, PolicyKind::Ca, PolicyKind::Ingens] {
            let (sys, run) = run(kind);
            let mapped = sys.aspace(run.instance.pid).mapped_bytes();
            assert_eq!(mapped, footprint, "{kind:?} did not fully populate");
        }
    }

    #[test]
    fn file_vmas_flow_through_the_page_cache() {
        let (sys, run) = run(PolicyKind::Thp);
        let aspace = sys.aspace(run.instance.pid);
        let files: Vec<FileId> = (aspace.vma_ids())
            .filter_map(|v| match aspace.vma(v).kind() {
                VmaKind::File { file, .. } => Some(file),
                VmaKind::Anon => None,
            })
            .collect();
        assert_eq!(files.len(), 1, "PageRank reads one dataset");
        assert!(sys.page_cache().cached_pages(files[0]) > 0);
    }

    #[test]
    fn timeline_is_sampled_and_monotone_in_mapped_bytes() {
        let (_, run) = run(PolicyKind::Ca);
        assert!(run.timeline.len() >= 2);
        for w in run.timeline.windows(2) {
            assert!(w[1].mapped_bytes >= w[0].mapped_bytes);
        }
    }

    #[test]
    fn ca_beats_thp_on_mapping_counts() {
        let count = |kind: PolicyKind| {
            let (sys, run) = run(kind);
            let maps = contiguous_mappings(sys.aspace(run.instance.pid).page_table());
            CoverageStats::from_mappings(&maps).mappings_for_coverage(0.99)
        };
        let thp = count(PolicyKind::Thp);
        let ca = count(PolicyKind::Ca);
        assert!(ca * 2 <= thp, "CA n99 {ca} must be well under THP {thp}");
    }

    #[test]
    fn population_groups_pair_files_with_largest_anon() {
        let r = |len: u64| VirtRange::new(VirtAddr::new(0x1000_0000), len);
        // Layout like PageRank: anon, file, anon(largest), anon, anon.
        let is_file = [false, true, false, false, false];
        let ranges = [r(8 << 20), r(52 << 20), r(10 << 20), r(9 << 20), r(1 << 20)];
        let groups = population_groups(&is_file, &ranges);
        assert_eq!(groups, vec![vec![0], vec![1, 2], vec![3], vec![4]]);
        // No files: strictly sequential.
        let groups = population_groups(&[false, false], &[r(1), r(2)]);
        assert_eq!(groups, vec![vec![0], vec![1]]);
        // File with no anon partner streams alone.
        let groups = population_groups(&[true], &[r(1)]);
        assert_eq!(groups, vec![vec![0]]);
        // Two files claim distinct partners, largest first come first served.
        let is_file = [true, false, true, false];
        let ranges = [r(4 << 20), r(32 << 20), r(4 << 20), r(16 << 20)];
        let groups = population_groups(&is_file, &ranges);
        assert_eq!(groups, vec![vec![0, 1], vec![2, 3]]);
    }

    #[test]
    fn vm_population_and_2d_sampling() {
        let env = Env::tiny();
        let spec = Workload::Svm.spec(env.scale);
        let (vm, instance) = boot_vm(&env, PolicyKind::Thp, None, contig_mm::LEVELS, &spec);
        assert_eq!(vm.sample(instance.pid, 0).mapped_bytes, spec.footprint_bytes());
        let frames = |sys: &System| sys.machine().total_frames();
        assert!(frames(vm.host()) > frames(vm.guest()), "a VM's host has headroom over its guest");
    }
}
