//! Installing workloads into systems/VMs and driving their allocation phase.
//!
//! Population interleaves the workload's VMAs in chunks — real applications
//! fault heap regions while streaming dataset files through the page cache
//! (paper §III-C) — and gives daemons (ranger, Ingens promotion) a tick
//! every few chunks, sampling contiguity for the timeline figures.

use contig_buddy::Machine;
use contig_metrics::{CoverageStats, TimelinePoint};
use contig_mm::{contiguous_mappings, Pid, System, VmaId, VmaKind};
use contig_types::{FaultError, VirtAddr, VirtRange};
use contig_virt::VirtualMachine;
use contig_workloads::WorkloadSpec;
use rand::rngs::StdRng;
use rand::seq::SliceRandom;
use rand::SeedableRng;

use crate::policies::PolicyRuntime;

/// Ages a machine's buddy free lists: every top-order block is allocated and
/// freed back in shuffled order, leaving memory fully free and coalesced but
/// with the LIFO list order randomized — the state of a long-running system
/// whose default THP allocations land on scattered blocks. Address-sorted
/// lists (CA paging's configuration) and the contiguity map are unaffected
/// by construction.
pub(crate) fn age_machine(machine: &mut Machine, seed: u64) {
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
pub(crate) const CHUNK_BYTES: u64 = 8 << 20;

/// How many chunks pass between daemon ticks and timeline samples.
pub(crate) const TICK_EVERY_CHUNKS: usize = 8;

/// An installed workload instance inside one system.
#[derive(Debug)]
pub struct Instance {
    /// The owning process.
    pub pid: Pid,
    /// Installed VMAs in spec order.
    pub(crate) vmas: Vec<VmaId>,
}

/// Maps a workload's VMAs into a fresh process of `sys`.
pub(crate) fn install(spec: &WorkloadSpec, sys: &mut System) -> Instance {
    let pid = sys.spawn();
    let mut vmas = Vec::new();
    for v in &spec.vmas {
        let kind = if v.file_backed {
            let file = sys.page_cache_mut().create_file();
            VmaKind::File { file, start_page: 0 }
        } else {
            VmaKind::Anon
        };
        vmas.push(sys.aspace_mut(pid).map_vma(v.range(), kind));
    }
    Instance { pid, vmas }
}

/// The ranges of a spec (for ideal-paging planning).
pub(crate) fn spec_ranges(spec: &WorkloadSpec) -> Vec<VirtRange> {
    spec.vmas.iter().map(|v| v.range()).collect()
}

/// Drives the allocation phase natively: faults every page of every VMA,
/// interleaving VMAs in [`CHUNK_BYTES`] chunks, ticking daemons, and
/// sampling the contiguity timeline.
///
/// # Errors
///
/// Propagates the first fault failure (out of memory).
pub(crate) fn populate_native(
    sys: &mut System,
    runtime: &mut PolicyRuntime,
    instance: &Instance,
    timeline: &mut Vec<TimelinePoint>,
) -> Result<(), FaultError> {
    let ranges: Vec<VirtRange> =
        instance.vmas.iter().map(|&v| sys.aspace(instance.pid).vma(v).range()).collect();
    let is_file: Vec<bool> = instance
        .vmas
        .iter()
        .map(|&v| matches!(sys.aspace(instance.pid).vma(v).kind(), VmaKind::File { .. }))
        .collect();
    let groups = population_groups(&is_file, &ranges);
    let mut cursors: Vec<VirtAddr> = ranges.iter().map(|r| r.start()).collect();
    let mut chunks = 0usize;
    for group in groups {
        let mut done: Vec<bool> = group.iter().map(|&i| ranges[i].is_empty()).collect();
        while done.iter().any(|d| !d) {
            for (slot, &i) in group.iter().enumerate() {
                if done[slot] {
                    continue;
                }
                let range = &ranges[i];
                let chunk_end =
                    VirtAddr::new((cursors[i].raw() + CHUNK_BYTES).min(range.end().raw()));
                while cursors[i] < chunk_end {
                    let out = sys.touch(runtime.policy_mut(), instance.pid, cursors[i])?;
                    cursors[i] = cursors[i].align_down(out.size) + out.size.bytes();
                }
                if cursors[i] >= range.end() {
                    done[slot] = true;
                }
                chunks += 1;
                if chunks.is_multiple_of(TICK_EVERY_CHUNKS) {
                    runtime.tick(sys, &[instance.pid]);
                    let p = sample_native(sys, instance.pid, chunks as u64);
                    sys.tracer().emit(p.to_event());
                    timeline.push(p);
                }
            }
        }
    }
    // Post-allocation daemon work (promotions / remaining migrations) with a
    // bounded number of extra ticks, still sampling.
    for extra in 0..32 {
        let migrated_before = runtime.pages_migrated();
        runtime.tick(sys, &[instance.pid]);
        let p = sample_native(sys, instance.pid, (chunks + extra + 1) as u64);
        sys.tracer().emit(p.to_event());
        timeline.push(p);
        if runtime.pages_migrated() == migrated_before {
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
pub(crate) fn population_groups(is_file: &[bool], ranges: &[VirtRange]) -> Vec<Vec<usize>> {
    let n = is_file.len();
    let mut partner: Vec<Option<usize>> = vec![None; n];
    let mut taken = vec![false; n];
    for i in 0..n {
        if is_file[i] {
            let best = (0..n)
                .filter(|&j| !is_file[j] && !taken[j])
                .max_by_key(|&j| ranges[j].len());
            if let Some(j) = best {
                partner[i] = Some(j);
                taken[j] = true;
            }
        }
    }
    let mut groups = Vec::new();
    let mut emitted = vec![false; n];
    for i in 0..n {
        if emitted[i] {
            continue;
        }
        if is_file[i] {
            let mut g = vec![i];
            emitted[i] = true;
            if let Some(j) = partner[i] {
                if !emitted[j] {
                    g.push(j);
                    emitted[j] = true;
                }
            }
            groups.push(g);
        } else if !taken[i] {
            emitted[i] = true;
            groups.push(vec![i]);
        }
        // Anonymous VMAs claimed by a later file VMA are emitted with it.
    }
    groups
}

/// Samples the top-32 coverage of a native process.
pub(crate) fn sample_native(sys: &System, pid: Pid, t: u64) -> TimelinePoint {
    let maps = contiguous_mappings(sys.aspace(pid).page_table());
    let cov = CoverageStats::from_mappings(&maps);
    TimelinePoint { t, top32_bytes: cov.top_k_bytes(32), mapped_bytes: cov.total_bytes() }
}

/// Installs a workload into the guest of a VM.
pub fn install_in_vm(spec: &WorkloadSpec, vm: &mut VirtualMachine) -> Instance {
    install(spec, vm.guest_mut())
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
    let ranges: Vec<VirtRange> = instance
        .vmas
        .iter()
        .map(|&v| vm.guest().aspace(instance.pid).vma(v).range())
        .collect();
    let is_file: Vec<bool> = instance
        .vmas
        .iter()
        .map(|&v| matches!(vm.guest().aspace(instance.pid).vma(v).kind(), VmaKind::File { .. }))
        .collect();
    let groups = population_groups(&is_file, &ranges);
    let mut cursors: Vec<VirtAddr> = ranges.iter().map(|r| r.start()).collect();
    let mut chunks = 0u64;
    for group in groups {
        let mut done: Vec<bool> = group.iter().map(|&i| ranges[i].is_empty()).collect();
        while done.iter().any(|d| !d) {
            for (slot, &i) in group.iter().enumerate() {
                if done[slot] {
                    continue;
                }
                let range = &ranges[i];
                let chunk_end =
                    VirtAddr::new((cursors[i].raw() + CHUNK_BYTES).min(range.end().raw()));
                while cursors[i] < chunk_end {
                    let out = vm.touch(instance.pid, cursors[i])?;
                    cursors[i] = cursors[i].align_down(out.size) + out.size.bytes();
                }
                if cursors[i] >= range.end() {
                    done[slot] = true;
                }
                chunks += 1;
                if (chunks as usize).is_multiple_of(TICK_EVERY_CHUNKS) {
                    let p = sample_vm(vm, instance.pid, chunks);
                    vm.tracer().emit(p.to_event());
                    timeline.push(p);
                }
            }
        }
    }
    let p = sample_vm(vm, instance.pid, chunks + 1);
    vm.tracer().emit(p.to_event());
    timeline.push(p);
    Ok(())
}

/// Samples the top-32 coverage of the *2D* (gVA→hPA) mappings.
pub(crate) fn sample_vm(vm: &VirtualMachine, pid: Pid, t: u64) -> TimelinePoint {
    let maps = contig_virt::two_dimensional_mappings(vm, pid);
    let cov = CoverageStats::from_mappings(&maps);
    TimelinePoint { t, top32_bytes: cov.top_k_bytes(32), mapped_bytes: cov.total_bytes() }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::env::Env;
    use crate::policies::{PolicyKind, PolicyRuntime};
    use contig_mm::{FileId, System};
    use contig_workloads::{Scale, Workload};

    fn run(kind: PolicyKind) -> (System, Instance, Vec<TimelinePoint>) {
        let env = Env::tiny();
        let spec = Workload::PageRank.spec(Scale::tiny());
        let mut sys = System::new(kind.system_config(env.native_machine(true)));
        age_machine(sys.machine_mut(), 0xfeed);
        let instance = install(&spec, &mut sys);
        let mut runtime = PolicyRuntime::new(kind, 1 << 18);
        runtime.plan_ideal(&sys, &spec_ranges(&spec));
        let mut timeline = Vec::new();
        populate_native(&mut sys, &mut runtime, &instance, &mut timeline).unwrap();
        (sys, instance, timeline)
    }

    #[test]
    fn population_maps_the_full_footprint() {
        for kind in [PolicyKind::Thp, PolicyKind::Ca, PolicyKind::Ingens] {
            let (sys, instance, _) = run(kind);
            let spec = Workload::PageRank.spec(Scale::tiny());
            assert_eq!(
                sys.aspace(instance.pid).mapped_bytes(),
                spec.footprint_bytes(),
                "{:?} did not fully populate",
                kind
            );
        }
    }

    #[test]
    fn file_vmas_flow_through_the_page_cache() {
        let (sys, instance, _) = run(PolicyKind::Thp);
        let aspace = sys.aspace(instance.pid);
        let files: Vec<FileId> = (instance.vmas.iter())
            .filter_map(|&v| match aspace.vma(v).kind() {
                VmaKind::File { file, .. } => Some(file),
                VmaKind::Anon => None,
            })
            .collect();
        assert_eq!(files.len(), 1, "PageRank reads one dataset");
        assert!(sys.page_cache().cached_pages(files[0]) > 0);
    }

    #[test]
    fn timeline_is_sampled_and_monotone_in_mapped_bytes() {
        let (_, _, timeline) = run(PolicyKind::Ca);
        assert!(timeline.len() >= 2);
        for w in timeline.windows(2) {
            assert!(w[1].mapped_bytes >= w[0].mapped_bytes);
        }
    }

    #[test]
    fn ca_beats_thp_on_mapping_counts() {
        use contig_metrics::CoverageStats;
        use contig_mm::contiguous_mappings;
        let count = |kind: PolicyKind| {
            let (sys, instance, _) = run(kind);
            let maps = contiguous_mappings(sys.aspace(instance.pid).page_table());
            CoverageStats::from_mappings(&maps).mappings_for_coverage(0.99)
        };
        let thp = count(PolicyKind::Thp);
        let ca = count(PolicyKind::Ca);
        assert!(ca * 2 <= thp, "CA n99 {ca} must be well under THP {thp}");
    }

    #[test]
    fn population_groups_pair_files_with_largest_anon() {
        use contig_types::{VirtAddr, VirtRange};
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
        use contig_mm::DefaultThpPolicy;
        use contig_virt::{VirtualMachine, VmConfig};
        let spec = Workload::Svm.spec(Scale::tiny());
        let mut vm = VirtualMachine::new(
            VmConfig::with_mib(512, 640),
            Box::new(DefaultThpPolicy),
            Box::new(DefaultThpPolicy),
        );
        let instance = install_in_vm(&spec, &mut vm);
        let mut timeline = Vec::new();
        populate_vm(&mut vm, &instance, &mut timeline).unwrap();
        let last = timeline.last().unwrap();
        assert_eq!(last.mapped_bytes, spec.footprint_bytes());
    }
}
