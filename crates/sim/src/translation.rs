//! Address-translation experiments: Fig. 13 (overheads), Fig. 14 (SpOT
//! outcome breakdown), Table I (vRMM ranges vs vHC anchors), Table VII (USL
//! estimation), and the 5-level and shadow-paging extensions.

use contig_baselines::{
    anchor_distance_pages, anchor_entries, DirectSegment, VhcAnchorTlb, VrmmRangeTlb,
};
use contig_core::{SpotConfig, SpotPredictor, SpotStats};
use contig_metrics::{CoverageStats, PerfModel, UslEstimate, UslInputs};
use contig_mm::{Pid, System, LEVELS, LEVELS_LA57};
use contig_tlb::{MemorySim, MissHandler, NoScheme, SimReport, TranslationBackend};
use contig_types::{ContigMapping, PhysAddr, VirtAddr};
use contig_virt::{
    two_dimensional_mappings, NativeBackend, ShadowPageTable, VirtualMachine, VmBackend,
};
use contig_workloads::{TraceGenerator, Workload, WorkloadSpec};

use crate::env::Env;
use crate::install::{boot_vm, Setup};
use crate::policies::PolicyKind;

/// Accesses per trace chunk: every cell replays a chunk before the next is
/// drawn, so the buffer stays this size at any trace length.
const CHUNK: u64 = 1 << 10;

/// One cell of a row: the machine a trace is translated on, and the scheme
/// on its last-level miss path.
pub type Cell<'a> = (&'a dyn TranslationBackend, &'a mut dyn MissHandler);

/// Replays `accesses` references of `spec`'s trace, generated from `seed`,
/// through every cell with the environment's TLB and walk cost, and returns
/// each cell's counters and the overhead the paper's performance model puts
/// on them. The trace is drawn once, a fixed-size chunk at a time, and each
/// cell's own [`MemorySim`] runs every chunk: [`MemorySim::run`] counts as
/// stepping each access does, so a cell reads what it reads replayed alone.
pub fn replay<const N: usize>(
    env: &Env,
    spec: &WorkloadSpec,
    seed: u64,
    accesses: u64,
    mut cells: [Cell<'_>; N],
) -> [(SimReport, f64); N] {
    let mut sims = [(); N].map(|()| MemorySim::new(env.tlb(), env.walk_cost()));
    let mut trace = TraceGenerator::new(spec, seed);
    let mut chunk = Vec::with_capacity(CHUNK as usize);
    for start in (0..accesses).step_by(CHUNK as usize) {
        chunk.clear();
        for (i, (sim, (backend, handler))) in sims.iter_mut().zip(&mut cells).enumerate() {
            if i == 0 {
                // The first cell runs straight off the generator, so a lone
                // cell buffers nothing; it keeps the chunk for the others.
                let drawn = trace.take_accesses(CHUNK.min(accesses - start));
                sim.run(*backend, *handler, drawn.inspect(|&a| chunk.extend((N > 1).then_some(a))));
            } else {
                sim.run(*backend, *handler, chunk.iter().copied());
            }
        }
    }
    sims.map(|sim| (sim.report(), PerfModel.scheme_overhead(&sim.report())))
}

/// Result of one translation cell.
#[derive(Clone, Debug)]
pub struct TranslationRun {
    /// Raw simulator counters.
    pub report: SimReport,
    /// Translation overhead versus ideal execution (Table IV).
    pub overhead: f64,
    /// SpOT-specific outcome breakdown (zeroed for other schemes).
    pub spot: SpotStats,
}

/// The native system Fig. 13's native columns run on: the scaled machine
/// under `kind`, its free lists aged from `seed`, and `spec` populated in a
/// fresh process.
pub fn native_machine(
    env: &Env,
    kind: PolicyKind,
    spec: &WorkloadSpec,
    seed: u64,
) -> (System, Pid) {
    let (sys, run) = Setup::aged(seed ^ 0x7c).run(env, kind, spec);
    (sys, run.instance.pid)
}

/// The VM Fig. 13's virtualized columns run on: guest and host under
/// `kind` with 4-level tables, their free lists aged from `seed`, and
/// `spec` populated in a fresh guest process.
pub fn nested_machine(
    env: &Env,
    kind: PolicyKind,
    spec: &WorkloadSpec,
    seed: u64,
) -> (VirtualMachine, Pid) {
    let (vm, instance) = boot_vm(env, kind, Some((seed ^ 0x7a, seed ^ 0x7b)), LEVELS, spec);
    (vm, instance.pid)
}

/// One Fig. 13 row: `workload`'s `accesses` references after its
/// allocation phase, in the figure's eight columns. They are native 4K and
/// THP; virtualized 4K+4K and THP+THP; SpOT, vRMM and vHC on CA paging in
/// both dimensions (vHC is beyond the paper's Fig. 13 set, which analyses
/// it in Table I only); and dual-direct Direct Segments. SpOT, vRMM and vHC
/// share one CA VM, THP+THP and Direct Segments one THP VM, and all eight
/// cells replay one trace. SpOT's breakdown is zero outside its column.
pub fn fig13_row(env: &Env, workload: Workload, accesses: u64, seed: u64) -> [TranslationRun; 8] {
    use PolicyKind::{Ca, FourK, Thp};
    let spec = workload.spec(env.scale);
    let natives = [FourK, Thp].map(|kind| native_machine(env, kind, &spec, seed));
    let vms = [FourK, Thp, Ca].map(|kind| nested_machine(env, kind, &spec, seed));
    let [native_4k, native_thp] =
        natives.each_ref().map(|(sys, pid)| NativeBackend::new(sys.aspace(*pid).page_table()));
    let [vm_4k, vm_thp, vm_ca] = vms.each_ref().map(|(vm, pid)| VmBackend::new(vm, *pid));
    let ca_mappings = two_dimensional_mappings(&vms[2].0, vms[2].1);
    let mut spot = SpotPredictor::new(SpotConfig::default());
    let mut vrmm = VrmmRangeTlb::new(32, ca_mappings.clone());
    let mut vhc = VhcAnchorTlb::with_adaptive_distance(32, ca_mappings);
    let mut ds = DirectSegment::new(workload_segment(&spec.vmas));
    let cells: [Cell; 8] = [
        (&native_4k, &mut NoScheme),
        (&native_thp, &mut NoScheme),
        (&vm_4k, &mut NoScheme),
        (&vm_thp, &mut NoScheme),
        (&vm_ca, &mut spot),
        (&vm_ca, &mut vrmm),
        (&vm_ca, &mut vhc),
        (&vm_thp, &mut ds),
    ];
    let mut runs = replay(env, &spec, seed, accesses, cells).map(|(report, overhead)| {
        TranslationRun { report, overhead, spot: SpotStats::default() }
    });
    runs[4].spot = spot.stats();
    runs
}

/// Fig. 13's SpOT cell alone, as Fig. 14 and Table VII read it.
pub fn spot_run(env: &Env, workload: Workload, accesses: u64, seed: u64) -> TranslationRun {
    let spec = workload.spec(env.scale);
    let (vm, pid) = nested_machine(env, PolicyKind::Ca, &spec, seed);
    let mut spot = SpotPredictor::new(SpotConfig::default());
    let [(report, overhead)] =
        replay(env, &spec, seed, accesses, [(&VmBackend::new(&vm, pid), &mut spot)]);
    TranslationRun { report, overhead, spot: spot.stats() }
}

/// The single dual-direct segment covering every VMA of the workload
/// (segments are reserved at VM boot, §VI-B).
fn workload_segment(vmas: &[contig_workloads::VmaSpec]) -> ContigMapping {
    let start = vmas.iter().map(|v| v.base.raw()).min().expect("workload has VMAs");
    let end = vmas.iter().map(|v| v.base.raw() + v.len).max().expect("workload has VMAs");
    // Identity offset: only the bounds matter.
    ContigMapping::new(VirtAddr::new(start), PhysAddr::new(start), end - start)
}

/// One row of the 5-level extension: the overhead of THP+THP at 4 and at 5
/// page-table levels, then of SpOT on CA paging at 4 and at 5 levels. Each
/// is a VM of its own with boot-order free lists.
pub fn five_level_row(env: &Env, workload: Workload, accesses: u64, seed: u64) -> [f64; 4] {
    use PolicyKind::{Ca, Thp};
    let spec = workload.spec(env.scale);
    let vms = [(Thp, LEVELS), (Thp, LEVELS_LA57), (Ca, LEVELS), (Ca, LEVELS_LA57)]
        .map(|(kind, levels)| boot_vm(env, kind, None, levels, &spec));
    let [thp_4, thp_5, ca_4, ca_5] =
        vms.each_ref().map(|(vm, instance)| VmBackend::new(vm, instance.pid));
    let spot = || SpotPredictor::new(SpotConfig::default());
    let cells: [Cell; 4] = [
        (&thp_4, &mut NoScheme),
        (&thp_5, &mut NoScheme),
        (&ca_4, &mut spot()),
        (&ca_5, &mut spot()),
    ];
    replay(env, &spec, seed, accesses, cells).map(|(_, overhead)| overhead)
}

/// One row of the shadow-paging extension, on a CA VM with boot-order free
/// lists: the overhead of nested paging's 2D walks, of the shadow table's
/// 1D walks, and of those with SpOT on the miss path; then the hypervisor
/// traps the shadow table took to install its entries.
pub fn shadow_row(env: &Env, workload: Workload, accesses: u64, seed: u64) -> ([f64; 3], u64) {
    let spec = workload.spec(env.scale);
    let (vm, instance) = boot_vm(env, PolicyKind::Ca, None, LEVELS, &spec);
    let table = ShadowPageTable::build(&vm, instance.pid);
    let (nested, shadow) = (VmBackend::new(&vm, instance.pid), NativeBackend::new(table.table()));
    let spot = &mut SpotPredictor::new(SpotConfig::default());
    let cells: [Cell; 3] = [(&nested, &mut NoScheme), (&shadow, &mut NoScheme), (&shadow, spot)];
    (replay(env, &spec, seed, accesses, cells).map(|(_, overhead)| overhead), table.sync_updates())
}

/// Table I: ranges (vRMM) and anchor entries (vHC) to map 99 % of the
/// footprint, per policy, in virtualized execution.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct TableOneRow {
    /// Workload measured.
    pub(crate) workload: Workload,
    /// vRMM ranges under default THP.
    pub thp_ranges: usize,
    /// vHC anchor entries under default THP.
    pub thp_anchors: usize,
    /// vRMM ranges under CA paging.
    pub ca_ranges: usize,
    /// vHC anchor entries under CA paging.
    pub ca_anchors: usize,
}

/// Computes one Table I row by populating a VM under THP and under CA and
/// counting entries over the 2D mappings.
pub fn table_one_row(env: &Env, workload: Workload) -> TableOneRow {
    let spec = workload.spec(env.scale);
    let count = |kind: PolicyKind| -> (usize, usize) {
        let (vm, instance) = boot_vm(env, kind, Some((0x90, 0x91)), LEVELS, &spec);
        let maps = two_dimensional_mappings(&vm, instance.pid);
        let anchors = anchor_entries(&maps, anchor_distance_pages(&maps));
        (
            CoverageStats::from_mappings(&maps).mappings_for_coverage(0.99),
            CoverageStats::from_lens(anchors).mappings_for_coverage(0.99),
        )
    };
    let (thp_ranges, thp_anchors) = count(PolicyKind::Thp);
    let (ca_ranges, ca_anchors) = count(PolicyKind::Ca);
    TableOneRow { workload, thp_ranges, thp_anchors, ca_ranges, ca_anchors }
}

/// Table VII: USL estimate from a SpOT run's counters plus `workload`'s
/// instruction-mix fractions.
pub fn usl_estimate(env: &Env, workload: Workload, report: &SimReport) -> UslEstimate {
    let spec = workload.spec(env.scale);
    let model = PerfModel;
    let loads = report.accesses as f64;
    let instructions = loads / spec.load_fraction;
    let cycles = model.total_cycles(report);
    UslEstimate::from_inputs(&UslInputs {
        instructions,
        branches: instructions * spec.branch_fraction,
        loads,
        cycles,
        dtlb_misses: report.walks as f64,
        avg_walk_cycles: report.avg_walk_cycles(),
        branch_resolution_cycles: 20.0,
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    const ACCESSES: u64 = 400_000;

    #[test]
    fn nested_paging_magnifies_overhead() {
        let [_, native, _, virt, ..] = fig13_row(&Env::tiny(), Workload::XsBench, ACCESSES, 1);
        assert!(virt.overhead > native.overhead * 1.5,
            "virt {} vs native {}", virt.overhead, native.overhead);
        assert!(virt.report.walks > 0);
    }

    #[test]
    fn fourk_dwarfs_thp_overhead() {
        let [fourk, thp, ..] = fig13_row(&Env::tiny(), Workload::HashJoin, ACCESSES, 2);
        // The flat per-reference walk-cost model compresses the 4K/THP gap
        // relative to real hardware (where deeper walks also miss the MMU
        // caches more); the direction and a clear margin must hold.
        assert!(fourk.overhead > thp.overhead * 1.5,
            "4K {} vs THP {}", fourk.overhead, thp.overhead);
    }

    #[test]
    fn spot_slashes_nested_overhead() {
        let [.., base, spot, _, _, _] = fig13_row(&Env::tiny(), Workload::PageRank, ACCESSES, 3);
        assert!(
            spot.overhead < base.overhead * 0.5,
            "SpOT {} must slash THP+THP {} (warm-up dominates at short trace lengths)",
            spot.overhead,
            base.overhead
        );
        assert!(spot.spot.correct_rate() > 0.7, "got {}", spot.spot.correct_rate());
    }

    #[test]
    fn vrmm_and_ds_are_near_zero() {
        let [.., base, _, vrmm, _, ds] = fig13_row(&Env::tiny(), Workload::XsBench, ACCESSES, 4);
        assert!(vrmm.overhead < base.overhead * 0.1, "vRMM {}", vrmm.overhead);
        assert!(ds.overhead < 1e-6, "DS eliminates everything, got {}", ds.overhead);
    }

    #[test]
    fn vhc_sits_between_baseline_and_vrmm() {
        let [.., base, _, vrmm, vhc, _] = fig13_row(&Env::tiny(), Workload::XsBench, ACCESSES, 9);
        assert!(vhc.overhead < base.overhead, "anchors must help: {} vs {}",
            vhc.overhead, base.overhead);
        assert!(vhc.overhead >= vrmm.overhead,
            "alignment restrictions keep vHC behind ranges: {} vs {}",
            vhc.overhead, vrmm.overhead);
    }

    #[test]
    fn table_one_ca_shrinks_entries() {
        let env = Env::tiny();
        let row = table_one_row(&env, Workload::PageRank);
        assert!(row.ca_ranges * 2 <= row.thp_ranges, "{row:?}");
        assert!(row.ca_anchors >= row.ca_ranges, "anchors never beat ranges: {row:?}");
        assert!(row.ca_anchors < row.thp_anchors, "{row:?}");
    }

    #[test]
    fn usl_estimate_has_paper_shape() {
        let env = Env::tiny();
        let spot = spot_run(&env, Workload::PageRank, ACCESSES, 5);
        let usl = usl_estimate(&env, Workload::PageRank, &spot.report);
        assert!(usl.branch_fraction > 0.0);
        assert!(usl.spot_usl_fraction < usl.spectre_usl_fraction * 2.0);
    }
}
