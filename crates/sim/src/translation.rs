//! Address-translation experiments: Fig. 13 (overheads), Fig. 14 (SpOT
//! outcome breakdown), Table I (vRMM ranges vs vHC anchors), Table VII (USL
//! estimation).

use contig_baselines::{
    anchor_distance_pages, anchor_entries, DirectSegment, VhcAnchorTlb, VrmmRangeTlb,
};
use contig_core::{SpotConfig, SpotPredictor, SpotStats};
use contig_metrics::{CoverageStats, PerfModel, UslEstimate, UslInputs};
use contig_mm::LEVELS;
use contig_tlb::{MemorySim, MissHandler, NoScheme, SimReport, TranslationBackend};
use contig_types::{ContigMapping, VirtAddr};
use contig_virt::{two_dimensional_mappings, NativeBackend, VmBackend};
use contig_workloads::{TraceGenerator, Workload, WorkloadSpec};

use crate::env::Env;
use crate::install::{boot_vm, Setup};
use crate::policies::PolicyKind;

/// The translation configurations of Fig. 13.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub enum TranslationConfig {
    /// Native, THP off.
    Native4K,
    /// Native, THP on.
    NativeThp,
    /// Virtualized, THP off in both dimensions (4K+4K).
    Virt4K,
    /// Virtualized, THP on in both dimensions (THP+THP).
    VirtThp,
    /// Virtualized, CA paging in both dimensions, SpOT on the miss path.
    Spot,
    /// Virtualized, CA paging in both dimensions, vRMM range TLB.
    Vrmm,
    /// Virtualized, CA paging in both dimensions, vHC anchor TLB.
    Vhc,
    /// Virtualized, dual-direct-mode Direct Segments.
    DirectSegments,
}

impl TranslationConfig {
    /// All configurations, in the figure's order (vHC added beyond the
    /// paper's Fig. 13 set — the paper analyses it in Table I only).
    pub const ALL: [TranslationConfig; 8] = [
        TranslationConfig::Native4K,
        TranslationConfig::NativeThp,
        TranslationConfig::Virt4K,
        TranslationConfig::VirtThp,
        TranslationConfig::Spot,
        TranslationConfig::Vrmm,
        TranslationConfig::Vhc,
        TranslationConfig::DirectSegments,
    ];

    /// Whether the configuration is virtualized.
    pub(crate) fn virtualized(&self) -> bool {
        !matches!(self, TranslationConfig::Native4K | TranslationConfig::NativeThp)
    }
}

/// Result of one translation run.
#[derive(Clone, Debug)]
pub struct TranslationRun {
    /// The workload evaluated.
    pub(crate) workload: Workload,
    /// Raw simulator counters.
    pub report: SimReport,
    /// Translation overhead versus ideal execution (Table IV).
    pub overhead: f64,
    /// SpOT-specific outcome breakdown (zeroed for other schemes).
    pub spot: SpotStats,
}

/// Replays `accesses` references of `spec`'s trace, generated from `seed`,
/// through the environment's TLB and walk cost with `handler` on the miss
/// path. Returns the simulator's counters and the translation overhead the
/// paper's performance model puts on them.
pub fn replay(
    env: &Env,
    spec: &WorkloadSpec,
    seed: u64,
    accesses: u64,
    backend: &dyn TranslationBackend,
    handler: &mut dyn MissHandler,
) -> (SimReport, f64) {
    let mut sim = MemorySim::new(env.tlb(), env.walk_cost());
    sim.run(backend, handler, TraceGenerator::new(spec, seed).take_accesses(accesses));
    let report = sim.report();
    (report, PerfModel.scheme_overhead(&report))
}

/// Runs one workload under one translation configuration, simulating
/// `accesses` memory references after the allocation phase.
pub fn run_translation(
    env: &Env,
    workload: Workload,
    config: TranslationConfig,
    accesses: u64,
    seed: u64,
) -> TranslationRun {
    let spec = workload.spec(env.scale);
    let kind = match config {
        TranslationConfig::Native4K | TranslationConfig::Virt4K => PolicyKind::FourK,
        TranslationConfig::NativeThp
        | TranslationConfig::VirtThp
        | TranslationConfig::DirectSegments => PolicyKind::Thp,
        _ => PolicyKind::Ca,
    };
    let ((report, overhead), spot) = if config.virtualized() {
        let (vm, instance) = boot_vm(env, kind, Some((seed ^ 0x7a, seed ^ 0x7b)), LEVELS, &spec);
        let mut spot = SpotPredictor::new(SpotConfig::default());
        let (mut rmm, mut vhc, mut ds);
        let handler: &mut dyn MissHandler = match config {
            TranslationConfig::Spot => &mut spot,
            TranslationConfig::Vrmm => {
                rmm = VrmmRangeTlb::new(32, two_dimensional_mappings(&vm, instance.pid));
                &mut rmm
            }
            TranslationConfig::Vhc => {
                let mappings = two_dimensional_mappings(&vm, instance.pid);
                vhc = VhcAnchorTlb::with_adaptive_distance(32, mappings);
                &mut vhc
            }
            TranslationConfig::DirectSegments => {
                ds = DirectSegment::new(workload_segment(&spec.vmas));
                &mut ds
            }
            _ => &mut NoScheme,
        };
        let backend = VmBackend::new(&vm, instance.pid);
        // Zeros unless SpOT was the handler.
        (replay(env, &spec, seed, accesses, &backend, handler), spot.stats())
    } else {
        let (sys, run) = Setup::aged(seed ^ 0x7c).run(env, kind, &spec);
        let backend = NativeBackend::new(sys.aspace(run.instance.pid).page_table());
        let replayed = replay(env, &spec, seed, accesses, &backend, &mut NoScheme);
        (replayed, SpotStats::default())
    };
    TranslationRun { workload, report, overhead, spot }
}

/// The single dual-direct segment covering every VMA of the workload
/// (segments are reserved at VM boot, §VI-B).
fn workload_segment(vmas: &[contig_workloads::VmaSpec]) -> ContigMapping {
    let start = vmas.iter().map(|v| v.base.raw()).min().expect("workload has VMAs");
    let end = vmas.iter().map(|v| v.base.raw() + v.len).max().expect("workload has VMAs");
    ContigMapping::new(
        VirtAddr::new(start),
        contig_types::PhysAddr::new(start), // identity offset; only bounds matter
        end - start,
    )
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

/// Table VII: USL estimate from a SpOT run's counters plus the workload's
/// instruction-mix fractions.
pub fn usl_estimate(run: &TranslationRun, env: &Env) -> UslEstimate {
    let spec = run.workload.spec(env.scale);
    let model = PerfModel;
    let loads = run.report.accesses as f64;
    let instructions = loads / spec.load_fraction;
    let cycles = model.total_cycles(&run.report);
    UslEstimate::from_inputs(&UslInputs {
        instructions,
        branches: instructions * spec.branch_fraction,
        loads,
        cycles,
        dtlb_misses: run.report.walks as f64,
        avg_walk_cycles: run.report.avg_walk_cycles(),
        branch_resolution_cycles: 20.0,
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    const ACCESSES: u64 = 400_000;

    #[test]
    fn nested_paging_magnifies_overhead() {
        let env = Env::tiny();
        let w = Workload::XsBench;
        let native = run_translation(&env, w, TranslationConfig::NativeThp, ACCESSES, 1);
        let virt = run_translation(&env, w, TranslationConfig::VirtThp, ACCESSES, 1);
        assert!(virt.overhead > native.overhead * 1.5,
            "virt {} vs native {}", virt.overhead, native.overhead);
        assert!(virt.report.walks > 0);
    }

    #[test]
    fn fourk_dwarfs_thp_overhead() {
        let env = Env::tiny();
        let w = Workload::HashJoin;
        let thp = run_translation(&env, w, TranslationConfig::NativeThp, ACCESSES, 2);
        let fourk = run_translation(&env, w, TranslationConfig::Native4K, ACCESSES, 2);
        // The flat per-reference walk-cost model compresses the 4K/THP gap
        // relative to real hardware (where deeper walks also miss the MMU
        // caches more); the direction and a clear margin must hold.
        assert!(fourk.overhead > thp.overhead * 1.5,
            "4K {} vs THP {}", fourk.overhead, thp.overhead);
    }

    #[test]
    fn spot_slashes_nested_overhead() {
        let env = Env::tiny();
        let w = Workload::PageRank;
        let base = run_translation(&env, w, TranslationConfig::VirtThp, ACCESSES, 3);
        let spot = run_translation(&env, w, TranslationConfig::Spot, ACCESSES, 3);
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
        let env = Env::tiny();
        let w = Workload::XsBench;
        let base = run_translation(&env, w, TranslationConfig::VirtThp, ACCESSES, 4);
        let vrmm = run_translation(&env, w, TranslationConfig::Vrmm, ACCESSES, 4);
        let ds = run_translation(&env, w, TranslationConfig::DirectSegments, ACCESSES, 4);
        assert!(vrmm.overhead < base.overhead * 0.1, "vRMM {}", vrmm.overhead);
        assert!(ds.overhead < 1e-6, "DS eliminates everything, got {}", ds.overhead);
    }

    #[test]
    fn vhc_sits_between_baseline_and_vrmm() {
        let env = Env::tiny();
        let w = Workload::XsBench;
        let base = run_translation(&env, w, TranslationConfig::VirtThp, ACCESSES, 9);
        let vhc = run_translation(&env, w, TranslationConfig::Vhc, ACCESSES, 9);
        let vrmm = run_translation(&env, w, TranslationConfig::Vrmm, ACCESSES, 9);
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
        let spot = run_translation(&env, Workload::PageRank, TranslationConfig::Spot, ACCESSES, 5);
        let usl = usl_estimate(&spot, &env);
        assert!(usl.branch_fraction > 0.0);
        assert!(usl.spot_usl_fraction < usl.spectre_usl_fraction * 2.0);
    }
}
