//! Metamorphic relations of the experiment harness: each holds exactly, so
//! it needs no reference answer, only a second way to compute the same
//! numbers.

use contig_baselines::{DirectSegment, VhcAnchorTlb, VrmmRangeTlb};
use contig_core::{SpotConfig, SpotPredictor, SpotStats};
use contig_sim::{translation, Env, PolicyKind};
use contig_tlb::{MissHandler, NoScheme};
use contig_types::{ContigMapping, PhysAddr, VirtAddr};
use contig_virt::{two_dimensional_mappings, NativeBackend, VmBackend};
use contig_workloads::{Workload, WorkloadSpec};

const ACCESSES: u64 = 100_000;
const SEED: u64 = 11;

/// One dual-direct segment from the lowest VMA base to the highest VMA end.
fn segment_over(spec: &WorkloadSpec) -> ContigMapping {
    let start = spec.vmas.iter().map(|v| v.base.raw()).min().expect("VMAs");
    let end = spec.vmas.iter().map(|v| v.base.raw() + v.len).max().expect("VMAs");
    ContigMapping::new(VirtAddr::new(start), PhysAddr::new(start), end - start)
}

/// Cell order, where a row shares: a Fig. 13 row boots each distinct
/// machine once and replays one trace through all eight cells. Each cell
/// replayed alone, on a machine booted for it and with the columns taken
/// in reverse, must read exactly what the row reads.
#[test]
fn fig13_cells_replayed_alone_in_reverse_match_the_shared_row() {
    let env = Env::tiny();
    let w = Workload::XsBench;
    let spec = w.spec(env.scale);
    let row = translation::fig13_row(&env, w, ACCESSES, SEED);
    for column in (0..row.len()).rev() {
        let (report, overhead, spot) = if column < 2 {
            let kind = [PolicyKind::FourK, PolicyKind::Thp][column];
            let (sys, pid) = translation::native_machine(&env, kind, &spec, SEED);
            let backend = NativeBackend::new(sys.aspace(pid).page_table());
            let [(report, overhead)] =
                translation::replay(&env, &spec, SEED, ACCESSES, [(&backend, &mut NoScheme)]);
            (report, overhead, SpotStats::default())
        } else {
            use PolicyKind::{Ca, FourK, Thp};
            let kind = [FourK, Thp, Ca, Ca, Ca, Thp][column - 2];
            let (vm, pid) = translation::nested_machine(&env, kind, &spec, SEED);
            let backend = VmBackend::new(&vm, pid);
            let mut spot = SpotPredictor::new(SpotConfig::default());
            let (mut vrmm, mut vhc, mut ds);
            let handler: &mut dyn MissHandler = match column {
                4 => &mut spot,
                5 => {
                    vrmm = VrmmRangeTlb::new(32, two_dimensional_mappings(&vm, pid));
                    &mut vrmm
                }
                6 => {
                    let mappings = two_dimensional_mappings(&vm, pid);
                    vhc = VhcAnchorTlb::with_adaptive_distance(32, mappings);
                    &mut vhc
                }
                7 => {
                    ds = DirectSegment::new(segment_over(&spec));
                    &mut ds
                }
                _ => &mut NoScheme,
            };
            let [(report, overhead)] =
                translation::replay(&env, &spec, SEED, ACCESSES, [(&backend, handler)]);
            (report, overhead, spot.stats())
        };
        let shared = &row[column];
        assert_eq!(report, shared.report, "column {column}");
        assert_eq!(overhead.to_bits(), shared.overhead.to_bits(), "column {column}");
        assert_eq!(spot, shared.spot, "column {column}");
    }
}
