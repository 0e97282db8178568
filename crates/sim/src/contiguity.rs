//! Contiguity experiments: Fig. 7 (native, no pressure), Fig. 8 (under
//! memory pressure), Fig. 12 (virtualized 2D), Fig. 1b (consecutive runs),
//! Fig. 1c (timeline vs ranger), and Fig. 10 (multi-programmed).

use contig_metrics::{CoverageStats, TimelinePoint};
use contig_mm::{contiguous_mappings, Pid, System, LEVELS};
use contig_virt::two_dimensional_mappings;
use contig_workloads::Workload;

use crate::env::Env;
use crate::install::{
    boot_vm, fault_chunk, install, install_in_vm, populate_native, populate_vm, spec_ranges, Native,
    Setup, TICK_EVERY_CHUNKS,
};
use crate::policies::PolicyKind;

/// The three headline contiguity metrics of Fig. 7/8/12.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct ContiguityMetrics {
    /// Footprint fraction covered by the 32 largest mappings.
    pub top32: f64,
    /// Footprint fraction covered by the 128 largest mappings.
    pub top128: f64,
    /// Mappings needed for 99 % coverage.
    pub n99: usize,
    /// Total mapped bytes.
    pub(crate) footprint: u64,
}

impl ContiguityMetrics {
    /// Computes the metrics from a mapping set.
    pub(crate) fn from_coverage(cov: &CoverageStats) -> Self {
        Self {
            top32: cov.top_k_coverage(32),
            top128: cov.top_k_coverage(128),
            n99: cov.mappings_for_coverage(0.99),
            footprint: cov.total_bytes(),
        }
    }
}

/// The coverage of a native process's mappings.
fn coverage(sys: &System, pid: Pid) -> CoverageStats {
    CoverageStats::from_mappings(&contiguous_mappings(sys.aspace(pid).page_table()))
}

/// Result of one contiguity run.
#[derive(Clone, Debug)]
pub struct ContiguityRun {
    /// Final-state metrics.
    pub metrics: ContiguityMetrics,
    /// Top-32 coverage timeline across the allocation phase.
    pub timeline: Vec<TimelinePoint>,
    /// Pages migrated by daemons (ranger/Ingens).
    pub pages_migrated: u64,
}

/// Runs one native contiguity experiment.
///
/// `pressure` pins that fraction of physical memory with the hog before the
/// workload starts (Fig. 8); the machine is single-node when pressure is
/// applied, mirroring the paper's NUMA-off fragmentation runs.
///
/// # Panics
///
/// Panics if the workload does not fit the (hogged) machine.
pub fn run_native(
    env: &Env,
    workload: Workload,
    policy: PolicyKind,
    pressure: f64,
    seed: u64,
) -> ContiguityRun {
    let hog = (pressure > 0.0).then_some((pressure, seed));
    let setup = Setup { age: Some(seed ^ 0xa9e), hog, ..Setup::default() };
    let (sys, run) = setup.run(env, policy, &workload.spec(env.scale));
    ContiguityRun {
        metrics: ContiguityMetrics::from_coverage(&coverage(&sys, run.instance.pid)),
        timeline: run.timeline,
        pages_migrated: run.policy.pages_migrated(),
    }
}

/// Runs one virtualized contiguity experiment (Fig. 12): the policy is
/// installed in the guest *and* host independently; the workload runs twice
/// without a VM reboot, and the second run's 2D contiguity is reported
/// (gPA→hPA mappings persist across guest process lifetimes, §III-C).
///
/// # Panics
///
/// Panics for a kind a VM cannot honour (ideal, Ingens, ranger and
/// CA+ranger).
pub fn run_virtualized(env: &Env, workload: Workload, policy: PolicyKind) -> ContiguityRun {
    let spec = workload.spec(env.scale);
    // First (warm-up) run: populate and exit, leaving the host dimension
    // populated and the guest buddy state aged.
    let (mut vm, warmup) = boot_vm(env, policy, Some((0x61e, 0x62f)), LEVELS, &spec);
    vm.exit_guest_process(warmup.pid);
    // Measured run.
    let instance = install_in_vm(&spec, &mut vm);
    let mut timeline = Vec::new();
    populate_vm(&mut vm, &instance, &mut timeline)
        .unwrap_or_else(|e| panic!("measured {}: {e}", workload.name()));
    let maps = two_dimensional_mappings(&vm, instance.pid);
    ContiguityRun {
        metrics: ContiguityMetrics::from_coverage(&CoverageStats::from_mappings(&maps)),
        timeline,
        pages_migrated: 0,
    }
}

/// Fig. 1b: `runs` consecutive executions of the workload on one machine
/// whose page cache ages across runs; returns the final top-32 coverage of
/// each run.
pub fn run_consecutive(
    env: &Env,
    workload: Workload,
    policy: PolicyKind,
    runs: usize,
) -> Vec<f64> {
    let spec = workload.spec(env.scale);
    let mut sys = Setup::aged(0x1b).boot(env, policy);
    (0..runs)
        .map(|_| {
            // Page-cache aging: evict oldest files until the footprint fits.
            evict_until_fits(&mut sys, spec.footprint_bytes());
            let pid = populate_native(env, policy, &mut sys, &spec, false).instance.pid;
            let top32 = coverage(&sys, pid).top_k_coverage(32);
            sys.exit(pid);
            top32
        })
        .collect()
}

/// Page-cache reclaim: free memory for the next run the way a kernel does —
/// partial LRU eviction first (leaving scattered long-lived remnants that
/// fragment the physical address space across the consecutive runs of
/// Fig. 1b), whole files only when that is not enough.
fn evict_until_fits(sys: &mut System, need_bytes: u64) {
    /// Alternating 16 MiB stripes (4096 pages) survive partial reclaim.
    const STRIPE_PAGES: u64 = 4096;
    let need_frames = need_bytes / 4096 + (need_bytes / 4096 / 8);
    let files = sys.page_cache().file_count();
    for file in 0..files {
        if sys.machine().free_frames() >= need_frames {
            return;
        }
        let f = contig_mm::FileId(file);
        if sys.page_cache().cached_pages(f) > 0 {
            sys.evict_file_pages_where(f, |idx| (idx / STRIPE_PAGES).is_multiple_of(2));
        }
    }
    for file in 0..files {
        if sys.machine().free_frames() >= need_frames {
            return;
        }
        let f = contig_mm::FileId(file);
        if sys.page_cache().cached_pages(f) > 0 {
            sys.evict_file(f);
        }
    }
}

/// Fig. 10: two instances of the workload populated concurrently
/// (chunk-interleaved); returns each instance's final top-32 coverage.
/// `pressure` optionally pins memory with the hog first (the reservation
/// extension's stress case).
pub fn run_multiprogrammed(
    env: &Env,
    workload: Workload,
    policy: PolicyKind,
    pressure: f64,
) -> [f64; 2] {
    let spec = workload.spec(env.scale);
    let hog = (pressure > 0.0).then_some((pressure, 0x10b));
    let mut sys = Setup { age: Some(0x10a), hog, ..Setup::default() }.boot(env, policy);
    // Two fresh processes with the same layout (virtual spaces are
    // per-process, so the same bases are fine).
    let pids = [(); 2].map(|()| install(&spec, &mut sys, false).pid);
    let ranges = spec_ranges(&spec);
    let mut policies = pids.map(|_| policy.policy(env, Some((sys.machine(), &ranges))));
    // Interleave the two processes one chunk each per round, each chunk from
    // the process's first VMA not yet populated.
    let mut cursors = pids.map(|_| ranges.iter().map(|r| r.start()).collect::<Vec<_>>());
    let mut chunks = 0u64;
    let mut progressed = true;
    while progressed {
        progressed = false;
        for (which, placement) in policies.iter_mut().enumerate() {
            let cursors = &mut cursors[which];
            let Some(i) = (0..ranges.len()).find(|&i| cursors[i] < ranges[i].end()) else {
                continue;
            };
            let target = &mut Native { sys: &mut sys, policy: &mut **placement };
            fault_chunk(target, pids[which], &mut cursors[i], ranges[i].end())
                .unwrap_or_else(|e| panic!("multiprog fault: {e}"));
            progressed = true;
            chunks += 1;
            if chunks.is_multiple_of(TICK_EVERY_CHUNKS) {
                placement.tick(&mut sys, &pids);
            }
        }
    }
    pids.map(|pid| coverage(&sys, pid).top_k_coverage(32))
}

#[cfg(test)]
mod tests {
    use super::*;

    fn env() -> Env {
        Env::tiny()
    }

    #[test]
    fn fig7_shape_ca_matches_eager_and_beats_thp() {
        let w = Workload::XsBench;
        let thp = run_native(&env(), w, PolicyKind::Thp, 0.0, 1);
        let ca = run_native(&env(), w, PolicyKind::Ca, 0.0, 1);
        let eager = run_native(&env(), w, PolicyKind::Eager, 0.0, 1);
        // Eager populates each VMA in one shot and so never races itself;
        // CA's interleaved faults cost a few sub-VMA re-placements (the paper
        // likewise reports ~27 mappings for CA where eager needs fewer).
        // Same order of magnitude is the Fig. 7 claim.
        assert!(
            ca.metrics.n99 <= eager.metrics.n99 * 4,
            "CA ~ eager on a fresh machine: CA n99 {} vs eager n99 {}",
            ca.metrics.n99,
            eager.metrics.n99
        );
        // At test scale THP's count is bounded by footprint/4 MiB; the bench
        // binaries at full scale show the orders-of-magnitude gap.
        assert!(
            thp.metrics.n99 >= 5 * ca.metrics.n99.max(1),
            "THP needs far more mappings: {} vs {}",
            thp.metrics.n99,
            ca.metrics.n99
        );
        assert!(ca.metrics.top32 > 0.95);
    }

    #[test]
    fn fig8_shape_ca_beats_eager_under_pressure() {
        let w = Workload::Svm;
        let ca = run_native(&env(), w, PolicyKind::Ca, 0.4, 7);
        let eager = run_native(&env(), w, PolicyKind::Eager, 0.4, 7);
        assert!(
            ca.metrics.top128 >= eager.metrics.top128,
            "CA {:.3} must stay at least at eager's level {:.3} under pressure",
            ca.metrics.top128,
            eager.metrics.top128
        );
        let ideal = run_native(&env(), w, PolicyKind::Ideal, 0.4, 7);
        assert!(ca.metrics.top128 >= ideal.metrics.top128 * 0.85, "CA follows ideal");
    }

    #[test]
    fn fig1c_shape_ranger_lags_ca_midway() {
        // A larger scale so top-32 coverage can discriminate (at tiny scale
        // the whole footprint fits in 32 scattered runs).
        let env = Env::new(contig_workloads::Scale(256));
        let w = Workload::XsBench;
        let ca = run_native(&env, w, PolicyKind::Ca, 0.0, 3);
        let ranger = run_native(&env, w, PolicyKind::Ranger, 0.0, 3);
        // Compare coverage midway through the allocation phase.
        let midway = |run: &ContiguityRun| {
            let mid = run.timeline.len() / 2;
            run.timeline[mid].top32()
        };
        assert!(
            midway(&ca) > midway(&ranger),
            "CA generates contiguity instantly; ranger needs migrations to catch up"
        );
        assert!(ranger.pages_migrated > 0);
        assert_eq!(ca.pages_migrated, 0);
    }

    #[test]
    fn fig12_virtualized_2d_contiguity() {
        // PageRank has few, large VMAs so the mapping counts are dominated
        // by placement quality rather than VMA count.
        let w = Workload::PageRank;
        let thp = run_virtualized(&env(), w, PolicyKind::Thp);
        let ca = run_virtualized(&env(), w, PolicyKind::Ca);
        assert!(
            ca.metrics.n99 * 2 <= thp.metrics.n99,
            "CA 2D mappings {} ≪ THP {}",
            ca.metrics.n99,
            thp.metrics.n99
        );
        assert!(ca.metrics.top128 > 0.9, "got {}", ca.metrics.top128);
    }

    #[test]
    fn vm_runs_place_with_the_kinds_own_policy() {
        // By the first timeline sample demand paging has mapped exactly the
        // eight 8 MiB chunks it faulted; eager paging backs a whole VMA on
        // its first fault, so it has mapped more.
        let first = |kind| run_virtualized(&env(), Workload::XsBench, kind).timeline[0];
        assert_eq!(first(PolicyKind::Thp).mapped_bytes, 64 << 20);
        let eager = first(PolicyKind::Eager).mapped_bytes;
        assert!(eager > 64 << 20, "eager mapped only {eager} bytes in eight chunks");
    }

    #[test]
    #[should_panic(expected = "ideal cannot run in a VM")]
    fn ideal_paging_has_no_plan_in_a_vm() {
        run_virtualized(&env(), Workload::Svm, PolicyKind::Ideal);
    }

    #[test]
    #[should_panic(expected = "Ingens cannot run in a VM")]
    fn ingens_has_no_daemon_in_a_vm() {
        run_virtualized(&env(), Workload::Svm, PolicyKind::Ingens);
    }

    #[test]
    fn fig10_multiprogrammed_instances_both_covered() {
        let covs = run_multiprogrammed(&env(), Workload::Svm, PolicyKind::Ca, 0.0);
        for c in covs {
            assert!(c > 0.8, "each instance keeps high coverage, got {c}");
        }
    }
}

