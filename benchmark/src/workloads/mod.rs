//! The four closed-loop, single-thread workloads and what they share.
//!
//! A workload is a fixed, seeded sequence of batches. One *repetition*
//! builds all state from the seed ([`Spec::build`], timed as set-up), then
//! for each batch generates its inputs untimed ([`Workload::prepare`]) and
//! times only the calls into the simulator ([`Workload::run`]).
//! [`Workload::finish`] digests the final state and checks its invariants;
//! the digest must repeat across repetitions.

use contig::buddy::{Machine, NodeId};
use contig::types::{splitmix64, Pfn};

use crate::rec::Recorder;

mod native_churn;
mod nested_boot;
mod torture_mix;
mod translation_replay;

pub use native_churn::{churn_system, fragment, machine_config, NativeChurn, PCP};
pub use nested_boot::{boot_vm, vm_mib};

/// How much work a run does: the full benchmark, or the seconds-long size
/// the unit tests and `ci.sh` use.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Size {
    Full,
    Smoke,
}

impl Size {
    /// `full` at full size, `smoke` at smoke size.
    pub fn pick<T>(self, full: T, smoke: T) -> T {
        match self {
            Size::Full => full,
            Size::Smoke => smoke,
        }
    }
}

/// What one timed batch did.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct BatchOut {
    /// Workload events completed (faults, accesses or torture ops).
    pub events: u64,
    /// Events whose call failed although nothing was injected.
    pub failed: u64,
}

/// Exact counts read from the simulator's public stats structs after a
/// repetition. A workload fills the fields its layers produce and leaves
/// the rest zero; they must repeat bit-for-bit between repetitions.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct Counts {
    pub allocs: u64,
    pub targeted_allocs: u64,
    pub targeted_misses: u64,
    pub frees: u64,
    pub splits: u64,
    pub coalesces: u64,
    pub pcp_hits: u64,
    pub pcp_refills: u64,
    pub pcp_evictions: u64,
    pub faults_4k: u64,
    pub faults_2m: u64,
    pub cow_faults: u64,
    pub thp_fallbacks: u64,
    pub oom_events: u64,
    pub recovery_retries: u64,
    pub daemon_moves: u64,
    /// Simulated nanoseconds the fault handlers charged (the paper's cost
    /// model, not host time).
    pub sim_fault_ns: u64,
    pub ca_placements: u64,
    pub ca_target_hits: u64,
    pub ca_target_misses: u64,
    pub spot_correct: u64,
    pub spot_total: u64,
    pub spot_fills: u64,
    pub host_faults: u64,
    /// Sum over profiled VMs of top-32 2D coverage in ppm, and how many.
    pub top32_coverage_ppm_sum: u64,
    pub coverage_samples: u64,
    pub migrations: u64,
    pub accesses: u64,
    pub l1_hits: u64,
    pub l2_hits: u64,
    pub walks: u64,
    pub walk_refs: u64,
    /// Simulated page-walk cycles.
    pub walk_cycles: u64,
    pub hidden: u64,
    pub audits: u64,
    pub sweeps: u64,
    pub crash_checks: u64,
    pub fleet_ops: u64,
    pub pressure_events: u64,
}

impl Counts {
    /// Adds a machine's allocator and per-CPU-cache counters.
    pub fn add_machine(&mut self, machine: &Machine) {
        let z = machine.counters();
        self.allocs += z.allocs;
        self.targeted_allocs += z.targeted_allocs;
        self.targeted_misses += z.targeted_misses;
        self.frees += z.frees;
        self.splits += z.splits;
        self.coalesces += z.coalesces;
        if let Some(p) = machine.pcp_counters() {
            self.pcp_hits += p.hits;
            self.pcp_refills += p.refills;
            self.pcp_evictions += p.targeted_evictions;
        }
    }

    /// Adds one address space's fault statistics (read them before `exit`,
    /// which drops the address space).
    pub fn add_faults(&mut self, stats: &contig::mm::FaultStats) {
        self.faults_4k += stats.faults_4k;
        self.faults_2m += stats.faults_2m;
        self.cow_faults += stats.cow_faults;
        self.thp_fallbacks += stats.thp_fallbacks;
        self.ca_target_hits += stats.ca_target_hits;
        self.ca_target_misses += stats.ca_target_misses;
        self.ca_placements += stats.placements;
        self.sim_fault_ns += stats.total_fault_ns;
    }

    /// Adds a system's recovery and maintenance-daemon counters.
    pub fn add_system(&mut self, sys: &contig::mm::System) {
        self.add_machine(sys.machine());
        let r = sys.recovery_stats();
        self.oom_events += r.oom_events;
        self.recovery_retries += r.retries;
        self.daemon_moves += sys.daemon_stats().compact_moves;
    }
}

/// What a repetition left behind, gathered untimed.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct Finish {
    /// Digest of the final simulated state and of every per-batch result.
    pub digest: u64,
    pub counts: Counts,
    /// Invariant violations found (audit findings, leaked frames, …); any
    /// entry makes the run incorrect.
    pub problems: Vec<String>,
}

/// One repetition's worth of workload state.
pub trait Workload {
    /// Generates batch `k`'s inputs. Untimed.
    fn prepare(&mut self, k: usize);
    /// Runs batch `k`: only calls into the simulator. Timed.
    fn run(&mut self, k: usize, rec: &mut Recorder) -> BatchOut;
    /// Digests the final state and checks its invariants. Untimed.
    fn finish(self: Box<Self>) -> Finish;
}

/// A workload's identity and constructor.
pub struct Spec {
    pub name: &'static str,
    /// Why the workload exists: which layers do its work, which do none.
    pub why: &'static str,
    /// What one event is.
    pub event: &'static str,
    /// Repetitions of a full run when no time budget cuts them.
    pub repetitions: usize,
    pub batches: fn(Size) -> usize,
    /// Per-layer host-time metrics of the workload's arms: batch `k` runs
    /// on arm `k % arms.len()`. Empty when every batch does the same thing.
    pub arms: &'static [&'static str],
    /// Builds all state from the seed; its wall time is `setup_s`.
    pub build: fn(u64, Size) -> Box<dyn Workload>,
}

/// The four workloads, in reporting order.
pub const ALL: [Spec; 4] = [
    native_churn::SPEC,
    nested_boot::SPEC,
    translation_replay::SPEC,
    torture_mix::SPEC,
];

/// Looks a workload up by name.
pub fn by_name(name: &str) -> Option<&'static Spec> {
    ALL.iter().find(|s| s.name == name)
}

/// Fisher–Yates shuffle driven by `splitmix64`.
pub fn shuffle<T>(items: &mut [T], rng: &mut u64) {
    for i in (1..items.len()).rev() {
        items.swap(i, (splitmix64(rng) % (i as u64 + 1)) as usize);
    }
}

/// Ages a machine's free lists the way `sim::install::age_machine` (private
/// to its crate) does, through the public allocator calls: every top-order
/// block is allocated, then freed in shuffled order, so LIFO lists end up
/// in the scattered order of a long-running system.
pub fn age_machine(machine: &mut Machine, seed: u64) {
    let mut blocks: Vec<(Pfn, u32)> = Vec::new();
    for n in 0..machine.nodes() {
        let zone = machine.zone_mut(NodeId(n));
        let top = zone.config().top_order;
        while let Ok(b) = zone.alloc(top) {
            blocks.push((b, top));
        }
    }
    let mut rng = seed;
    shuffle(&mut blocks, &mut rng);
    for (b, top) in blocks {
        machine.free(b, top);
    }
}

/// Checks that a system at rest is sound: auditor clean, allocator
/// structures intact, and exactly `pinned` frames not free.
pub fn check_system(what: &str, sys: &contig::mm::System, pinned: u64, problems: &mut Vec<String>) {
    let report = sys.audit();
    if !report.is_clean() {
        problems.push(format!("{what}: audit found {report:?}"));
    }
    sys.machine().verify_integrity();
    let machine = sys.machine();
    let in_use = machine.total_frames() - machine.free_frames();
    if in_use != pinned {
        problems.push(format!("{what}: {in_use} frames in use, expected {pinned}"));
    }
}
