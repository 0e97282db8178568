//! Fig. 11: isolated software overhead of the allocation mechanisms when no
//! translation hardware benefits from the contiguity.
//!
//! The paper measures wall-clock execution time on commodity hardware; the
//! simulator's analogue is a runtime model: application compute time (a
//! per-byte processing cost over the footprint) plus fault-handler time plus
//! daemon migration time (copy + TLB shootdown per migrated page). Eager and
//! CA paging add nothing measurable; ranger pays ~3 % for its migrations.
//! The *real* fault-path host time of the simulator itself is measured by
//! `benchmark/` (`mm.fault_4k_ns`, `core.ca_fault_4k_ns`).

use contig_mm::System;
use contig_workloads::Workload;

use crate::env::Env;
use crate::install::{install, populate_native, spec_ranges};
use crate::policies::{PolicyKind, PolicyRuntime};

/// Runtime-model constants (nanoseconds).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub(crate) struct RuntimeModel {
    /// Application processing cost per touched byte, in thousandths of a
    /// nanosecond (10 ns/B ≈ the multi-pass compute of the paper's
    /// minutes-long runs).
    pub(crate) compute_ns_per_byte_x1000: u64,
    /// Cost of migrating one base page (copy + remap).
    pub(crate) migrate_page_ns: u64,
    /// Cost of one TLB shootdown (IPIs + invalidations).
    pub(crate) shootdown_ns: u64,
}

impl Default for RuntimeModel {
    fn default() -> Self {
        Self { compute_ns_per_byte_x1000: 10_000, migrate_page_ns: 1_200, shootdown_ns: 4_000 }
    }
}

/// One Fig. 11 bar: execution time under the policy, normalized to THP.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct OverheadRow {
    /// Policy measured.
    pub(crate) policy: PolicyKind,
    /// Modelled execution time in nanoseconds.
    pub(crate) runtime_ns: u64,
    /// Normalized against the THP baseline (filled by the caller via
    /// [`normalize_rows`]).
    pub normalized: f64,
}

/// Runs the software-overhead model for one workload/policy pair.
pub fn run_overhead(env: &Env, workload: Workload, policy: PolicyKind) -> OverheadRow {
    let spec = workload.spec(env.scale);
    let mut sys = System::new(policy.system_config(env.native_machine(true)));
    let instance = install(&spec, &mut sys);
    let mut runtime = PolicyRuntime::new(policy, crate::contiguity::ranger_budget(env));
    runtime.plan_ideal(&sys, &spec_ranges(&spec));
    let mut timeline = Vec::new();
    populate_native(&mut sys, &mut runtime, &instance, &mut timeline)
        .unwrap_or_else(|e| panic!("overhead {} {}: {e}", workload.name(), policy.name()));
    let model = RuntimeModel::default();
    let compute_ns = spec.footprint_bytes() * model.compute_ns_per_byte_x1000 / 1000;
    let fault_ns = sys.aspace(instance.pid).stats().total_fault_ns;
    let migrated = runtime.pages_migrated();
    let shootdowns = match &runtime {
        PolicyRuntime::Ranger(_, d) => d.stats().shootdowns,
        _ => 0,
    };
    let daemon_ns = migrated * model.migrate_page_ns + shootdowns * model.shootdown_ns;
    OverheadRow {
        policy,
        runtime_ns: compute_ns + fault_ns + daemon_ns,
        normalized: 0.0,
    }
}

/// Normalizes a set of rows against the THP row (which must be present).
///
/// # Panics
///
/// Panics if no THP row exists.
pub fn normalize_rows(rows: &mut [OverheadRow]) {
    let base = rows
        .iter()
        .find(|r| r.policy == PolicyKind::Thp)
        .expect("THP baseline row required")
        .runtime_ns as f64;
    for r in rows {
        r.normalized = r.runtime_ns as f64 / base;
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fig11_shape_ca_free_ranger_pays() {
        let env = Env::tiny();
        let w = Workload::XsBench;
        let mut rows = vec![
            run_overhead(&env, w, PolicyKind::Thp),
            run_overhead(&env, w, PolicyKind::Ca),
            run_overhead(&env, w, PolicyKind::Eager),
            run_overhead(&env, w, PolicyKind::Ranger),
        ];
        normalize_rows(&mut rows);
        let by = |k: PolicyKind| rows.iter().find(|r| r.policy == k).unwrap().normalized;
        assert!((0.95..=1.05).contains(&by(PolicyKind::Ca)), "CA {}", by(PolicyKind::Ca));
        assert!((0.90..=1.10).contains(&by(PolicyKind::Eager)), "eager {}", by(PolicyKind::Eager));
        let ranger = by(PolicyKind::Ranger);
        assert!(
            (1.005..=1.25).contains(&ranger),
            "ranger must pay a visible migration cost, got {ranger}"
        );
    }

    #[test]
    #[should_panic(expected = "THP baseline row required")]
    fn normalize_requires_thp() {
        let env = Env::tiny();
        let mut rows = vec![run_overhead(&env, Workload::Svm, PolicyKind::Ca)];
        normalize_rows(&mut rows);
    }
}
