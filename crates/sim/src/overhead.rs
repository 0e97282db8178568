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

use contig_workloads::Workload;

use crate::env::Env;
use crate::install::Setup;
use crate::policies::PolicyKind;

/// Application processing cost per touched byte, in thousandths of a
/// nanosecond (10 ns/B ≈ the multi-pass compute of the paper's minutes-long
/// runs).
const COMPUTE_NS_PER_BYTE_X1000: u64 = 10_000;
/// Cost of migrating one base page (copy + remap), in nanoseconds.
const MIGRATE_PAGE_NS: u64 = 1_200;
/// Cost of one TLB shootdown (IPIs + invalidations), in nanoseconds.
const SHOOTDOWN_NS: u64 = 4_000;

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
    let (sys, run) = Setup::default().run(env, policy, &spec);
    let compute_ns = spec.footprint_bytes() * COMPUTE_NS_PER_BYTE_X1000 / 1000;
    let fault_ns = sys.aspace(run.instance.pid).stats().total_fault_ns;
    let daemon_ns =
        run.policy.pages_migrated() * MIGRATE_PAGE_NS + run.policy.shootdowns() * SHOOTDOWN_NS;
    OverheadRow { policy, runtime_ns: compute_ns + fault_ns + daemon_ns, normalized: 0.0 }
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
    fn ca_ranger_is_charged_for_its_migrations_and_shootdowns() {
        // CA+ranger faults exactly like CA at test scale; its daemon then
        // migrates 65 536 XSBench pages with 128 TLB shootdowns, and the
        // model charges both, as it does for ranger.
        let env = Env::tiny();
        let ca = run_overhead(&env, Workload::XsBench, PolicyKind::Ca);
        let ca_ranger = run_overhead(&env, Workload::XsBench, PolicyKind::CaRanger);
        let daemon_ns = 65_536 * MIGRATE_PAGE_NS + 128 * SHOOTDOWN_NS;
        assert_eq!(ca_ranger.runtime_ns - ca.runtime_ns, daemon_ns);
    }

    #[test]
    #[should_panic(expected = "THP baseline row required")]
    fn normalize_requires_thp() {
        let env = Env::tiny();
        let mut rows = vec![run_overhead(&env, Workload::Svm, PolicyKind::Ca)];
        normalize_rows(&mut rows);
    }
}
