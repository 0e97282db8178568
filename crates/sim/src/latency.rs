//! Table V: page-fault counts and tail latency under THP, CA paging, and
//! eager paging.

use contig_workloads::Workload;

use crate::env::Env;
use crate::install::Setup;
use crate::policies::PolicyKind;

/// One Table V cell set for a policy.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct LatencyRow {
    /// Policy measured.
    pub(crate) policy: PolicyKind,
    /// Total page faults serviced.
    pub faults: u64,
    /// 99th-percentile fault latency in microseconds.
    pub p99_us: u64,
    /// Mean fault latency in microseconds.
    pub(crate) mean_us: u64,
}

/// Runs the fault-latency experiment for one workload and policy, recording
/// every fault latency.
pub fn run_latency(env: &Env, workload: Workload, policy: PolicyKind) -> LatencyRow {
    // Anonymous faults only: the paper's Table V measures anonymous fault
    // latency (page-cache readahead has its own cost structure).
    let setup = Setup { age: Some(0x7ab), anon_only: true, latencies: true, hog: None };
    let (sys, run) = setup.run(env, policy, &workload.spec(env.scale));
    let stats = sys.aspace(run.instance.pid).stats();
    LatencyRow {
        policy,
        faults: stats.total_faults(),
        p99_us: stats.percentile_latency_ns(0.99) / 1_000,
        mean_us: stats.mean_latency_ns() / 1_000,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn table5_shape_eager_fewer_faults_huge_latency() {
        let env = Env::tiny();
        // XSBench: few, large VMAs, so fault counts reflect the mechanism
        // rather than the VMA count.
        let w = Workload::XsBench;
        let thp = run_latency(&env, w, PolicyKind::Thp);
        let ca = run_latency(&env, w, PolicyKind::Ca);
        let eager = run_latency(&env, w, PolicyKind::Eager);
        // CA preserves demand paging: same fault count as THP, similar tail.
        assert_eq!(thp.faults, ca.faults);
        assert!(ca.p99_us <= thp.p99_us + thp.p99_us / 5, "CA {} vs THP {}", ca.p99_us, thp.p99_us);
        // Eager collapses faults (one per VMA) and magnifies the tail. At
        // tiny test scale the ratios are smaller than the paper's but the
        // direction must hold; the bench binary runs at full scale.
        assert!(eager.faults * 2 < thp.faults, "eager {} vs {}", eager.faults, thp.faults);
        assert!(
            eager.p99_us > thp.p99_us * 5,
            "eager tail {} must dwarf THP {}",
            eager.p99_us,
            thp.p99_us
        );
    }

    #[test]
    fn latency_rows_are_deterministic() {
        let env = Env::tiny();
        let a = run_latency(&env, Workload::HashJoin, PolicyKind::Ca);
        let b = run_latency(&env, Workload::HashJoin, PolicyKind::Ca);
        assert_eq!(a, b);
    }
}
