//! Fig. 9: fragmentation restraint — the free-block size distribution of the
//! machine after a batch of workloads ran to completion under default paging
//! versus CA paging.

use contig_buddy::FreeBlockHistogram;
use contig_workloads::Workload;

use crate::env::Env;
use crate::install::{populate_native, Setup};
use crate::policies::PolicyKind;

/// Runs a batch of workloads sequentially to completion (dataset files stay
/// in the page cache, like long-lived cache mappings) and returns the free
/// block histogram of the aged machine.
pub fn run_fragmentation(env: &Env, policy: PolicyKind, batch: &[Workload]) -> FreeBlockHistogram {
    let mut sys = Setup::aged(0xf19).boot(env, policy);
    for &w in batch {
        let run = populate_native(env, policy, &mut sys, &w.spec(env.scale), false);
        sys.exit(run.instance.pid);
    }
    sys.machine().free_block_histogram()
}

#[cfg(test)]
mod tests {
    use super::*;
    use contig_buddy::SizeClass;

    #[test]
    fn fig9_shape_ca_preserves_vast_free_blocks() {
        let env = Env::tiny();
        let batch = [Workload::Svm, Workload::PageRank, Workload::Svm];
        let default_hist = run_fragmentation(&env, PolicyKind::Thp, &batch);
        let ca_hist = run_fragmentation(&env, PolicyKind::Ca, &batch);
        // With tiny scaling the ">1G" class is empty; compare the largest
        // meaningful class instead: free memory in >=32M runs.
        let big = |h: &FreeBlockHistogram| {
            h.fraction(SizeClass::From32MTo1G) + h.fraction(SizeClass::Over1G)
        };
        assert!(
            big(&ca_hist) >= big(&default_hist),
            "CA {:.3} must keep at least as much memory in vast runs as default {:.3}",
            big(&ca_hist),
            big(&default_hist)
        );
        // Both freed everything except the page cache.
        assert!(ca_hist.total_free_bytes() > 0);
    }
}
