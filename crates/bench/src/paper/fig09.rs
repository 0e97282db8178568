//! Fig. 9: free-block size distribution after a batch of benchmark runs.
//!
//! CA paging restrains fragmentation: after the batch exits, far more free
//! memory remains in vast (>1 GiB at paper scale) unaligned runs.

use crate::cli::{header, pct, Options};
use contig_buddy::SizeClass;
use contig_metrics::TextTable;
use contig_sim::{fragmentation, PolicyKind};
use contig_workloads::Workload;

pub fn run(opts: &Options) {
    header("Fig. 9 — free-block size distribution after benchmark batch", "paper Fig. 9", opts);
    let env = opts.env();
    let batch =
        [Workload::Svm, Workload::PageRank, Workload::XsBench, Workload::Svm, Workload::PageRank];
    let default_hist = fragmentation::run_fragmentation(&env, PolicyKind::Thp, &batch);
    let ca_hist = fragmentation::run_fragmentation(&env, PolicyKind::Ca, &batch);
    let mut table = TextTable::new(&["size class", "default paging", "CA paging"]);
    for class in SizeClass::ALL {
        table.row(&[
            class.to_string(),
            pct(default_hist.fraction(class)),
            pct(ca_hist.fraction(class)),
        ]);
    }
    println!("{}", table.render());
    println!("(fractions of free memory by maximal unaligned free-run size)");
    println!("paper shape: with CA a significantly larger portion of free memory");
    println!("remains in the largest class, driven by contiguous allocation and");
    println!("contiguous long-lived page-cache mappings.");
}
