//! Fig. 10: multi-programmed contiguity — two SVM instances populated
//! concurrently.
//!
//! Next-fit placement keeps the two footprints from interleaving physically;
//! each instance retains high top-32 coverage.

use crate::cli::{header, pct, Options};
use contig_metrics::TextTable;
use contig_sim::{contiguity, PolicyKind};
use contig_workloads::Workload;

pub fn run(opts: &Options) {
    header("Fig. 10 — two concurrent SVM instances", "paper Fig. 10", opts);
    let env = opts.env();
    let mut table = TextTable::new(&["policy", "instance A top-32", "instance B top-32"]);
    for p in [PolicyKind::Thp, PolicyKind::Ca, PolicyKind::CaReserve, PolicyKind::Eager, PolicyKind::Ranger] {
        let [a, b] = contiguity::run_multiprogrammed(&env, Workload::Svm, p, 0.0);
        table.row(&[p.name().to_string(), pct(a), pct(b)]);
    }
    println!("{}", table.render());
    println!("paper shape: CA keeps both instances' coverage high without pre-allocation;");
    println!("ranger's serial scans struggle to coalesce two interleaving footprints.");
}
