//! Fig. 1b: top-32 coverage over consecutive PageRank runs.
//!
//! Eager paging's coverage decays as the machine fragments (page-cache aging
//! across runs); CA paging sustains it by harvesting unaligned contiguity.

use crate::cli::{header, pct, Options};
use contig_metrics::TextTable;
use contig_sim::{contiguity, PolicyKind};
use contig_workloads::Workload;

pub fn run(opts: &Options) {
    header("Fig. 1b — PageRank coverage across consecutive runs", "paper Fig. 1b", opts);
    let env = opts.env();
    let eager = contiguity::run_consecutive(&env, Workload::PageRank, PolicyKind::Eager, opts.runs);
    let ca = contiguity::run_consecutive(&env, Workload::PageRank, PolicyKind::Ca, opts.runs);
    let mut table = TextTable::new(&["run", "eager top-32", "CA top-32"]);
    for i in 0..opts.runs {
        table.row(&[(i + 1).to_string(), pct(eager[i]), pct(ca[i])]);
    }
    println!("{}", table.render());
    let eager_drop = eager.first().copied().unwrap_or(0.0) - eager.last().copied().unwrap_or(0.0);
    let ca_drop = ca.first().copied().unwrap_or(0.0) - ca.last().copied().unwrap_or(0.0);
    println!("coverage drop first→last run: eager {}, CA {}", pct(eager_drop), pct(ca_drop));
    println!("paper shape: eager degrades progressively; CA sustains coverage.");
}
