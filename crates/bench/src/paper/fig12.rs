//! Fig. 12: contiguity performance in virtualized execution (2D mappings).
//!
//! CA paging runs in the guest and host independently; the reported metrics
//! are over the composed gVA→hPA mappings of a second, reboot-free run.

use crate::cli::{header, pct, Options};
use contig_metrics::TextTable;
use contig_sim::{contiguity, PolicyKind};
use contig_workloads::Workload;

pub fn run(opts: &Options) {
    header("Fig. 12 — virtualized 2D contiguity", "paper Fig. 12 (a,b,c)", opts);
    let env = opts.env();
    let mut table = TextTable::new(&[
        "workload",
        "THP n99",
        "CA n99",
        "THP top32",
        "CA top32",
        "THP top128",
        "CA top128",
    ]);
    for w in Workload::ALL {
        let thp = contiguity::run_virtualized(&env, w, PolicyKind::Thp);
        let ca = contiguity::run_virtualized(&env, w, PolicyKind::Ca);
        table.row(&[
            w.name().to_string(),
            thp.metrics.n99.to_string(),
            ca.metrics.n99.to_string(),
            pct(thp.metrics.top32),
            pct(ca.metrics.top32),
            pct(thp.metrics.top128),
            pct(ca.metrics.top128),
        ]);
    }
    println!("{}", table.render());
    println!("paper shape: CA cuts the 99%-coverage mapping count by about an order of");
    println!("magnitude (~90 mappings) and covers ~86%/~96% with 32/128 mappings; 2D");
    println!("coverage trails native slightly because the dimensions are uncoordinated.");
}
