//! Fig. 13: execution-time overhead of data-TLB misses that trigger page
//! walks, across translation configurations.
//!
//! Native and virtualized paging baselines expose their walks; SpOT, vRMM,
//! and Direct Segments are emulated on the last-level miss path and priced
//! with the Table IV linear model.

use crate::cli::{header, pct, Options};
use contig_metrics::{geomean, TextTable};
use contig_sim::translation;
use contig_workloads::Workload;

pub fn run(opts: &Options) {
    header("Fig. 13 — address-translation overhead", "paper Fig. 13", opts);
    let env = opts.env();
    let mut table = TextTable::new(&[
        "workload", "4K", "THP", "4K+4K", "THP+THP", "SpOT", "vRMM", "vHC", "DS",
    ]);
    let mut per_column: [Vec<f64>; 8] = Default::default();
    for w in Workload::ALL {
        let mut cells = vec![w.name().to_string()];
        let row = translation::fig13_row(&env, w, opts.accesses, 42);
        for (run, column) in row.iter().zip(&mut per_column) {
            cells.push(pct(run.overhead));
            column.push(run.overhead.max(1e-6));
        }
        table.row(&cells);
    }
    let mut cells = vec!["geomean".to_string()];
    cells.extend(per_column.iter().map(|g| pct(geomean(g).unwrap_or(0.0))));
    table.row(&cells);
    println!("{}", table.render());
    println!("paper shape: nested paging magnifies overhead (THP+THP ~16.5% avg, up to");
    println!("~28% for SVM); SpOT + CA paging cuts it to ~0.9%; vRMM <0.1%; DS ~0.");
    println!("(vHC is this repo's addition: the paper analyses its entry counts in");
    println!("Table I but does not run it in Fig. 13.)");
}
