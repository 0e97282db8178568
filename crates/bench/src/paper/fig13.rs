//! Fig. 13: execution-time overhead of data-TLB misses that trigger page
//! walks, across translation configurations.
//!
//! Native and virtualized paging baselines expose their walks; SpOT, vRMM,
//! and Direct Segments are emulated on the last-level miss path and priced
//! with the Table IV linear model.

use crate::cli::{header, pct, Options};
use contig_metrics::{geomean, TextTable};
use contig_sim::{translation, TranslationConfig};
use contig_workloads::Workload;

pub fn run(opts: &Options) {
    header("Fig. 13 — address-translation overhead", "paper Fig. 13", opts);
    let env = opts.env();
    let mut table = TextTable::new(&[
        "workload", "4K", "THP", "4K+4K", "THP+THP", "SpOT", "vRMM", "vHC", "DS",
    ]);
    let mut per_config: Vec<Vec<f64>> = vec![Vec::new(); TranslationConfig::ALL.len()];
    for w in Workload::ALL {
        let mut cells = vec![w.name().to_string()];
        for (i, c) in TranslationConfig::ALL.into_iter().enumerate() {
            let run = translation::run_translation(&env, w, c, opts.accesses, 42);
            cells.push(pct(run.overhead));
            per_config[i].push(run.overhead.max(1e-6));
        }
        table.row(&cells);
    }
    let mut cells = vec!["geomean".to_string()];
    for g in &per_config {
        cells.push(pct(geomean(g).unwrap_or(0.0)));
    }
    table.row(&cells);
    println!("{}", table.render());
    println!("paper shape: nested paging magnifies overhead (THP+THP ~16.5% avg, up to");
    println!("~28% for SVM); SpOT + CA paging cuts it to ~0.9%; vRMM <0.1%; DS ~0.");
    println!("(vHC is this repo's addition: the paper analyses its entry counts in");
    println!("Table I but does not run it in Fig. 13.)");
}
