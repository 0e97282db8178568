//! Fig. 14: SpOT outcome breakdown — the fraction of last-level TLB misses
//! predicted correctly, mispredicted, and not predicted.

use crate::cli::{header, pct, Options};
use contig_metrics::TextTable;
use contig_sim::translation;
use contig_workloads::Workload;

pub fn run(opts: &Options) {
    header("Fig. 14 — SpOT prediction breakdown", "paper Fig. 14", opts);
    let env = opts.env();
    let mut table =
        TextTable::new(&["workload", "misses", "correct", "mispredicted", "no prediction"]);
    for w in Workload::ALL {
        let run = translation::spot_run(&env, w, opts.accesses, 42);
        let s = run.spot;
        let total = s.total().max(1) as f64;
        table.row(&[
            w.name().to_string(),
            s.total().to_string(),
            pct(s.correct as f64 / total),
            pct(s.mispredicted as f64 / total),
            pct(s.no_prediction as f64 / total),
        ]);
    }
    println!("{}", table.render());
    println!("paper shape: correct predictions exceed 99% for PageRank; mispredictions");
    println!("never exceed ~4% (hashjoin); SVM shows the largest no-prediction share");
    println!("(irregular misses from one instruction across many small mappings).");
}
