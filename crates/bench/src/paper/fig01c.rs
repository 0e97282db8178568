//! Fig. 1c: top-32 coverage timeline during XSBench execution.
//!
//! Translation Ranger's post-allocation migrations take time to coalesce the
//! footprint; CA paging generates the contiguity instantly at fault time.

use crate::cli::{header, pct, Options};
use contig_metrics::TextTable;
use contig_sim::{contiguity, PolicyKind};
use contig_workloads::Workload;

pub fn run(opts: &Options) {
    header("Fig. 1c — XSBench coverage timeline: CA vs ranger", "paper Fig. 1c", opts);
    let env = opts.env();
    let ca = contiguity::run_native(&env, Workload::XsBench, PolicyKind::Ca, 0.0, 3);
    let ranger = contiguity::run_native(&env, Workload::XsBench, PolicyKind::Ranger, 0.0, 3);
    let samples = 12.min(ca.timeline.len()).min(ranger.timeline.len());
    let mut table = TextTable::new(&["progress", "CA top-32", "ranger top-32"]);
    for s in 0..samples {
        let ci = s * (ca.timeline.len() - 1) / (samples - 1).max(1);
        let ri = s * (ranger.timeline.len() - 1) / (samples - 1).max(1);
        table.row(&[
            format!("{:.0}%", 100.0 * s as f64 / (samples - 1).max(1) as f64),
            pct(ca.timeline[ci].top32()),
            pct(ranger.timeline[ri].top32()),
        ]);
    }
    println!("{}", table.render());
    println!("ranger migrated {} pages ({} shootdowns); CA migrated none.",
        ranger.pages_migrated, ranger.pages_migrated / 512);
    println!("paper shape: CA's curve leads ranger's throughout the allocation phase.");
}
