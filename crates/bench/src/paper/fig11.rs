//! Fig. 11: isolated software overhead of the allocation mechanisms,
//! normalized to THP (modelled runtime: compute + faults + daemon work).
//!
//! The host-time cost of each policy's fault path is `benchmark/`'s to
//! measure (`mm.fault_4k_ns`, `core.ca_fault_4k_ns`).

use crate::cli::{header, Options};
use contig_metrics::TextTable;
use contig_sim::{overhead, PolicyKind};
use contig_workloads::Workload;

pub fn run(opts: &Options) {
    header("Fig. 11 — software runtime overhead normalized to THP", "paper Fig. 11", opts);
    let env = opts.env();
    let policies = [PolicyKind::Thp, PolicyKind::Ca, PolicyKind::Eager, PolicyKind::Ranger];
    let mut table = TextTable::new(&["workload", "THP", "CA", "eager", "ranger"]);
    let mut geo: Vec<Vec<f64>> = vec![Vec::new(); policies.len()];
    for w in Workload::ALL {
        let mut rows: Vec<_> = policies.iter().map(|&p| overhead::run_overhead(&env, w, p)).collect();
        overhead::normalize_rows(&mut rows);
        let mut cells = vec![w.name().to_string()];
        for (i, r) in rows.iter().enumerate() {
            cells.push(format!("{:.3}", r.normalized));
            geo[i].push(r.normalized);
        }
        table.row(&cells);
    }
    let mut cells = vec!["geomean".to_string()];
    for g in &geo {
        cells.push(format!("{:.3}", contig_metrics::geomean(g).unwrap_or(0.0)));
    }
    table.row(&cells);
    println!("{}", table.render());
    println!("paper shape: eager and CA add no overhead (~1.00); ranger pays ~3% for");
    println!("post-allocation migrations and TLB shootdowns.");
}
