//! Extension experiment: the strategies the paper earmarks for future work —
//! contiguity **reservations** (§III-D) and the **CA + ranger** combination
//! (§VI-C, "mutually assisted") — measured under memory pressure and
//! multiprogramming.

use crate::cli::{header, pct, Options};
use contig_metrics::TextTable;
use contig_sim::{contiguity, PolicyKind};
use contig_workloads::Workload;

pub fn run(opts: &Options) {
    header(
        "Extension — reservations (§III-D) and CA+ranger (§VI-C)",
        "paper future-work directions",
        opts,
    );
    let env = opts.env();

    println!("(a) multiprogramming under pressure: two concurrent SVM instances");
    let mut table = TextTable::new(&["policy", "instance A top-32", "instance B top-32"]);
    for p in [PolicyKind::Ca, PolicyKind::CaReserve] {
        let [a, b] = contiguity::run_multiprogrammed(&env, Workload::Svm, p, 0.3);
        table.row(&[p.name().to_string(), pct(a), pct(b)]);
    }
    println!("{}", table.render());

    println!("(b) fragmentation: XSBench under hog pressure, mappings for 99%");
    let mut table = TextTable::new(&["pressure", "CA", "CA+resv", "ranger", "CA+ranger"]);
    for pressure in [0.25, 0.5] {
        let mut cells = vec![format!("hog-{:.0}%", pressure * 100.0)];
        for p in [PolicyKind::Ca, PolicyKind::CaReserve, PolicyKind::Ranger, PolicyKind::CaRanger]
        {
            let run = contiguity::run_native(&env, Workload::XsBench, p, pressure, 7);
            cells.push(run.metrics.n99.to_string());
        }
        table.row(&cells);
    }
    println!("{}", table.render());
    println!("shape: reservations keep competing placements out of each other's regions");
    println!("when free contiguity is scarce; the ranger daemon coalesces the residual");
    println!("fragmentation CA cannot avoid under pressure — its anchors keep CA's");
    println!("dominant runs in place and migrate only the stragglers.");
}
