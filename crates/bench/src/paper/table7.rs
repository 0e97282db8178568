//! Table VII: estimation of unsafe load instructions (USLs) — SpOT's
//! speculative windows versus branch prediction's (Spectre).

use crate::cli::{header, pct, Options};
use contig_metrics::{geomean, TextTable};
use contig_sim::translation;
use contig_workloads::Workload;

pub fn run(opts: &Options) {
    header("Table VII — unsafe-load (USL) estimation", "paper Table VII", opts);
    let env = opts.env();
    let mut table = TextTable::new(&[
        "workload",
        "branches/instr",
        "DTLB miss/instr",
        "Spectre USL/instr",
        "SpOT USL/instr",
    ]);
    let mut cols: [Vec<f64>; 4] = Default::default();
    for w in Workload::ALL {
        let run = translation::spot_run(&env, w, opts.accesses, 42);
        let usl = translation::usl_estimate(&env, w, &run.report);
        let fractions = [
            usl.branch_fraction,
            usl.dtlb_miss_fraction,
            usl.spectre_usl_fraction,
            usl.spot_usl_fraction,
        ];
        let mut cells = vec![w.name().to_string()];
        for (fraction, col) in fractions.into_iter().zip(&mut cols) {
            cells.push(pct(fraction));
            col.push(fraction.max(1e-9));
        }
        table.row(&cells);
    }
    let mut cells = vec!["geomean".to_string()];
    cells.extend(cols.iter().map(|c| pct(geomean(c).unwrap_or(0.0))));
    table.row(&cells);
    println!("{}", table.render());
    println!("paper values (geomean): 5.87% branches, 0.25% DTLB misses, 16.5% Spectre");
    println!("USLs, 2.9% SpOT USLs — SpOT's windows are longer (page walks, ~81 cycles)");
    println!("but far rarer, so InvisiSpec-style mitigation costs <2%.");
}
