//! Fig. 8: contiguity under memory pressure / external fragmentation.
//!
//! Geometric-mean contiguity across the workloads (BT excluded: its
//! footprint does not fit the hogged machine, exactly as in the paper) while
//! the hog pins 0–50 % of physical memory. NUMA is off.

use crate::cli::{header, pct, Options};
use contig_metrics::{geomean, geomean_counts, TextTable};
use contig_sim::{contiguity, PolicyKind};
use contig_workloads::Workload;

pub fn run(opts: &Options) {
    header("Fig. 8 — contiguity under memory pressure (geomean, NUMA off)", "paper Fig. 8", opts);
    let env = opts.env();
    let workloads = [Workload::Svm, Workload::PageRank, Workload::HashJoin, Workload::XsBench];
    let policies = [
        PolicyKind::Thp,
        PolicyKind::Ingens,
        PolicyKind::Ca,
        PolicyKind::Eager,
        PolicyKind::Ranger,
        PolicyKind::Ideal,
    ];
    // One run per cell; the three tables are three views of the same runs.
    let pressures = [0.0, 0.1, 0.25, 0.4, 0.5];
    let rows = pressures.map(|pressure| {
        policies.map(|p| workloads.map(|w| contiguity::run_native(&env, w, p, pressure, 7).metrics))
    });
    for (title, metric) in [
        ("(a) #mappings for 99% coverage (geomean, lower is better)", 0usize),
        ("(b) top-32 coverage (geomean)", 1),
        ("(c) top-128 coverage (geomean)", 2),
    ] {
        println!("{title}");
        let mut table = TextTable::new(&[
            "pressure", "THP", "Ingens", "CA", "eager", "ranger", "ideal",
        ]);
        for (pressure, row) in pressures.iter().zip(&rows) {
            let mut cells = vec![format!("hog-{:.0}%", pressure * 100.0)];
            for runs in row {
                let n99s = runs.map(|m| m.n99 as u64);
                let top32s = runs.map(|m| m.top32.max(1e-9));
                let top128s = runs.map(|m| m.top128.max(1e-9));
                cells.push(match metric {
                    0 => format!("{:.0}", geomean_counts(&n99s)),
                    1 => pct(geomean(&top32s).unwrap_or(0.0)),
                    _ => pct(geomean(&top128s).unwrap_or(0.0)),
                });
            }
            table.row(&cells);
        }
        println!("{}", table.render());
    }
    println!("paper shape: eager degrades sharply with pressure (alignment-bound);");
    println!("CA stays within a few percent of ideal, covering ~94% with 128 mappings at hog-50.");
}
