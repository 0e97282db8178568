//! Fig. 7: contiguity performance without memory pressure, native execution.
//!
//! For every workload × policy: mappings needed for 99 % coverage (7a),
//! top-32 coverage (7b), and top-128 coverage (7c).

use crate::cli::{header, pct, Options};
use contig_metrics::TextTable;
use contig_sim::{contiguity, PolicyKind};
use contig_workloads::Workload;

pub fn run(opts: &Options) {
    header("Fig. 7 — native contiguity, no memory pressure", "paper Fig. 7 (a,b,c)", opts);
    let env = opts.env();
    // One run per cell; the three tables are three views of the same runs.
    // The paper excludes eager for hashjoin and eager+ranger for BT (no NUMA
    // support in those prototypes); our versions handle NUMA, so every cell
    // is filled.
    let rows = Workload::ALL.map(|w| {
        (w, PolicyKind::FIG7.map(|p| contiguity::run_native(&env, w, p, 0.0, 42).metrics))
    });
    for (title, metric) in [
        ("(a) #mappings for 99% coverage (lower is better)", 0),
        ("(b) top-32 coverage (higher is better)", 1),
        ("(c) top-128 coverage (higher is better)", 2),
    ] {
        println!("{title}");
        let mut table = TextTable::new(&[
            "workload", "THP", "Ingens", "CA", "eager", "ranger", "ideal",
        ]);
        for (w, runs) in &rows {
            let mut cells = vec![w.name().to_string()];
            for run in runs {
                cells.push(match metric {
                    0 => run.n99.to_string(),
                    1 => pct(run.top32),
                    _ => pct(run.top128),
                });
            }
            table.row(&cells);
        }
        println!("{}", table.render());
    }
    println!("paper shape: CA ~ eager ~ ideal >> ranger-during-alloc > Ingens ~ THP;");
    println!("CA covers ~99% of the footprint with tens of mappings, THP needs thousands.");
}
