//! Extension experiment (paper §I motivation): 5-level ("la57") paging
//! multiplies nested-walk costs — a 5×5 nested walk issues up to 35
//! references versus 24 for 4×4 — while SpOT's prediction hides the deeper
//! walk just as well, so its relative benefit *grows*.

use crate::cli::{header, pct, Options};
use contig_metrics::TextTable;
use contig_sim::translation;
use contig_workloads::Workload;

pub fn run(opts: &Options) {
    header(
        "Extension — 5-level (la57) paging amplifies nested-walk cost",
        "paper §I ('5-level paging ... further exacerbating the cost of TLB misses')",
        opts,
    );
    let env = opts.env();
    let mut table = TextTable::new(&[
        "workload", "THP+THP 4-lvl", "THP+THP 5-lvl", "SpOT 4-lvl", "SpOT 5-lvl",
    ]);
    for w in [Workload::PageRank, Workload::XsBench, Workload::HashJoin] {
        let mut cells = vec![w.name().to_string()];
        cells.extend(translation::five_level_row(&env, w, opts.accesses, 42).map(pct));
        table.row(&cells);
    }
    println!("{}", table.render());
    println!("shape: the exposed THP+THP overhead grows with the extra radix level");
    println!("(5x5 nested huge walk: 23 refs vs 15), while SpOT's prediction hides the");
    println!("walk regardless of its depth — the deeper the tables, the bigger its win.");
}
