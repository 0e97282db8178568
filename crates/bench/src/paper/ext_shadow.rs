//! Extension experiment (paper §VII): CA paging and SpOT are agnostic to the
//! MMU-virtualization technology — they apply to shadow paging too.
//!
//! Shadow paging walks a hypervisor-maintained 1D table (native-depth walks)
//! but pays a trap per shadow-entry update; nested paging walks 2D but needs
//! no synchronization. SpOT hides whatever walk is left in either mode.

use crate::cli::{header, pct, Options};
use contig_metrics::TextTable;
use contig_sim::translation;
use contig_workloads::Workload;

pub fn run(opts: &Options) {
    header(
        "Extension — shadow paging: 1D walks, per-update traps",
        "paper §VII ('directly applicable to shadow and hybrid paging')",
        opts,
    );
    let env = opts.env();
    let mut table = TextTable::new(&[
        "workload",
        "nested THP+THP",
        "shadow",
        "shadow+SpOT",
        "shadow sync traps",
    ]);
    for w in [Workload::PageRank, Workload::XsBench, Workload::HashJoin] {
        let (overheads, sync_traps) = translation::shadow_row(&env, w, opts.accesses, 42);
        let mut cells = vec![w.name().to_string()];
        cells.extend(overheads.map(pct));
        cells.push(sync_traps.to_string());
        table.row(&cells);
    }
    println!("{}", table.render());
    println!("shape: shadow walks cost native depth (overhead drops ~4x vs nested),");
    println!("paid for with one hypervisor trap per shadow-entry install — the");
    println!("classic trade nested paging reversed. SpOT erases the remaining walk");
    println!("cost in either mode because its offsets are dimension-agnostic.");
}
