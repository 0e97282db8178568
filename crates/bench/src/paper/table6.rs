//! Table VI: memory bloat relative to 4 KiB demand paging.

use crate::cli::{header, pct, Options};
use contig_metrics::{human_bytes, TextTable};
use contig_sim::{bloat, PolicyKind};
use contig_workloads::Workload;

pub fn run(opts: &Options) {
    header("Table VI — memory bloat vs 4 KiB demand paging", "paper Table VI", opts);
    let env = opts.env();
    let mut table = TextTable::new(&["workload", "THP", "Ingens", "CA", "eager"]);
    for w in Workload::ALL {
        let mut cells = vec![w.name().to_string()];
        for p in [PolicyKind::Thp, PolicyKind::Ingens, PolicyKind::Ca, PolicyKind::Eager] {
            let row = bloat::run_bloat(&env, w, p);
            cells.push(format!("{} ({})", human_bytes(row.bloat_bytes), pct(row.bloat_fraction)));
        }
        table.row(&cells);
    }
    println!("{}", table.render());
    println!("paper shape: THP and CA bloat identically (megabytes — CA does not change");
    println!("page-size decisions); Ingens bloats least (utilization-gated promotion);");
    println!("eager backs untouched allocator reservations: gigabytes, up to 47.5% for");
    println!("hashjoin.");
}
