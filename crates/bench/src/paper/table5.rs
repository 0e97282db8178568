//! Table V: total page faults and 99th-percentile fault latency under THP,
//! CA paging, and eager paging (aggregated over the workloads).

use crate::cli::{header, Options};
use contig_metrics::TextTable;
use contig_sim::{latency, PolicyKind};
use contig_workloads::Workload;

pub fn run(opts: &Options) {
    header("Table V — page-fault count and 99th-percentile latency", "paper Table V", opts);
    let env = opts.env();
    let mut table = TextTable::new(&[
        "workload",
        "THP faults",
        "CA faults",
        "eager faults",
        "THP p99 (us)",
        "CA p99 (us)",
        "eager p99 (us)",
    ]);
    let mut totals = [0u64; 3];
    let mut worst = [0u64; 3];
    for w in Workload::ALL {
        let thp = latency::run_latency(&env, w, PolicyKind::Thp);
        let ca = latency::run_latency(&env, w, PolicyKind::Ca);
        let eager = latency::run_latency(&env, w, PolicyKind::Eager);
        totals[0] += thp.faults;
        totals[1] += ca.faults;
        totals[2] += eager.faults;
        worst[0] = worst[0].max(thp.p99_us);
        worst[1] = worst[1].max(ca.p99_us);
        worst[2] = worst[2].max(eager.p99_us);
        table.row(&[
            w.name().to_string(),
            thp.faults.to_string(),
            ca.faults.to_string(),
            eager.faults.to_string(),
            thp.p99_us.to_string(),
            ca.p99_us.to_string(),
            eager.p99_us.to_string(),
        ]);
    }
    table.row(&[
        "TOTAL/max".to_string(),
        totals[0].to_string(),
        totals[1].to_string(),
        totals[2].to_string(),
        worst[0].to_string(),
        worst[1].to_string(),
        worst[2].to_string(),
    ]);
    println!("{}", table.render());
    println!("paper values: THP 45148 faults @ 515us p99; CA 45148 @ 526us (identical");
    println!("demand paging, negligible placement cost); eager 67 faults @ 80372us");
    println!("(whole-VMA zeroing inflates the tail by >150x).");
}
