//! Extension experiment (paper §VII): CA paging and SpOT are agnostic to the
//! MMU-virtualization technology — they apply to shadow paging too.
//!
//! Shadow paging walks a hypervisor-maintained 1D table (native-depth walks)
//! but pays a trap per shadow-entry update; nested paging walks 2D but needs
//! no synchronization. SpOT hides whatever walk is left in either mode.

use crate::cli::{header, pct, Options};
use contig_core::{SpotConfig, SpotPredictor};
use contig_metrics::TextTable;
use contig_mm::LEVELS;
use contig_sim::{boot_vm, replay, PolicyKind};
use contig_tlb::{MissHandler, NoScheme};
use contig_virt::{NativeBackend, ShadowPageTable, VmBackend};
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
        let spec = w.spec(env.scale);
        let (vm, instance) = boot_vm(&env, PolicyKind::Ca, None, LEVELS, &spec);
        let shadow = ShadowPageTable::build(&vm, instance.pid);
        let nested = VmBackend::new(&vm, instance.pid);
        let run_nested = replay(&env, &spec, 42, opts.accesses, &nested, &mut NoScheme).1;
        let run_shadow = |with_spot: bool| {
            let mut spot = SpotPredictor::new(SpotConfig::default());
            let handler: &mut dyn MissHandler = if with_spot { &mut spot } else { &mut NoScheme };
            let backend = NativeBackend::new(shadow.table());
            replay(&env, &spec, 42, opts.accesses, &backend, handler).1
        };
        table.row(&[
            w.name().to_string(),
            pct(run_nested),
            pct(run_shadow(false)),
            pct(run_shadow(true)),
            shadow.sync_updates().to_string(),
        ]);
    }
    println!("{}", table.render());
    println!("shape: shadow walks cost native depth (overhead drops ~4x vs nested),");
    println!("paid for with one hypervisor trap per shadow-entry install — the");
    println!("classic trade nested paging reversed. SpOT erases the remaining walk");
    println!("cost in either mode because its offsets are dimension-agnostic.");
}
