//! Extension experiment (paper §VII): CA paging and SpOT are agnostic to the
//! MMU-virtualization technology — they apply to shadow paging too.
//!
//! Shadow paging walks a hypervisor-maintained 1D table (native-depth walks)
//! but pays a trap per shadow-entry update; nested paging walks 2D but needs
//! no synchronization. SpOT hides whatever walk is left in either mode.

use crate::cli::{header, pct, Options};
use contig_core::{CaPaging, SpotConfig, SpotPredictor};
use contig_metrics::{PerfModel, TextTable};
use contig_sim::{install_in_vm, populate_vm, PolicyKind};
use contig_tlb::{MemorySim, MissHandler, NoScheme};
use contig_types::VirtAddr;
use contig_virt::{NativeBackend, ShadowPageTable, VirtualMachine, VmBackend, VmConfig};
use contig_workloads::{TraceGenerator, Workload};

pub fn run(opts: &Options) {
    header(
        "Extension — shadow paging: 1D walks, per-update traps",
        "paper §VII ('directly applicable to shadow and hybrid paging')",
        opts,
    );
    let env = opts.env();
    let model = PerfModel::default();
    let mut table = TextTable::new(&[
        "workload",
        "nested THP+THP",
        "shadow",
        "shadow+SpOT",
        "shadow sync traps",
    ]);
    for w in [Workload::PageRank, Workload::XsBench, Workload::HashJoin] {
        let spec = w.spec(env.scale);
        let mut vm = VirtualMachine::new(
            VmConfig {
                guest: PolicyKind::Ca.system_config(env.guest_machine()),
                host: PolicyKind::Ca.system_config(env.host_machine()),
                host_vma_base: VirtAddr::new(0x7f00_0000_0000),
            },
            Box::new(CaPaging::new()),
            Box::new(CaPaging::new()),
        );
        let instance = install_in_vm(&spec, &mut vm);
        let mut scratch = Vec::new();
        populate_vm(&mut vm, &instance, &mut scratch).expect("population");
        let shadow = ShadowPageTable::build(&vm, instance.pid);

        let run_nested = {
            let backend = VmBackend::new(&vm, instance.pid);
            let mut sim = MemorySim::new(env.tlb(), env.walk_cost());
            let mut gen = TraceGenerator::new(&spec, 42);
            sim.run(&backend, &mut NoScheme, gen.take_accesses(opts.accesses));
            model.scheme_overhead(&sim.report())
        };
        let run_shadow = |with_spot: bool| {
            let backend = NativeBackend::new(shadow.table());
            let mut sim = MemorySim::new(env.tlb(), env.walk_cost());
            let mut gen = TraceGenerator::new(&spec, 42);
            let mut spot = SpotPredictor::new(SpotConfig::default());
            let handler: &mut dyn MissHandler = if with_spot { &mut spot } else { &mut NoScheme };
            sim.run(&backend, handler, gen.take_accesses(opts.accesses));
            model.scheme_overhead(&sim.report())
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
