//! Extension experiment (paper §I motivation): 5-level ("la57") paging
//! multiplies nested-walk costs — a 5×5 nested walk issues up to 35
//! references versus 24 for 4×4 — while SpOT's prediction hides the deeper
//! walk just as well, so its relative benefit *grows*.

use crate::cli::{header, pct, Options};
use contig_core::{CaPaging, SpotConfig, SpotPredictor};
use contig_metrics::{PerfModel, TextTable};
use contig_mm::{DefaultThpPolicy, PlacementPolicy, LEVELS, LEVELS_LA57};
use contig_sim::{install_in_vm, populate_vm, PolicyKind};
use contig_tlb::{MemorySim, MissHandler, NoScheme};
use contig_types::VirtAddr;
use contig_virt::{VirtualMachine, VmBackend, VmConfig};
use contig_workloads::{TraceGenerator, Workload};

pub fn run(opts: &Options) {
    header(
        "Extension — 5-level (la57) paging amplifies nested-walk cost",
        "paper §I ('5-level paging ... further exacerbating the cost of TLB misses')",
        opts,
    );
    let env = opts.env();
    let model = PerfModel::default();
    let mut table = TextTable::new(&[
        "workload", "THP+THP 4-lvl", "THP+THP 5-lvl", "SpOT 4-lvl", "SpOT 5-lvl",
    ]);
    for w in [Workload::PageRank, Workload::XsBench, Workload::HashJoin] {
        let mut cells = vec![w.name().to_string()];
        for spot_on in [false, true] {
            for levels in [LEVELS, LEVELS_LA57] {
                let spec = w.spec(env.scale);
                let (guest_kind, host_kind) = if spot_on {
                    (PolicyKind::Ca, PolicyKind::Ca)
                } else {
                    (PolicyKind::Thp, PolicyKind::Thp)
                };
                let make = |kind: PolicyKind, levels: u32| {
                    let mut cfg = kind.system_config(
                        if kind == guest_kind { env.guest_machine() } else { env.host_machine() },
                    );
                    cfg.pt_levels = levels;
                    cfg
                };
                let guest_policy: Box<dyn PlacementPolicy> = if spot_on {
                    Box::new(CaPaging::new())
                } else {
                    Box::new(DefaultThpPolicy)
                };
                let host_policy: Box<dyn PlacementPolicy> = if spot_on {
                    Box::new(CaPaging::new())
                } else {
                    Box::new(DefaultThpPolicy)
                };
                let mut vm = VirtualMachine::new(
                    VmConfig {
                        guest: make(guest_kind, levels),
                        host: make(host_kind, levels),
                        host_vma_base: VirtAddr::new(0x7f00_0000_0000),
                    },
                    guest_policy,
                    host_policy,
                );
                let instance = install_in_vm(&spec, &mut vm);
                let mut scratch = Vec::new();
                populate_vm(&mut vm, &instance, &mut scratch).expect("population");
                let backend = VmBackend::new(&vm, instance.pid);
                let mut sim = MemorySim::new(env.tlb(), env.walk_cost());
                let mut gen = TraceGenerator::new(&spec, 42);
                let mut spot = SpotPredictor::new(SpotConfig::default());
                let handler: &mut dyn MissHandler =
                    if spot_on { &mut spot } else { &mut NoScheme };
                sim.run(&backend, handler, gen.take_accesses(opts.accesses));
                cells.push(pct(model.scheme_overhead(&sim.report())));
            }
        }
        table.row(&cells);
    }
    println!("{}", table.render());
    println!("shape: the exposed THP+THP overhead grows with the extra radix level");
    println!("(5x5 nested huge walk: 23 refs vs 15), while SpOT's prediction hides the");
    println!("walk regardless of its depth — the deeper the tables, the bigger its win.");
}
