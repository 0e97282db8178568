//! One seeded translation replay, pinned field by field.
//!
//! `benchmark/ci.sh` compares two runs of one build, so a TLB-model change
//! that moves every digest deterministically passes it. The literals below
//! were recorded before `crates/tlb` was rebuilt around packed slots (PR 13)
//! and must never move with a host-speed change: they cover the four arms of
//! the benchmark's `translation_replay` workload on the scaled (one-set)
//! geometry, and the no-scheme arm again on full Broadwell (16-, 8- and
//! 256-set structures, indexed by mask) and on `broadwell_scaled(5)` (3-, 1-
//! and 51-set structures, indexed by `%`).

use contig::check::digest_tlb;
use contig::prelude::*;
use contig_baselines::{VrmmRangeTlb, VrmmStats};
use contig_core::SpotStats;
use contig_tlb::{NoScheme, SimReport};
use contig_virt::two_dimensional_mappings;
use rand::rngs::StdRng;
use rand::seq::SliceRandom;
use rand::SeedableRng;

const SEED: u64 = 0x5EED_CAFE;
const ACCESSES: usize = 120_000;
/// The flush arm empties the TLBs this often, as the benchmark's does.
const FLUSH_EVERY: usize = 512;

/// Everything observable about one arm's `MemorySim` after the replay.
#[derive(Debug, PartialEq, Eq)]
struct Arm {
    name: &'static str,
    report: SimReport,
    /// `TlbHierarchy::stats()`: lookups, L1 hits, L2 hits, misses.
    tlb: (u64, u64, u64, u64),
    /// FNV-1a-64 of the hierarchy snapshot's canonical JSON line: every
    /// slot, LRU tick and per-structure counter.
    snapshot_fnv: u64,
}

fn age(machine: &mut Machine, seed: u64) {
    let mut blocks = Vec::new();
    while let Ok(b) = machine.alloc(contig_buddy::DEFAULT_TOP_ORDER) {
        blocks.push(b);
    }
    blocks.shuffle(&mut StdRng::seed_from_u64(seed));
    for b in blocks {
        machine.free(b, contig_buddy::DEFAULT_TOP_ORDER);
    }
}

fn replay(
    name: &'static str,
    config: TlbConfig,
    backend: &VmBackend<'_>,
    handler: &mut dyn MissHandler,
    trace: &[Access],
    flush_every: Option<usize>,
) -> Arm {
    let mut sim = MemorySim::new(config, Default::default());
    for part in trace.chunks(flush_every.unwrap_or(trace.len())) {
        if flush_every.is_some() {
            sim.flush_tlbs();
        }
        sim.run(backend, handler, part.iter().copied());
    }
    Arm {
        name,
        report: sim.report(),
        tlb: sim.tlb().stats(),
        snapshot_fnv: digest_tlb(&sim.tlb().snapshot()),
    }
}

#[test]
fn seeded_pagerank_replay_is_pinned() {
    let env = Env::tiny();
    let spec = Workload::PageRank.spec(env.scale);
    let mut vm = VirtualMachine::new(
        VmConfig {
            guest: PolicyKind::Ca.system_config(env.guest_machine()),
            host: PolicyKind::Ca.system_config(env.host_machine()),
            host_vma_base: VirtAddr::new(0x7f00_0000_0000),
        },
        Box::new(CaPaging::new()),
        Box::new(CaPaging::new()),
    );
    age(vm.guest_mut().machine_mut(), SEED ^ 0x7A);
    age(vm.host_mut().machine_mut(), SEED ^ 0x7B);
    let instance = contig::sim::install_in_vm(&spec, &mut vm);
    contig::sim::populate_vm(&mut vm, &instance, &mut Vec::new()).expect("PageRank fits");
    let mut gen = TraceGenerator::new(&spec, SEED);
    let trace: Vec<Access> = gen.take_accesses(ACCESSES as u64).collect();

    let backend = VmBackend::new(&vm, instance.pid);
    let mut spot = SpotPredictor::new(SpotConfig::default());
    let mut vrmm = VrmmRangeTlb::new(32, two_dimensional_mappings(&vm, instance.pid));
    let mut spot_flush = SpotPredictor::new(SpotConfig::default());
    let (scaled, scaled5) = (env.tlb(), TlbConfig::broadwell_scaled(5));
    let arms = [
        replay("none", scaled, &backend, &mut NoScheme, &trace, None),
        replay("spot", scaled, &backend, &mut spot, &trace, None),
        replay("vrmm", scaled, &backend, &mut vrmm, &trace, None),
        replay("flush", scaled, &backend, &mut spot_flush, &trace, Some(FLUSH_EVERY)),
        replay("none/broadwell", TlbConfig::broadwell(), &backend, &mut NoScheme, &trace, None),
        replay("none/scaled5", scaled5, &backend, &mut NoScheme, &trace, None),
    ];

    // A scheme sees misses and never touches the TLBs: the first three arms
    // differ only in how their walks were handled.
    let unflushed = SimReport {
        accesses: 120_000,
        l1_hits: 119_474,
        l2_hits: 370,
        walks: 156,
        walk_refs: 2_372,
        walk_cycles: 11_860,
        ..SimReport::default()
    };
    let unflushed_tlb = ((120_000, 119_474, 370, 156), 0x3b5a02ce9795d753);
    let few_walks = SimReport {
        accesses: 120_000,
        walks: 16,
        walk_refs: 272,
        walk_cycles: 1_360,
        exposed: 16,
        ..SimReport::default()
    };
    let expected = [
        Arm {
            name: "none",
            report: SimReport { exposed: 156, ..unflushed },
            tlb: unflushed_tlb.0,
            snapshot_fnv: unflushed_tlb.1,
        },
        Arm {
            name: "spot",
            report: SimReport { exposed: 11, predicted: 145, ..unflushed },
            tlb: unflushed_tlb.0,
            snapshot_fnv: unflushed_tlb.1,
        },
        Arm {
            name: "vrmm",
            report: SimReport { exposed: 5, hidden: 151, ..unflushed },
            tlb: unflushed_tlb.0,
            snapshot_fnv: unflushed_tlb.1,
        },
        Arm {
            name: "flush",
            report: SimReport {
                accesses: 120_000,
                l1_hits: 118_791,
                l2_hits: 28,
                walks: 1_181,
                walk_refs: 18_547,
                walk_cycles: 92_735,
                exposed: 12,
                hidden: 0,
                predicted: 1_169,
                mispredicted: 0,
            },
            tlb: (120_000, 118_791, 28, 1_181),
            snapshot_fnv: 0x9ba1faf0f1b9ec23,
        },
        Arm {
            name: "none/broadwell",
            report: SimReport { l1_hits: 119_984, ..few_walks },
            tlb: (120_000, 119_984, 0, 16),
            snapshot_fnv: 0x80b318179307d326,
        },
        Arm {
            name: "none/scaled5",
            report: SimReport { l1_hits: 119_474, l2_hits: 510, ..few_walks },
            tlb: (120_000, 119_474, 510, 16),
            snapshot_fnv: 0xa57f3f51606987dc,
        },
    ];
    assert_eq!(&arms[..], &expected[..]);
    let spot_expected =
        SpotStats { correct: 145, mispredicted: 0, no_prediction: 11, fills: 6, filtered_fills: 0 };
    assert_eq!(spot.stats(), spot_expected);
    assert_eq!(vrmm.stats(), VrmmStats { range_hits: 151, range_fills: 5, uncovered: 0 });
    assert_eq!(
        spot_flush.stats(),
        SpotStats { correct: 1_169, no_prediction: 12, ..spot_expected },
        "the flushed replay walks more but fills the same six predictor entries"
    );
}
