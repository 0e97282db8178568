//! One seeded translation replay, pinned arm by arm in `tests/pins.ledger`.
//!
//! `benchmark/ci.sh` compares two runs of one build, so a TLB-model change
//! that moves every digest deterministically passes it. The ledger's
//! `tlb_replay_pinned.*` values were recorded before `crates/tlb` was
//! rebuilt around packed slots (PR 13) and must never move with a host-speed
//! change: they cover the four arms of the benchmark's `translation_replay`
//! workload on the scaled (one-set) geometry, and the no-scheme arm again on
//! full Broadwell (16-, 8- and 256-set structures, indexed by mask) and on
//! `broadwell_scaled(5)` (3-, 1- and 51-set structures, indexed by `%`).

use contig::check::digest_tlb;
use contig::prelude::*;
use contig_baselines::VrmmRangeTlb;
use contig_tlb::{NoScheme, SimReport};
use contig_virt::two_dimensional_mappings;
use rand::rngs::StdRng;
use rand::seq::SliceRandom;
use rand::SeedableRng;

mod pins;
use pins::{hex, Ledger};

const SEED: u64 = 0x5EED_CAFE;
const ACCESSES: usize = 120_000;
/// The flush arm empties the TLBs this often, as the benchmark's does.
const FLUSH_EVERY: usize = 512;

/// Everything observable about one arm's `MemorySim` after the replay.
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

/// The replayed system: a CA-paged PageRank VM on aged guest and host
/// machines, its process, and the seeded trace.
fn pagerank_vm() -> (VirtualMachine, Pid, Vec<Access>) {
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
    (vm, instance.pid, trace)
}

#[test]
fn seeded_pagerank_replay_is_pinned() {
    let (vm, pid, trace) = pagerank_vm();
    let backend = VmBackend::new(&vm, pid);
    let mut spot = SpotPredictor::new(SpotConfig::default());
    let mut vrmm = VrmmRangeTlb::new(32, two_dimensional_mappings(&vm, pid));
    let mut spot_flush = SpotPredictor::new(SpotConfig::default());
    let (scaled, scaled5) = (Env::tiny().tlb(), TlbConfig::broadwell_scaled(5));
    let arms = [
        replay("none", scaled, &backend, &mut NoScheme, &trace, None),
        replay("spot", scaled, &backend, &mut spot, &trace, None),
        replay("vrmm", scaled, &backend, &mut vrmm, &trace, None),
        replay("flush", scaled, &backend, &mut spot_flush, &trace, Some(FLUSH_EVERY)),
        replay("none/broadwell", TlbConfig::broadwell(), &backend, &mut NoScheme, &trace, None),
        replay("none/scaled5", scaled5, &backend, &mut NoScheme, &trace, None),
    ];

    let mut ledger = Ledger::open("seeded_pagerank_replay_is_pinned");
    for arm in &arms {
        ledger.pin(&format!("{}.report", arm.name), format_args!("{:?}", arm.report));
        ledger.pin(&format!("{}.tlb", arm.name), format_args!("{:?}", arm.tlb));
        ledger.pin(&format!("{}.snapshot_fnv", arm.name), hex(arm.snapshot_fnv));
    }
    ledger.pin("spot.stats", format_args!("{:?}", spot.stats()));
    ledger.pin("vrmm.stats", format_args!("{:?}", vrmm.stats()));
    ledger.pin("flush.stats", format_args!("{:?}", spot_flush.stats()));
    ledger.finish();
    // A scheme sees misses and never touches the TLBs: the first three arms
    // differ only in how their walks were handled.
    for arm in &arms[1..3] {
        let report = SimReport { exposed: 0, hidden: 0, predicted: 0, ..arm.report };
        assert_eq!(report, SimReport { exposed: 0, ..arms[0].report }, "{}", arm.name);
        assert_eq!((arm.tlb, arm.snapshot_fnv), (arms[0].tlb, arms[0].snapshot_fnv));
    }
    assert_eq!(
        spot_flush.stats().fills,
        spot.stats().fills,
        "the flushed replay walks more but fills the same predictor entries"
    );
}

/// The repetition relation: an access repeated at once hits the L1 slot the
/// first one left and changes nothing else, so a trace with every access
/// doubled in place adds exactly one L1 hit per access and leaves every
/// walk, every scheme decision and every replacement as it was. It holds by
/// the TLB model's definition of a hit, not by how `MemorySim::run` batches
/// same-page repeats (the L1 memo), so it checks that batching from outside.
#[test]
fn an_access_repeated_in_place_adds_one_l1_hit_and_nothing_else() {
    let (vm, pid, trace) = pagerank_vm();
    let doubled: Vec<Access> = trace.iter().flat_map(|&a| [a, a]).collect();
    let n = trace.len() as u64;
    let backend = VmBackend::new(&vm, pid);
    let config = Env::tiny().tlb();
    let check = |once: Arm, twice: Arm| {
        let name = once.name;
        assert_eq!(twice.report.accesses, 2 * once.report.accesses, "{name}");
        assert_eq!(twice.report.l1_hits, once.report.l1_hits + n, "{name}");
        let rest = SimReport { accesses: 0, l1_hits: 0, ..twice.report };
        assert_eq!(rest, SimReport { accesses: 0, l1_hits: 0, ..once.report }, "{name}");
        let (lookups, l1, l2, misses) = once.tlb;
        assert_eq!(twice.tlb, (lookups + n, l1 + n, l2, misses), "{name}");
    };
    let replay_both = |name, once: &mut dyn MissHandler, twice: &mut dyn MissHandler| {
        check(
            replay(name, config, &backend, once, &trace, None),
            replay(name, config, &backend, twice, &doubled, None),
        );
    };
    replay_both("none", &mut NoScheme, &mut NoScheme);
    let mut spot_once = SpotPredictor::new(SpotConfig::default());
    let mut spot_twice = SpotPredictor::new(SpotConfig::default());
    replay_both("spot", &mut spot_once, &mut spot_twice);
    assert_eq!(spot_twice.stats(), spot_once.stats());
    let mappings = two_dimensional_mappings(&vm, pid);
    let mut vrmm_once = VrmmRangeTlb::new(32, mappings.clone());
    let mut vrmm_twice = VrmmRangeTlb::new(32, mappings);
    replay_both("vrmm", &mut vrmm_once, &mut vrmm_twice);
    assert_eq!(vrmm_twice.stats(), vrmm_once.stats());
}
