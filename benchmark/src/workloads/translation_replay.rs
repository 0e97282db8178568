//! `translation_replay`: a populated VM's page tables are only read.

use contig::baselines::VrmmRangeTlb;
use contig::check::{digest_vm, fold_digests};
use contig::core::{CaPaging, SpotConfig, SpotPredictor};
use contig::mm::Pid;
use contig::sim::{install_in_vm, populate_vm, Env, PolicyKind};
use contig::tlb::{Access, MemorySim, MissHandler, NoScheme};
use contig::types::VirtAddr;
use contig::virt::{two_dimensional_mappings, VirtualMachine, VmBackend, VmConfig};
use contig::workloads::{Scale, TraceGenerator, Workload as PaperWorkload};

use super::{age_machine, BatchOut, Counts, Finish, Size, Spec, Workload};
use crate::rec::{Class, Recorder};

pub const SPEC: Spec = Spec {
    name: "translation_replay",
    why: "tlb, SpOT, the vRMM baseline and page-table reads (translate_2d) do the work and the \
          allocator does none after set-up, so a change that speeds writes but slows walks shows here",
    event: "simulated memory access",
    repetitions: 7,
    batches: |size| size.pick(240, 8),
    arms: &ARMS,
    build: |seed, size| Box::new(TranslationReplay::build(seed, size)),
};

/// Batch `k` replays trace `k / 4` on arm `k % 4`, so every arm sees every
/// trace once and a trace is generated once per four batches. The names are
/// the arms' per-layer host-time metrics, in arm order.
const ARMS: [&str; 4] = [
    "tlb.arm_none_ns_per_access",
    "tlb.arm_spot_ns_per_access",
    "tlb.arm_vrmm_ns_per_access",
    "tlb.arm_flush_ns_per_access",
];

/// The flush arm empties the TLBs this often, so misses dominate its time;
/// the other arms walk on well under 5 % of accesses.
const FLUSH_EVERY: usize = 512;

pub struct TranslationReplay {
    vm: VirtualMachine,
    pid: Pid,
    gen: TraceGenerator,
    batch_accesses: usize,
    accesses: Vec<Access>,
    sims: [MemorySim; 4],
    none: NoScheme,
    spot: SpotPredictor,
    vrmm: VrmmRangeTlb,
    spot_flush: SpotPredictor,
}

impl TranslationReplay {
    /// Boots a CA+CA THP-on VM at the paper's scaled size, then installs
    /// and populates PageRank (a file-backed edge list plus anonymous
    /// vertex arrays) the way the paper's translation experiments do.
    fn build(seed: u64, size: Size) -> Self {
        let env = Env::new(size.pick(Scale(64), Scale::tiny()));
        let spec = PaperWorkload::PageRank.spec(env.scale);
        let mut vm = VirtualMachine::new(
            VmConfig {
                guest: PolicyKind::Ca.system_config(env.guest_machine()),
                host: PolicyKind::Ca.system_config(env.host_machine()),
                host_vma_base: VirtAddr::new(0x7f00_0000_0000),
            },
            Box::new(CaPaging::new()),
            Box::new(CaPaging::new()),
        );
        age_machine(vm.guest_mut().machine_mut(), seed ^ 0x7A);
        age_machine(vm.host_mut().machine_mut(), seed ^ 0x7B);
        let instance = install_in_vm(&spec, &mut vm);
        populate_vm(&mut vm, &instance, &mut Vec::new()).expect("PageRank fits the scaled VM");
        let ranges = two_dimensional_mappings(&vm, instance.pid);
        let sim = MemorySim::new(env.tlb(), env.walk_cost());
        Self {
            vm,
            pid: instance.pid,
            gen: TraceGenerator::new(&spec, seed),
            batch_accesses: size.pick(200_000, 10_000),
            accesses: Vec::new(),
            sims: [sim.clone(), sim.clone(), sim.clone(), sim],
            none: NoScheme,
            spot: SpotPredictor::new(SpotConfig::default()),
            vrmm: VrmmRangeTlb::new(32, ranges),
            spot_flush: SpotPredictor::new(SpotConfig::default()),
        }
    }
}

impl Workload for TranslationReplay {
    fn prepare(&mut self, k: usize) {
        if !k.is_multiple_of(ARMS.len()) {
            return;
        }
        self.accesses.clear();
        for _ in 0..self.batch_accesses {
            let a = self.gen.next_access();
            self.accesses.push(Access {
                pc: a.pc,
                va: a.va,
                write: a.write,
            });
        }
    }

    fn run(&mut self, k: usize, rec: &mut Recorder) -> BatchOut {
        let arm = k % ARMS.len();
        let backend = VmBackend::new(&self.vm, self.pid);
        let sim = &mut self.sims[arm];
        let handler: &mut dyn MissHandler = match arm {
            0 => &mut self.none,
            1 => &mut self.spot,
            2 => &mut self.vrmm,
            _ => &mut self.spot_flush,
        };
        let phase = rec.open(ARMS[arm]);
        if arm == 3 {
            for chunk in self.accesses.chunks(FLUSH_EVERY) {
                sim.flush_tlbs();
                rec.call(Class::TlbRun, || {
                    sim.run(&backend, handler, chunk.iter().copied())
                });
            }
        } else {
            rec.call(Class::TlbRun, || {
                sim.run(&backend, handler, self.accesses.iter().copied())
            });
        }
        rec.close(phase);
        BatchOut {
            events: self.accesses.len() as u64,
            failed: 0,
        }
    }

    fn finish(self: Box<Self>) -> Finish {
        let mut counts = Counts::default();
        let mut digest = digest_vm(&self.vm.snapshot());
        for sim in &self.sims {
            let r = sim.report();
            counts.accesses += r.accesses;
            counts.l1_hits += r.l1_hits;
            counts.l2_hits += r.l2_hits;
            counts.walks += r.walks;
            counts.walk_refs += r.walk_refs;
            counts.walk_cycles += r.walk_cycles;
            counts.hidden += r.hidden + r.predicted;
            digest = fold_digests(&[
                digest,
                r.accesses,
                r.walks,
                r.walk_cycles,
                r.exposed,
                r.mispredicted,
            ]);
        }
        for spot in [&self.spot, &self.spot_flush] {
            let s = spot.stats();
            counts.spot_correct += s.correct;
            counts.spot_total += s.total();
            counts.spot_fills += s.fills;
        }
        let mut problems = Vec::new();
        let audit = contig::audit::audit_vm(&self.vm);
        if !audit.is_clean() {
            problems.push(format!("translation_replay: VM audit found {audit:?}"));
        }
        Finish {
            digest,
            counts,
            problems,
        }
    }
}
