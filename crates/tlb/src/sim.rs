//! The trace-driven memory-access simulator: TLB hierarchy in front of a
//! translation backend, with a pluggable handler on the L2 miss path.
//!
//! This is the software analogue of the paper's BadgerTrap methodology (§V):
//! every last-level TLB miss is intercepted and handed to an emulated
//! translation scheme (SpOT, vRMM, Direct Segments, or nothing), whose
//! outcomes feed the linear performance model.

use contig_trace::{TraceEvent, Tracer};
use contig_types::Access;

use crate::hierarchy::{L1Memo, TlbConfig, TlbHierarchy, TlbHit};
use crate::walk::{TranslationBackend, WalkCostModel, WalkResult};

/// How an attached scheme handled one last-level TLB miss.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub enum MissHandling {
    /// No scheme involvement: the full walk latency is exposed.
    Exposed,
    /// The scheme hides the walk entirely (range-TLB hit, segment hit).
    Hidden,
    /// A speculation scheme predicted the translation correctly: walk
    /// latency overlapped with useful speculative execution.
    PredictedCorrect,
    /// A speculation scheme mispredicted: walk latency plus flush penalty.
    Mispredicted,
}

/// A translation scheme attached to the L2 miss path.
pub trait MissHandler {
    /// Called for every last-level TLB miss with the access and the completed
    /// walk; returns how the scheme handled it.
    fn on_miss(&mut self, access: Access, walk: &WalkResult) -> MissHandling;

    /// Human-readable scheme name for reports.
    fn scheme_name(&self) -> &'static str {
        "none"
    }
}

/// The null scheme: every miss pays the walk (paper's measured baselines).
#[derive(Clone, Copy, Debug, Default)]
pub struct NoScheme;

impl MissHandler for NoScheme {
    fn on_miss(&mut self, _access: Access, _walk: &WalkResult) -> MissHandling {
        MissHandling::Exposed
    }
}

/// Aggregate counters of one simulation run.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct SimReport {
    /// Memory references simulated.
    pub accesses: u64,
    /// L1 TLB hits.
    pub l1_hits: u64,
    /// L2 TLB hits.
    pub l2_hits: u64,
    /// Last-level misses (page walks).
    pub walks: u64,
    /// Total walker memory references.
    pub walk_refs: u64,
    /// Total walk cycles (before any scheme hides them).
    pub walk_cycles: u64,
    /// Misses fully exposed.
    pub exposed: u64,
    /// Misses hidden by the scheme.
    pub hidden: u64,
    /// Correct predictions.
    pub predicted: u64,
    /// Mispredictions.
    pub mispredicted: u64,
}

impl SimReport {

    /// Mean cycles of one walk.
    pub fn avg_walk_cycles(&self) -> f64 {
        if self.walks == 0 {
            0.0
        } else {
            self.walk_cycles as f64 / self.walks as f64
        }
    }
}

/// Trace-driven simulator: a TLB hierarchy over a translation backend with an
/// attached miss handler.
///
/// # Examples
///
/// ```
/// use contig_tlb::{Access, MemorySim, NoScheme, TlbConfig, TranslationBackend, WalkResult};
/// use contig_types::{PageSize, PhysAddr, VirtAddr};
///
/// struct Identity;
/// impl TranslationBackend for Identity {
///     fn walk(&self, va: VirtAddr) -> Option<WalkResult> {
///         Some(WalkResult { pa: PhysAddr::new(va.raw()), size: PageSize::Base4K,
///                           refs: 4, contig: false, write: true })
///     }
/// }
///
/// let mut sim = MemorySim::new(TlbConfig::broadwell(), Default::default());
/// let mut scheme = NoScheme;
/// sim.run(&Identity, &mut scheme, (0..100u64).map(|i| Access::read(1, VirtAddr::new(i * 64))));
/// assert_eq!(sim.report().walks, 2); // 100 * 64 B spans two 4 KiB pages
/// ```
#[derive(Clone, Debug)]
pub struct MemorySim {
    tlb: TlbHierarchy,
    cost: WalkCostModel,
    report: SimReport,
    tracer: Tracer,
}

impl MemorySim {
    /// A fresh simulator.
    pub fn new(config: TlbConfig, cost: WalkCostModel) -> Self {
        Self {
            tlb: TlbHierarchy::new(config),
            cost,
            report: SimReport::default(),
            tracer: Tracer::disabled(),
        }
    }

    /// Attaches a trace handle: hits feed `tlb.access`/`tlb.l1_hit`/
    /// `tlb.l2_hit` counters, every last-level miss emits a `tlb.miss` event
    /// and a `tlb.walk_cycles` histogram sample.
    pub fn set_tracer(&mut self, tracer: Tracer) {
        self.tracer = tracer;
    }

    /// Counters accumulated so far.
    pub fn report(&self) -> SimReport {
        self.report
    }

    /// The TLB hierarchy: its counters and, through
    /// [`TlbHierarchy::snapshot`], every slot and LRU tick.
    pub fn tlb(&self) -> &TlbHierarchy {
        &self.tlb
    }

    /// Simulates one access.
    ///
    /// # Panics
    ///
    /// Panics if the backend cannot translate the address: traces must only
    /// touch populated memory.
    #[inline]
    pub fn step(
        &mut self,
        backend: &dyn TranslationBackend,
        handler: &mut dyn MissHandler,
        access: Access,
    ) {
        let traced = self.tracer.is_enabled();
        self.step_as(backend, handler, access, traced);
    }

    /// [`MemorySim::step`] with the tracer test already made. Forced inline,
    /// and the two slow paths ([`MemorySim::walk`], the hierarchy's L2
    /// probe) forced out of line: `contig-tlb` is compiled without LTO and
    /// left to itself the inliner either keeps the L1-hit path behind a call
    /// per access or, worse, hoists `run` into its caller and calls this.
    #[inline(always)]
    fn step_as(
        &mut self,
        backend: &dyn TranslationBackend,
        handler: &mut dyn MissHandler,
        access: Access,
        traced: bool,
    ) {
        self.report.accesses += 1;
        if traced {
            self.tracer.add("tlb.access", 1);
        }
        match self.tlb.lookup(access.va) {
            TlbHit::L1 => {
                self.report.l1_hits += 1;
                if traced {
                    self.tracer.add("tlb.l1_hit", 1);
                }
            }
            TlbHit::L2 => {
                self.report.l2_hits += 1;
                if traced {
                    self.tracer.add("tlb.l2_hit", 1);
                }
            }
            TlbHit::Miss => self.walk(backend, handler, access, traced),
        }
    }

    /// The last-level miss path: walk, refill, and ask the scheme.
    #[inline(never)]
    fn walk(
        &mut self,
        backend: &dyn TranslationBackend,
        handler: &mut dyn MissHandler,
        access: Access,
        traced: bool,
    ) {
        let walk = backend
            .walk(access.va)
            .unwrap_or_else(|| panic!("trace touched unmapped address {}", access.va));
        self.report.walks += 1;
        self.report.walk_refs += walk.refs as u64;
        let cycles = self.cost.cycles(walk.refs);
        self.report.walk_cycles += cycles;
        if traced {
            self.tracer.emit(TraceEvent::TlbMiss { va: access.va.raw(), refs: walk.refs, cycles });
            self.tracer.observe("tlb.walk_cycles", cycles);
        }
        self.tlb.fill(access.va.align_down(walk.size), walk.size);
        match handler.on_miss(access, &walk) {
            MissHandling::Exposed => self.report.exposed += 1,
            MissHandling::Hidden => self.report.hidden += 1,
            MissHandling::PredictedCorrect => self.report.predicted += 1,
            MissHandling::Mispredicted => self.report.mispredicted += 1,
        }
    }

    /// Runs a whole trace, with the same effect as [`MemorySim::step`] on
    /// each access in turn.
    ///
    /// # Panics
    ///
    /// As for [`MemorySim::step`].
    pub fn run(
        &mut self,
        backend: &dyn TranslationBackend,
        handler: &mut dyn MissHandler,
        trace: impl IntoIterator<Item = Access>,
    ) {
        let traced = self.tracer.is_enabled();
        let mut trace = trace.into_iter();
        let mut next = trace.next();
        while let Some(access) = next {
            self.step_as(backend, handler, access, traced);
            next = trace.next();
            // The accesses that follow on the page this one hit in an L1
            // hit the same slot: count them with one compare each and
            // apply them at once.
            let Some(memo) = self.tlb.memo() else { continue };
            let mut repeats = 0;
            while next.is_some_and(|a| memo.covers(a.va)) {
                repeats += 1;
                next = trace.next();
            }
            if repeats != 0 {
                self.repeat_l1_hits(memo, repeats, traced);
            }
        }
    }

    /// `n` more L1 hits on `memo`'s page, as `n` steps would count them.
    #[inline(always)]
    fn repeat_l1_hits(&mut self, memo: L1Memo, n: u64, traced: bool) {
        self.tlb.hit_memo(memo, n);
        self.report.accesses += n;
        self.report.l1_hits += n;
        if traced {
            self.tracer.add("tlb.access", n);
            self.tracer.add("tlb.l1_hit", n);
        }
    }

    /// Flushes the TLBs (context switch).
    pub fn flush_tlbs(&mut self) {
        self.tlb.flush();
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use contig_types::{PageSize, PhysAddr, VirtAddr};

    struct Identity {
        size: PageSize,
        contig: bool,
    }

    impl TranslationBackend for Identity {
        fn walk(&self, va: VirtAddr) -> Option<WalkResult> {
            Some(WalkResult {
                pa: PhysAddr::new(va.raw()),
                size: self.size,
                refs: if self.size == PageSize::Huge2M { 3 } else { 4 },
                contig: self.contig,
                write: true,
            })
        }
    }

    #[test]
    fn sequential_scan_misses_once_per_page() {
        let mut sim = MemorySim::new(TlbConfig::broadwell(), WalkCostModel::default());
        let backend = Identity { size: PageSize::Base4K, contig: false };
        let mut scheme = NoScheme;
        let trace =
            (0..4096u64).map(|i| Access::read(7, VirtAddr::new(i * 64))); // 256 KiB scan
        sim.run(&backend, &mut scheme, trace);
        let r = sim.report();
        assert_eq!(r.accesses, 4096);
        assert_eq!(r.walks, 64, "one walk per 4 KiB page");
        assert_eq!(r.exposed, 64);
        assert_eq!(r.walk_refs, 64 * 4);
    }

    #[test]
    fn huge_pages_slash_miss_count() {
        let mut sim4k = MemorySim::new(TlbConfig::broadwell(), WalkCostModel::default());
        let mut sim2m = MemorySim::new(TlbConfig::broadwell(), WalkCostModel::default());
        let mut scheme = NoScheme;
        // 64 MiB working set touched page-strided, twice, so the second pass
        // exceeds TLB reach with 4 KiB pages but fits with 2 MiB pages.
        let trace: Vec<Access> = (0..2u64)
            .flat_map(|_| (0..16_384u64).map(|i| Access::read(3, VirtAddr::new(i * 4096))))
            .collect();
        sim4k.run(&Identity { size: PageSize::Base4K, contig: false }, &mut scheme, trace.clone());
        sim2m.run(&Identity { size: PageSize::Huge2M, contig: false }, &mut scheme, trace);
        assert!(sim2m.report().walks * 10 < sim4k.report().walks);
    }

    #[test]
    fn walk_cycles_track_cost_model() {
        let cost = WalkCostModel { cycles_per_ref: 7 };
        let mut sim = MemorySim::new(TlbConfig::broadwell(), cost);
        let mut scheme = NoScheme;
        sim.run(
            &Identity { size: PageSize::Base4K, contig: false },
            &mut scheme,
            [Access::read(1, VirtAddr::new(0))],
        );
        assert_eq!(sim.report().walk_cycles, 28);
    }

    #[test]
    #[should_panic(expected = "unmapped address")]
    fn unmapped_access_panics() {
        struct Nothing;
        impl TranslationBackend for Nothing {
            fn walk(&self, _va: VirtAddr) -> Option<WalkResult> {
                None
            }
        }
        let mut sim = MemorySim::new(TlbConfig::broadwell(), WalkCostModel::default());
        let mut scheme = NoScheme;
        sim.step(&Nothing, &mut scheme, Access::read(0, VirtAddr::new(0x1000)));
    }

    #[test]
    fn scheme_outcomes_are_tallied() {
        struct Alternating(u64);
        impl MissHandler for Alternating {
            fn on_miss(&mut self, _a: Access, _w: &WalkResult) -> MissHandling {
                self.0 += 1;
                match self.0 % 4 {
                    0 => MissHandling::Exposed,
                    1 => MissHandling::Hidden,
                    2 => MissHandling::PredictedCorrect,
                    _ => MissHandling::Mispredicted,
                }
            }
        }
        let mut sim = MemorySim::new(TlbConfig::broadwell(), WalkCostModel::default());
        let mut scheme = Alternating(0);
        let trace = (0..8u64).map(|i| Access::read(1, VirtAddr::new(i << 21)));
        sim.run(&Identity { size: PageSize::Base4K, contig: false }, &mut scheme, trace);
        let r = sim.report();
        assert_eq!(r.hidden, 2);
        assert_eq!(r.predicted, 2);
        assert_eq!(r.mispredicted, 2);
        assert_eq!(r.exposed, 2);
    }
}
