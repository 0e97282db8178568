//! The simulated OS instance: physical machine + processes + page cache,
//! with the demand-paging fault driver that consults a [`PlacementPolicy`].
//! Processes sit in a pid-indexed table, and an access resolves its address
//! space once: one body serves `touch` and `touch_write`.

use contig_buddy::{Machine, MachineConfig, NodeId};
use contig_trace::{stage, FaultClass, RecoveryStage, TraceEvent, Tracer};
use contig_types::{
    jittered_backoff, AllocError, FailPolicy, FaultError, PageSize, Pfn, PoisonPolicy,
    VirtAddr,
};

use crate::aspace::{AddressSpace, VmaId};
use crate::page_cache::{CacheAllocMode, PageCache, READAHEAD_PAGES};
use crate::policy::{FaultCtx, FaultKind, Placement, PlacementPolicy};
use crate::pte::{Pte, PteFlags};
use crate::poison::PoisonStats;
use crate::recovery::{RecoveryStats, BACKOFF_BASE_NS, BACKOFF_CAP_NS, BACKOFF_SEED, MAX_RETRIES};
use crate::stats::fault_ns;
use crate::vma::VmaKind;

/// Process identifier.
#[derive(Clone, Copy, Debug, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct Pid(pub u32);

/// The live address spaces, indexed by pid. Pids are handed out from 1 and
/// never reused, so a lookup is a bounds check, iteration is pid-ascending,
/// and an exited process leaves an empty pointer behind, not its address space.
#[derive(Debug, Default)]
pub(crate) struct ProcessTable(Vec<Option<Box<AddressSpace>>>);

impl ProcessTable {
    pub(crate) fn get(&self, pid: Pid) -> Option<&AddressSpace> {
        self.0.get(pid.0 as usize)?.as_deref()
    }

    pub(crate) fn get_mut(&mut self, pid: Pid) -> Option<&mut AddressSpace> {
        self.0.get_mut(pid.0 as usize)?.as_deref_mut()
    }

    pub(crate) fn insert(&mut self, pid: Pid, aspace: AddressSpace) {
        let slot = pid.0 as usize;
        self.0.resize_with(self.0.len().max(slot + 1), || None);
        self.0[slot] = Some(Box::new(aspace));
    }

    pub(crate) fn remove(&mut self, pid: Pid) -> Option<AddressSpace> {
        self.0.get_mut(pid.0 as usize)?.take().map(|aspace| *aspace)
    }

    /// The live processes, pid-ascending.
    pub(crate) fn iter(&self) -> impl Iterator<Item = (Pid, &AddressSpace)> {
        let slots = self.0.iter().enumerate();
        slots.filter_map(|(pid, slot)| Some((Pid(pid as u32), slot.as_deref()?)))
    }
}

/// How many placement retries a single fault may burn before the driver
/// forces a default allocation; guards against pathological policies.
const MAX_PLACEMENT_RETRIES: u32 = 16;

/// Outcome of one serviced fault.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct FaultOutcome {
    /// Frame the page was mapped onto (first frame for huge pages).
    pub pfn: Pfn,
    /// Page size actually mapped (may be 4 KiB after THP fallback).
    pub size: PageSize,
    /// Whether the page was already present (spurious fault short-circuit).
    pub already_mapped: bool,
}

/// Outcome of a successful [`System::ksm_merge`].
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct KsmMergeOutcome {
    /// The frame both mappings now share (the keeper's).
    pub kept: Pfn,
    /// The frame the donor mapping dropped.
    pub dropped: Pfn,
    /// Whether the dropped frame actually returned to the buddy (false when
    /// it remains COW-shared with other mappings).
    pub(crate) donor_freed: bool,
}

/// Why a [`System::ksm_merge`] was refused. Merges are best-effort — the
/// scanner simply skips a refused pair.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum KsmError {
    /// One of the pids does not exist.
    UnknownPid,
    /// One of the addresses has no leaf mapping.
    NotMapped,
    /// One of the leaves is a huge page; KSM only merges 4 KiB leaves.
    NotBasePage,
    /// One of the mappings is file-backed; the page cache owns those frames.
    FileBacked,
    /// The keeper's frame is hardware-poisoned.
    PoisonedKeeper,
    /// The pair already shares one frame.
    AlreadyMerged,
}

impl core::fmt::Display for KsmError {
    fn fmt(&self, f: &mut core::fmt::Formatter<'_>) -> core::fmt::Result {
        let what = match self {
            KsmError::UnknownPid => "unknown pid",
            KsmError::NotMapped => "address not mapped",
            KsmError::NotBasePage => "not a 4 KiB leaf",
            KsmError::FileBacked => "file-backed mapping",
            KsmError::PoisonedKeeper => "keeper frame poisoned",
            KsmError::AlreadyMerged => "already sharing one frame",
        };
        write!(f, "ksm merge refused: {what}")
    }
}

impl std::error::Error for KsmError {}

/// Construction parameters for a [`System`].
#[derive(Clone, Debug)]
pub struct SystemConfig {
    /// Physical memory layout.
    pub machine: MachineConfig,
    /// Transparent huge pages enabled (the paper's default).
    pub thp: bool,
    /// Page-cache allocation discipline.
    pub cache_mode: CacheAllocMode,
    /// Record per-fault latencies for percentile reporting (Table V).
    pub record_latencies: bool,
    /// Page-table radix depth: 4 (x86-64 default) or 5 (la57). The paper's
    /// introduction flags 5-level paging as a coming multiplier of
    /// nested-walk cost.
    pub pt_levels: u32,
}

impl SystemConfig {
    /// Kernel defaults (THP on) over the given machine.
    pub fn new(machine: MachineConfig) -> Self {
        Self {
            machine,
            thp: true,
            cache_mode: CacheAllocMode::Default,
            record_latencies: false,
            pt_levels: crate::page_table::LEVELS,
        }
    }
}

/// A simulated OS instance.
///
/// The system owns physical memory, the page cache, and all process address
/// spaces; the placement policy is passed into each fault so one system can
/// be driven under different strategies in a single experiment.
///
/// # Examples
///
/// ```
/// use contig_buddy::MachineConfig;
/// use contig_mm::{DefaultThpPolicy, System, SystemConfig, VmaKind};
/// use contig_types::{VirtAddr, VirtRange};
///
/// let mut sys = System::new(SystemConfig::new(MachineConfig::single_node_mib(64)));
/// let pid = sys.spawn();
/// sys.aspace_mut(pid).map_vma(VirtRange::new(VirtAddr::new(0x40_0000), 0x40_0000), VmaKind::Anon);
/// let mut policy = DefaultThpPolicy;
/// let out = sys.touch(&mut policy, pid, VirtAddr::new(0x40_1234))?;
/// assert!(!out.already_mapped);
/// # Ok::<(), contig_types::FaultError>(())
/// ```
#[derive(Debug)]
pub struct System {
    pub(crate) machine: Machine,
    pub(crate) processes: ProcessTable,
    pub(crate) page_cache: PageCache,
    pub(crate) next_pid: u32,
    pub(crate) thp: bool,
    pub(crate) record_latencies: bool,
    pub(crate) pt_levels: u32,
    /// Simulated clock, advanced by fault costs.
    pub(crate) now_ns: u64,
    /// Per-stage recovery counters.
    pub(crate) recovery_stats: RecoveryStats,
    /// Deterministic jitter source for retry backoff delays.
    pub(crate) backoff_rng: u64,
    /// Memory-failure (hwpoison) strike injector; disarmed by default.
    pub(crate) poison_policy: PoisonPolicy,
    /// Cumulative memory-failure counters.
    pub(crate) poison_stats: PoisonStats,
    /// Live-migration dirty-frame log: frames whose content changed since
    /// the log was enabled (fresh mappings, COW copies, write touches).
    /// `None` (the default) costs nothing on the fault path. Transient by
    /// design — snapshots do not capture it and [`System::restore`] clears
    /// it, because a migration epoch never spans a checkpoint.
    pub(crate) dirty_log: Option<std::collections::BTreeSet<u64>>,
    /// Background contiguity-maintenance daemon (khugepaged/kcompactd):
    /// policy, mid-epoch cursors, and counters. Disabled by default.
    pub(crate) daemon: crate::daemon::DaemonState,
    /// Observability probes over the fault path; disabled by default.
    pub(crate) tracer: Tracer,
}

/// Retry bookkeeping of one fault's out-of-memory escalation.
#[derive(Default)]
struct Escalation {
    /// Recovery rounds spent on the current request size.
    recover_attempts: u32,
    /// Recovery rounds spent across every request size; scales the backoff.
    total_attempts: u32,
    /// Whether any round recovered memory.
    recovered: bool,
}

/// The parts of a [`System`] one allocation-and-map attempt works on, split
/// out of `&mut System` so a fault resolves its address space (and with it
/// the home node) once and carries it down, instead of re-probing
/// `processes` at every level of the fault path.
struct FaultFrame<'a> {
    machine: &'a mut Machine,
    aspace: &'a mut AddressSpace,
    now_ns: &'a mut u64,
    tracer: &'a Tracer,
    thp: bool,
}

/// Default placement: the home node first when the process has one (tracing
/// spills), machine-wide first-fill otherwise.
fn alloc_default(
    machine: &mut Machine,
    home: Option<usize>,
    size: PageSize,
    tracer: &Tracer,
) -> Result<Pfn, AllocError> {
    let Some(h) = home else { return machine.alloc_page(size) };
    let pfn = machine.alloc_page_on(NodeId(h), size)?;
    if let Some(node) = machine.node_of(pfn).filter(|node| node.0 != h) {
        tracer.emit(TraceEvent::ZoneFallback {
            home: h as u64,
            got: node.0 as u64,
            order: size.order(),
        });
    }
    Ok(pfn)
}

/// Runs a placement decision to an allocated frame: default allocation, or
/// the policy's target with a bounded number of re-decisions through
/// [`PlacementPolicy::on_target_busy`]. `None` means the policy answered
/// `Handled`; what that is worth is the caller's business.
fn place(
    ctx: &mut FaultCtx<'_>,
    policy: &mut dyn PlacementPolicy,
    mut decision: Placement,
    tracer: &Tracer,
    va: VirtAddr,
) -> Result<Option<Pfn>, FaultError> {
    let size = ctx.size;
    let mut retries = 0;
    loop {
        match decision {
            Placement::Handled => return Ok(None),
            Placement::Default => {
                let _alloc_span = tracer.span(stage::BUDDY_ALLOC);
                return match alloc_default(ctx.machine, ctx.home, size, tracer) {
                    Ok(pfn) => Ok(Some(pfn)),
                    Err(_) => Err(FaultError::OutOfMemory { addr: va, size }),
                };
            }
            Placement::Target(target) => {
                let attempt = {
                    let _alloc_span = tracer.span(stage::BUDDY_ALLOC);
                    ctx.machine.alloc_page_at(target, size)
                };
                match attempt {
                    Ok(()) => {
                        ctx.stats.ca_target_hits += 1;
                        return Ok(Some(target));
                    }
                    Err(AllocError::OutOfMemory { .. }) => {
                        return Err(FaultError::OutOfMemory { addr: va, size })
                    }
                    Err(_) => {
                        ctx.stats.ca_target_misses += 1;
                        retries += 1;
                        if retries > MAX_PLACEMENT_RETRIES {
                            decision = Placement::Default;
                        } else {
                            let _place_span = tracer.span(stage::CA_PLACE);
                            decision = policy.on_target_busy(ctx, target);
                        }
                    }
                }
            }
        }
    }
}

/// Drops one reference to a possibly COW-shared block, freeing it when that
/// was the last one. Returns whether the block was freed.
fn unshare_frame(machine: &mut Machine, pfn: Pfn, size: PageSize) -> bool {
    let last = machine.share_dec(pfn);
    if last {
        machine.free_page(pfn, size);
    }
    last
}

impl FaultFrame<'_> {
    /// Size decision of an anonymous fault: huge when THP is on, the aligned
    /// 2 MiB region lies inside the VMA, and nothing in the region is mapped
    /// yet.
    fn anon_fault_size(
        &self,
        policy: &dyn PlacementPolicy,
        vma_id: VmaId,
        va: VirtAddr,
    ) -> PageSize {
        if self.thp && !policy.prefers_base_pages() {
            let vma_range = self.aspace.vma(vma_id).range();
            let huge_start = va.align_down(PageSize::Huge2M);
            let huge_end = huge_start + PageSize::Huge2M.bytes();
            let inside = vma_range.contains(huge_start)
                && (huge_end.raw() == vma_range.end().raw()
                    || vma_range.contains(VirtAddr::new(huge_end.raw() - 1)));
            if inside && !self.aspace.page_table().huge_region_populated(va) {
                return PageSize::Huge2M;
            }
        }
        PageSize::Base4K
    }

    fn try_alloc_and_map(
        &mut self,
        policy: &mut dyn PlacementPolicy,
        vma_id: VmaId,
        va: VirtAddr,
        size: PageSize,
        kind: FaultKind,
        absent: bool,
    ) -> Result<FaultOutcome, FaultError> {
        let fault_va = va.align_down(size);
        let tracer = self.tracer;
        let home = self.aspace.home();
        {
            // `absent`: the caller's probe just missed, and a huge size was
            // only chosen for an unpopulated region.
            let _pt_span = tracer.span(stage::PT_WALK);
            if !absent && self.aspace.page_table().translate(fault_va).is_ok() {
                return Err(FaultError::AlreadyMapped { addr: va });
            }
        }
        let (vma, page_table, stats) = self.aspace.fault_parts(vma_id);
        let mut ctx = FaultCtx {
            machine: &mut *self.machine,
            vma,
            page_table,
            va: fault_va,
            size,
            kind,
            home,
            stats,
            extra_zeroed_pages: 0,
        };
        let placements_before = ctx.stats.placements;
        let mut decision = {
            let _place_span = tracer.span(stage::CA_PLACE);
            policy.on_fault(&mut ctx)
        };
        let pfn = loop {
            match place(&mut ctx, policy, decision, tracer, va)? {
                Some(pfn) => break pfn,
                None => {
                    // The policy mapped the page (and possibly much more)
                    // itself; account one fault at whatever it zeroed.
                    let Ok(t) = ctx.page_table.translate(fault_va) else {
                        // A policy claiming Handled without installing the
                        // mapping is buggy, but a policy bug must not crash
                        // the fault driver: fall back to default placement.
                        debug_assert!(
                            false,
                            "policy reported Handled without mapping the fault"
                        );
                        decision = Placement::Default;
                        continue;
                    };
                    let _map_span = tracer.span(stage::MAP);
                    let latency = fault_ns(
                        t.size.base_pages() + ctx.extra_zeroed_pages,
                        ctx.stats.placements - placements_before,
                    );
                    ctx.stats.record_fault(t.size, latency);
                    *self.now_ns += latency;
                    tracer.set_clock(*self.now_ns);
                    return Ok(FaultOutcome {
                        pfn: t.pfn,
                        size: t.size,
                        already_mapped: false,
                    });
                }
            }
        };
        let _map_span = tracer.span(stage::MAP);
        let mut flags = PteFlags::WRITE;
        if ctx.vma.kind() != VmaKind::Anon {
            flags |= PteFlags::FILE;
        }
        ctx.page_table.map(fault_va, Pte::new(pfn, flags), size);
        policy.post_map(&mut ctx, pfn);
        let latency = fault_ns(
            size.base_pages() + ctx.extra_zeroed_pages,
            ctx.stats.placements - placements_before,
        );
        ctx.stats.record_fault(size, latency);
        *self.now_ns += latency;
        tracer.set_clock(*self.now_ns);
        Ok(FaultOutcome { pfn, size, already_mapped: false })
    }

    fn try_cow_break(
        &mut self,
        policy: &mut dyn PlacementPolicy,
        pid: Pid,
        vma_id: VmaId,
        va: VirtAddr,
    ) -> Result<FaultOutcome, FaultError> {
        let tracer = self.tracer;
        let home = self.aspace.home();
        let t = {
            let _pt_span = tracer.span(stage::PT_WALK);
            self.aspace
                .page_table()
                .translate(va)
                .map_err(|_| FaultError::UnmappedAddress { addr: va })?
        };
        if !t.flags.contains(PteFlags::COW) {
            return Ok(FaultOutcome { pfn: t.pfn, size: t.size, already_mapped: true });
        }
        let size = t.size;
        let old_pfn = t.pfn;
        let old_flags = t.flags;
        let page_va = va.align_down(size);
        // Allocate the private copy through the policy so CA keeps COW pages
        // contiguous too.
        let (vma, page_table, stats) = self.aspace.fault_parts(vma_id);
        let mut ctx = FaultCtx {
            machine: &mut *self.machine,
            vma,
            page_table,
            va: page_va,
            size,
            kind: FaultKind::Cow,
            home,
            stats,
            extra_zeroed_pages: 0,
        };
        let placements_before = ctx.stats.placements;
        let mut decision = {
            let _place_span = tracer.span(stage::CA_PLACE);
            policy.on_fault(&mut ctx)
        };
        let new_pfn = loop {
            match place(&mut ctx, policy, decision, tracer, va)? {
                Some(pfn) => break pfn,
                // A copy the policy claims to have `Handled` is placed by default.
                None => decision = Placement::Default,
            }
        };
        let _map_span = tracer.span(stage::MAP);
        ctx.page_table.remap(page_va, Pte::new(new_pfn, PteFlags::WRITE));
        policy.post_map(&mut ctx, new_pfn);
        let latency = fault_ns(size.base_pages(), ctx.stats.placements - placements_before);
        ctx.stats.cow_faults += 1;
        ctx.stats.record_fault(size, latency);
        *self.now_ns += latency;
        tracer.set_clock(*self.now_ns);
        tracer.emit(TraceEvent::CowBreak { pid: pid.0, va: page_va.raw() });
        // Drop our reference to the shared original. File pages are owned by
        // the page cache, not the COW count: breaking a private file mapping
        // must not free (or miscount) the cache's frame.
        if !old_flags.contains(PteFlags::FILE) {
            unshare_frame(self.machine, old_pfn, size);
        }
        Ok(FaultOutcome { pfn: new_pfn, size, already_mapped: false })
    }
}

impl System {
    /// Boots a system with all memory free.
    pub fn new(config: SystemConfig) -> Self {
        Self {
            machine: Machine::new(config.machine),
            processes: ProcessTable::default(),
            page_cache: PageCache::new(config.cache_mode),
            next_pid: 1,
            thp: config.thp,
            record_latencies: config.record_latencies,
            pt_levels: config.pt_levels,
            now_ns: 0,
            recovery_stats: RecoveryStats::default(),
            backoff_rng: BACKOFF_SEED,
            poison_policy: PoisonPolicy::default(),
            poison_stats: PoisonStats::default(),
            dirty_log: None,
            daemon: crate::daemon::DaemonState::default(),
            tracer: Tracer::disabled(),
        }
    }

    /// Attaches observability probes to the fault driver and, via the
    /// machine, to every buddy zone. Fault entry/exit, COW breaks,
    /// readahead, every recovery stage, and audit walks all emit events to
    /// the handle's session; the simulated clock is mirrored into record
    /// timestamps.
    pub fn set_tracer(&mut self, tracer: Tracer) {
        self.machine.set_tracer(tracer.clone());
        tracer.set_clock(self.now_ns);
        self.tracer = tracer;
    }

    /// The attached tracer handle (disabled by default).
    pub fn tracer(&self) -> &Tracer {
        &self.tracer
    }

    /// Advances the simulated clock and mirrors it into the trace session,
    /// so records are stamped with the time the work *finished*.
    pub(crate) fn advance_clock(&mut self, ns: u64) {
        self.now_ns += ns;
        self.tracer.set_clock(self.now_ns);
    }

    /// Emits one `recovery.<stage>` event. Every [`RecoveryStats`] bump has
    /// exactly one call next to it, so per-stage trace counts equal the
    /// stats totals — the invariant `tests/pressure_recovery.rs` asserts.
    pub(crate) fn trace_recovery(
        &self,
        stage: RecoveryStage,
        amount: u64,
        extra: u64,
        latency_ns: u64,
    ) {
        self.tracer.emit(TraceEvent::Recovery { stage, amount, extra, latency_ns });
    }

    /// Sleeps (in simulated time) before the `attempt`-th allocation retry:
    /// [`jittered_backoff`] on the recovery seed, so a storm of competing
    /// faults does not hammer the recovery path in lockstep. The balloon
    /// driver's deflate re-backing and the fleet's retries sleep through it
    /// too, so they stay deterministic per seed. Returns the delay paid, in
    /// nanoseconds.
    pub fn backoff_sleep(&mut self, attempt: u32) -> u64 {
        let k = u64::from(attempt.saturating_sub(1));
        let ns = jittered_backoff(BACKOFF_BASE_NS, BACKOFF_CAP_NS, k, 20, &mut self.backoff_rng);
        self.recovery_stats.backoff_ns += ns;
        self.advance_clock(ns);
        ns
    }

    /// Creates an empty process.
    pub fn spawn(&mut self) -> Pid {
        let pid = Pid(self.next_pid);
        self.next_pid += 1;
        let mut aspace = if self.record_latencies {
            AddressSpace::with_latency_recording()
        } else {
            AddressSpace::new()
        };
        aspace.set_page_table_levels(self.pt_levels);
        self.processes.insert(pid, aspace);
        pid
    }

    /// Sets or clears a process's NUMA home node: its default placement
    /// allocates from that zone first, spilling to other zones in
    /// deterministic wrap-around order only when the home is exhausted.
    ///
    /// # Panics
    ///
    /// Panics on an unknown pid or a node the machine does not have.
    pub fn set_home_node(&mut self, pid: Pid, node: Option<usize>) {
        let nodes = self.machine.nodes();
        let Some(aspace) = self.processes.get_mut(pid) else { panic!("unknown pid {pid:?}") };
        assert!(node.is_none_or(|n| n < nodes), "node {node:?} beyond machine topology");
        aspace.set_home(node);
    }

    /// The process's NUMA home node, if one is assigned.
    pub fn home_node(&self, pid: Pid) -> Option<usize> {
        self.processes.get(pid).and_then(AddressSpace::home)
    }

    /// The machine's physical memory.
    pub fn machine(&self) -> &Machine {
        &self.machine
    }

    /// Mutable access to physical memory (daemons, fragmenters).
    pub fn machine_mut(&mut self) -> &mut Machine {
        &mut self.machine
    }

    /// The system page cache.
    pub fn page_cache(&self) -> &PageCache {
        &self.page_cache
    }

    /// Mutable access to the page cache.
    pub fn page_cache_mut(&mut self) -> &mut PageCache {
        &mut self.page_cache
    }

    /// Simultaneous mutable access to the page cache and the machine, for
    /// callers that populate the cache directly (daemons, tests).
    pub fn cache_and_machine(&mut self) -> (&mut PageCache, &mut Machine) {
        (&mut self.page_cache, &mut self.machine)
    }

    /// Evicts every cached page of `file`, returning its frames to the
    /// machine (page-cache reclaim under memory pressure).
    pub fn evict_file(&mut self, file: crate::page_cache::FileId) {
        self.page_cache.evict_file(&mut self.machine, file);
    }

    /// Partially evicts `file`: pages whose index satisfies `pred` are
    /// reclaimed, the rest stay cached (LRU-style partial reclaim).
    pub fn evict_file_pages_where(
        &mut self,
        file: crate::page_cache::FileId,
        pred: impl Fn(u64) -> bool,
    ) -> u64 {
        self.page_cache.evict_pages_where(&mut self.machine, file, pred)
    }

    /// The simulated clock in nanoseconds.
    pub fn now_ns(&self) -> u64 {
        self.now_ns
    }

    /// A process address space.
    ///
    /// # Panics
    ///
    /// Panics on an unknown pid.
    pub fn aspace(&self, pid: Pid) -> &AddressSpace {
        self.processes.get(pid).expect("unknown pid")
    }

    /// Mutable access to a process address space.
    ///
    /// # Panics
    ///
    /// Panics on an unknown pid.
    pub fn aspace_mut(&mut self, pid: Pid) -> &mut AddressSpace {
        self.processes.get_mut(pid).expect("unknown pid")
    }

    /// Iterates live pids in creation order.
    pub fn pids(&self) -> Vec<Pid> {
        self.processes.iter().map(|(pid, _)| pid).collect()
    }

    /// The COW sharer count recorded for `pfn`, if the frame is shared.
    pub fn cow_shared_count(&self, pfn: Pfn) -> Option<u32> {
        Some(self.machine.share_count(pfn)).filter(|&count| count > 0)
    }

    /// Enables Linux-style per-CPU frame caches on every zone (see
    /// [`contig_buddy::PcpConfig`]). Order-0 allocations across the fault
    /// path, page cache, and COW breaks are subsequently served from pcp
    /// lists; targeted CA allocations drain conflicting cached frames first.
    ///
    /// # Panics
    ///
    /// Panics if pcp is already enabled, or on invalid tunables.
    pub fn enable_pcp(&mut self, config: contig_buddy::PcpConfig) {
        self.machine.enable_pcp(config);
    }

    /// Selects the simulated CPU whose pcp lists serve subsequent faults.
    /// No-op while pcp is disabled.
    ///
    /// # Panics
    ///
    /// Panics if `cpu` is out of range for the configured CPU count.
    pub fn set_cpu(&mut self, cpu: usize) {
        self.machine.set_cpu(cpu);
    }

    /// Drains every zone's pcp lists back to the buddy heaps; returns the
    /// number of frames moved.
    pub fn drain_pcp(&mut self) -> u64 {
        self.machine.drain_pcp()
    }

    /// Installs a fault-injection policy on every zone of the machine.
    pub fn set_fail_policy(&mut self, policy: FailPolicy) {
        self.machine.set_fail_policy(policy);
    }

    /// Removes fault injection from every zone.
    pub fn clear_fail_policy(&mut self) {
        self.machine.clear_fail_policy();
    }

    /// Starts dirty-frame logging for live migration: from now on every
    /// frame whose content changes — a fresh mapping installed, a COW copy
    /// taken, a write touch on a present page — is recorded. This is the
    /// simulator's analogue of KVM's dirty bitmap: the hypervisor already
    /// intercepts every guest memory access as a fault or touch, so the
    /// WRITE-bit/COW machinery doubles as the dirty tracker. Enabling an
    /// already-enabled log just clears it (a fresh epoch).
    pub fn enable_dirty_log(&mut self) {
        self.dirty_log = Some(std::collections::BTreeSet::new());
    }

    /// Stops dirty-frame logging and discards the pending set.
    pub fn disable_dirty_log(&mut self) {
        self.dirty_log = None;
    }

    /// Whether dirty-frame logging is active.
    pub fn dirty_log_enabled(&self) -> bool {
        self.dirty_log.is_some()
    }

    /// Harvests the dirty set accumulated since [`System::enable_dirty_log`]
    /// (or the previous harvest), sorted ascending, and starts a fresh
    /// epoch. Returns an empty vector while logging is disabled.
    pub fn take_dirty_frames(&mut self) -> Vec<u64> {
        match &mut self.dirty_log {
            Some(set) => std::mem::take(set).into_iter().collect(),
            None => Vec::new(),
        }
    }

    /// Records frames `[pfn, pfn + size)` as dirtied. No-op while logging
    /// is disabled, keeping the default fault path free of overhead.
    pub(crate) fn mark_dirty(&mut self, pfn: Pfn, size: PageSize) {
        if let Some(set) = &mut self.dirty_log {
            for frame in pfn.raw()..pfn.raw() + size.base_pages() {
                set.insert(frame);
            }
        }
    }

    /// Touches `va`: services a demand fault if the page is absent.
    ///
    /// The driver picks the fault size (THP when the 2 MiB region is fully
    /// inside the VMA and still unpopulated), asks the policy for a
    /// placement, performs the allocation — looping through
    /// [`PlacementPolicy::on_target_busy`] on targeted misses — maps the
    /// page, and finally invokes [`PlacementPolicy::post_map`].
    ///
    /// The faulting address space (and with it the home node) is resolved
    /// once, at entry (the present-page probe runs on the same borrow), for
    /// the first allocation attempt; only an attempt that follows
    /// out-of-memory recovery resolves it again, because recovery needs the
    /// whole system in between.
    ///
    /// # Errors
    ///
    /// - [`FaultError::UnmappedAddress`] outside any VMA, and for a `pid`
    ///   that has exited or never existed (no process maps nothing).
    /// - [`FaultError::OutOfMemory`] when physical memory is exhausted.
    ///
    /// Touching a present page is not an error.
    pub fn touch(
        &mut self,
        policy: &mut dyn PlacementPolicy,
        pid: Pid,
        va: VirtAddr,
    ) -> Result<FaultOutcome, FaultError> {
        self.access(policy, pid, va, FaultKind::Anon)
    }

    /// Touches `va` for writing: breaks copy-on-write shares.
    ///
    /// # Errors
    ///
    /// As for [`System::touch`].
    pub fn touch_write(
        &mut self,
        policy: &mut dyn PlacementPolicy,
        pid: Pid,
        va: VirtAddr,
    ) -> Result<FaultOutcome, FaultError> {
        self.access(policy, pid, va, FaultKind::Cow)
    }

    /// The fault driver. It first looks the page up — the one probe of a
    /// touch — and faults only if the page is absent or, for a write
    /// (`kind` is `Cow`), still shared.
    fn access(
        &mut self,
        policy: &mut dyn PlacementPolicy,
        pid: Pid,
        va: VirtAddr,
        mut kind: FaultKind,
    ) -> Result<FaultOutcome, FaultError> {
        let Some(mut frame) = self.fault_frame(pid) else {
            return Err(FaultError::UnmappedAddress { addr: va });
        };
        let probe = frame.aspace.page_table().translate(va);
        match probe {
            Ok(t) if kind == FaultKind::Cow && t.flags.contains(PteFlags::COW) => {}
            Ok(t) => {
                if kind == FaultKind::Cow {
                    // Already writable: content still changes, so the
                    // migration dirty log (when armed) must see the store.
                    self.mark_dirty(t.pfn, t.size);
                }
                return Ok(FaultOutcome { pfn: t.pfn, size: t.size, already_mapped: true });
            }
            Err(_) => kind = FaultKind::Anon,
        }
        // A probe that missed spares the first allocation attempt its own.
        let absent = probe.is_err();
        // Re-align the session clock to this system's timeline before the
        // span opens: under nested virt the guest and host systems share one
        // session, and whichever faulted last left *its* clock behind.
        frame.tracer.set_clock(*frame.now_ns);
        let _fault_span = frame.tracer.span(stage::FAULT);
        let vma_lookup = {
            let _vma_span = frame.tracer.span(stage::VMA_WALK);
            frame.aspace.vma_containing(va)
        };
        let Some(vma_id) = vma_lookup else {
            self.tracer.emit(TraceEvent::FaultFailed { pid: pid.0, va: va.raw() });
            return Err(FaultError::UnmappedAddress { addr: va });
        };
        let vma = frame.aspace.vma(vma_id);
        let (vma_kind, vma_range) = (vma.kind(), vma.range());
        let kind = match vma_kind {
            VmaKind::File { .. } if kind == FaultKind::Anon => FaultKind::FileRead,
            _ => kind,
        };
        let traced = frame.tracer.is_enabled();
        if traced {
            let class = match kind {
                FaultKind::Anon => FaultClass::Anon,
                FaultKind::Cow => FaultClass::Cow,
                FaultKind::FileRead => FaultClass::File,
            };
            frame.tracer.emit(TraceEvent::FaultEnter { pid: pid.0, va: va.raw(), class });
        }
        let before_ns = *frame.now_ns;
        let result = match kind {
            FaultKind::Cow => {
                let first = frame.try_cow_break(policy, pid, vma_id, va);
                self.cow_fault(policy, pid, vma_id, va, first)
            }
            FaultKind::FileRead => self.file_fault(policy, pid, vma_id, va, vma_kind, vma_range),
            FaultKind::Anon => {
                let size = frame.anon_fault_size(policy, vma_id, va);
                let first =
                    frame.try_alloc_and_map(policy, vma_id, va, size, FaultKind::Anon, absent);
                self.anon_fault(policy, pid, vma_id, va, size, first)
            }
        };
        if let Ok(out) = &result {
            if !out.already_mapped {
                // Fresh mapping or COW copy: the frame's content was just
                // (re)initialized — dirty from the migration log's view.
                self.mark_dirty(out.pfn, out.size);
            }
        }
        if traced {
            match &result {
                Ok(out) if !out.already_mapped => {
                    let latency_ns = self.now_ns - before_ns;
                    self.tracer.emit(TraceEvent::FaultExit {
                        pid: pid.0,
                        va: va.raw(),
                        order: out.size.order(),
                        latency_ns,
                    });
                    self.tracer.observe("mm.fault_ns", latency_ns);
                }
                Ok(_) => {}
                Err(_) => {
                    self.tracer.emit(TraceEvent::FaultFailed { pid: pid.0, va: va.raw() });
                }
            }
        }
        result
    }

    /// Splits the system into the parts an allocation attempt of `pid` works
    /// on — the one `processes` lookup of a fault. `None` for a pid that is
    /// not live.
    fn fault_frame(&mut self, pid: Pid) -> Option<FaultFrame<'_>> {
        Some(FaultFrame {
            aspace: self.processes.get_mut(pid)?,
            machine: &mut self.machine,
            now_ns: &mut self.now_ns,
            tracer: &self.tracer,
            thp: self.thp,
        })
    }

    /// One round of the out-of-memory escalation every fault kind shares:
    /// count the event and, while the per-size retry budget lasts, recover
    /// and back off. Returns whether the caller should retry the same
    /// request.
    fn recover_for_retry(&mut self, order: u32, esc: &mut Escalation) -> bool {
        self.recovery_stats.oom_events += 1;
        self.trace_recovery(RecoveryStage::OomEvent, order.into(), 0, 0);
        esc.recover_attempts += 1;
        esc.total_attempts += 1;
        let recovered_now = esc.recover_attempts <= MAX_RETRIES && {
            let _recovery_span = self.tracer.span(stage::RECOVERY);
            self.try_recover(order)
        };
        if recovered_now {
            {
                let _backoff_span = self.tracer.span(stage::BACKOFF);
                self.backoff_sleep(esc.total_attempts);
            }
            self.recovery_stats.retries += 1;
            self.trace_recovery(RecoveryStage::Retry, order.into(), 0, 0);
            esc.recovered = true;
        }
        recovered_now
    }

    /// Out-of-memory escalation around an anonymous fault whose first
    /// attempt already ran: recover (reclaim, compaction) and retry a bounded
    /// number of times, then degrade the request size, then surface a typed
    /// error — never panic.
    fn anon_fault(
        &mut self,
        policy: &mut dyn PlacementPolicy,
        pid: Pid,
        vma_id: VmaId,
        va: VirtAddr,
        mut size: PageSize,
        first: Result<FaultOutcome, FaultError>,
    ) -> Result<FaultOutcome, FaultError> {
        let mut attempt = first;
        let mut esc = Escalation::default();
        loop {
            match attempt {
                Ok(out) => {
                    if esc.recovered {
                        self.recovery_stats.recovered_faults += 1;
                        self.trace_recovery(RecoveryStage::RecoveredFault, 0, 0, 0);
                    }
                    return Ok(out);
                }
                Err(e @ FaultError::OutOfMemory { .. }) => {
                    if self.recover_for_retry(size.order(), &mut esc) {
                        // Retry at the same size.
                    } else if size == PageSize::Huge2M {
                        // THP fallback: retry the fault with a base page.
                        self.aspace_mut(pid).stats_mut().thp_fallbacks += 1;
                        self.recovery_stats.order_backoffs += 1;
                        self.trace_recovery(
                            RecoveryStage::OrderBackoff,
                            size.order().into(),
                            0,
                            0,
                        );
                        size = PageSize::Base4K;
                        esc.recover_attempts = 0;
                    } else {
                        self.recovery_stats.hard_ooms += 1;
                        self.trace_recovery(RecoveryStage::HardOom, size.order().into(), 0, 0);
                        return Err(e);
                    }
                }
                Err(e) => return Err(e),
            }
            let mut frame = self.fault_frame(pid).expect("recovery exits no process");
            attempt = frame.try_alloc_and_map(policy, vma_id, va, size, FaultKind::Anon, false);
        }
    }

    /// Out-of-memory escalation around a COW break whose first attempt
    /// already ran. COW breaks cannot degrade their size (the copy must match
    /// the shared page), so the escalation is recover-and-retry only.
    fn cow_fault(
        &mut self,
        policy: &mut dyn PlacementPolicy,
        pid: Pid,
        vma_id: VmaId,
        va: VirtAddr,
        first: Result<FaultOutcome, FaultError>,
    ) -> Result<FaultOutcome, FaultError> {
        let mut attempt = first;
        let mut esc = Escalation::default();
        loop {
            match attempt {
                Ok(out) => {
                    if esc.recovered && !out.already_mapped {
                        self.recovery_stats.recovered_faults += 1;
                        self.trace_recovery(RecoveryStage::RecoveredFault, 0, 0, 0);
                    }
                    return Ok(out);
                }
                Err(e @ FaultError::OutOfMemory { size, .. }) => {
                    if !self.recover_for_retry(size.order(), &mut esc) {
                        self.recovery_stats.hard_ooms += 1;
                        self.trace_recovery(RecoveryStage::HardOom, size.order().into(), 0, 0);
                        return Err(e);
                    }
                }
                Err(e) => return Err(e),
            }
            let mut frame = self.fault_frame(pid).expect("recovery exits no process");
            attempt = frame.try_cow_break(policy, pid, vma_id, va);
        }
    }

    fn file_fault(
        &mut self,
        policy: &mut dyn PlacementPolicy,
        pid: Pid,
        vma_id: VmaId,
        va: VirtAddr,
        vma_kind: VmaKind,
        vma_range: contig_types::VirtRange,
    ) -> Result<FaultOutcome, FaultError> {
        let VmaKind::File { file, start_page } = vma_kind else {
            unreachable!("file fault on anonymous VMA");
        };
        let vma_start = vma_range.start();
        let vma_pages = vma_range.pages();
        let page_va = va.align_down(PageSize::Base4K);
        let vma_index = (page_va - vma_start) / PageSize::Base4K.bytes();
        // File page indices live in `[0, u64::MAX)`: a page's window must end
        // inside the index space. A VMA reaching past it has no file page
        // there to map.
        let Some(file_index) = start_page.checked_add(vma_index).filter(|&i| i < u64::MAX) else {
            return Err(FaultError::UnmappedAddress { addr: va });
        };
        let mut window = READAHEAD_PAGES.min(vma_pages - vma_index).min(u64::MAX - file_index);
        // Pressure escalation for readahead: recover and retry, then shrink
        // the window to the single faulting page before giving up.
        let mut esc = Escalation::default();
        loop {
            let attempt = {
                let _alloc_span = self.tracer.span(stage::BUDDY_ALLOC);
                self.page_cache.readahead(&mut self.machine, file, file_index, window)
            };
            if attempt.is_ok() {
                break;
            }
            if self.recover_for_retry(0, &mut esc) {
                continue;
            }
            if window > 1 {
                window = 1;
                self.recovery_stats.readahead_shrinks += 1;
                self.trace_recovery(RecoveryStage::ReadaheadShrink, window, 0, 0);
                esc.recover_attempts = 0;
            } else {
                self.recovery_stats.hard_ooms += 1;
                self.trace_recovery(RecoveryStage::HardOom, 0, 0, 0);
                return Err(FaultError::OutOfMemory { addr: va, size: PageSize::Base4K });
            }
        }
        if esc.recovered {
            self.recovery_stats.recovered_faults += 1;
            self.trace_recovery(RecoveryStage::RecoveredFault, 0, 0, 0);
        }
        if self.tracer.is_enabled() {
            self.tracer.emit(TraceEvent::Readahead {
                file: file.0.into(),
                index: file_index,
                pages: window,
            });
        }
        let pfn = self
            .page_cache
            .lookup(file, file_index)
            .ok_or(FaultError::OutOfMemory { addr: va, size: PageSize::Base4K })?;
        // Readahead may have gone through recovery, which needs the whole
        // system: the mapping step resolves the address space afresh.
        let frame = self.fault_frame(pid).expect("recovery exits no process");
        let home = frame.aspace.home();
        {
            let _pt_span = frame.tracer.span(stage::PT_WALK);
            if frame.aspace.page_table().translate(page_va).is_ok() {
                return Err(FaultError::AlreadyMapped { addr: va });
            }
        }
        let _map_span = frame.tracer.span(stage::MAP);
        frame
            .aspace
            .page_table_mut()
            .map(page_va, Pte::new(pfn, PteFlags::FILE), PageSize::Base4K);
        // Give the policy its post-map hook (CA marks contiguity bits on
        // page-cache mappings too).
        let (vma, page_table, stats) = frame.aspace.fault_parts(vma_id);
        let mut ctx = FaultCtx {
            machine: frame.machine,
            vma,
            page_table,
            va: page_va,
            size: PageSize::Base4K,
            kind: FaultKind::FileRead,
            home,
            stats,
            extra_zeroed_pages: 0,
        };
        policy.post_map(&mut ctx, pfn);
        let latency = fault_ns(1, 0);
        ctx.stats.record_fault(PageSize::Base4K, latency);
        *frame.now_ns += latency;
        frame.tracer.set_clock(*frame.now_ns);
        Ok(FaultOutcome { pfn, size: PageSize::Base4K, already_mapped: false })
    }

    /// Marks every mapped page of `pid`'s VMA at `vma_id` copy-on-write and
    /// shares it into a new process, as `fork` would. Returns the child pid.
    pub fn fork_vma(&mut self, pid: Pid, vma_id: VmaId) -> Pid {
        let child = self.spawn();
        let parent = self.processes.get_mut(pid).expect("unknown pid");
        let range = parent.vma(vma_id).range();
        let kind = parent.vma(vma_id).kind();
        let mut pages = Vec::new();
        {
            let pt = parent.page_table_mut();
            for mapped in pt.mappings_in(range).collect::<Vec<_>>() {
                pt.update_flags(mapped.va, |f| f | PteFlags::COW);
                pages.push(mapped);
            }
        }
        let child_aspace = self.processes.get_mut(child).expect("child pid");
        child_aspace.map_vma(range, kind);
        for m in &pages {
            child_aspace
                .page_table_mut()
                .map(m.va, Pte::new(m.pte.pfn, m.pte.flags | PteFlags::COW), m.size);
            // File pages are shared through the page cache, which owns their
            // frames; only anonymous frames carry a COW share count.
            if !m.pte.flags.contains(PteFlags::FILE) {
                self.machine.share_inc(m.pte.pfn);
            }
        }
        child
    }

    /// Terminates a process, releasing every frame it exclusively owns.
    /// Page-cache frames survive (they belong to the cache).
    ///
    /// # Panics
    ///
    /// Panics on an unknown pid.
    pub fn exit(&mut self, pid: Pid) {
        let aspace = self.processes.remove(pid).expect("unknown pid");
        for m in aspace.page_table().iter_mappings() {
            if m.pte.flags.contains(PteFlags::FILE) {
                continue;
            }
            if m.pte.flags.contains(PteFlags::COW) {
                unshare_frame(&mut self.machine, m.pte.pfn, m.size);
            } else {
                self.machine.free_page(m.pte.pfn, m.size);
            }
        }
    }

    /// KSM-style same-page merge: points the `donor` mapping at the
    /// `keeper`'s frame and write-protects both behind the existing COW
    /// break path, so the next write to either lands on a fresh private
    /// copy via [`System::touch_write`]. The donor's old frame is released
    /// through its COW share count (freed outright when it was
    /// exclusively owned).
    ///
    /// The caller asserts content equality — this simulator tracks frame
    /// *identity*, not bytes, so the fleet layer's content tags are the
    /// ground truth the oracle checks.
    ///
    /// # Errors
    ///
    /// Rejects unknown pids, unmapped or huge-leaf addresses, file-backed
    /// mappings (the page cache owns those frames), a poisoned keeper
    /// frame, and a pair already sharing one frame.
    pub fn ksm_merge(
        &mut self,
        keeper: (Pid, VirtAddr),
        donor: (Pid, VirtAddr),
    ) -> Result<KsmMergeOutcome, KsmError> {
        let kt = self
            .processes
            .get(keeper.0)
            .ok_or(KsmError::UnknownPid)?
            .page_table()
            .translate(keeper.1)
            .map_err(|_| KsmError::NotMapped)?;
        let dt = self
            .processes
            .get(donor.0)
            .ok_or(KsmError::UnknownPid)?
            .page_table()
            .translate(donor.1)
            .map_err(|_| KsmError::NotMapped)?;
        if kt.size != PageSize::Base4K || dt.size != PageSize::Base4K {
            return Err(KsmError::NotBasePage);
        }
        if kt.flags.contains(PteFlags::FILE) || dt.flags.contains(PteFlags::FILE) {
            return Err(KsmError::FileBacked);
        }
        if self.machine.is_poisoned(kt.pfn) {
            return Err(KsmError::PoisonedKeeper);
        }
        if kt.pfn == dt.pfn {
            return Err(KsmError::AlreadyMerged);
        }
        let keeper_va = keeper.1.align_down(PageSize::Base4K);
        let donor_va = donor.1.align_down(PageSize::Base4K);
        self.processes
            .get_mut(keeper.0)
            .expect("keeper pid")
            .page_table_mut()
            .update_flags(keeper_va, |f| f.difference(PteFlags::WRITE) | PteFlags::COW);
        self.processes
            .get_mut(donor.0)
            .expect("donor pid")
            .page_table_mut()
            .remap(
                donor_va,
                Pte::new(kt.pfn, dt.flags.difference(PteFlags::WRITE) | PteFlags::COW),
            );
        self.machine.share_inc(kt.pfn);
        let donor_freed = if dt.flags.contains(PteFlags::COW) {
            unshare_frame(&mut self.machine, dt.pfn, PageSize::Base4K)
        } else {
            self.machine.free_page(dt.pfn, PageSize::Base4K);
            true
        };
        self.tracer
            .emit(TraceEvent::KsmMerge { kept: kt.pfn.raw(), dropped: dt.pfn.raw() });
        Ok(KsmMergeOutcome { kept: kt.pfn, dropped: dt.pfn, donor_freed })
    }

    /// Tears one 4 KiB leaf out of `pid`'s page table, releasing its frame
    /// through the same ownership rules as [`System::exit`]: page-cache
    /// frames stay cached, COW frames go through their share count, and
    /// exclusively owned frames return to the buddy. This is the balloon
    /// driver's reclaim primitive — the guest keeps the (now unbacked) VMA.
    ///
    /// Returns the frame the leaf pointed at and whether it actually
    /// reached the free lists, or `None` when `va` has no 4 KiB leaf.
    pub fn unmap_base_page(&mut self, pid: Pid, va: VirtAddr) -> Option<(Pfn, bool)> {
        let aspace = self.processes.get_mut(pid)?;
        let t = aspace.page_table().translate(va).ok()?;
        if t.size != PageSize::Base4K {
            return None;
        }
        let (pte, _) = aspace.page_table_mut().unmap(va.align_down(PageSize::Base4K))?;
        if pte.flags.contains(PteFlags::FILE) {
            return Some((pte.pfn, false));
        }
        if pte.flags.contains(PteFlags::COW) {
            let freed = unshare_frame(&mut self.machine, pte.pfn, PageSize::Base4K);
            Some((pte.pfn, freed))
        } else {
            self.machine.free_page(pte.pfn, PageSize::Base4K);
            Some((pte.pfn, true))
        }
    }

    /// Faults every page of a VMA in virtual-address order — the touch loop
    /// used by allocation-phase-heavy workloads.
    ///
    /// # Errors
    ///
    /// Propagates the first fault failure.
    pub fn populate_vma(
        &mut self,
        policy: &mut dyn PlacementPolicy,
        pid: Pid,
        vma_id: VmaId,
    ) -> Result<(), FaultError> {
        let range = self.aspace(pid).vma(vma_id).range();
        let mut va = range.start();
        while va < range.end() {
            let out = self.touch(policy, pid, va)?;
            va = va.align_down(out.size) + out.size.bytes();
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::policy::{BasePagesPolicy, DefaultThpPolicy};
    use contig_types::VirtRange;

    fn small_system() -> System {
        System::new(SystemConfig::new(MachineConfig::single_node_mib(64)))
    }

    fn anon_vma(sys: &mut System, pid: Pid, start: u64, len: u64) -> VmaId {
        sys.aspace_mut(pid).map_vma(VirtRange::new(VirtAddr::new(start), len), VmaKind::Anon)
    }

    #[test]
    fn first_touch_faults_huge_when_aligned() {
        let mut sys = small_system();
        let pid = sys.spawn();
        anon_vma(&mut sys, pid, 0x40_0000, 0x40_0000);
        let mut policy = DefaultThpPolicy;
        let out = sys.touch(&mut policy, pid, VirtAddr::new(0x40_1234)).unwrap();
        assert_eq!(out.size, PageSize::Huge2M);
        assert!(!out.already_mapped);
        // Second touch hits the installed translation.
        let again = sys.touch(&mut policy, pid, VirtAddr::new(0x5f_ffff)).unwrap();
        assert!(again.already_mapped);
        assert_eq!(sys.aspace(pid).stats().faults_2m, 1);
    }

    #[test]
    fn unaligned_vma_edges_fault_base_pages() {
        let mut sys = small_system();
        let pid = sys.spawn();
        // VMA not 2 MiB aligned: starts mid-region.
        anon_vma(&mut sys, pid, 0x10_0000, 0x10_0000);
        let mut policy = DefaultThpPolicy;
        let out = sys.touch(&mut policy, pid, VirtAddr::new(0x10_0000)).unwrap();
        assert_eq!(out.size, PageSize::Base4K);
    }

    #[test]
    fn base_pages_policy_never_faults_huge() {
        let mut sys = System::new(SystemConfig {
            thp: false,
            ..SystemConfig::new(MachineConfig::single_node_mib(64))
        });
        let pid = sys.spawn();
        anon_vma(&mut sys, pid, 0x40_0000, 0x40_0000);
        let mut policy = BasePagesPolicy;
        let out = sys.touch(&mut policy, pid, VirtAddr::new(0x40_0000)).unwrap();
        assert_eq!(out.size, PageSize::Base4K);
    }

    #[test]
    fn fault_outside_vma_is_segfault() {
        let mut sys = small_system();
        let pid = sys.spawn();
        let mut policy = DefaultThpPolicy;
        let err = sys.touch(&mut policy, pid, VirtAddr::new(0x123_0000)).unwrap_err();
        assert!(matches!(err, FaultError::UnmappedAddress { .. }));
    }

    #[test]
    fn populate_then_exit_returns_all_memory() {
        let mut sys = small_system();
        let pid = sys.spawn();
        let vma = anon_vma(&mut sys, pid, 0x40_0000, 0x80_0000);
        let mut policy = DefaultThpPolicy;
        sys.populate_vma(&mut policy, pid, vma).unwrap();
        assert_eq!(sys.aspace(pid).mapped_bytes(), 0x80_0000);
        let used = sys.machine().total_frames() - sys.machine().free_frames();
        assert_eq!(used, 0x80_0000 / 4096);
        sys.exit(pid);
        assert_eq!(sys.machine().free_frames(), sys.machine().total_frames());
        sys.machine().verify_integrity();
    }

    #[test]
    fn thp_fallback_when_memory_tight() {
        // 4 MiB machine, 2 MiB hole: huge fault must fall back to 4 KiB once
        // no order-9 block is left.
        let mut sys = System::new(SystemConfig::new(MachineConfig::with_node_mib(&[4])));
        // Shred the machine: claim every frame individually, then free every
        // other one — plenty of 4 KiB pages remain but no 2 MiB run.
        let mut held = Vec::new();
        while let Ok(p) = sys.machine_mut().alloc(0) {
            held.push(p);
        }
        for p in held.iter().step_by(2) {
            sys.machine_mut().free(*p, 0);
        }
        let pid = sys.spawn();
        anon_vma(&mut sys, pid, 0x40_0000, 0x40_0000);
        let mut policy = DefaultThpPolicy;
        let out = sys.touch(&mut policy, pid, VirtAddr::new(0x40_0000)).unwrap();
        assert_eq!(out.size, PageSize::Base4K);
        assert_eq!(sys.aspace(pid).stats().thp_fallbacks, 1);
    }

    #[test]
    fn cow_fork_and_write_break() {
        let mut sys = small_system();
        let parent = sys.spawn();
        let vma = anon_vma(&mut sys, parent, 0x40_0000, 0x20_0000);
        let mut policy = DefaultThpPolicy;
        sys.populate_vma(&mut policy, parent, vma).unwrap();
        let before = sys.machine().free_frames();
        let child = sys.fork_vma(parent, vma);
        assert_eq!(sys.machine().free_frames(), before, "fork allocates nothing");
        // Child write breaks the share.
        let out = sys.touch_write(&mut policy, child, VirtAddr::new(0x40_0000)).unwrap();
        assert!(!out.already_mapped);
        assert_eq!(sys.aspace(child).stats().cow_faults, 1);
        assert_eq!(sys.machine().free_frames(), before - 512);
        // Parent still reads its original frame, now unshared on child exit.
        sys.exit(child);
        sys.exit(parent);
        assert_eq!(sys.machine().free_frames(), sys.machine().total_frames());
        sys.machine().verify_integrity();
    }

    #[test]
    fn file_vma_faults_through_page_cache() {
        let mut sys = small_system();
        let file = sys.page_cache_mut().create_file();
        let pid = sys.spawn();
        let vma_range = VirtRange::new(VirtAddr::new(0x200_0000), 0x40_0000);
        sys.aspace_mut(pid).map_vma(vma_range, VmaKind::File { file, start_page: 0 });
        let mut policy = DefaultThpPolicy;
        let out = sys.touch(&mut policy, pid, VirtAddr::new(0x200_0000)).unwrap();
        assert_eq!(out.size, PageSize::Base4K);
        // Readahead cached a window beyond the fault.
        assert!(sys.page_cache().cached_pages(file) >= 32);
        // Exit does not free cache frames.
        let cached = sys.page_cache().cached_pages(file);
        sys.exit(pid);
        assert_eq!(sys.page_cache().cached_pages(file), cached);
        let free_after = sys.machine().free_frames();
        assert_eq!(free_after, sys.machine().total_frames() - cached);
    }

    #[test]
    fn out_of_memory_surfaces_after_fallback() {
        let mut sys = System::new(SystemConfig::new(MachineConfig::with_node_mib(&[1])));
        let pid = sys.spawn();
        anon_vma(&mut sys, pid, 0x40_0000, 0x40_0000);
        let mut policy = DefaultThpPolicy;
        // 1 MiB machine: one huge fault cannot be served; falls back to 4 KiB
        // pages until those run out too.
        let mut last = Ok(());
        for i in 0..1024u64 {
            match sys.touch(&mut policy, pid, VirtAddr::new(0x40_0000 + i * 4096)) {
                Ok(_) => {}
                Err(e) => {
                    last = Err(e);
                    break;
                }
            }
        }
        assert!(matches!(last, Err(FaultError::OutOfMemory { .. })));
    }

    #[test]
    fn clock_advances_with_faults() {
        let mut sys = small_system();
        let pid = sys.spawn();
        anon_vma(&mut sys, pid, 0x40_0000, 0x40_0000);
        let mut policy = DefaultThpPolicy;
        assert_eq!(sys.now_ns(), 0);
        sys.touch(&mut policy, pid, VirtAddr::new(0x40_0000)).unwrap();
        assert!(sys.now_ns() > 0);
    }

    fn numa_system(nodes: &[u64]) -> System {
        // THP off: every touch is one 4 KiB allocation, so per-fault zone
        // accounting is exact.
        System::new(SystemConfig {
            thp: false,
            ..SystemConfig::new(MachineConfig::with_node_mib(nodes))
        })
    }

    #[test]
    fn homed_faults_land_on_the_home_zone() {
        let mut sys = numa_system(&[16, 16, 16, 16]);
        let pid = sys.spawn();
        sys.set_home_node(pid, Some(2));
        assert_eq!(sys.home_node(pid), Some(2));
        anon_vma(&mut sys, pid, 0x40_0000, 0x40_0000);
        let mut policy = BasePagesPolicy;
        for i in 0..16u64 {
            let out = sys.touch(&mut policy, pid, VirtAddr::new(0x40_0000 + i * 4096)).unwrap();
            assert_eq!(sys.machine().node_of(out.pfn), Some(NodeId(2)));
        }
    }

    #[test]
    fn exhausted_home_zone_spills_and_counts_fallbacks() {
        // Two 1 MiB zones (256 frames each); home everything on zone 1 and
        // touch past its capacity.
        let mut sys = numa_system(&[1, 1]);
        let session = contig_trace::TraceSession::ring(1 << 12);
        sys.set_tracer(session.tracer());
        let pid = sys.spawn();
        sys.set_home_node(pid, Some(1));
        anon_vma(&mut sys, pid, 0x40_0000, 0x40_0000);
        let mut policy = BasePagesPolicy;
        let mut local = 0;
        for i in 0..300u64 {
            let out = sys.touch(&mut policy, pid, VirtAddr::new(0x40_0000 + i * 4096)).unwrap();
            local += u64::from(sys.machine().node_of(out.pfn) == Some(NodeId(1)));
        }
        assert!(local >= 256 - 8, "home zone should fill first");
        assert!(local < 300, "overflow must spill to the other zone");
        assert_eq!(session.metrics().counter("mm.zone_fallback"), 300 - local);
    }

    #[test]
    fn snapshot_round_trip_preserves_homes() {
        let mut sys = numa_system(&[8, 8]);
        let homed = sys.spawn();
        sys.set_home_node(homed, Some(1));
        let free = sys.spawn();
        anon_vma(&mut sys, homed, 0x40_0000, 0x40_0000);
        let mut policy = BasePagesPolicy;
        for i in 0..4u64 {
            sys.touch(&mut policy, homed, VirtAddr::new(0x40_0000 + i * 4096)).unwrap();
        }
        let snap = sys.snapshot();
        let restored = System::restore(&snap);
        assert_eq!(restored.home_node(homed), Some(1));
        assert_eq!(restored.home_node(free), None);
        assert_eq!(restored.snapshot(), snap, "restore must be exact");
    }
}
