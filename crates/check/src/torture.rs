//! The differential torture harness.
//!
//! A seeded generator produces a stream of [`TortureOp`]s — map/unmap, touch,
//! COW forks, bulk populates, and fault-injection toggles — that a runner
//! applies to a full two-dimensional [`VirtualMachine`] stack. Alongside the
//! real stack the runner maintains a flat *oracle*: the set of guest pages the
//! workload believes are mapped, with their write permissions. The oracle is
//! re-synchronized from observed fault outcomes (never from re-implementing
//! the stack's placement logic), so it is a model of *what the workload was
//! told*, and periodic sweeps verify the stack still agrees:
//!
//! - every oracle page still translates in the guest with the recorded
//!   write bit (no mapping silently dropped or downgraded by reclaim,
//!   compaction, or COW bookkeeping),
//! - every guest mapping is known to the oracle (no phantom mappings),
//! - any guest frame referenced by more than one process is either COW-shared
//!   with a sufficient reference count or owned by the page cache,
//! - `contig-audit`'s cross-layer auditor reports clean at configurable
//!   intervals.
//!
//! Crash-point testing rides on the snapshot layer: at configurable op
//! boundaries the runner simulates a crash by restoring the last checkpoint
//! into a fresh VM, replaying the journal of ops since the checkpoint, and
//! asserting the replayed state's digest equals the live state's digest —
//! byte-identical recovery, not merely "looks consistent".
//!
//! Every op is interpreted *robustly* (indices are taken modulo the live
//! object counts; ops with no valid target are no-ops), so any subsequence of
//! a failing run is itself a valid run. That property is what lets
//! [`crate::minimize()`] shrink failures with ddmin.

use std::collections::BTreeMap;

use contig_audit::audit_vm;
use contig_buddy::PcpConfig;
use contig_mm::{
    DaemonConfig, DaemonStats, DefaultThpPolicy, FailureAction, Pid, PoisonStats, PteFlags, VmaId,
    VmaKind,
};
use contig_trace::{MetricsRegistry, SpanStack, TraceSession, FLIGHT_CAPACITY};
use contig_types::{
    splitmix64, FailMode, FailPolicy, Pfn, PoisonMode, PoisonPolicy, VirtAddr, VirtRange,
};
use contig_trace::Tracer;
use contig_types::{TransportMode, TransportPolicy};
use contig_virt::{
    migrate_with_retries, LoopbackTransport, MigrationConfig, MigrationOutcome, MigrationSession,
    MigrationStats, MigrationTarget, Transport, VirtualMachine, VmConfig, VmSnapshot,
};

use contig_fleet::{Fleet, FleetConfig, FleetSnapshot, FleetStats, TenantId};

use crate::codec::SnapshotGuestCodec;
use crate::digest::{digest_fleet, digest_vm};

/// First guest virtual address the generator maps at.
const VA_BASE: u64 = 0x4000_0000;
/// Guard gap left between generated VMAs (bytes).
const VMA_GAP: u64 = 2 << 20;
/// Live guest processes the runner will keep at most.
const MAX_PIDS: usize = 8;
/// VMAs per guest process at most.
const MAX_VMAS_PER_PID: usize = 6;
/// Pages per generated anonymous VMA at most.
const MAX_ANON_PAGES: u64 = 128;
/// Pages per generated file VMA at most.
const MAX_FILE_PAGES: u64 = 64;
/// Injected failure probability cap (ppm) so runs keep making progress.
const MAX_FAULT_PPM: u32 = 150_000;
/// Poison-storm probability cap (ppm per op boundary). Quarantined frames
/// never come back, so the rate must keep a long run from eating the machine.
const MAX_POISON_PPM: u32 = 2_000;
/// Transport-fault storm cap (ppm per wire frame). High enough that storms
/// force retries, rejects, stalls, and the occasional abort-and-rollback;
/// low enough that most migrations still converge inside the resume budget.
const MAX_TRANSPORT_PPM: u32 = 200_000;
/// Checkpointed-resume budget per migration: fresh transports handed to a
/// failed session before the runner escalates to abort-and-rollback.
const MIGRATE_ATTEMPTS: u32 = 3;
/// Fleet geometry when [`TortureConfig::fleet`] is on. 32 tenants of 768
/// frames over two 8192-frame hosts commits 24576 frames against 16384
/// physical — 1.5× overcommit, all admitted up front so every run starts
/// oversubscribed.
const FLEET_HOSTS: usize = 2;
/// Physical memory of each fleet host (MiB).
const FLEET_HOST_MIB: u64 = 32;
/// Guest-physical memory of each fleet tenant (MiB).
const FLEET_GUEST_MIB: u64 = 3;
/// Tenants admitted when the fleet is stood up.
const FLEET_TENANTS: usize = 32;
/// Content-tag pool for fleet writes; small enough that cross-tenant
/// duplicates are common and same-page merging has real work.
const FLEET_TAG_POOL: u64 = 16;

contig_types::wire_tagged! {
    "op":
    /// One generated operation against the stack.
    ///
    /// Selector fields (`sel`, `page`) are interpreted modulo the live object
    /// counts at execution time; an op whose target class is empty is a no-op.
    #[derive(Clone, Copy, Debug, PartialEq, Eq)]
    pub enum TortureOp {
        /// Map an anonymous VMA (possibly spawning a process).
        "map_anon" MapAnon {
            /// Process selector; low bits also decide whether to spawn.
            sel: u64,
            /// Requested size seed; mapped size is `1 + pages % MAX` pages.
            pages: u64,
        },
        /// Create a file and map it.
        "map_file" MapFile {
            /// Process selector.
            sel: u64,
            /// Requested size seed.
            pages: u64,
        },
        /// Read-fault one page of a live VMA.
        "touch" Touch {
            /// VMA selector.
            sel: u64,
            /// Page selector within the VMA.
            page: u64,
        },
        /// Write-fault one page of a live VMA (breaks COW).
        "touch_write" TouchWrite {
            /// VMA selector.
            sel: u64,
            /// Page selector within the VMA.
            page: u64,
        },
        /// Fault a whole VMA in address order.
        "populate" Populate {
            /// VMA selector.
            sel: u64,
        },
        /// COW-fork a live anonymous VMA into a new process.
        "fork" Fork {
            /// VMA selector (over anonymous VMAs only).
            sel: u64,
        },
        /// Terminate a guest process; host backing persists (§III-C).
        "exit_proc" ExitProc {
            /// Process selector.
            sel: u64,
        },
        /// Arm probabilistic allocation-failure injection on one dimension.
        "set_faults" SetFaults {
            /// `true` = host allocator, `false` = guest allocator.
            host: bool,
            /// Failure probability in ppm (clamped to a progress-safe cap).
            rate_ppm: u32,
            /// Injection RNG seed.
            seed: u64,
        },
        /// Disarm fault injection on both dimensions.
        "clear_faults" ClearFaults,
        /// Strike one frame with an uncorrectable memory error. Host-dimension
        /// strikes run the full hypervisor path (guest MCE delivery plus
        /// self-healing re-backing); guest-dimension strikes run the guest
        /// kernel's recovery (heal, kill, cache drop, quarantine).
        "poison_frame" PoisonFrame {
            /// `true` = host physical frame, `false` = guest physical frame.
            host: bool,
            /// Frame selector, taken modulo the dimension's frame count.
            sel: u64,
        },
        /// Proactively soft-offline a suspect frame (migrate away, never kill).
        "soft_offline" SoftOffline {
            /// `true` = host physical frame, `false` = guest physical frame.
            host: bool,
            /// Frame selector, taken modulo the dimension's frame count.
            sel: u64,
        },
        /// Arm a probabilistic poison storm on one dimension, consulted at every
        /// op boundary.
        "set_poison" SetPoison {
            /// `true` = host dimension, `false` = guest dimension.
            host: bool,
            /// Strike probability in ppm (clamped to a memory-preserving cap).
            rate_ppm: u32,
            /// Storm RNG seed.
            seed: u64,
        },
        /// Disarm poison injection on both dimensions.
        "clear_poison" ClearPoison,
        /// Live-migrate the VM to a fresh destination host through the armed
        /// transport (reliable when none is armed). A completed migration swaps
        /// the runner onto the destination after proving its digest equals an
        /// uninterrupted reliable baseline's; an aborted one rolls the
        /// destination back and keeps running on the source.
        "migrate" Migrate {
            /// Seeds the per-round concurrent-guest-write script and
            /// decorrelates this migration's transport stream from the next's.
            seed: u64,
        },
        /// Arm a seeded transport-fault storm consulted by every subsequent
        /// migration's wire (drops, corruption, stalls, disconnects).
        "set_transport" SetTransport {
            /// Total fault probability in ppm (clamped to a convergence-safe
            /// cap), split across the four fault kinds.
            rate_ppm: u32,
            /// Storm RNG seed.
            seed: u64,
        },
        /// Disarm the transport storm; migrations run on a reliable wire.
        "clear_transport" ClearTransport,
        /// Write-touch one workload page of one fleet tenant with a content tag
        /// from a small pool (small so same-page merging finds duplicates).
        "fleet_write" FleetWrite {
            /// Tenant selector over the live tenant list.
            sel: u64,
            /// Page selector within the tenant's workload VMA.
            page: u64,
            /// Content-tag seed (reduced to the shared pool at execution).
            tag: u64,
        },
        /// Read-touch one workload page of one fleet tenant and check its
        /// content tag against the model.
        "fleet_read" FleetRead {
            /// Tenant selector over the live tenant list.
            sel: u64,
            /// Page selector within the tenant's workload VMA.
            page: u64,
        },
        /// Discard one workload page of one fleet tenant (guest frees the frame;
        /// host backing becomes balloon-reclaimable).
        "fleet_discard" FleetDiscard {
            /// Tenant selector over the live tenant list.
            sel: u64,
            /// Page selector within the tenant's workload VMA.
            page: u64,
        },
        /// One fleet controller tick: watermark-driven pressure relief, balloon
        /// deflate on idle hosts, and the background KSM scan cursor.
        "fleet_step" FleetStep,
        /// One deterministic maintenance-daemon tick on the primary VM: the
        /// guest dimension's khugepaged/kcompactd runs first, then the host's —
        /// budgeted compaction, THP promotion, and poison-run repair racing the
        /// surrounding foreground faults at a well-defined op boundary.
        "daemon_tick" DaemonTick,
        /// Re-tune every armed daemon's policy (both VM dimensions and, when
        /// the fleet is up, every fleet host): aggressiveness, epoch budget,
        /// and the poison-repair toggle all derive from the seeds.
        "set_daemon_policy" SetDaemonPolicy {
            /// Aggressiveness seed (reduced to 1..=3) that also decides the
            /// repair toggle.
            level: u64,
            /// Epoch-budget seed (reduced to a progress-safe range).
            budget: u64,
        },
    }
}

/// Configuration of one torture run.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct TortureConfig {
    /// Seed of the op generator.
    pub seed: u64,
    /// Ops to generate.
    pub ops: usize,
    /// Guest physical memory (MiB).
    pub guest_mib: u64,
    /// Host physical memory (MiB).
    pub host_mib: u64,
    /// Whether the generator emits fault-injection toggles.
    pub faults: bool,
    /// Whether the generator emits memory-failure ops (strikes, storms,
    /// soft-offlines). Off by default so poison-free op streams stay
    /// bit-identical to pre-poison builds.
    pub poison: bool,
    /// Whether the generator emits live-migration and transport-storm ops.
    /// Off by default so migration-free op streams stay bit-identical to
    /// pre-migration builds.
    pub migrate: bool,
    /// Whether the runner stands up a multi-tenant overcommitted fleet
    /// beside the nested VM and the generator emits fleet ops against it.
    /// Off by default so fleet-free op streams stay bit-identical to
    /// pre-fleet builds.
    pub fleet: bool,
    /// Enable per-CPU frame caches in both dimensions.
    pub pcp: bool,
    /// Run the oracle sweep every this many ops.
    pub sweep_interval: usize,
    /// Run the cross-layer auditor every this many ops.
    pub audit_interval: usize,
    /// Refresh the crash checkpoint every this many ops.
    pub snapshot_interval: usize,
    /// Simulate a crash (restore + journal replay + digest compare) every
    /// this many ops; `None` disables crash testing.
    pub crash_interval: Option<usize>,
    /// Deliberately corrupt the oracle's process-exit bookkeeping. Used to
    /// prove the harness detects and the minimizer shrinks real bugs.
    pub inject_model_bug: bool,
    /// NUMA zones per machine: 0 or 1 keeps the classic single-zone guest
    /// and host; `n > 1` splits both into `n` equal zones and homes spawned
    /// guest processes round-robin onto them. 0 by default so shard-free op
    /// streams stay bit-identical to pre-shard builds.
    pub shards: usize,
    /// Whether the runner arms the background maintenance daemon (both VM
    /// dimensions and every fleet host) and the generator weaves
    /// `DaemonTick`/`SetDaemonPolicy` ops into the stream. Off by default
    /// so daemon-free op streams stay bit-identical to pre-daemon builds.
    pub daemon: bool,
}

impl Default for TortureConfig {
    fn default() -> Self {
        Self {
            seed: 1,
            ops: 1_000,
            guest_mib: 16,
            host_mib: 64,
            faults: true,
            poison: false,
            migrate: false,
            fleet: false,
            pcp: false,
            sweep_interval: 32,
            audit_interval: 128,
            snapshot_interval: 64,
            crash_interval: Some(101),
            inject_model_bug: false,
            shards: 0,
            daemon: false,
        }
    }
}

impl TortureConfig {
    /// A run of `ops` ops from `seed` with everything enabled.
    pub fn with_seed_and_ops(seed: u64, ops: usize) -> Self {
        Self { seed, ops, ..Self::default() }
    }

    /// Checks that the run's guest and host machines can be built: each
    /// has memory, and `shards` zones of at least 1 MiB fit the smaller.
    /// [`decode_repro`](crate::decode_repro) refuses a header, and
    /// `contig-bench torture` a command line, that fails it.
    ///
    /// # Errors
    ///
    /// The first member at fault.
    pub fn check(&self) -> Result<(), ConfigError> {
        for (member, mib) in [("guest_mib", self.guest_mib), ("host_mib", self.host_mib)] {
            if mib == 0 {
                return Err(ConfigError::NoMemory(member));
            }
        }
        let mib = self.guest_mib.min(self.host_mib);
        if self.shards as u64 > mib {
            return Err(ConfigError::TooManyShards { shards: self.shards, mib });
        }
        Ok(())
    }
}

/// A [`TortureConfig`] no machine can be built from, naming the member at
/// fault.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum ConfigError {
    /// `guest_mib` or `host_mib`, named, is zero.
    NoMemory(&'static str),
    /// `shards` splits the smaller machine, of `mib` MiB, into zones of
    /// less than 1 MiB.
    TooManyShards {
        /// The member's value.
        shards: usize,
        /// The smaller machine's memory.
        mib: u64,
    },
}

impl std::fmt::Display for ConfigError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            Self::NoMemory(member) => write!(f, "{member}: a machine needs at least 1 MiB"),
            Self::TooManyShards { shards, mib } => {
                write!(f, "shards: {shards} zones of at least 1 MiB do not fit {mib} MiB")
            }
        }
    }
}

/// Why a torture run failed. Op errors (OOM under injected pressure) are
/// *not* failures — they are expected and tallied in the report; a failure
/// means the stack and the model disagree.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum TortureFailure {
    /// The stack and the flat oracle disagree about a guest page.
    OracleDivergence {
        /// Index of the last op executed before the sweep.
        op_index: usize,
        /// Human-readable description of the first disagreement.
        detail: String,
    },
    /// `contig-audit` found a cross-layer invariant violation.
    AuditFindings {
        /// Index of the last op executed before the audit.
        op_index: usize,
        /// The auditor's report.
        detail: String,
    },
    /// Crash-point recovery did not reproduce the live state.
    CrashDivergence {
        /// Index of the op at whose boundary the crash was simulated.
        op_index: usize,
        /// Digest of the live (never-crashed) state.
        expected: u64,
        /// Digest of the restored-and-replayed state.
        actual: u64,
    },
    /// A live migration broke an invariant: a resumed run's destination
    /// digest diverged from the uninterrupted baseline's, a rollback leaked
    /// destination frames or left an unclean audit, or the engine failed
    /// with a terminal error a lossy wire can never legitimately cause.
    MigrationFailure {
        /// Index of the `Migrate` op.
        op_index: usize,
        /// Human-readable description of the violation.
        detail: String,
    },
    /// The fleet broke an invariant: a tenant fault hit a host-fatal OOM the
    /// escalation ladder must prevent, a tenant read returned the wrong
    /// content tag, or the cross-tenant fleet audit found a violation.
    FleetFailure {
        /// Index of the last op executed before the check.
        op_index: usize,
        /// Human-readable description of the violation.
        detail: String,
    },
}

impl TortureFailure {
    /// Stable failure class, used by the minimizer to match failures.
    pub(crate) fn kind(&self) -> &'static str {
        match self {
            TortureFailure::OracleDivergence { .. } => "oracle-divergence",
            TortureFailure::AuditFindings { .. } => "audit-findings",
            TortureFailure::CrashDivergence { .. } => "crash-divergence",
            TortureFailure::MigrationFailure { .. } => "migration-failure",
            TortureFailure::FleetFailure { .. } => "fleet-failure",
        }
    }

    /// Index of the op the failure surfaced at.
    pub fn op_index(&self) -> usize {
        match self {
            TortureFailure::OracleDivergence { op_index, .. }
            | TortureFailure::AuditFindings { op_index, .. }
            | TortureFailure::CrashDivergence { op_index, .. }
            | TortureFailure::MigrationFailure { op_index, .. }
            | TortureFailure::FleetFailure { op_index, .. } => *op_index,
        }
    }
}

/// Outcome and statistics of one torture run.
#[derive(Clone, Debug, Default)]
pub struct TortureReport {
    /// Ops executed (always all of them; failures are recorded, not thrown).
    pub ops_executed: usize,
    /// Read faults driven.
    pub touches: u64,
    /// Write faults driven.
    pub writes: u64,
    /// VMAs mapped.
    pub maps: u64,
    /// COW forks performed.
    pub forks: u64,
    /// Guest processes exited.
    pub exits: u64,
    /// Ops that returned an error (expected under fault injection).
    pub op_errors: u64,
    /// Allocation failures that entered OOM recovery, summed over both
    /// dimensions. Most injected failures land here and are healed by the
    /// retry escalation without ever surfacing as an op error.
    pub oom_events: u64,
    /// Oracle sweeps executed.
    pub sweeps: u64,
    /// Cross-layer audits executed.
    pub audits: u64,
    /// Simulated crashes recovered and verified.
    pub crash_checks: u64,
    /// Guest-dimension memory-failure counters at run end.
    pub(crate) guest_poison: PoisonStats,
    /// Host-dimension memory-failure counters at run end.
    pub(crate) host_poison: PoisonStats,
    /// Frames quarantined across both dimensions at run end.
    pub(crate) poisoned_frames: u64,
    /// Machine-checks delivered to guest mappings by host-dimension strikes.
    pub(crate) guest_mces: u64,
    /// Live migrations that completed cutover (the runner now executes on
    /// the destination).
    pub migrations: u64,
    /// Live migrations that escalated to abort-and-rollback.
    pub(crate) migration_aborts: u64,
    /// Migration engine counters summed over every live migration attempt
    /// (baseline runs and crash replays are untraced and excluded, so these
    /// totals equal the `migrate.*` trace counts one for one).
    pub(crate) migrate_stats: MigrationStats,
    /// Whether the trace probes were live for this run (they are attached
    /// whenever [`TortureConfig::poison`], `migrate`, `fleet` or `daemon`
    /// is set and the `probes` feature is compiled in). When they were,
    /// [`TortureReport::metrics`] counts every event a stats block's
    /// `as_named()` names, and the counts must be equal.
    pub(crate) trace_enabled: bool,
    /// Fleet ops executed (0 unless [`TortureConfig::fleet`]).
    pub fleet_ops: u64,
    /// Fleet tenants still alive at run end.
    pub(crate) fleet_alive: u64,
    /// The fleet's cumulative counters at run end (all zero unless
    /// [`TortureConfig::fleet`]).
    pub fleet_stats: FleetStats,
    /// Digest of the final fleet state (0 unless [`TortureConfig::fleet`]).
    pub fleet_digest: u64,
    /// `DaemonTick` ops executed (0 unless [`TortureConfig::daemon`]).
    pub(crate) daemon_ticks: u64,
    /// Maintenance-daemon counters summed over the guest and host
    /// dimensions, every fleet host, and hosts retired at migration
    /// cutovers (their traced work must stay in the ledger after the
    /// runner moves to the destination). All zero unless
    /// [`TortureConfig::daemon`].
    pub daemon_stats: DaemonStats,
    /// Digest of the final state.
    pub final_digest: u64,
    /// Whole-run metrics snapshot (event counters plus `span.*` stage
    /// histograms). Empty when the `probes` feature is compiled out.
    pub metrics: MetricsRegistry,
    /// Per-stage span profile accumulated over the run (same data the
    /// `span.*` histograms aggregate, keyed by full stack path).
    pub spans: SpanStack,
    /// Flight-recorder dump: the last trace records before the failure as
    /// JSONL, ready to write as a `flight_*.jsonl` post-mortem artifact.
    /// Empty unless [`TortureReport::failure`] is set (and always empty
    /// without the `probes` feature).
    pub flight_jsonl: String,
    /// First failure detected, if any. Checking stops at the first failure
    /// (the stack is no longer trustworthy past it) but ops keep executing
    /// so the report's op count stays deterministic.
    pub failure: Option<TortureFailure>,
}

impl TortureReport {
    /// Whether the run completed with zero divergences and findings.
    pub fn is_ok(&self) -> bool {
        self.failure.is_none()
    }
}

/// What the workload expects of one guest page.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
struct PageExpect {
    write: bool,
}

/// A live VMA the generator can target.
#[derive(Clone, Copy, Debug)]
struct VmaRec {
    pid: Pid,
    id: VmaId,
    start: u64,
    pages: u64,
    anon: bool,
}

/// Runner bookkeeping that must roll back with the VM on a simulated crash.
#[derive(Clone, Debug, Default)]
struct RunnerState {
    pids: Vec<Pid>,
    vmas: Vec<VmaRec>,
    /// Per-pid bump cursor for fresh VMA placement, indexed by pid.
    cursors: Vec<u64>,
    /// The flat model, indexed by pid: each page the pid has mapped, by
    /// page va, ascending, with its expectation.
    oracle: Vec<Vec<(u64, PageExpect)>>,
    /// Armed transport storm as `(rate_ppm, seed)`. Each migration derives
    /// a *fresh* policy from these plus its own op seed, so migrations stay
    /// deterministic per op and checkpoint restores replay identically.
    transport: Option<(u32, u64)>,
    /// The fleet content model, indexed by tenant then workload page: the
    /// expected tag, 0 for none (tags start at 1). Entries of victim-killed
    /// tenants are dropped when the kill is observed; ballooning, KSM, and
    /// evacuation must never change a tag.
    fleet_tags: Vec<Vec<u64>>,
}

/// `v[i]`, growing `v` with defaults to hold it.
fn slot<T: Default>(v: &mut Vec<T>, i: usize) -> &mut T {
    if v.len() <= i {
        v.resize_with(i + 1, T::default);
    }
    &mut v[i]
}

struct Exec {
    vm: VirtualMachine,
    st: RunnerState,
    cfg: TortureConfig,
    /// Trace handle `migrate.*` probes emit to. Live runs share the trace
    /// session's tracer; baselines and crash replays keep it disabled so
    /// trace totals count live work exactly once.
    tracer: Tracer,
    /// The oversubscribed multi-tenant fleet, stood up when
    /// [`TortureConfig::fleet`] is on. It runs beside the primary VM and
    /// takes the `Fleet*` bands; the pressure ladder (balloon → KSM →
    /// evacuation → victim kill) is what the bands exercise.
    fleet: Option<Fleet>,
    report: TortureReport,
}

impl Exec {
    fn new(cfg: &TortureConfig) -> Self {
        Self::new_with_tracer(cfg, Tracer::disabled())
    }

    /// Builds the runner with `tracer` attached *before* the fleet admits
    /// its tenant set, so the `fleet.admit` probe count matches the stats
    /// ledger exactly on traced runs.
    fn new_with_tracer(cfg: &TortureConfig, tracer: Tracer) -> Self {
        let mut vm = VirtualMachine::new(
            VmConfig::with_mib_nodes(cfg.guest_mib, cfg.host_mib, cfg.shards.max(1)),
            Box::new(DefaultThpPolicy),
            Box::new(DefaultThpPolicy),
        );
        if cfg.pcp {
            vm.enable_pcp(PcpConfig::with_cpus(1));
        }
        // Arm the daemons with the tracer already attached so the arming
        // `daemon.policy` probes land in the session metrics and the
        // stats-equals-trace bar holds from op zero.
        vm.set_tracer(tracer.clone());
        if cfg.daemon {
            vm.enable_daemon(DaemonConfig::default());
        }
        let fleet = cfg.fleet.then(|| {
            let fcfg = FleetConfig {
                seed: cfg.seed ^ 0x00F1_EE7F_1EE7,
                ..FleetConfig::new(FLEET_HOSTS, FLEET_HOST_MIB, FLEET_GUEST_MIB)
            };
            let mut fleet = Fleet::new(fcfg);
            fleet.set_tracer(tracer.clone());
            if cfg.daemon {
                fleet.enable_host_daemons(DaemonConfig::default());
            }
            for _ in 0..FLEET_TENANTS {
                fleet.admit().expect("fleet geometry admits the full tenant set");
            }
            fleet
        });
        Self {
            vm,
            st: RunnerState::default(),
            cfg: *cfg,
            tracer,
            fleet,
            report: TortureReport::default(),
        }
    }

    fn from_checkpoint(
        cfg: &TortureConfig,
        snap: &VmSnapshot,
        fleet: Option<&FleetSnapshot>,
        st: &RunnerState,
    ) -> Self {
        let mut exec = Exec::new(cfg);
        exec.vm.restore(snap);
        // `Fleet::restore` comes up with a disabled tracer — crash replays
        // must not re-count live work in the session metrics.
        exec.fleet = fleet.map(Fleet::restore);
        exec.st = st.clone();
        exec
    }

    /// Re-records `count` pages starting at `base` from the guest's actual
    /// page table (differential sync: the model learns what the stack *did*,
    /// then holds it to that story).
    fn note_pages(&mut self, pid: Pid, base: u64, count: u64) {
        let pt = self.vm.guest().aspace(pid).page_table();
        let mapped = (0..count).filter_map(|i| {
            let va = base + i * 4096;
            let t = pt.translate(VirtAddr::new(va)).ok()?;
            Some((va, PageExpect { write: t.flags.contains(PteFlags::WRITE) }))
        });
        // The run's pages replace whatever the model held for them.
        let pages = slot(&mut self.st.oracle, pid.0 as usize);
        let from = pages.partition_point(|&(va, _)| va < base);
        let to = pages.partition_point(|&(va, _)| va < base + count * 4096);
        pages.splice(from..to, mapped);
    }

    /// Rebuilds the whole oracle view of one pid from its page table. Used
    /// after multi-page ops (fork, populate) and after failed faults, where
    /// the stack may have made partial progress before erroring out.
    fn sync_pid(&mut self, pid: Pid) {
        let pages = slot(&mut self.st.oracle, pid.0 as usize);
        pages.clear();
        // `iter_mappings` ascends, so the pages stay in va order.
        for m in self.vm.guest().aspace(pid).page_table().iter_mappings() {
            let expect = PageExpect { write: m.pte.flags.contains(PteFlags::WRITE) };
            let base = m.va.raw();
            pages.extend((0..m.size.bytes() / 4096).map(|i| (base + i * 4096, expect)));
        }
    }

    fn vmas_of(&self, pid: Pid) -> usize {
        self.st.vmas.iter().filter(|v| v.pid == pid).count()
    }

    fn pick_vma(&self, sel: u64) -> Option<VmaRec> {
        if self.st.vmas.is_empty() {
            return None;
        }
        Some(self.st.vmas[(sel as usize) % self.st.vmas.len()])
    }

    fn map_vma(&mut self, sel: u64, pages_seed: u64, file: bool) {
        let spawn_new = self.st.pids.is_empty()
            || (self.st.pids.len() < MAX_PIDS && sel.is_multiple_of(4));
        let pid = if spawn_new {
            let pid = self.vm.guest_mut().spawn();
            // Sharded runs home spawned processes round-robin onto guest
            // zones, keyed by pid so crash-replayed spawns land identically.
            if self.cfg.shards > 1 {
                let node = pid.0 as usize % self.cfg.shards;
                self.vm.guest_mut().set_home_node(pid, Some(node));
            }
            self.st.pids.push(pid);
            *slot(&mut self.st.cursors, pid.0 as usize) = VA_BASE;
            pid
        } else {
            self.st.pids[((sel / 4) as usize) % self.st.pids.len()]
        };
        if self.vmas_of(pid) >= MAX_VMAS_PER_PID {
            return;
        }
        let pages =
            1 + pages_seed % if file { MAX_FILE_PAGES } else { MAX_ANON_PAGES };
        let len = pages * 4096;
        let start = self.st.cursors[pid.0 as usize];
        let kind = if file {
            let f = self.vm.guest_mut().page_cache_mut().create_file();
            VmaKind::File { file: f, start_page: 0 }
        } else {
            VmaKind::Anon
        };
        let id = self
            .vm
            .guest_mut()
            .aspace_mut(pid)
            .map_vma(VirtRange::new(VirtAddr::new(start), len), kind);
        let advance = len.div_ceil(VMA_GAP) * VMA_GAP + VMA_GAP;
        self.st.cursors[pid.0 as usize] = start + advance;
        self.st.vmas.push(VmaRec { pid, id, start, pages, anon: !file });
        self.report.maps += 1;
    }

    fn apply(&mut self, op: &TortureOp) {
        self.report.ops_executed += 1;
        match *op {
            TortureOp::MapAnon { sel, pages } => self.map_vma(sel, pages, false),
            TortureOp::MapFile { sel, pages } => self.map_vma(sel, pages, true),
            TortureOp::Touch { sel, page } | TortureOp::TouchWrite { sel, page } => {
                let write = matches!(op, TortureOp::TouchWrite { .. });
                let Some(rec) = self.pick_vma(sel) else { return };
                let va = VirtAddr::new(rec.start + (page % rec.pages) * 4096);
                let outcome = if write {
                    self.report.writes += 1;
                    self.vm.touch_write(rec.pid, va)
                } else {
                    self.report.touches += 1;
                    self.vm.touch(rec.pid, va)
                };
                match outcome {
                    Ok(out) => {
                        let base = va.align_down(out.size).raw();
                        self.note_pages(rec.pid, base, out.size.bytes() / 4096);
                    }
                    Err(_) => {
                        self.report.op_errors += 1;
                        // The guest may have mapped before host backing
                        // failed: learn whatever state actually exists.
                        self.sync_pid(rec.pid);
                    }
                }
            }
            TortureOp::Populate { sel } => {
                let Some(rec) = self.pick_vma(sel) else { return };
                if self.vm.populate_vma(rec.pid, rec.id).is_err() {
                    self.report.op_errors += 1;
                }
                self.sync_pid(rec.pid);
            }
            TortureOp::Fork { sel } => {
                if self.st.pids.len() >= MAX_PIDS {
                    return;
                }
                let anon: Vec<VmaRec> =
                    self.st.vmas.iter().filter(|v| v.anon).copied().collect();
                if anon.is_empty() {
                    return;
                }
                let rec = anon[(sel as usize) % anon.len()];
                let child = self.vm.guest_mut().fork_vma(rec.pid, rec.id);
                self.st.pids.push(child);
                // The child's only VMA is the forked one; future fresh maps
                // must land past the parent's cursor to dodge it.
                let parent_cursor = self.st.cursors[rec.pid.0 as usize];
                *slot(&mut self.st.cursors, child.0 as usize) = parent_cursor;
                self.st.vmas.push(VmaRec { pid: child, ..rec });
                self.sync_pid(rec.pid);
                self.sync_pid(child);
                self.report.forks += 1;
            }
            TortureOp::ExitProc { sel } => {
                if self.st.pids.is_empty() {
                    return;
                }
                let pid = self.st.pids[(sel as usize) % self.st.pids.len()];
                self.vm.exit_guest_process(pid);
                self.st.pids.retain(|&p| p != pid);
                self.st.vmas.retain(|v| v.pid != pid);
                // The dead pid's cursor is never read again: pids are not
                // reused. With `inject_model_bug` set, its oracle entries are
                // deliberately left behind, so the next sweep finds stale
                // state — the seeded bug the minimizer shrinks.
                if !self.cfg.inject_model_bug {
                    slot(&mut self.st.oracle, pid.0 as usize).clear();
                }
                self.report.exits += 1;
            }
            TortureOp::SetFaults { host, rate_ppm, seed } => {
                let policy = FailPolicy::new(FailMode::Probability {
                    rate_ppm: rate_ppm % MAX_FAULT_PPM,
                    seed,
                });
                if host {
                    self.vm.host_mut().set_fail_policy(policy);
                } else {
                    self.vm.guest_mut().set_fail_policy(policy);
                }
            }
            TortureOp::ClearFaults => {
                self.vm.guest_mut().clear_fail_policy();
                self.vm.host_mut().clear_fail_policy();
            }
            TortureOp::PoisonFrame { host, sel } => {
                if host {
                    let pfn = Pfn::new(sel % self.vm.host().machine().total_frames());
                    let rep = self.vm.poison_host_frame(pfn);
                    self.report.guest_mces += rep.guest_mces.len() as u64;
                } else {
                    let pfn = Pfn::new(sel % self.vm.guest().machine().total_frames());
                    let out = self.vm.guest_mut().memory_failure(pfn);
                    self.learn_guest_strike(out.action);
                }
            }
            TortureOp::SoftOffline { host, sel } => {
                if host {
                    let pfn = Pfn::new(sel % self.vm.host().machine().total_frames());
                    self.vm.host_mut().soft_offline(pfn);
                } else {
                    // Guest soft-offline migrates mappings in place (same va,
                    // same permissions), so the oracle needs no re-sync.
                    let pfn = Pfn::new(sel % self.vm.guest().machine().total_frames());
                    self.vm.guest_mut().soft_offline(pfn);
                }
            }
            TortureOp::SetPoison { host, rate_ppm, seed } => {
                let policy = PoisonPolicy::new(PoisonMode::Probability {
                    rate_ppm: rate_ppm % MAX_POISON_PPM,
                    seed,
                });
                if host {
                    self.vm.host_mut().set_poison_policy(policy);
                } else {
                    self.vm.guest_mut().set_poison_policy(policy);
                }
            }
            TortureOp::ClearPoison => {
                self.vm.guest_mut().clear_poison_policy();
                self.vm.host_mut().clear_poison_policy();
            }
            TortureOp::Migrate { seed } => self.migrate_vm(seed),
            TortureOp::SetTransport { rate_ppm, seed } => {
                self.st.transport = Some((rate_ppm % MAX_TRANSPORT_PPM, seed));
            }
            TortureOp::ClearTransport => self.st.transport = None,
            TortureOp::FleetWrite { sel, page, tag } => self.fleet_write(sel, page, tag),
            TortureOp::FleetRead { sel, page } => self.fleet_read(sel, page),
            TortureOp::FleetDiscard { sel, page } => self.fleet_discard(sel, page),
            TortureOp::FleetStep => self.fleet_step(),
            TortureOp::DaemonTick => {
                // A strict no-op while the daemon is disarmed, so any
                // subsequence of a daemon-armed stream stays a valid run.
                self.report.daemon_ticks += 1;
                self.vm.daemon_tick();
            }
            TortureOp::SetDaemonPolicy { level, budget } => {
                if self.cfg.daemon {
                    let config = DaemonConfig {
                        aggressiveness: (1 + level % 3) as u8,
                        epoch_budget: 32 + budget % 225,
                        repair_poison: !level.is_multiple_of(4),
                    };
                    self.vm.enable_daemon(config);
                    if let Some(fleet) = self.fleet.as_mut() {
                        fleet.enable_host_daemons(config);
                    }
                }
            }
        }
        // Op boundaries are the well-defined strike points of an armed poison
        // storm (free when no policy is armed, which is the default).
        if let Some(rep) = self.vm.poison_tick() {
            self.report.guest_mces += rep.guest_mces.len() as u64;
        }
        if let Some(out) = self.vm.guest_mut().poison_tick() {
            self.learn_guest_strike(out.action);
        }
    }

    fn vm_config(&self) -> VmConfig {
        VmConfig::with_mib_nodes(self.cfg.guest_mib, self.cfg.host_mib, self.cfg.shards.max(1))
    }

    fn fail_migration(&mut self, op_index: usize, detail: String) {
        if self.report.failure.is_none() {
            self.report.failure =
                Some(TortureFailure::MigrationFailure { op_index, detail });
        }
    }

    fn fail_fleet(&mut self, op_index: usize, detail: String) {
        if self.report.failure.is_none() {
            self.report.failure = Some(TortureFailure::FleetFailure { op_index, detail });
        }
    }

    /// Picks the live tenant a `Fleet*` op addresses, plus its in-bounds
    /// workload page. `None` when every tenant has been victim-killed.
    fn fleet_target(&self, sel: u64, page: u64) -> Option<(TenantId, u64)> {
        let fleet = self.fleet.as_ref()?;
        let ids = fleet.tenant_ids();
        if ids.is_empty() {
            return None;
        }
        let id = ids[(sel as usize) % ids.len()];
        let pages = fleet.tenant(id).expect("listed tenant is live").workload_pages();
        Some((id, page % pages))
    }

    /// Drops model entries of tenants the pressure ladder has killed since
    /// the last fleet op. Runs after every fleet op because any host fault
    /// inside one can escalate all the way to a victim kill.
    fn fleet_sync_tenants(&mut self) {
        let Some(fleet) = &self.fleet else { return };
        let alive = fleet.tenant_ids();
        for (t, tags) in self.st.fleet_tags.iter_mut().enumerate() {
            if alive.binary_search(&TenantId(t as u64)).is_err() {
                tags.clear();
            }
        }
    }

    fn fleet_write(&mut self, sel: u64, page: u64, tag: u64) {
        let op_index = self.report.ops_executed.saturating_sub(1);
        let Some((id, page)) = self.fleet_target(sel, page) else { return };
        let tag = 1 + tag % FLEET_TAG_POOL;
        self.report.fleet_ops += 1;
        let fleet = self.fleet.as_mut().expect("target implies fleet");
        match fleet.tenant_write(id, page, tag) {
            Ok(()) => {
                *slot(slot(&mut self.st.fleet_tags, id.0 as usize), page as usize) = tag;
            }
            Err(e) => {
                // Overcommit must degrade gracefully: a tenant write never
                // sees a host-fatal OOM — the ladder relieves or kills first.
                self.fail_fleet(op_index, format!("tenant {} write page {page}: {e}", id.0));
            }
        }
        self.fleet_sync_tenants();
    }

    fn fleet_read(&mut self, sel: u64, page: u64) {
        let op_index = self.report.ops_executed.saturating_sub(1);
        let Some((id, page)) = self.fleet_target(sel, page) else { return };
        self.report.fleet_ops += 1;
        let fleet = self.fleet.as_mut().expect("target implies fleet");
        match fleet.tenant_read(id, page) {
            Ok(got) => {
                let tags = self.st.fleet_tags.get(id.0 as usize);
                let want = tags.and_then(|t| t.get(page as usize)).copied().filter(|&t| t != 0);
                if got != want {
                    self.fail_fleet(
                        op_index,
                        format!(
                            "tenant {} page {page}: read {got:?}, model says {want:?} — \
                             content changed under ballooning/KSM/evacuation",
                            id.0
                        ),
                    );
                }
            }
            Err(e) => {
                self.fail_fleet(op_index, format!("tenant {} read page {page}: {e}", id.0));
            }
        }
        self.fleet_sync_tenants();
    }

    fn fleet_discard(&mut self, sel: u64, page: u64) {
        let op_index = self.report.ops_executed.saturating_sub(1);
        let Some((id, page)) = self.fleet_target(sel, page) else { return };
        self.report.fleet_ops += 1;
        let fleet = self.fleet.as_mut().expect("target implies fleet");
        match fleet.tenant_discard(id, page) {
            Ok(_) => {
                let tags = self.st.fleet_tags.get_mut(id.0 as usize);
                if let Some(tag) = tags.and_then(|t| t.get_mut(page as usize)) {
                    *tag = 0;
                }
            }
            Err(e) => {
                self.fail_fleet(op_index, format!("tenant {} discard page {page}: {e}", id.0));
            }
        }
        self.fleet_sync_tenants();
    }

    fn fleet_step(&mut self) {
        if self.fleet.is_none() {
            return;
        }
        self.report.fleet_ops += 1;
        self.fleet.as_mut().expect("checked above").step();
        self.fleet_sync_tenants();
    }

    /// Executes one `Migrate` op.
    ///
    /// The check is differential: first an uninterrupted migration of a
    /// restored *copy* of the source over a reliable wire establishes the
    /// baseline destination digest; then the real migration runs on the
    /// live VM through the armed storm with a bounded checkpointed-resume
    /// budget. A completed real run must hit the baseline digest exactly —
    /// however many chunks were dropped, corrupted, or re-sent and however
    /// many times the session was resumed — and the runner then executes on
    /// the destination. An aborted run must leave the source serving faults
    /// with a clean audit and the destination host fully freed.
    ///
    /// Everything is a pure function of `(VM state, op seed, armed storm)`,
    /// so a crash replay re-executes the migration bit-identically.
    fn migrate_vm(&mut self, seed: u64) {
        let op_index = self.report.ops_executed.saturating_sub(1);
        let codec = SnapshotGuestCodec;
        // The concurrent-guest-write script both runs share: a pure
        // function of (op seed, round), targeting the VMAs live at
        // migration start. Errors (injected allocator pressure) are
        // tolerated — the baseline replays the identical outcome.
        let vmas = self.st.vmas.clone();
        let script = move |vm: &mut VirtualMachine, round: u32| {
            if vmas.is_empty() {
                return;
            }
            let mut rng =
                seed ^ (u64::from(round) + 1).wrapping_mul(0x9E37_79B9_7F4A_7C15);
            for _ in 0..4 {
                let rec = vmas[(splitmix64(&mut rng) as usize) % vmas.len()];
                let va =
                    VirtAddr::new(rec.start + (splitmix64(&mut rng) % rec.pages) * 4096);
                let _ = vm.touch_write(rec.pid, va);
            }
        };
        let src_snap = self.vm.snapshot();
        let baseline_digest = {
            let mut src = VirtualMachine::new(
                self.vm_config(),
                Box::new(DefaultThpPolicy),
                Box::new(DefaultThpPolicy),
            );
            src.restore(&src_snap);
            let mut dst = MigrationTarget::new(
                self.vm_config(),
                Box::new(DefaultThpPolicy),
                Box::new(DefaultThpPolicy),
            );
            let mut session = MigrationSession::new(Tracer::disabled());
            let mut wire = LoopbackTransport::reliable();
            match session.run(&mut src, &mut dst, &mut wire, &codec, script.clone()) {
                Ok(_) => digest_vm(&dst.into_vm().snapshot()),
                Err(e) => {
                    self.fail_migration(op_index, format!("reliable baseline failed: {e}"));
                    return;
                }
            }
        };
        let transport = self.st.transport;
        let make_transport = move |attempt: u32| -> Box<dyn Transport> {
            match transport {
                None => Box::new(LoopbackTransport::reliable()),
                Some((rate_ppm, tseed)) => {
                    // Fresh stream per (migration, attempt): deterministic
                    // per op, decorrelated across ops and resumes.
                    let stream = tseed ^ seed.rotate_left(17) ^ (u64::from(attempt) << 56);
                    Box::new(LoopbackTransport::new(TransportPolicy::new(
                        TransportMode::storm(rate_ppm, stream),
                    )))
                }
            }
        };
        let target = MigrationTarget::new(
            self.vm_config(),
            Box::new(DefaultThpPolicy),
            Box::new(DefaultThpPolicy),
        );
        let outcome = migrate_with_retries(
            MigrationConfig,
            &mut self.vm,
            target,
            &codec,
            make_transport,
            script,
            MIGRATE_ATTEMPTS,
            self.tracer.clone(),
        );
        match outcome {
            MigrationOutcome::Completed { report, vm } => {
                self.report.migrations += 1;
                self.report.migrate_stats.accumulate(&report.stats);
                let got = digest_vm(&vm.snapshot());
                if got != baseline_digest {
                    self.fail_migration(
                        op_index,
                        format!(
                            "destination digest {got:#x} != uninterrupted baseline \
                             {baseline_digest:#x} after {} resumes",
                            report.stats.resumes
                        ),
                    );
                }
                // The outgoing host's daemon retires at cutover: its traced
                // work stays in the run ledger, and the destination host
                // starts a fresh daemon under the policy in force (the
                // guest dimension's daemon crossed in the state chunk).
                let retiring = self
                    .vm
                    .host()
                    .daemon_enabled()
                    .then(|| (*self.vm.host().daemon_stats(), self.vm.host().daemon_state().config));
                self.vm = *vm;
                self.vm.set_tracer(self.tracer.clone());
                // The guest dimension carried its pcp layer across in the
                // state chunk; only the fresh destination host needs one.
                if self.cfg.pcp {
                    self.vm.host_mut().enable_pcp(PcpConfig::with_cpus(1));
                }
                if let Some((stats, config)) = retiring {
                    self.report.daemon_stats.accumulate(&stats);
                    self.vm.host_mut().enable_daemon(config);
                }
                let audit = audit_vm(&self.vm);
                if !audit.is_clean() {
                    self.fail_migration(op_index, format!("post-cutover destination: {audit}"));
                }
            }
            MigrationOutcome::Aborted { error, stats, release } => {
                self.report.migration_aborts += 1;
                self.report.migrate_stats.accumulate(&stats);
                if !error.is_resumable() {
                    self.fail_migration(op_index, format!("terminal engine error: {error}"));
                }
                if !release.fully_free {
                    self.fail_migration(
                        op_index,
                        format!(
                            "rollback leaked destination frames (freed {})",
                            release.freed_frames
                        ),
                    );
                }
                let audit = audit_vm(&self.vm);
                if !audit.is_clean() {
                    self.fail_migration(op_index, format!("post-abort source: {audit}"));
                }
            }
        }
        // The write script ran against the live source: re-teach the
        // oracle whatever COW breaks and fresh mappings it caused.
        let pids = self.st.pids.clone();
        for pid in pids {
            self.sync_pid(pid);
        }
    }

    /// Re-syncs the oracle after a guest-dimension strike that may have torn
    /// mappings down (kill, cache drop). Heals and quarantines change no
    /// guest-visible translation, so the model already agrees.
    fn learn_guest_strike(&mut self, action: FailureAction) {
        if matches!(action, FailureAction::Killed | FailureAction::CacheDropped) {
            let pids = self.st.pids.clone();
            for pid in pids {
                self.sync_pid(pid);
            }
        }
    }

    /// The full oracle sweep: forward, reverse, and frame-sharing checks.
    fn sweep(&mut self, op_index: usize) -> Result<(), TortureFailure> {
        self.report.sweeps += 1;
        let diverged = |detail: String| {
            Err(TortureFailure::OracleDivergence { op_index, detail })
        };
        // Forward: every page the model believes mapped must still translate
        // with the recorded write permission.
        for (pid, pages) in self.st.oracle.iter().enumerate() {
            let Some(&(va, _)) = pages.first() else { continue };
            let pid = pid as u32;
            if !self.st.pids.contains(&Pid(pid)) {
                return diverged(format!(
                    "oracle holds page {va:#x} of exited pid {pid}"
                ));
            }
            let pt = self.vm.guest().aspace(Pid(pid)).page_table();
            for &(va, expect) in pages {
                match pt.translate(VirtAddr::new(va)) {
                    Ok(t) => {
                        let write = t.flags.contains(PteFlags::WRITE);
                        if write != expect.write {
                            return diverged(format!(
                                "pid {pid} page {va:#x}: write bit {write}, model says {}",
                                expect.write
                            ));
                        }
                    }
                    Err(e) => {
                        return diverged(format!(
                            "pid {pid} page {va:#x} expected mapped, translate failed: {e:?}"
                        ));
                    }
                }
            }
        }
        // Reverse: every guest mapping must be known to the model, and while
        // walking, tally per-frame references for the sharing check.
        let mut refs: BTreeMap<(u64, bool), (u64, bool)> = BTreeMap::new();
        for &pid in &self.st.pids {
            let known = self.st.oracle.get(pid.0 as usize).map_or(&[][..], Vec::as_slice);
            for m in self.vm.guest().aspace(pid).page_table().iter_mappings() {
                let pages = m.size.bytes() / 4096;
                let base = m.va.raw();
                for i in 0..pages {
                    let va = base + i * 4096;
                    if known.binary_search_by_key(&va, |&(va, _)| va).is_err() {
                        return diverged(format!(
                            "pid {} page {va:#x} mapped but unknown to the model",
                            pid.0
                        ));
                    }
                }
                let entry = refs
                    .entry((m.pte.pfn.raw(), m.size.bytes() > 4096))
                    .or_insert((0, false));
                entry.0 += 1;
                entry.1 |= m.pte.flags.contains(PteFlags::FILE);
            }
        }
        // Sharing: a frame mapped by several processes must be COW-accounted
        // or page-cache-owned.
        for (&(pfn, _huge), &(count, file)) in &refs {
            if count > 1 && !file {
                let shared = self
                    .vm
                    .guest()
                    .cow_shared_count(contig_types::Pfn::new(pfn))
                    .unwrap_or(1);
                if u64::from(shared) < count {
                    return diverged(format!(
                        "frame {pfn:#x} mapped {count} times but COW count is {shared}"
                    ));
                }
            }
        }
        Ok(())
    }

    fn audit(&mut self, op_index: usize) -> Result<(), TortureFailure> {
        self.report.audits += 1;
        let report = audit_vm(&self.vm);
        if !report.is_clean() {
            return Err(TortureFailure::AuditFindings { op_index, detail: format!("{report}") });
        }
        if let Some(fleet) = &self.fleet {
            let fleet_report = fleet.audit();
            if !fleet_report.is_clean() {
                return Err(TortureFailure::FleetFailure {
                    op_index,
                    detail: format!("fleet audit: {fleet_report}"),
                });
            }
        }
        Ok(())
    }
}

/// Generates the op stream for `cfg` — pure function of the seed.
pub fn generate_ops(cfg: &TortureConfig) -> Vec<TortureOp> {
    let mut rng = cfg.seed ^ 0x7073_7465_7265_7373; // decorrelate from other users
    let mut ops = Vec::with_capacity(cfg.ops);
    for _ in 0..cfg.ops {
        let roll = splitmix64(&mut rng) % 100;
        let a = splitmix64(&mut rng);
        let b = splitmix64(&mut rng);
        let op = match roll {
            // With poison enabled, carve strike/storm ops out of the
            // touch-heavy band; poison-free streams are untouched.
            0..=1 if cfg.poison => {
                TortureOp::PoisonFrame { host: a.is_multiple_of(2), sel: b }
            }
            2..=3 if cfg.poison => {
                TortureOp::SoftOffline { host: a.is_multiple_of(2), sel: b }
            }
            4 if cfg.poison => TortureOp::SetPoison {
                host: a.is_multiple_of(2),
                rate_ppm: (b % u64::from(MAX_POISON_PPM)) as u32,
                seed: a,
            },
            5 if cfg.poison => TortureOp::ClearPoison,
            // With migration enabled, carve migrate/transport ops out of the
            // same touch-heavy band; migration-free streams are untouched.
            6 if cfg.migrate => TortureOp::Migrate { seed: b },
            7..=8 if cfg.migrate => TortureOp::SetTransport {
                rate_ppm: (b % u64::from(MAX_TRANSPORT_PPM)) as u32,
                seed: a,
            },
            9 if cfg.migrate => TortureOp::ClearTransport,
            // With the fleet enabled, carve tenant ops out of the same
            // touch-heavy band; fleet-free streams are untouched.
            10..=11 if cfg.fleet => {
                TortureOp::FleetWrite { sel: a, page: b, tag: a.rotate_left(32) }
            }
            12 if cfg.fleet => TortureOp::FleetRead { sel: a, page: b },
            13 if cfg.fleet => {
                if b.is_multiple_of(3) {
                    TortureOp::FleetStep
                } else {
                    TortureOp::FleetDiscard { sel: a, page: b }
                }
            }
            // With the daemon armed, carve tick/policy ops out of the same
            // touch-heavy band; daemon-free streams are untouched. Ticks
            // dominate policy changes ~3:1 so epochs usually get to run
            // under one policy before the next retune resets them.
            14..=16 if cfg.daemon => TortureOp::DaemonTick,
            17 if cfg.daemon => TortureOp::SetDaemonPolicy { level: a, budget: b },
            0..=29 => TortureOp::Touch { sel: a, page: b },
            30..=49 => TortureOp::TouchWrite { sel: a, page: b },
            50..=61 => TortureOp::MapAnon { sel: a, pages: b },
            62..=69 => TortureOp::MapFile { sel: a, pages: b },
            70..=77 => TortureOp::Populate { sel: a },
            78..=84 => TortureOp::Fork { sel: a },
            85..=89 => TortureOp::ExitProc { sel: a },
            90..=95 if cfg.faults => TortureOp::SetFaults {
                host: a.is_multiple_of(2),
                rate_ppm: (b % u64::from(MAX_FAULT_PPM)) as u32,
                seed: a,
            },
            _ if cfg.faults => TortureOp::ClearFaults,
            // With injection disabled, fold the fault slots into touches.
            _ => TortureOp::Touch { sel: a, page: b },
        };
        ops.push(op);
    }
    ops
}

/// Runs an explicit op sequence under `cfg`'s checking intervals.
///
/// This is the entry point replays and the minimizer use; [`run_torture`]
/// is the generate-then-run convenience wrapper.
pub fn run_ops(cfg: &TortureConfig, ops: &[TortureOp]) -> TortureReport {
    // With poison, migration, or the fleet on, watch the subsystem probes
    // so the report can prove trace totals equal the stats ledgers. The
    // ring is kept small — only the metrics registry (exact whole-run
    // counters) is read back. Crash replays and migration baselines run
    // untraced, so replayed work never double-counts.
    let full_trace = cfg.poison || cfg.migrate || cfg.fleet || cfg.daemon;
    let session = if full_trace {
        TraceSession::ring(1024)
    } else {
        // Flight-only otherwise: the main sink discards everything, but the
        // always-on flight ring keeps the last records so any failure still
        // carries its final moments, and the metrics registry still counts.
        TraceSession::flight_only(FLIGHT_CAPACITY)
    };
    let mut exec = Exec::new_with_tracer(cfg, session.tracer());
    exec.vm.set_tracer(session.tracer());
    let mut checkpoint =
        (exec.vm.snapshot(), exec.fleet.as_ref().map(Fleet::snapshot), exec.st.clone(), 0usize);
    for (i, op) in ops.iter().enumerate() {
        exec.apply(op);
        if exec.report.failure.is_some() {
            continue; // keep executing for deterministic counters, stop checking
        }
        let step = i + 1;
        let mut outcome = Ok(());
        if cfg.sweep_interval > 0 && step.is_multiple_of(cfg.sweep_interval) {
            outcome = outcome.and_then(|()| exec.sweep(i));
        }
        if cfg.audit_interval > 0 && step.is_multiple_of(cfg.audit_interval) {
            outcome = outcome.and_then(|()| exec.audit(i));
        }
        if let Some(interval) = cfg.crash_interval {
            if interval > 0 && step.is_multiple_of(interval) && outcome.is_ok() {
                outcome = crash_check(cfg, &mut exec, &checkpoint, ops, i);
            }
        }
        if cfg.snapshot_interval > 0 && step.is_multiple_of(cfg.snapshot_interval) {
            checkpoint = (
                exec.vm.snapshot(),
                exec.fleet.as_ref().map(Fleet::snapshot),
                exec.st.clone(),
                step,
            );
        }
        if let Err(failure) = outcome {
            exec.report.failure = Some(failure);
        }
    }
    // Always close with a sweep and an audit so short (minimized) sequences
    // still get checked.
    if exec.report.failure.is_none() {
        let last = ops.len().saturating_sub(1);
        if let Err(failure) = exec.sweep(last).and_then(|()| exec.audit(last)) {
            exec.report.failure = Some(failure);
        }
    }
    let final_snap = exec.vm.snapshot();
    exec.report.final_digest = digest_vm(&final_snap);
    exec.report.oom_events =
        final_snap.guest.recovery_stats.oom_events + final_snap.host.recovery_stats.oom_events;
    exec.report.guest_poison = final_snap.guest.poison_stats;
    exec.report.host_poison = final_snap.host.poison_stats;
    exec.report.poisoned_frames = final_snap
        .guest
        .machine
        .zones
        .iter()
        .chain(final_snap.host.machine.zones.iter())
        .map(|z| z.badframes.len() as u64)
        .sum();
    if let Some(fleet) = &exec.fleet {
        exec.report.fleet_alive = fleet.tenant_ids().len() as u64;
        exec.report.fleet_stats = *fleet.stats();
        exec.report.fleet_digest = digest_fleet(&fleet.snapshot());
    }
    if cfg.daemon {
        // `daemon_stats` already holds hosts retired at migration cutovers;
        // fold in every daemon still live at run end.
        let mut total = exec.report.daemon_stats;
        total.accumulate(exec.vm.guest().daemon_stats());
        total.accumulate(exec.vm.host().daemon_stats());
        if let Some(fleet) = &exec.fleet {
            total.accumulate(&fleet.host_daemon_stats());
        }
        exec.report.daemon_stats = total;
    }
    exec.report.trace_enabled = full_trace && session.tracer().is_enabled();
    exec.report.spans = session.spans();
    if exec.report.failure.is_some() {
        exec.report.flight_jsonl = session.flight_jsonl();
    }
    exec.report.metrics = session.metrics();
    exec.report
}

/// Simulates a crash at the boundary after op `i`: restores the checkpoint
/// into a fresh VM, replays the journal, and requires digest equality with
/// the live state plus a clean audit of the recovered instance.
fn crash_check(
    cfg: &TortureConfig,
    exec: &mut Exec,
    checkpoint: &(VmSnapshot, Option<FleetSnapshot>, RunnerState, usize),
    ops: &[TortureOp],
    i: usize,
) -> Result<(), TortureFailure> {
    exec.report.crash_checks += 1;
    let live = digest_vm(&exec.vm.snapshot());
    let (snap, fleet_snap, st, from) = checkpoint;
    let mut replay = Exec::from_checkpoint(cfg, snap, fleet_snap.as_ref(), st);
    for op in &ops[*from..=i] {
        replay.apply(op);
    }
    let recovered = digest_vm(&replay.vm.snapshot());
    if recovered != live {
        return Err(TortureFailure::CrashDivergence {
            op_index: i,
            expected: live,
            actual: recovered,
        });
    }
    // The fleet recovers through the same journal: the replayed multi-tenant
    // image — hosts, guests, balloons, sharing registries, RNG — must land
    // byte-identical to the live one.
    if let (Some(live_fleet), Some(replayed)) = (&exec.fleet, &replay.fleet) {
        let live_digest = digest_fleet(&live_fleet.snapshot());
        let recovered_digest = digest_fleet(&replayed.snapshot());
        if recovered_digest != live_digest {
            return Err(TortureFailure::CrashDivergence {
                op_index: i,
                expected: live_digest,
                actual: recovered_digest,
            });
        }
    }
    let report = audit_vm(&replay.vm);
    if !report.is_clean() {
        return Err(TortureFailure::AuditFindings {
            op_index: i,
            detail: format!("post-recovery: {report}"),
        });
    }
    Ok(())
}

/// Generates and runs `cfg.ops` ops from `cfg.seed`.
pub fn run_torture(cfg: &TortureConfig) -> TortureReport {
    run_ops(cfg, &generate_ops(cfg))
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Each `(event, total)` of a stats block's `as_named()` equals that
    /// event's count in the run's trace metrics, when probes were live.
    fn assert_traced(report: &TortureReport, named: &[(&'static str, u64)]) {
        if report.trace_enabled {
            for &(name, total) in named {
                assert_eq!(report.metrics.counter(name), total, "counter {name}");
            }
        }
    }

    #[test]
    fn torture_without_faults_is_clean() {
        let cfg = TortureConfig {
            faults: false,
            ops: 600,
            sweep_interval: 16,
            audit_interval: 64,
            crash_interval: Some(53),
            snapshot_interval: 32,
            ..TortureConfig::with_seed_and_ops(42, 600)
        };
        let report = run_torture(&cfg);
        assert!(report.is_ok(), "{:?}", report.failure);
        assert!(report.touches > 0 && report.maps > 0 && report.forks > 0);
        assert!(report.crash_checks > 0 && report.sweeps > 0 && report.audits > 0);
    }

    #[test]
    fn torture_with_faults_tolerates_errors_but_stays_consistent() {
        let report = run_torture(&TortureConfig::with_seed_and_ops(7, 800));
        assert!(report.is_ok(), "{:?}", report.failure);
        assert!(report.oom_events > 0, "fault injection never caused allocator pressure");
    }

    #[test]
    fn identical_seeds_produce_identical_runs() {
        let cfg = TortureConfig::with_seed_and_ops(99, 300);
        let a = run_torture(&cfg);
        let b = run_torture(&cfg);
        assert_eq!(a.final_digest, b.final_digest);
        assert_eq!(a.op_errors, b.op_errors);
        assert_eq!(a.touches, b.touches);
    }

    #[test]
    fn injected_model_bug_is_detected() {
        let cfg = TortureConfig {
            inject_model_bug: true,
            ..TortureConfig::with_seed_and_ops(3, 400)
        };
        let report = run_torture(&cfg);
        match report.failure {
            Some(TortureFailure::OracleDivergence { ref detail, .. }) => {
                assert!(detail.contains("exited pid"), "unexpected detail: {detail}");
            }
            other => panic!("expected oracle divergence, got {other:?}"),
        }
    }

    #[test]
    fn poison_torture_is_deterministic_across_runs_and_crashes() {
        let cfg = TortureConfig {
            poison: true,
            pcp: true,
            ..TortureConfig::with_seed_and_ops(11, 800)
        };
        let a = run_torture(&cfg);
        let b = run_torture(&cfg);
        assert!(a.is_ok(), "{:?}", a.failure);
        assert_eq!(a.final_digest, b.final_digest);
        assert_eq!(a.poisoned_frames, b.poisoned_frames);
        assert!(a.crash_checks > 0, "crash recovery must run under poison");
        assert!(
            a.guest_poison.strikes + a.host_poison.strikes > 0,
            "the generator never struck"
        );
    }

    #[test]
    fn acceptance_poison_storm_10k_ops_nested_vm_with_pcp() {
        // The PR's acceptance bar: a seeded 10 000-op poison storm against
        // the nested stack with per-CPU caches enabled completes with a
        // clean `audit_vm` (no poisoned frame free, pcp-cached, mapped, or
        // composed into a guest translation — i.e. no allocation path ever
        // handed a quarantined frame back out) and with every `poison.*`
        // stats ledger exactly equal to its trace total.
        let cfg = TortureConfig {
            poison: true,
            pcp: true,
            sweep_interval: 256,
            audit_interval: 512,
            snapshot_interval: 256,
            crash_interval: Some(509),
            ..TortureConfig::with_seed_and_ops(2020, 10_000)
        };
        let report = run_torture(&cfg);
        assert!(report.is_ok(), "{:?}", report.failure);
        assert_eq!(report.ops_executed, 10_000);
        let strikes = report.guest_poison.strikes + report.host_poison.strikes;
        assert!(strikes > 0, "the storm never struck");
        assert!(report.poisoned_frames > 0, "no frame was ever quarantined");
        assert!(
            report.guest_poison.healed + report.host_poison.healed > 0,
            "migrate-and-heal never exercised"
        );
        let mut poison = report.guest_poison;
        poison.accumulate(&report.host_poison);
        assert_traced(&report, &poison.as_named());
    }

    #[test]
    fn migration_torture_is_deterministic_and_stats_match_trace() {
        let cfg = TortureConfig {
            migrate: true,
            ..TortureConfig::with_seed_and_ops(21, 800)
        };
        let a = run_torture(&cfg);
        let b = run_torture(&cfg);
        assert!(a.is_ok(), "{:?}", a.failure);
        assert_eq!(a.final_digest, b.final_digest);
        assert_eq!(a.migrations, b.migrations);
        assert_eq!(a.migrate_stats, b.migrate_stats);
        assert!(
            a.migrations + a.migration_aborts > 0,
            "the generator never migrated"
        );
        assert_traced(&a, &a.migrate_stats.as_named());
    }

    #[test]
    fn migration_survives_crash_replay_boundaries() {
        // Crash checks replay journaled ops — including whole migrations —
        // from the last checkpoint and demand digest equality with the
        // never-crashed state, so a migration that is not a pure function
        // of (VM state, op seed, armed storm) diverges here.
        let cfg = TortureConfig {
            migrate: true,
            crash_interval: Some(37),
            snapshot_interval: 16,
            ..TortureConfig::with_seed_and_ops(42, 600)
        };
        let report = run_torture(&cfg);
        assert!(report.is_ok(), "{:?}", report.failure);
        assert!(report.crash_checks > 0);
        assert!(report.migrations + report.migration_aborts > 0);
    }

    #[test]
    fn acceptance_migration_storm_10k_ops_full_stack() {
        // The PR's acceptance bar: a seeded 10 000-op run mixing live
        // migrations, transport-fault storms, memory poison, pcp caches,
        // and guest fault injection completes with zero findings — which,
        // given the checks wired into the `Migrate` op itself, means every
        // aborted migration left the source serving faults and both hosts
        // audit-clean, and every completed (possibly interrupted-and-
        // resumed) migration produced a destination digest bit-identical
        // to its uninterrupted reliable baseline. The migration engine's
        // stats ledger must equal the `migrate.*` trace totals counter for
        // counter.
        let cfg = TortureConfig {
            poison: true,
            migrate: true,
            pcp: true,
            sweep_interval: 256,
            audit_interval: 512,
            snapshot_interval: 256,
            crash_interval: Some(1021),
            ..TortureConfig::with_seed_and_ops(2020, 10_000)
        };
        let report = run_torture(&cfg);
        assert!(report.is_ok(), "{:?}", report.failure);
        assert_eq!(report.ops_executed, 10_000);
        assert!(report.migrations > 0, "no migration ever completed");
        assert!(
            report.migrate_stats.chunks_dropped
                + report.migrate_stats.chunks_rejected
                + report.migrate_stats.stalls
                > 0,
            "the transport storm never bit: {:?}",
            report.migrate_stats
        );
        assert!(report.crash_checks > 0);
        assert_traced(&report, &report.migrate_stats.as_named());
    }

    /// Deterministic fleet warmup: every tenant writes its full working set
    /// (pushing both hosts past their physical capacity, so the pressure
    /// ladder must fire), discards a slice (host-backed but guest-free —
    /// balloon fodder), then rewrites the rest with fresh tags (breaking the
    /// KSM merges the first pressure wave created).
    fn fleet_warmup() -> Vec<TortureOp> {
        let tenants = FLEET_TENANTS as u64;
        let pages = FLEET_GUEST_MIB * 256 * 3 / 4;
        let discard = pages / 4;
        let mut ops = Vec::new();
        // Phase A: every tenant writes its whole workload, page-major, with
        // per-page tags shared across tenants. Each host overcommits at
        // ~8/9 of the pass; the OOM's relieve finds nothing guest-free to
        // balloon and resolves on the KSM rung (16-way same-tag groups
        // collapse to one frame each).
        for p in 0..pages {
            for t in 0..tenants {
                ops.push(TortureOp::FleetWrite { sel: t, page: p, tag: 1 + p });
            }
        }
        // Phase B: discard a low slice — those frames become guest-free but
        // stay host-backed, which is exactly the balloon rung's fodder.
        for t in 0..tenants {
            for p in 0..discard {
                ops.push(TortureOp::FleetDiscard { sel: t, page: p });
            }
        }
        // Phase C: rewrite the still-mapped remainder with per-(page,
        // tenant) unique tags: every write breaks its 16-way share onto a
        // fresh private frame, refilling the hosts close to capacity.
        for p in discard..pages {
            for t in 0..tenants {
                ops.push(TortureOp::FleetWrite { sel: t, page: p, tag: 1_000 + p * 17 + t });
            }
        }
        // Phase D: rewrite the discarded slice with unique tags. Private
        // frame demand now outruns the few hundred free frames left after
        // phase C, so an OOM lands mid-phase — while the rest of the slice
        // still sits discarded and host-backed, giving the balloon rung
        // real frames to claim (the previously asserted
        // `balloon_inflates > 0`).
        for p in 0..discard {
            for t in 0..tenants {
                ops.push(TortureOp::FleetWrite { sel: t, page: p, tag: 50_000 + p * 17 + t });
            }
        }
        ops
    }

    #[test]
    fn fleet_torture_is_deterministic_and_stats_match_trace() {
        let cfg = TortureConfig {
            fleet: true,
            ..TortureConfig::with_seed_and_ops(31, 800)
        };
        let mut ops: Vec<TortureOp> = (0..64)
            .flat_map(|p| {
                (0..FLEET_TENANTS as u64)
                    .map(move |t| TortureOp::FleetWrite { sel: t, page: p, tag: t + p })
            })
            .collect();
        ops.extend(generate_ops(&cfg));
        let a = run_ops(&cfg, &ops);
        let b = run_ops(&cfg, &ops);
        assert!(a.is_ok(), "{:?}", a.failure);
        assert!(a.fleet_ops > 0, "the stream never reached the fleet");
        assert_eq!(a.final_digest, b.final_digest);
        assert_eq!(a.fleet_digest, b.fleet_digest);
        assert_eq!(a.fleet_stats, b.fleet_stats);
        assert_eq!(a.fleet_alive, b.fleet_alive);
        assert_traced(&a, &a.fleet_stats.as_named());
    }

    #[test]
    fn fleet_survives_crash_replay_boundaries() {
        // Crash checks restore the whole multi-tenant image — hosts, guests,
        // balloons, sharing registries, RNG — from the last checkpoint,
        // replay the journal, and demand the fleet digest matches the
        // never-crashed state bit for bit.
        let cfg = TortureConfig {
            fleet: true,
            crash_interval: Some(67),
            snapshot_interval: 32,
            ..TortureConfig::with_seed_and_ops(17, 600)
        };
        let mut ops: Vec<TortureOp> = (0..64)
            .flat_map(|p| {
                (0..FLEET_TENANTS as u64)
                    .map(move |t| TortureOp::FleetWrite { sel: t, page: p, tag: t ^ p })
            })
            .collect();
        ops.extend(generate_ops(&cfg));
        let report = run_ops(&cfg, &ops);
        assert!(report.is_ok(), "{:?}", report.failure);
        assert!(report.crash_checks > 0);
        assert!(report.fleet_ops > 0);
    }

    #[test]
    fn acceptance_fleet_torture_10k_ops_overcommitted() {
        // The PR's acceptance bar: 32 tenants at 1.5× memory overcommit on
        // two hosts, driven through a deterministic oversubscribing warmup
        // and then 10 000 random ops mixing tenant traffic with migrations,
        // poison, and pcp caches on the primary VM. The run must complete
        // with every periodic fleet audit clean (sharing registry exact,
        // no double-owned frames, committed ≤ limit), zero host-fatal OOMs
        // (any tenant op error is an immediate failure), and the fleet
        // stats ledger exactly equal to the `balloon.*`/`ksm.*`/`fleet.*`
        // trace totals.
        let cfg = TortureConfig {
            fleet: true,
            poison: true,
            migrate: true,
            pcp: true,
            sweep_interval: 256,
            audit_interval: 512,
            snapshot_interval: 512,
            crash_interval: Some(4003),
            ..TortureConfig::with_seed_and_ops(2020, 10_000)
        };
        let mut ops = fleet_warmup();
        ops.extend(generate_ops(&cfg));
        let report = run_ops(&cfg, &ops);
        assert!(report.is_ok(), "{:?}", report.failure);
        assert!(report.fleet_ops > 0);
        assert!(report.fleet_alive > 0, "the ladder killed every tenant");
        assert_eq!(report.fleet_stats.admits, FLEET_TENANTS as u64);
        assert!(
            report.fleet_stats.pressure_events > 0,
            "overcommit never pressured the hosts: {:?}",
            report.fleet_stats
        );
        assert!(
            report.fleet_stats.ksm_merges > 0,
            "same-page merging never fired: {:?}",
            report.fleet_stats
        );
        assert!(
            report.fleet_stats.balloon_inflates > 0,
            "ballooning never reclaimed a discarded frame: {:?}",
            report.fleet_stats
        );
        assert!(report.crash_checks > 0);
        assert!(report.audits > 0);
        assert_traced(&report, &report.fleet_stats.as_named());
    }

    #[test]
    fn daemon_torture_is_deterministic_and_stats_match_trace() {
        let cfg = TortureConfig {
            daemon: true,
            ..TortureConfig::with_seed_and_ops(13, 800)
        };
        let a = run_torture(&cfg);
        let b = run_torture(&cfg);
        assert!(a.is_ok(), "{:?}", a.failure);
        assert_eq!(a.final_digest, b.final_digest);
        assert_eq!(a.daemon_stats, b.daemon_stats);
        assert!(a.daemon_ticks > 0, "the generator never ticked the daemon");
        assert!(a.daemon_stats.ticks > 0, "armed daemon never did a tick's work");
        assert_traced(&a, &a.daemon_stats.as_named());
    }

    #[test]
    fn daemon_survives_crash_replay_boundaries() {
        // Crash checks restore mid-epoch daemon state — cursors, budget,
        // backoff RNG — from the checkpoint, replay the journal
        // (ticks included), and demand digest equality with the
        // never-crashed state. A daemon that is not a pure function of
        // (system state, its own persisted state) diverges here.
        let cfg = TortureConfig {
            daemon: true,
            crash_interval: Some(37),
            snapshot_interval: 16,
            ..TortureConfig::with_seed_and_ops(5, 600)
        };
        let report = run_torture(&cfg);
        assert!(report.is_ok(), "{:?}", report.failure);
        assert!(report.crash_checks > 0);
        assert!(report.daemon_ticks > 0);
    }

    #[test]
    fn acceptance_daemon_torture_10k_ops_poison_pcp_sharded() {
        // The PR's acceptance bar: a seeded 10 000-op run with the
        // maintenance daemon racing foreground faults on a two-zone nested
        // stack with poison storms and per-CPU caches armed completes with
        // zero findings — every oracle sweep proving no daemon action
        // changed a guest-visible translation or write bit, every audit
        // clean, every crash replay (mid-epoch daemon state included)
        // digest-identical — and the summed `DaemonStats` ledger equal to
        // the `daemon.*` trace totals counter for counter.
        let cfg = TortureConfig {
            daemon: true,
            poison: true,
            pcp: true,
            shards: 2,
            sweep_interval: 256,
            audit_interval: 512,
            snapshot_interval: 256,
            crash_interval: Some(509),
            ..TortureConfig::with_seed_and_ops(2020, 10_000)
        };
        let report = run_torture(&cfg);
        assert!(report.is_ok(), "{:?}", report.failure);
        assert_eq!(report.ops_executed, 10_000);
        assert!(report.daemon_ticks > 0, "the generator never ticked the daemon");
        assert!(report.daemon_stats.ticks > 0);
        assert!(
            report.daemon_stats.policy_updates > 2,
            "no SetDaemonPolicy op ever retuned the daemons"
        );
        assert!(
            report.daemon_stats.epochs > 0,
            "no epoch ever completed: {:?}",
            report.daemon_stats
        );
        assert!(report.crash_checks > 0);
        assert_traced(&report, &report.daemon_stats.as_named());
    }

    #[test]
    fn sharded_torture_is_deterministic_and_exercises_zones() {
        // A four-zone topology under the full harness: pids home on zone
        // pid % 4, so the stream drives zone-local allocation and
        // deterministic cross-zone fallback while every oracle sweep,
        // audit, and crash/restore check runs unchanged.
        let cfg = TortureConfig {
            shards: 4,
            poison: true,
            pcp: true,
            ..TortureConfig::with_seed_and_ops(21, 800)
        };
        let a = run_torture(&cfg);
        let b = run_torture(&cfg);
        assert!(a.is_ok(), "{:?}", a.failure);
        assert_eq!(a.final_digest, b.final_digest);
        assert!(a.crash_checks > 0, "crash recovery must run on the sharded VM");
        // The flat config on the same seed lands on a different digest only
        // because the topology members differ — but both must pass.
        let flat = run_torture(&TortureConfig {
            poison: true,
            pcp: true,
            ..TortureConfig::with_seed_and_ops(21, 800)
        });
        assert!(flat.is_ok(), "{:?}", flat.failure);
    }

    #[test]
    fn acceptance_10k_ops_with_faults_zero_findings() {
        // The PR's acceptance bar: a 10 000-op seeded run with fault
        // injection enabled completes with zero oracle divergences and zero
        // audit findings. Checking intervals are widened to keep the debug-
        // profile runtime reasonable; every class of check still runs dozens
        // of times.
        let cfg = TortureConfig {
            sweep_interval: 256,
            audit_interval: 512,
            snapshot_interval: 256,
            crash_interval: Some(509),
            ..TortureConfig::with_seed_and_ops(2020, 10_000)
        };
        let report = run_torture(&cfg);
        assert!(report.is_ok(), "{:?}", report.failure);
        assert_eq!(report.ops_executed, 10_000);
        assert!(report.oom_events > 0, "pressure never materialized");
        assert!(report.crash_checks >= 19);
    }
}
