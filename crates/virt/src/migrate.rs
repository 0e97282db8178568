//! Fault-tolerant pre-copy live migration of a [`VirtualMachine`] between
//! host [`System`](contig_mm::System)s.
//!
//! The engine follows the classic KVM/QEMU shape. A migration streams the
//! VM's memory in **pre-copy rounds**: round 0 transfers every host-backed
//! guest-physical page, and each following round transfers only the pages
//! the (still running) guest dirtied meanwhile — harvested from the
//! mm-level dirty log, which piggybacks on the WRITE-bit/COW fault
//! machinery the hypervisor already intercepts. When a round's dirty set is
//! small enough (or the round budget is exhausted) the source pauses for a
//! bounded **stop-and-copy**: the final dirty pages plus the encoded guest
//! [`SystemSnapshot`](contig_mm::SystemSnapshot) cross the wire, and
//! **cutover** installs the guest state on the destination.
//!
//! Everything crosses a [`Transport`] as self-checking frames (FNV-1a-64
//! digest over the whole frame), one chunk in flight at a time, each
//! acknowledged by the destination through the same lossy path. The
//! [`LoopbackTransport`] drives a seeded
//! [`TransportPolicy`](contig_types::TransportPolicy) that drops, corrupts,
//! stalls, or disconnects per frame; the source retries lost chunks under
//! jittered exponential backoff until the per-phase timeout or retry budget
//! escalates the failure. A failed [`MigrationSession::run`] is *resumable*:
//! the session keeps the last acknowledged position, and a rerun on a fresh
//! transport continues from there — converging to a destination
//! bit-identical to an uninterrupted run, because chunk application is
//! strictly idempotent ([`VirtualMachine::back_gpa`]) and guest work is
//! pinned to round boundaries. Alternatively [`MigrationSession::abort`]
//! rolls back: the source keeps running (its dirty log is simply switched
//! off) and [`MigrationTarget::release`] returns every destination frame.
//!
//! Every counter in [`MigrationStats`] has exactly one `migrate.*` trace
//! emission next to it, extending the workspace's 1:1 stats↔trace equality
//! convention to the migration subsystem.

use contig_mm::{compose_mappings, PlacementPolicy, Pte, SystemSnapshot};
use contig_trace::{TraceEvent, Tracer};
use contig_types::{
    fnv1a64, jittered_backoff, ContigMapping, FaultError, PageSize, PhysAddr, TransportFault,
    TransportPolicy, VirtRange,
};

use crate::vm::{VirtualMachine, VmConfig};

// ---------------------------------------------------------------------------
// Guest-state codec.
// ---------------------------------------------------------------------------

/// Serializes the guest [`SystemSnapshot`] for the final state chunk.
///
/// The trait exists to break a dependency cycle: the canonical encoding is
/// the versioned JSONL snapshot codec in `contig-check`, but `contig-check`
/// depends on this crate, so the migration engine takes the codec as a
/// strategy object (`contig_check::SnapshotGuestCodec` is the production
/// implementation).
pub trait GuestStateCodec {
    /// Encodes a guest snapshot as bytes.
    fn encode(&self, snap: &SystemSnapshot) -> Vec<u8>;
    /// Decodes bytes produced by [`GuestStateCodec::encode`].
    ///
    /// # Errors
    ///
    /// A human-readable description when the bytes do not decode.
    fn decode(&self, bytes: &[u8]) -> Result<SystemSnapshot, String>;
}

// ---------------------------------------------------------------------------
// Transport.
// ---------------------------------------------------------------------------

/// The transport channel is closed; no further frames can be sent.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct TransportClosed;

impl std::fmt::Display for TransportClosed {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str("transport closed")
    }
}

impl std::error::Error for TransportClosed {}

/// What happened to one frame handed to [`Transport::send`].
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum Delivery {
    /// The frame reached the far side (possibly mangled in flight — the
    /// receiver's digest check decides).
    Delivered {
        /// The bytes as received.
        frame: Vec<u8>,
        /// Wire latency charged to the sender's clock.
        delay_ns: u64,
        /// Injected stall beyond base latency, if the frame was stalled.
        stalled: Option<u64>,
    },
    /// The frame vanished.
    Dropped,
}

/// A point-to-point, stop-and-wait byte-frame channel.
///
/// Deliberately minimal: migration needs nothing more, and the single method
/// keeps fault injection centralized. Acks travel through the same `send`
/// path as data, so every frame in either direction is exposed to the
/// policy.
pub trait Transport {
    /// Sends one frame.
    ///
    /// # Errors
    ///
    /// [`TransportClosed`] once the channel has disconnected; every
    /// subsequent call fails too.
    fn send(&mut self, frame: &[u8]) -> Result<Delivery, TransportClosed>;
}

/// In-process transport with seeded fault injection — the simulator's lossy
/// wire. Wraps a [`TransportPolicy`] deciding each frame's fate.
#[derive(Clone, Debug)]
pub struct LoopbackTransport {
    policy: TransportPolicy,
    base_latency_ns: u64,
    connected: bool,
}

impl LoopbackTransport {
    /// Base per-frame latency of a reliable loopback wire.
    pub(crate) const DEFAULT_LATENCY_NS: u64 = 1_000;

    /// A wire faulting per `policy` with the default base latency.
    pub fn new(policy: TransportPolicy) -> Self {
        Self { policy, base_latency_ns: Self::DEFAULT_LATENCY_NS, connected: true }
    }

    /// A perfect wire (used for uninterrupted baseline runs).
    pub fn reliable() -> Self {
        Self::new(TransportPolicy::default())
    }
}

impl Transport for LoopbackTransport {
    fn send(&mut self, frame: &[u8]) -> Result<Delivery, TransportClosed> {
        if !self.connected {
            return Err(TransportClosed);
        }
        match self.policy.decide(()) {
            TransportFault::Deliver => Ok(Delivery::Delivered {
                frame: frame.to_vec(),
                delay_ns: self.base_latency_ns,
                stalled: None,
            }),
            TransportFault::Drop => Ok(Delivery::Dropped),
            TransportFault::Corrupt => {
                let mut bytes = frame.to_vec();
                let at = self.policy.draw_index(bytes.len() as u64) as usize;
                let bit = self.policy.draw_index(8) as u32;
                if let Some(b) = bytes.get_mut(at) {
                    *b ^= 1 << bit;
                }
                Ok(Delivery::Delivered {
                    frame: bytes,
                    delay_ns: self.base_latency_ns,
                    stalled: None,
                })
            }
            TransportFault::Stall { ns } => Ok(Delivery::Delivered {
                frame: frame.to_vec(),
                delay_ns: self.base_latency_ns + ns,
                stalled: Some(ns),
            }),
            TransportFault::Disconnect => {
                self.connected = false;
                Err(TransportClosed)
            }
        }
    }
}

// ---------------------------------------------------------------------------
// Frame codec: [kind u8 | round u32 | seq u64 | len u64 | payload | digest u64]
// all little-endian, digest = fnv1a64 over everything before it.
// ---------------------------------------------------------------------------

const FRAME_KIND_PAGES: u8 = 1;
const FRAME_KIND_STATE: u8 = 2;
const FRAME_KIND_ACK: u8 = 3;
const FRAME_HEADER: usize = 1 + 4 + 8 + 8;

fn encode_frame(kind: u8, round: u32, seq: u64, payload: &[u8]) -> Vec<u8> {
    let mut out = Vec::with_capacity(FRAME_HEADER + payload.len() + 8);
    out.push(kind);
    out.extend_from_slice(&round.to_le_bytes());
    out.extend_from_slice(&seq.to_le_bytes());
    out.extend_from_slice(&(payload.len() as u64).to_le_bytes());
    out.extend_from_slice(payload);
    let digest = fnv1a64(&out);
    out.extend_from_slice(&digest.to_le_bytes());
    out
}

struct Frame {
    kind: u8,
    #[allow(dead_code)]
    round: u32,
    seq: u64,
    payload: Vec<u8>,
}

/// Decodes and digest-verifies a frame. `None` for anything mangled —
/// truncated, mis-sized, or failing the checksum.
fn decode_frame(bytes: &[u8]) -> Option<Frame> {
    if bytes.len() < FRAME_HEADER + 8 {
        return None;
    }
    let (body, digest_bytes) = bytes.split_at(bytes.len() - 8);
    let digest = u64::from_le_bytes(digest_bytes.try_into().ok()?);
    if fnv1a64(body) != digest {
        return None;
    }
    let kind = body[0];
    let round = u32::from_le_bytes(body[1..5].try_into().ok()?);
    let seq = u64::from_le_bytes(body[5..13].try_into().ok()?);
    // The length is the sender's word: compare it, never add to it.
    let len = u64::from_le_bytes(body[13..21].try_into().ok()?);
    if (body.len() - FRAME_HEADER) as u64 != len {
        return None;
    }
    Some(Frame { kind, round, seq, payload: body[FRAME_HEADER..].to_vec() })
}

fn encode_pages(gframes: &[u64]) -> Vec<u8> {
    let mut out = Vec::with_capacity(gframes.len() * 8);
    for g in gframes {
        out.extend_from_slice(&g.to_le_bytes());
    }
    out
}

/// `None` for a payload that is not whole frame numbers, or that names a
/// guest frame no page-table entry (and no 64-bit byte address) can hold.
fn decode_pages(payload: &[u8]) -> Option<Vec<u64>> {
    if !payload.len().is_multiple_of(8) {
        return None;
    }
    payload
        .chunks_exact(8)
        .map(|c| u64::from_le_bytes(c.try_into().expect("chunks_exact(8)")))
        .map(|gframe| (gframe <= Pte::MAX_PFN.raw()).then_some(gframe))
        .collect()
}

// ---------------------------------------------------------------------------
// Configuration, stats, errors.
// ---------------------------------------------------------------------------

/// Guest pages per data chunk.
const CHUNK_PAGES: usize = 64;
/// Pre-copy round budget; the migration enters stop-and-copy at the latest
/// after this many rounds, whatever the dirty rate.
const MAX_ROUNDS: u32 = 8;
/// Convergence threshold: a dirty set no larger than this goes to
/// stop-and-copy instead of another pre-copy round.
const STOP_COPY_PAGES: u64 = 64;
/// Retransmissions allowed per chunk before the attempt fails.
const MAX_RETRIES: u32 = 8;
/// Simulated-time budget per phase (one pre-copy round, or the whole
/// stop-and-copy), in ns; beyond it the attempt fails with
/// [`MigrationError::PhaseTimeout`].
const PHASE_TIMEOUT_NS: u64 = 20_000_000;
/// Clock charge for a send that produced no acknowledgment (drop or ack
/// loss) — the sender's retransmission timer.
const ACK_TIMEOUT_NS: u64 = 10_000;
/// Base of the jittered exponential retry backoff, in ns.
const BACKOFF_BASE_NS: u64 = 200;
/// Backoff ceiling before jitter.
const BACKOFF_CAP_NS: u64 = 100_000;
/// Seed of the deterministic backoff jitter stream.
const BACKOFF_SEED: u64 = 0xC0_FFEE;

/// The migration's parameters. They are the constants above; the type
/// carries no values and stays only because callers name it.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct MigrationConfig;

contig_types::wire_counters! {
    /// Event-mapped migration counters. Every field increments in lockstep with
    /// exactly one emission of the like-named `migrate.*` trace event, so a
    /// traced run can assert `stats == trace counts` field by field
    /// ([`MigrationStats::as_named`]).
    #[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
    pub struct MigrationStats {
        /// Data/state chunk transmission attempts (`migrate.chunk_sent`).
        pub(crate) chunks_sent: u64 = "migrate.chunk_sent",
        /// Chunks acknowledged end-to-end (`migrate.chunk_acked`).
        pub(crate) chunks_acked: u64 = "migrate.chunk_acked",
        /// Chunks discarded by the receiver's digest check
        /// (`migrate.chunk_rejected`).
        pub chunks_rejected: u64 = "migrate.chunk_rejected",
        /// Chunks swallowed by the wire (`migrate.chunk_dropped`).
        pub chunks_dropped: u64 = "migrate.chunk_dropped",
        /// Acknowledgments lost or mangled after a successful apply
        /// (`migrate.ack_lost`).
        pub acks_lost: u64 = "migrate.ack_lost",
        /// Chunk retransmissions (`migrate.retry`).
        pub(crate) retries: u64 = "migrate.retry",
        /// Injected stalls paid by the sender's clock (`migrate.stall`).
        pub stalls: u64 = "migrate.stall",
        /// Pre-copy rounds completed (`migrate.round`).
        pub(crate) rounds: u64 = "migrate.round",
        /// Phase timeouts (`migrate.timeout`).
        pub(crate) timeouts: u64 = "migrate.timeout",
        /// Transport disconnects (`migrate.disconnect`).
        pub(crate) disconnects: u64 = "migrate.disconnect",
        /// Times a session resumed from its checkpoint (`migrate.resume`).
        pub resumes: u64 = "migrate.resume",
        /// Aborted migrations (`migrate.abort`).
        pub aborts: u64 = "migrate.abort",
        /// Completed cutovers (`migrate.cutover`).
        pub(crate) cutovers: u64 = "migrate.cutover",
    }
}

/// Why a migration attempt stopped. `Disconnected`, `RetriesExhausted`, and
/// `PhaseTimeout` leave the session resumable; the rest are terminal for
/// the attempt and the caller should abort.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum MigrationError {
    /// The transport closed; resume needs a fresh channel.
    Disconnected {
        /// Round the disconnect hit.
        round: u32,
    },
    /// One chunk burned its whole retry budget.
    RetriesExhausted {
        /// Round the chunk belonged to.
        round: u32,
        /// The chunk's sequence number.
        seq: u64,
    },
    /// A phase exceeded `PHASE_TIMEOUT_NS` (20 ms of session time).
    PhaseTimeout {
        /// Round the timeout hit.
        round: u32,
    },
    /// The destination could not back a transferred page (host OOM).
    Fault(FaultError),
    /// The guest-state payload failed to decode.
    Codec(String),
    /// `run` was called on a session already done or aborted.
    NotResumable,
}

impl MigrationError {
    /// Whether [`MigrationSession::run`] may be called again to continue
    /// from the checkpoint.
    pub fn is_resumable(&self) -> bool {
        matches!(
            self,
            MigrationError::Disconnected { .. }
                | MigrationError::RetriesExhausted { .. }
                | MigrationError::PhaseTimeout { .. }
        )
    }
}

impl std::fmt::Display for MigrationError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            MigrationError::Disconnected { round } => {
                write!(f, "transport disconnected in round {round}")
            }
            MigrationError::RetriesExhausted { round, seq } => {
                write!(f, "chunk {seq} exhausted retries in round {round}")
            }
            MigrationError::PhaseTimeout { round } => {
                write!(f, "phase timeout in round {round}")
            }
            MigrationError::Fault(e) => write!(f, "destination backing fault: {e}"),
            MigrationError::Codec(msg) => write!(f, "guest state codec: {msg}"),
            MigrationError::NotResumable => f.write_str("session already finished"),
        }
    }
}

impl std::error::Error for MigrationError {}

/// Contiguity fingerprint of a VM's host backing — the measurement the
/// paper never takes: what migration does to the mappings CA paging built.
///
/// Runs are maximal spans of the VM memory region where guest-physical and
/// host-physical addresses advance together (gPA→hPA contiguity, the
/// property SpOT predicts from). `top32_coverage_ppm` is the SpOT-style
/// metric: the fraction of backed bytes covered by the 32 largest runs,
/// in parts per million.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct ContigProfile {
    /// Host-backed base pages in the VM memory region (the host maps each
    /// of its frames there once).
    pub backed_pages: u64,
    /// Maximal contiguous gPA→hPA runs.
    pub runs: u64,
    /// Largest run, in base pages.
    pub(crate) largest_run_pages: u64,
    /// Share of backed bytes in the 32 largest runs, ppm.
    pub(crate) top32_coverage_ppm: u64,
}

/// Computes the [`ContigProfile`] of a VM's memory region backing.
pub fn contig_profile(vm: &VirtualMachine) -> ContigProfile {
    let region =
        VirtRange::new(vm.host_vma_base(), vm.guest_frames() * PageSize::Base4K.bytes());
    let leaves = vm.host().aspace(vm.host_pid()).page_table().mappings_in(region);
    let mut runs: Vec<u64> =
        compose_mappings(leaves.map(|m| (m.va, PhysAddr::from(m.pte.pfn), m.size.bytes())))
            .iter()
            .map(ContigMapping::len)
            .collect();
    let total: u64 = runs.iter().sum();
    runs.sort_unstable_by(|a, b| b.cmp(a));
    let top32: u64 = runs.iter().take(32).sum();
    ContigProfile {
        backed_pages: total / PageSize::Base4K.bytes(),
        runs: runs.len() as u64,
        largest_run_pages: runs.first().copied().unwrap_or(0) / PageSize::Base4K.bytes(),
        top32_coverage_ppm: (top32 * 1_000_000).checked_div(total).unwrap_or(0),
    }
}

/// The completed migration's summary.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct MigrationReport {
    /// Event-mapped counters.
    pub stats: MigrationStats,
    /// Pre-copy rounds run.
    pub(crate) rounds: u32,
    /// Page records acknowledged (a hot page recurs once per round it was
    /// dirtied in).
    pub pages_sent: u64,
    /// Unique guest pages the destination actually backed.
    pub(crate) unique_pages: u64,
    /// Stop-and-copy downtime, simulated ns.
    pub(crate) downtime_ns: u64,
    /// Whole-migration simulated time on the session clock.
    pub(crate) total_ns: u64,
    /// Source contiguity fingerprint, captured at migration start.
    pub(crate) source_profile: ContigProfile,
    /// Destination fingerprint after cutover — diff against
    /// `source_profile` for the degradation result.
    pub(crate) dest_profile: ContigProfile,
}

// ---------------------------------------------------------------------------
// Destination.
// ---------------------------------------------------------------------------

/// The destination side of a migration: a shell VM whose host pre-backs
/// transferred pages and whose guest dimension stays empty until cutover.
#[derive(Debug)]
pub struct MigrationTarget {
    vm: VirtualMachine,
    applied_pages: u64,
    cut_over: bool,
}

/// What [`MigrationTarget::release`] freed during rollback.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct ReleaseReport {
    /// Host frames freed by tearing down the VM memory region.
    pub freed_frames: u64,
    /// Whether the destination host ended fully free — the rollback
    /// invariant (`false` would mean migration leaked destination memory).
    pub fully_free: bool,
}

impl MigrationTarget {
    /// Boots an empty destination VM. For a faithful migration the config
    /// and policies must match the source's (the guest machine size *must*
    /// match, or cutover state would not fit).
    pub fn new(
        config: VmConfig,
        guest_policy: Box<dyn PlacementPolicy>,
        host_policy: Box<dyn PlacementPolicy>,
    ) -> Self {
        Self {
            vm: VirtualMachine::new(config, guest_policy, host_policy),
            applied_pages: 0,
            cut_over: false,
        }
    }

    /// The destination VM (host backing grows as chunks apply; guest empty
    /// until cutover).
    pub(crate) fn vm(&self) -> &VirtualMachine {
        &self.vm
    }

    /// Unique guest pages backed so far.
    pub(crate) fn applied_pages(&self) -> u64 {
        self.applied_pages
    }

    /// Whether cutover has installed the guest state.
    pub fn is_cut_over(&self) -> bool {
        self.cut_over
    }

    /// Takes the destination VM after cutover.
    ///
    /// # Panics
    ///
    /// Panics if cutover has not happened — an incomplete destination must
    /// be [`MigrationTarget::release`]d instead.
    pub fn into_vm(self) -> VirtualMachine {
        assert!(self.cut_over, "destination not cut over; release() it instead");
        self.vm
    }

    /// Rolls the destination back: tears down the VM memory region,
    /// returning every pre-backed frame to the destination host. Consumes
    /// the target — after an abort nothing of the migration survives on the
    /// destination.
    pub fn release(mut self) -> ReleaseReport {
        let machine = self.vm.host().machine();
        let free_before = machine.free_frames();
        let total = machine.total_frames();
        let pid = self.vm.host_pid();
        self.vm.host_mut().exit(pid);
        self.vm.host_mut().drain_pcp();
        let free_after = self.vm.host().machine().free_frames();
        ReleaseReport {
            freed_frames: free_after - free_before,
            fully_free: free_after == total,
        }
    }

    /// Applies one page chunk idempotently; returns pages newly backed.
    fn apply_pages(&mut self, gframes: &[u64]) -> Result<(), FaultError> {
        for &g in gframes {
            let gpa = PhysAddr::new(g * PageSize::Base4K.bytes());
            if self.vm.back_gpa(gpa, PageSize::Base4K.bytes())? {
                self.applied_pages += 1;
            }
        }
        Ok(())
    }

    /// Installs the guest state (idempotent: re-applying the same snapshot
    /// after a lost ack reproduces the same guest).
    fn apply_guest_state(&mut self, snap: &SystemSnapshot) {
        self.vm.restore_guest(snap);
        self.cut_over = true;
    }
}

// ---------------------------------------------------------------------------
// The session state machine.
// ---------------------------------------------------------------------------

#[derive(Clone, Copy, Debug, PartialEq, Eq)]
enum Phase {
    PreCopy,
    StopCopy,
    Done,
    Aborted,
}

/// A resumable migration in progress.
///
/// `run` drives the whole state machine; on a resumable error the session
/// keeps the last acknowledged position (round, remaining pages, dirty-log
/// epoch) and a second `run` on a fresh transport continues from exactly
/// there. The session owns a simulated clock, separate from either host's:
/// wire latency, stalls, backoff sleeps, and retransmission timers all
/// accumulate there, never perturbing VM state.
pub struct MigrationSession {
    tracer: Tracer,
    stats: MigrationStats,
    phase: Phase,
    started: bool,
    interrupted: bool,
    round: u32,
    pending: Vec<u64>,
    hook_pending: bool,
    next_seq: u64,
    clock_ns: u64,
    phase_start_ns: u64,
    downtime_start_ns: u64,
    backoff_rng: u64,
    pages_sent: u64,
    source_profile: ContigProfile,
}

impl MigrationSession {
    /// A fresh session, emitting `migrate.*` events to `tracer` (pass
    /// [`Tracer::disabled`] for an untraced migration).
    pub fn new(tracer: Tracer) -> Self {
        Self {
            backoff_rng: BACKOFF_SEED,
            tracer,
            stats: MigrationStats::default(),
            phase: Phase::PreCopy,
            started: false,
            interrupted: false,
            round: 0,
            pending: Vec::new(),
            hook_pending: false,
            next_seq: 0,
            clock_ns: 0,
            phase_start_ns: 0,
            downtime_start_ns: 0,
            pages_sent: 0,
            source_profile: ContigProfile::default(),
        }
    }

    /// The counters so far (valid mid-flight, after errors, and after
    /// abort).
    pub fn stats(&self) -> &MigrationStats {
        &self.stats
    }

    /// Drives the migration to cutover, resuming from the checkpoint if a
    /// previous `run` failed with a resumable error.
    ///
    /// `guest_work` models the still-running source guest: it is invoked
    /// exactly once per pre-copy round (with the round number), *before*
    /// that round's pages are streamed, and never during stop-and-copy.
    /// Pinning guest execution to round boundaries is what makes a resumed
    /// migration bit-identical to an uninterrupted one: whichever chunks a
    /// fault interrupts, the sequence of guest steps and harvested dirty
    /// sets is the same.
    ///
    /// # Errors
    ///
    /// Resumable: [`MigrationError::Disconnected`],
    /// [`MigrationError::RetriesExhausted`],
    /// [`MigrationError::PhaseTimeout`]. Terminal:
    /// [`MigrationError::Fault`], [`MigrationError::Codec`],
    /// [`MigrationError::NotResumable`].
    pub fn run(
        &mut self,
        src: &mut VirtualMachine,
        dst: &mut MigrationTarget,
        transport: &mut dyn Transport,
        codec: &dyn GuestStateCodec,
        mut guest_work: impl FnMut(&mut VirtualMachine, u32),
    ) -> Result<MigrationReport, MigrationError> {
        match self.phase {
            Phase::Done | Phase::Aborted => return Err(MigrationError::NotResumable),
            Phase::PreCopy | Phase::StopCopy => {}
        }
        if !self.started {
            self.started = true;
            src.guest_mut().enable_dirty_log();
            self.pending = src.backed_gframes();
            self.hook_pending = true;
            self.source_profile = contig_profile(src);
        } else if self.interrupted {
            self.interrupted = false;
            self.stats.resumes += 1;
            self.tracer.emit(TraceEvent::MigrateResume { round: self.round });
        }
        self.phase_start_ns = self.clock_ns;
        let result = self.drive(src, dst, transport, codec, &mut guest_work);
        if let Err(e) = &result {
            if e.is_resumable() {
                self.interrupted = true;
            }
        }
        result
    }

    fn drive(
        &mut self,
        src: &mut VirtualMachine,
        dst: &mut MigrationTarget,
        transport: &mut dyn Transport,
        codec: &dyn GuestStateCodec,
        guest_work: &mut impl FnMut(&mut VirtualMachine, u32),
    ) -> Result<MigrationReport, MigrationError> {
        loop {
            match self.phase {
                Phase::PreCopy => {
                    if self.hook_pending {
                        guest_work(src, self.round);
                        self.hook_pending = false;
                    }
                    self.send_pending(dst, transport, codec)?;
                    let dirty = src.guest_mut().take_dirty_frames();
                    self.stats.rounds += 1;
                    self.tracer.emit(TraceEvent::MigrateRound {
                        round: self.round,
                        dirty: dirty.len() as u64,
                    });
                    let converged = dirty.len() as u64 <= STOP_COPY_PAGES
                        || self.round + 1 >= MAX_ROUNDS;
                    self.pending = dirty;
                    if converged {
                        self.phase = Phase::StopCopy;
                        self.downtime_start_ns = self.clock_ns;
                    } else {
                        self.round += 1;
                        self.hook_pending = true;
                    }
                    self.phase_start_ns = self.clock_ns;
                }
                Phase::StopCopy => {
                    // Source paused: no guest work; drain the final dirty
                    // set, then ship the guest state itself.
                    self.send_pending(dst, transport, codec)?;
                    let state = codec.encode(&src.guest().snapshot());
                    self.send_chunk(FRAME_KIND_STATE, &state, 0, dst, transport, codec)?;
                    src.guest_mut().disable_dirty_log();
                    let downtime_ns = self.clock_ns - self.downtime_start_ns;
                    self.stats.cutovers += 1;
                    self.tracer.emit(TraceEvent::MigrateCutover {
                        rounds: self.round,
                        pages: dst.applied_pages(),
                        downtime_ns,
                    });
                    self.phase = Phase::Done;
                    return Ok(MigrationReport {
                        stats: self.stats,
                        rounds: self.round,
                        pages_sent: self.pages_sent,
                        unique_pages: dst.applied_pages(),
                        downtime_ns,
                        total_ns: self.clock_ns,
                        source_profile: self.source_profile,
                        dest_profile: contig_profile(dst.vm()),
                    });
                }
                Phase::Done | Phase::Aborted => unreachable!("drive past terminal phase"),
            }
        }
    }

    /// Abandons the migration: the source keeps running (dirty logging is
    /// switched off), and the caller must [`MigrationTarget::release`] the
    /// destination. Idempotent once aborted; a no-op on a `Done` session.
    pub fn abort(&mut self, src: &mut VirtualMachine) {
        if matches!(self.phase, Phase::Done | Phase::Aborted) {
            return;
        }
        src.guest_mut().disable_dirty_log();
        self.stats.aborts += 1;
        self.tracer.emit(TraceEvent::MigrateAbort { round: self.round });
        self.phase = Phase::Aborted;
    }

    /// Streams `self.pending` as page chunks, draining it as acks land.
    fn send_pending(
        &mut self,
        dst: &mut MigrationTarget,
        transport: &mut dyn Transport,
        codec: &dyn GuestStateCodec,
    ) -> Result<(), MigrationError> {
        while !self.pending.is_empty() {
            let n = self.pending.len().min(CHUNK_PAGES);
            let payload = encode_pages(&self.pending[..n]);
            self.send_chunk(FRAME_KIND_PAGES, &payload, n as u64, dst, transport, codec)?;
            self.pending.drain(..n);
            self.pages_sent += n as u64;
        }
        Ok(())
    }

    /// Stop-and-wait delivery of one chunk: transmit, let the destination
    /// apply and acknowledge, retry under backoff on any loss, and fail the
    /// attempt on timeout, retry exhaustion, or disconnect.
    fn send_chunk(
        &mut self,
        kind: u8,
        payload: &[u8],
        pages: u64,
        dst: &mut MigrationTarget,
        transport: &mut dyn Transport,
        codec: &dyn GuestStateCodec,
    ) -> Result<(), MigrationError> {
        let seq = self.next_seq;
        self.next_seq += 1;
        let frame = encode_frame(kind, self.round, seq, payload);
        let mut attempt: u32 = 0;
        loop {
            if self.clock_ns - self.phase_start_ns > PHASE_TIMEOUT_NS {
                self.stats.timeouts += 1;
                self.tracer.emit(TraceEvent::MigrateTimeout { round: self.round });
                return Err(MigrationError::PhaseTimeout { round: self.round });
            }
            if attempt > 0 {
                if attempt > MAX_RETRIES {
                    return Err(MigrationError::RetriesExhausted { round: self.round, seq });
                }
                let backoff_ns = self.backoff(attempt);
                self.stats.retries += 1;
                self.tracer.emit(TraceEvent::MigrateRetry { seq, attempt, backoff_ns });
            }
            self.stats.chunks_sent += 1;
            self.tracer
                .emit(TraceEvent::MigrateChunkSent { seq, round: self.round, pages });
            let delivery = match transport.send(&frame) {
                Err(TransportClosed) => return self.disconnected(),
                Ok(d) => d,
            };
            let received = match delivery {
                Delivery::Dropped => {
                    self.clock_ns += ACK_TIMEOUT_NS;
                    self.stats.chunks_dropped += 1;
                    self.tracer.emit(TraceEvent::MigrateChunkDropped { seq });
                    attempt += 1;
                    continue;
                }
                Delivery::Delivered { frame, delay_ns, stalled } => {
                    self.clock_ns += delay_ns;
                    if let Some(ns) = stalled {
                        self.stats.stalls += 1;
                        self.tracer.emit(TraceEvent::MigrateStall { ns });
                    }
                    frame
                }
            };
            // Destination side: digest-verify, apply, acknowledge.
            let applied = match decode_frame(&received) {
                None => {
                    self.stats.chunks_rejected += 1;
                    self.tracer.emit(TraceEvent::MigrateChunkRejected { seq });
                    attempt += 1;
                    continue;
                }
                Some(f) => f,
            };
            match applied.kind {
                FRAME_KIND_PAGES => {
                    let frames = match decode_pages(&applied.payload) {
                        Some(v) => v,
                        None => {
                            self.stats.chunks_rejected += 1;
                            self.tracer.emit(TraceEvent::MigrateChunkRejected { seq });
                            attempt += 1;
                            continue;
                        }
                    };
                    dst.apply_pages(&frames).map_err(MigrationError::Fault)?;
                }
                FRAME_KIND_STATE => {
                    let snap =
                        codec.decode(&applied.payload).map_err(MigrationError::Codec)?;
                    dst.apply_guest_state(&snap);
                }
                _ => {
                    self.stats.chunks_rejected += 1;
                    self.tracer.emit(TraceEvent::MigrateChunkRejected { seq });
                    attempt += 1;
                    continue;
                }
            }
            // The acknowledgment rides the same lossy wire back.
            let ack = encode_frame(FRAME_KIND_ACK, self.round, applied.seq, &[]);
            let ack_delivery = match transport.send(&ack) {
                Err(TransportClosed) => return self.disconnected(),
                Ok(d) => d,
            };
            let ack_bytes = match ack_delivery {
                Delivery::Dropped => {
                    self.clock_ns += ACK_TIMEOUT_NS;
                    self.stats.acks_lost += 1;
                    self.tracer.emit(TraceEvent::MigrateAckLost { seq });
                    attempt += 1;
                    continue;
                }
                Delivery::Delivered { frame, delay_ns, stalled } => {
                    self.clock_ns += delay_ns;
                    if let Some(ns) = stalled {
                        self.stats.stalls += 1;
                        self.tracer.emit(TraceEvent::MigrateStall { ns });
                    }
                    frame
                }
            };
            match decode_frame(&ack_bytes) {
                Some(a) if a.kind == FRAME_KIND_ACK && a.seq == seq => {
                    self.stats.chunks_acked += 1;
                    self.tracer.emit(TraceEvent::MigrateChunkAcked { seq });
                    return Ok(());
                }
                _ => {
                    self.stats.acks_lost += 1;
                    self.tracer.emit(TraceEvent::MigrateAckLost { seq });
                    attempt += 1;
                }
            }
        }
    }

    fn disconnected(&mut self) -> Result<(), MigrationError> {
        self.stats.disconnects += 1;
        self.tracer.emit(TraceEvent::MigrateDisconnect { round: self.round });
        Err(MigrationError::Disconnected { round: self.round })
    }

    /// [`jittered_backoff`] on the session clock, with its own seed so the
    /// stream is independent of host recovery activity.
    fn backoff(&mut self, attempt: u32) -> u64 {
        let k = u64::from(attempt.saturating_sub(1));
        let ns = jittered_backoff(BACKOFF_BASE_NS, BACKOFF_CAP_NS, k, 20, &mut self.backoff_rng);
        self.clock_ns += ns;
        ns
    }
}

// ---------------------------------------------------------------------------
// One-call driver with bounded resume.
// ---------------------------------------------------------------------------

/// Terminal result of [`migrate_with_retries`].
#[derive(Debug)]
pub enum MigrationOutcome {
    /// Cutover completed; `vm` is the destination, serving the guest.
    Completed {
        /// The migration summary.
        report: MigrationReport,
        /// The destination VM, post-cutover.
        vm: Box<VirtualMachine>,
    },
    /// All attempts failed; the destination was rolled back and the source
    /// keeps running.
    Aborted {
        /// The error that exhausted the attempt budget (or was terminal).
        error: MigrationError,
        /// Counters accumulated across every attempt, including the abort.
        stats: MigrationStats,
        /// What the destination rollback freed.
        release: ReleaseReport,
    },
}

/// Runs a migration end to end with bounded checkpointed resume: up to
/// `max_attempts` calls of [`MigrationSession::run`], each on a fresh
/// transport from `make_transport(attempt)`, escalating to abort-and-
/// rollback when the budget is exhausted or the error is terminal.
#[allow(clippy::too_many_arguments)] // the protocol's natural arity: every
// parameter is a distinct, caller-owned concern (endpoints, codec, wire
// factory, guest hook, budget, tracer); bundling them would only rename it.
pub fn migrate_with_retries(
    _cfg: MigrationConfig,
    src: &mut VirtualMachine,
    mut target: MigrationTarget,
    codec: &dyn GuestStateCodec,
    mut make_transport: impl FnMut(u32) -> Box<dyn Transport>,
    mut guest_work: impl FnMut(&mut VirtualMachine, u32),
    max_attempts: u32,
    tracer: Tracer,
) -> MigrationOutcome {
    let mut session = MigrationSession::new(tracer);
    let mut attempt = 0;
    loop {
        let mut transport = make_transport(attempt);
        match session.run(src, &mut target, &mut *transport, codec, &mut guest_work) {
            Ok(report) => {
                return MigrationOutcome::Completed { report, vm: Box::new(target.into_vm()) }
            }
            Err(error) => {
                attempt += 1;
                if error.is_resumable() && attempt < max_attempts {
                    continue;
                }
                session.abort(src);
                let stats = *session.stats();
                let release = target.release();
                return MigrationOutcome::Aborted { error, stats, release };
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use contig_mm::{DefaultThpPolicy, VmaKind};
    use contig_types::{splitmix64, TransportMode, VirtAddr, VirtRange};
    use std::cell::RefCell;
    use std::rc::Rc;

    /// Test codec: parks snapshots in process-local storage and sends an
    /// index over the wire. Corruption of the index is still caught by the
    /// frame digest, so the lossy-path behaviour is identical to a real
    /// serializer.
    #[derive(Clone, Default)]
    struct ParkedCodec {
        store: Rc<RefCell<Vec<SystemSnapshot>>>,
    }

    impl GuestStateCodec for ParkedCodec {
        fn encode(&self, snap: &SystemSnapshot) -> Vec<u8> {
            let mut store = self.store.borrow_mut();
            store.push(snap.clone());
            ((store.len() - 1) as u64).to_le_bytes().to_vec()
        }

        fn decode(&self, bytes: &[u8]) -> Result<SystemSnapshot, String> {
            let idx = u64::from_le_bytes(
                bytes.try_into().map_err(|_| "bad index".to_string())?,
            ) as usize;
            self.store
                .borrow()
                .get(idx)
                .cloned()
                .ok_or_else(|| "unknown index".to_string())
        }
    }

    fn source_vm() -> VirtualMachine {
        let mut vm = VirtualMachine::new(
            VmConfig::with_mib(16, 32),
            Box::new(DefaultThpPolicy),
            Box::new(DefaultThpPolicy),
        );
        let pid = vm.guest_mut().spawn();
        vm.guest_mut()
            .aspace_mut(pid)
            .map_vma(VirtRange::new(VirtAddr::new(0x40_0000), 8 << 20), VmaKind::Anon);
        for i in 0..16u64 {
            vm.touch(pid, VirtAddr::new(0x40_0000 + i * 0x8_0000)).unwrap();
        }
        vm
    }

    fn target_for(_vm: &VirtualMachine) -> MigrationTarget {
        MigrationTarget::new(
            VmConfig::with_mib(16, 32),
            Box::new(DefaultThpPolicy),
            Box::new(DefaultThpPolicy),
        )
    }

    fn writer(seed: u64) -> impl FnMut(&mut VirtualMachine, u32) {
        move |vm: &mut VirtualMachine, round: u32| {
            let pid = vm.guest().pids()[0];
            let mut rng = seed ^ (u64::from(round) << 32) ^ 0x9E37_79B9;
            for _ in 0..8 {
                let off = splitmix64(&mut rng) % (8 << 20);
                let va = VirtAddr::new(0x40_0000 + off).align_down(PageSize::Base4K);
                vm.touch_write(pid, va).unwrap();
            }
        }
    }

    #[test]
    fn frame_codec_roundtrips_and_rejects_corruption() {
        let frame = encode_frame(FRAME_KIND_PAGES, 3, 42, &encode_pages(&[1, 2, 77]));
        let f = decode_frame(&frame).expect("clean frame decodes");
        assert_eq!((f.kind, f.round, f.seq), (FRAME_KIND_PAGES, 3, 42));
        assert_eq!(decode_pages(&f.payload).unwrap(), vec![1, 2, 77]);
        for i in 0..frame.len() {
            let mut bad = frame.clone();
            bad[i] ^= 0x40;
            assert!(decode_frame(&bad).is_none(), "flip at {i} must be caught");
        }
        assert!(decode_frame(&frame[..10]).is_none(), "truncation caught");
        // A 29-byte frame that vouches for itself — digest recomputed — with
        // a length no frame can have: refused, not added to the header size.
        let mut huge = encode_frame(FRAME_KIND_ACK, 0, 0, &[]);
        huge[13..21].copy_from_slice(&u64::MAX.to_le_bytes());
        let digest = fnv1a64(&huge[..FRAME_HEADER]);
        huge[FRAME_HEADER..].copy_from_slice(&digest.to_le_bytes());
        assert!(decode_frame(&huge).is_none(), "u64::MAX length caught");
        // A well-framed chunk whose top payload byte makes a frame number
        // wider than 52 bits: refused, as a mis-sized payload is.
        let mut wide = encode_pages(&[1, 2, 77]);
        wide[15] = 0x10;
        let f = decode_frame(&encode_frame(FRAME_KIND_PAGES, 3, 42, &wide)).expect("framing ok");
        assert!(decode_pages(&f.payload).is_none(), "unpackable guest frame caught");
        assert!(decode_pages(&f.payload[..7]).is_none(), "mis-sized payload caught");
    }

    #[test]
    fn reliable_migration_cuts_over_with_identical_guest() {
        let mut src = source_vm();
        let codec = ParkedCodec::default();
        let guest_before = src.guest().snapshot();
        let mut dst = target_for(&src);
        let mut session = MigrationSession::new(Tracer::disabled());
        let mut transport = LoopbackTransport::reliable();
        let report = session
            .run(&mut src, &mut dst, &mut transport, &codec, |_, _| {})
            .expect("reliable migration completes");
        assert_eq!(report.stats.cutovers, 1);
        assert_eq!(report.stats.chunks_sent, report.stats.chunks_acked);
        assert_eq!(report.stats.retries, 0);
        assert!(report.unique_pages > 0);
        assert!(!src.guest().dirty_log_enabled(), "log off after cutover");
        let vm = dst.into_vm();
        assert_eq!(vm.guest().snapshot(), guest_before, "no writes: state carried verbatim");
        // The destination serves guest faults.
        let mut vm = vm;
        let pid = vm.guest().pids()[0];
        vm.touch(pid, VirtAddr::new(0x40_0000)).unwrap();
    }

    #[test]
    fn dirty_rounds_converge_under_guest_writes() {
        let mut src = source_vm();
        let codec = ParkedCodec::default();
        let mut dst = target_for(&src);
        let mut session = MigrationSession::new(Tracer::disabled());
        let mut transport = LoopbackTransport::reliable();
        let report = session
            .run(&mut src, &mut dst, &mut transport, &codec, writer(7))
            .expect("converges");
        assert!(report.stats.rounds >= 1);
        assert!(report.downtime_ns > 0);
        assert!(report.downtime_ns < report.total_ns);
        assert!(dst.is_cut_over());
    }

    #[test]
    fn lossy_migration_retries_and_matches_reliable_destination() {
        // Baseline: uninterrupted, reliable.
        let src0 = source_vm();
        let codec = ParkedCodec::default();
        let mut src_a = source_vm();
        let mut dst_a = target_for(&src_a);
        let mut s_a = MigrationSession::new(Tracer::disabled());
        s_a.run(&mut src_a, &mut dst_a, &mut LoopbackTransport::reliable(), &codec, writer(3))
            .expect("baseline");
        // Lossy, with no disconnects, at rates the retry and phase budgets
        // absorb: must still complete.
        let mut src_b = src0;
        let mut dst_b = target_for(&src_b);
        let mut s_b = MigrationSession::new(Tracer::disabled());
        let mut lossy = LoopbackTransport::new(TransportPolicy::new(TransportMode::Lossy {
            drop_ppm: 80_000,
            corrupt_ppm: 80_000,
            stall_ppm: 40_000,
            disconnect_ppm: 0,
            seed: 17,
        }));
        let report = s_b
            .run(&mut src_b, &mut dst_b, &mut lossy, &codec, writer(3))
            .expect("lossy migration completes");
        assert!(
            report.stats.retries > 0,
            "storm must have forced retries: {:?}",
            report.stats
        );
        let a = dst_a.into_vm().snapshot();
        let b = dst_b.into_vm().snapshot();
        assert_eq!(a, b, "losses are invisible to the destination image");
    }

    #[test]
    fn disconnect_then_resume_matches_uninterrupted_run() {
        let codec = ParkedCodec::default();
        // Uninterrupted baseline.
        let mut src_a = source_vm();
        let mut dst_a = target_for(&src_a);
        let mut s_a = MigrationSession::new(Tracer::disabled());
        s_a.run(&mut src_a, &mut dst_a, &mut LoopbackTransport::reliable(), &codec, writer(9))
            .expect("baseline");
        // Interrupted at several different frames, then resumed.
        for kill_at in [1u64, 3, 7, 11, 20] {
            let mut src = source_vm();
            let mut dst = target_for(&src);
            let mut session = MigrationSession::new(Tracer::disabled());
            let mut dying = LoopbackTransport::new(TransportPolicy::new(
                TransportMode::FaultNth { n: kill_at, kind: TransportFault::Disconnect },
            ));
            let err = session
                .run(&mut src, &mut dst, &mut dying, &codec, writer(9))
                .expect_err("must disconnect");
            assert!(err.is_resumable(), "{err:?}");
            assert!(src.guest().dirty_log_enabled(), "source still tracking");
            let report = session
                .run(&mut src, &mut dst, &mut LoopbackTransport::reliable(), &codec, writer(9))
                .expect("resume completes");
            assert_eq!(report.stats.resumes, 1);
            assert_eq!(report.stats.disconnects, 1);
            assert_eq!(
                dst.vm().snapshot(),
                dst_a.vm().snapshot(),
                "kill_at={kill_at}: resumed destination must be bit-identical"
            );
        }
    }

    #[test]
    fn abort_rolls_back_destination_and_source_keeps_running() {
        let mut src = source_vm();
        let codec = ParkedCodec::default();
        let src_guest_before = src.guest().snapshot();
        let mut dst = target_for(&src);
        let mut session = MigrationSession::new(Tracer::disabled());
        let mut dying = LoopbackTransport::new(TransportPolicy::new(TransportMode::FaultNth {
            n: 5,
            kind: TransportFault::Disconnect,
        }));
        session
            .run(&mut src, &mut dst, &mut dying, &codec, |_, _| {})
            .expect_err("disconnect");
        session.abort(&mut src);
        assert_eq!(session.stats().aborts, 1);
        assert!(!src.guest().dirty_log_enabled(), "abort stops tracking");
        assert_eq!(src.guest().snapshot(), src_guest_before, "source unperturbed");
        let release = dst.release();
        assert!(release.freed_frames > 0, "pre-backed pages must be returned");
        assert!(release.fully_free, "no destination leak");
        // Source still serves faults after the failed migration.
        let pid = src.guest().pids()[0];
        src.touch_write(pid, VirtAddr::new(0x40_0000)).unwrap();
    }

    #[test]
    fn migrate_with_retries_completes_through_serial_disconnects() {
        let mut src = source_vm();
        let codec = ParkedCodec::default();
        let target = target_for(&src);
        let mut kills = vec![
            TransportMode::FaultNth { n: 2, kind: TransportFault::Disconnect },
            TransportMode::FaultNth { n: 9, kind: TransportFault::Disconnect },
            TransportMode::Reliable,
        ]
        .into_iter();
        let outcome = migrate_with_retries(
            MigrationConfig,
            &mut src,
            target,
            &codec,
            |_| Box::new(LoopbackTransport::new(TransportPolicy::new(kills.next().unwrap()))),
            writer(5),
            5,
            Tracer::disabled(),
        );
        match outcome {
            MigrationOutcome::Completed { report, vm } => {
                assert_eq!(report.stats.resumes, 2);
                assert_eq!(report.stats.disconnects, 2);
                assert!(vm.guest().pids().len() == 1);
            }
            MigrationOutcome::Aborted { error, .. } => panic!("should complete: {error}"),
        }
    }

    #[test]
    fn migrate_with_retries_aborts_when_budget_exhausted() {
        let mut src = source_vm();
        let codec = ParkedCodec::default();
        let target = target_for(&src);
        let outcome = migrate_with_retries(
            MigrationConfig,
            &mut src,
            target,
            &codec,
            |attempt| {
                Box::new(LoopbackTransport::new(TransportPolicy::new(
                    TransportMode::FaultNth {
                        n: u64::from(attempt) + 1,
                        kind: TransportFault::Disconnect,
                    },
                )))
            },
            |_, _| {},
            3,
            Tracer::disabled(),
        );
        match outcome {
            MigrationOutcome::Aborted { error, stats, release } => {
                assert!(error.is_resumable());
                assert_eq!(stats.aborts, 1);
                assert_eq!(stats.disconnects, 3);
                assert_eq!(stats.resumes, 2);
                assert!(release.fully_free);
            }
            MigrationOutcome::Completed { .. } => panic!("budget of 3 must not complete"),
        }
        assert!(!src.guest().dirty_log_enabled());
    }

    #[test]
    fn timeout_fires_under_stall_storms_and_is_resumable() {
        let mut src = source_vm();
        let codec = ParkedCodec::default();
        let mut dst = target_for(&src);
        // The 20 ms phase budget is far above the reliable round cost (~64 µs
        // for a 2048-page round 0) and far below what a 90% storm of
        // up-to-2 ms stalls accumulates over round 0's 32 chunks.
        let mut session = MigrationSession::new(Tracer::disabled());
        let mut stormy = LoopbackTransport::new(TransportPolicy::new(TransportMode::Lossy {
            drop_ppm: 0,
            corrupt_ppm: 0,
            stall_ppm: 900_000,
            disconnect_ppm: 0,
            seed: 23,
        }));
        let err = session
            .run(&mut src, &mut dst, &mut stormy, &codec, |_, _| {})
            .expect_err("stall storm against the 20 ms phase budget");
        assert_eq!(err, MigrationError::PhaseTimeout { round: 0 });
        assert!(session.stats().timeouts == 1);
        let report = session
            .run(&mut src, &mut dst, &mut LoopbackTransport::reliable(), &codec, |_, _| {})
            .expect("resume completes");
        assert_eq!(report.stats.resumes, 1);
    }

    #[test]
    fn stats_match_trace_event_counts_exactly() {
        use contig_trace::TraceSession;
        let mut src = source_vm();
        let codec = ParkedCodec::default();
        let mut dst = target_for(&src);
        let session_trace = TraceSession::ring(1 << 14);
        let mut session = MigrationSession::new(session_trace.tracer());
        let mut lossy = LoopbackTransport::new(TransportPolicy::new(TransportMode::Lossy {
            drop_ppm: 100_000,
            corrupt_ppm: 100_000,
            stall_ppm: 50_000,
            disconnect_ppm: 0,
            seed: 31,
        }));
        let report = session
            .run(&mut src, &mut dst, &mut lossy, &codec, writer(13))
            .expect("completes");
        assert!(report.stats.chunks_dropped > 0 || report.stats.chunks_rejected > 0);
        let metrics = session_trace.metrics();
        for (name, total) in report.stats.as_named() {
            assert_eq!(metrics.counter(name), total, "counter {name}");
        }
    }

    /// The host backing is written straight into the host page table, in
    /// guest-physical pages (gp) and host frames:
    ///
    /// - gp 0..512 is one 2 MiB leaf on frames 0x1000.., and gp 512..515
    ///   three 4 KiB leaves on frames 0x1200..0x1203, which continue it:
    ///   one run of 515 pages, the largest;
    /// - gp 515..519 sits right after it on frames 0x3000..0x3004, a new
    ///   offset: a second run, of 4 pages;
    /// - gp 1024 + 2i on frame 0x4000 + i, for i < 34: the host frames are
    ///   consecutive but the guest pages are not, so 34 one-page runs.
    ///
    /// So `runs` = 36 and `backed_pages` = 515 + 4 + 34 = 553. The 32
    /// largest runs hold 515 + 4 + 30 = 549 pages, and
    /// `top32_coverage_ppm` = ⌊549 · 10⁶ / 553⌋ = 992 766.
    #[test]
    fn contig_profile_measures_runs() {
        let mut vm = VirtualMachine::new(
            VmConfig::with_mib(8, 32),
            Box::new(DefaultThpPolicy),
            Box::new(DefaultThpPolicy),
        );
        let base = vm.host_vma_base();
        let host_pid = vm.host_pid();
        let pt = vm.host_mut().aspace_mut(host_pid).page_table_mut();
        let mut map = |gp: u64, frame: u64, size: PageSize| {
            let pte = Pte::new(contig_types::Pfn::new(frame), contig_mm::PteFlags::WRITE);
            pt.map(base + gp * PageSize::Base4K.bytes(), pte, size);
        };
        map(0, 0x1000, PageSize::Huge2M);
        for i in 0..3 {
            map(512 + i, 0x1200 + i, PageSize::Base4K);
        }
        for i in 0..4 {
            map(515 + i, 0x3000 + i, PageSize::Base4K);
        }
        for i in 0..34 {
            map(1024 + 2 * i, 0x4000 + i, PageSize::Base4K);
        }
        let p = contig_profile(&vm);
        assert_eq!(
            p,
            ContigProfile {
                backed_pages: 553,
                runs: 36,
                largest_run_pages: 515,
                top32_coverage_ppm: 992_766,
            }
        );
        let empty = VirtualMachine::new(
            VmConfig::with_mib(8, 16),
            Box::new(DefaultThpPolicy),
            Box::new(DefaultThpPolicy),
        );
        assert_eq!(contig_profile(&empty), ContigProfile::default());
    }
}
