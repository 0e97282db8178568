//! The event taxonomy: every probe point in the workspace emits one of these
//! variants. Events are small `Copy`-friendly structs of raw integers so the
//! hot paths never allocate; higher-level types (`VirtAddr`, `Pfn`) are
//! lowered to their `u64` representation at the probe site.
//!
//! Each event is declared once, in the `trace_events!` table below: its
//! documentation, wire name, variant and `field: type` list. The enum, the
//! name lookup and both directions of the JSONL field codec are expanded from
//! that one declaration, so they cannot disagree.

use contig_types::json::{Dec, Enc, Json, Sink, Wire};

/// Which translation dimension produced an event in a virtualized run.
///
/// Native runs use [`Dim::None`]; a [`crate::Tracer`] handed to a guest or
/// host `System` by `contig-virt` is tagged so one trace file interleaves
/// both dimensions distinguishably.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq, Hash)]
pub enum Dim {
    /// Native (non-virtualized) execution.
    #[default]
    None,
    /// The guest OS dimension (gVA → gPA).
    Guest,
    /// The host/hypervisor dimension (gPA → hPA).
    Host,
}

impl Dim {
    /// Short tag used in exports (`-`, `guest`, `host`).
    pub(crate) fn as_str(self) -> &'static str {
        match self {
            Dim::None => "-",
            Dim::Guest => "guest",
            Dim::Host => "host",
        }
    }

    /// Parses the export tag back; `None` for an unknown tag.
    pub(crate) fn from_tag(s: &str) -> Option<Self> {
        match s {
            "-" => Some(Dim::None),
            "guest" => Some(Dim::Guest),
            "host" => Some(Dim::Host),
            _ => None,
        }
    }
}

/// The class of page fault being serviced.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub enum FaultClass {
    /// First touch of an anonymous page.
    Anon,
    /// Write fault breaking a copy-on-write share.
    Cow,
    /// Fault on a file-backed VMA served through the page cache.
    File,
}

impl FaultClass {
    /// Export tag.
    pub(crate) fn as_str(self) -> &'static str {
        match self {
            FaultClass::Anon => "anon",
            FaultClass::Cow => "cow",
            FaultClass::File => "file",
        }
    }

    /// Parses the export tag back.
    pub(crate) fn from_tag(s: &str) -> Option<Self> {
        match s {
            "anon" => Some(FaultClass::Anon),
            "cow" => Some(FaultClass::Cow),
            "file" => Some(FaultClass::File),
            _ => None,
        }
    }
}

/// One stage of the out-of-memory recovery escalation. Each variant maps
/// one-to-one onto a `RecoveryStats` counter in `contig-mm`, so the number
/// of `Recovery` events of a stage in a trace equals that counter's total.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub enum RecoveryStage {
    /// An allocation failure entered the escalation.
    OomEvent,
    /// One page-cache reclaim pass (`amount` = pages evicted).
    ReclaimPass,
    /// One compaction pass (`amount` = blocks, `extra` = frames migrated).
    CompactionPass,
    /// The allocation was retried after a stage reported progress.
    Retry,
    /// A huge request degraded to base pages.
    OrderBackoff,
    /// A readahead window shrank to a single page.
    ReadaheadShrink,
    /// The fault ultimately succeeded after at least one recovery round.
    RecoveredFault,
    /// The fault failed even after the full escalation.
    HardOom,
}

impl RecoveryStage {
    /// All stages, in escalation order (useful for report tables).
    pub const ALL: [RecoveryStage; 8] = [
        RecoveryStage::OomEvent,
        RecoveryStage::ReclaimPass,
        RecoveryStage::CompactionPass,
        RecoveryStage::Retry,
        RecoveryStage::OrderBackoff,
        RecoveryStage::ReadaheadShrink,
        RecoveryStage::RecoveredFault,
        RecoveryStage::HardOom,
    ];

    /// The stage's event name, `recovery.<suffix>`.
    pub(crate) fn name(self) -> &'static str {
        match self {
            RecoveryStage::OomEvent => "recovery.oom_event",
            RecoveryStage::ReclaimPass => "recovery.reclaim_pass",
            RecoveryStage::CompactionPass => "recovery.compaction_pass",
            RecoveryStage::Retry => "recovery.retry",
            RecoveryStage::OrderBackoff => "recovery.order_backoff",
            RecoveryStage::ReadaheadShrink => "recovery.readahead_shrink",
            RecoveryStage::RecoveredFault => "recovery.recovered_fault",
            RecoveryStage::HardOom => "recovery.hard_oom",
        }
    }
}

/// One kind of work (or deliberate non-work) performed by the background
/// contiguity-maintenance daemon. Each variant maps one-to-one onto a
/// `DaemonStats` counter in `contig-mm`, so the number of `Daemon` events of
/// a stage in a trace equals that counter's total.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub enum DaemonStage {
    /// One daemon tick ran (budgeted epoch slice).
    Tick,
    /// A maintenance epoch completed (scan cursors wrapped).
    Epoch,
    /// Background compaction migrated one block (`amount` = frames moved).
    CompactMove,
    /// A fully-populated aligned run was promoted to a huge page.
    Promote,
    /// A collapsible window failed at commit time (no free huge block, or
    /// the run changed under the daemon's feet).
    PromoteFail,
    /// One movable block was migrated out of a poisoned neighbourhood
    /// (`amount` = frames moved).
    Repair,
    /// Pressure shed THP-promotion work for this tick.
    ShedPromote,
    /// Deeper pressure shed compaction work too.
    ShedCompact,
    /// The tick was skipped entirely: the daemon is inside a jittered
    /// backoff window after yielding to pressure.
    Backoff,
    /// The watchdog aborted the epoch mid-flight (sustained allocation
    /// vetoes or free memory under the hard floor) and armed a backoff.
    Yield,
    /// The daemon policy was swapped at runtime (`SetDaemonPolicy`).
    Policy,
}

impl DaemonStage {
    /// All stages, in ladder order (useful for report tables).
    pub const ALL: [DaemonStage; 11] = [
        DaemonStage::Tick,
        DaemonStage::Epoch,
        DaemonStage::CompactMove,
        DaemonStage::Promote,
        DaemonStage::PromoteFail,
        DaemonStage::Repair,
        DaemonStage::ShedPromote,
        DaemonStage::ShedCompact,
        DaemonStage::Backoff,
        DaemonStage::Yield,
        DaemonStage::Policy,
    ];

    /// The stage's event name, `daemon.<suffix>`.
    pub(crate) fn name(self) -> &'static str {
        match self {
            DaemonStage::Tick => "daemon.tick",
            DaemonStage::Epoch => "daemon.epoch",
            DaemonStage::CompactMove => "daemon.compact_move",
            DaemonStage::Promote => "daemon.promote",
            DaemonStage::PromoteFail => "daemon.promote_fail",
            DaemonStage::Repair => "daemon.repair",
            DaemonStage::ShedPromote => "daemon.shed_promote",
            DaemonStage::ShedCompact => "daemon.shed_compact",
            DaemonStage::Backoff => "daemon.backoff",
            DaemonStage::Yield => "daemon.yield",
            DaemonStage::Policy => "daemon.policy",
        }
    }
}

impl Wire for FaultClass {
    fn enc<S: Sink>(&self, e: &mut Enc<S>) {
        e.str(self.as_str());
    }
    fn dec(d: &mut Dec<'_>) -> Result<Self, String> {
        let tag = d.str()?;
        FaultClass::from_tag(&tag).ok_or_else(|| format!("unknown fault class `{tag}`"))
    }
}

/// A payload field type: it crosses the JSONL wire as its [`Wire`] impl
/// says, and a test sample of it differs from one `n` to the next.
trait Field: Wire {
    /// The `n`-th sample.
    fn sample(n: u64) -> Self;
}

impl Field for u64 {
    fn sample(n: u64) -> Self {
        // Odd multiplier: distinct per `n`, and most samples need all 64 bits.
        n.wrapping_mul(0x9e37_79b9_7f4a_7c15)
    }
}

impl Field for u32 {
    fn sample(n: u64) -> Self {
        (u64::sample(n) >> 32) as u32
    }
}

impl Field for bool {
    fn sample(n: u64) -> Self {
        n % 2 == 1
    }
}

impl Field for FaultClass {
    fn sample(n: u64) -> Self {
        [FaultClass::Anon, FaultClass::Cow, FaultClass::File][(n % 3) as usize]
    }
}

/// The member name a field has on the wire: its own, unless the table gives
/// another (`seq` is the record's, so a chunk's `seq` travels as `chunk`).
macro_rules! wire_key {
    ($field:ident) => {
        stringify!($field)
    };
    ($field:ident $key:literal) => {
        $key
    };
}

/// The event table. An entry is `docs "wire.name" Variant { docs field: type,
/// … }`; after `staged:` come the events whose name is spelled by their first
/// field, `stage`, which is therefore not a payload member. Expands to
/// [`TraceEvent`], [`TraceEvent::name`], the payload writer and reader the
/// JSONL exporter uses, and [`TraceEvent::samples`].
macro_rules! trace_events {
    (
        $(
            $(#[$doc:meta])*
            $name:literal $variant:ident {
                $( $(#[$fdoc:meta])* $field:ident $(= $key:literal)? : $ty:ty, )*
            },
        )*
        staged:
        $(
            $(#[$sdoc:meta])*
            $svariant:ident {
                $(#[$stage_doc:meta])* stage: $stage:ty,
                $( $(#[$sfdoc:meta])* $sfield:ident : $sty:ty, )*
            },
        )*
    ) => {
        /// A structured trace event. See each variant for the probe site emitting it.
        ///
        /// Event *names* are `subsystem.kind` strings ([`TraceEvent::name`]); the
        /// metrics registry counts emissions under exactly that name, so trace files
        /// and counter totals can be cross-checked event-kind by event-kind.
        #[derive(Clone, Debug, PartialEq)]
        pub enum TraceEvent {
            $( $(#[$doc])* $variant { $( $(#[$fdoc])* $field: $ty, )* }, )*
            $(
                $(#[$sdoc])*
                $svariant {
                    $(#[$stage_doc])* stage: $stage,
                    $( $(#[$sfdoc])* $sfield: $sty, )*
                },
            )*
        }

        impl TraceEvent {
            /// The event's full name, `subsystem.kind`. Stable: exporters, the
            /// metrics registry, and report tables all key on this string.
            pub fn name(&self) -> &'static str {
                match self {
                    $( TraceEvent::$variant { .. } => $name, )*
                    $( TraceEvent::$svariant { stage, .. } => stage.name(), )*
                }
            }

            /// Writes the payload members, in declaration order.
            pub(crate) fn write_fields<S: Sink>(&self, e: &mut Enc<S>) {
                match self {
                    $( TraceEvent::$variant { $( $field, )* } => {
                        $( $field.enc(e.key(wire_key!($field $($key)?))); )*
                    } )*
                    $( TraceEvent::$svariant { stage: _, $( $sfield, )* } => {
                        $( $sfield.enc(e.key(stringify!($sfield))); )*
                    } )*
                }
            }

            /// The event called `name` with its payload members read from
            /// `obj`, and how many payload members it declares.
            pub(crate) fn read(name: &str, obj: &Json) -> Result<(TraceEvent, usize), String> {
                match name {
                    $( $name => Ok((
                        TraceEvent::$variant {
                            $( $field: obj.member(wire_key!($field $($key)?))?, )*
                        },
                        [$( stringify!($field) ),*].len(),
                    )), )*
                    _ => {
                        $( if let Some(stage) = <$stage>::ALL.into_iter().find(|s| s.name() == name) {
                            return Ok((
                                TraceEvent::$svariant {
                                    stage,
                                    $( $sfield: obj.member(stringify!($sfield))?, )*
                                },
                                [$( stringify!($sfield) ),*].len(),
                            ));
                        } )*
                        Err(format!("unknown event `{name}`"))
                    }
                }
            }

            /// One event of every kind — every stage of the staged ones — with
            /// field values that differ from each other, straight from the
            /// event table: what a round-trip test iterates over, so an event
            /// cannot be added without being covered by it.
            pub fn samples() -> Vec<TraceEvent> {
                let mut n = 0;
                let mut next = || {
                    n += 1;
                    n
                };
                let mut all = vec![
                    $( TraceEvent::$variant { $( $field: Field::sample(next()), )* }, )*
                ];
                $( all.extend(<$stage>::ALL.into_iter().map(|stage| TraceEvent::$svariant {
                    stage,
                    $( $sfield: Field::sample(next()), )*
                })); )*
                all
            }
        }
    };
}

trace_events! {
    /// `buddy.alloc` — an untargeted buddy allocation succeeded.
    "buddy.alloc" Alloc {
        /// Buddy order allocated.
        order: u32,
        /// Head frame of the block.
        pfn: u64,
    },
    /// `buddy.alloc_failed` — an untargeted allocation found no free block.
    "buddy.alloc_failed" AllocFailed {
        /// Buddy order requested.
        order: u32,
    },
    /// `buddy.targeted_alloc` — a CA-paging targeted allocation claimed its
    /// exact frame.
    "buddy.targeted_alloc" TargetedAlloc {
        /// Frame claimed.
        target: u64,
        /// Buddy order claimed.
        order: u32,
    },
    /// `buddy.targeted_miss` — the targeted frame was busy.
    "buddy.targeted_miss" TargetedMiss {
        /// Frame that was busy.
        target: u64,
        /// Buddy order requested.
        order: u32,
    },
    /// `buddy.free` — a block returned to the free lists.
    "buddy.free" Free {
        /// Head frame freed.
        pfn: u64,
        /// Buddy order freed.
        order: u32,
    },
    /// `inject.failure` — the installed `FailPolicy` vetoed an allocation
    /// attempt before the allocator looked at its free lists.
    "inject.failure" InjectedFailure {
        /// Buddy order of the vetoed attempt.
        order: u32,
        /// Whether the attempt was a targeted (`alloc_specific`) one.
        targeted: bool,
    },
    /// `mm.fault_enter` — the fault driver started servicing a fault.
    "mm.fault_enter" FaultEnter {
        /// Faulting process.
        pid: u32,
        /// Faulting virtual address.
        va: u64,
        /// Fault class.
        class: FaultClass,
    },
    /// `mm.fault_exit` — the fault completed successfully.
    "mm.fault_exit" FaultExit {
        /// Faulting process.
        pid: u32,
        /// Faulting virtual address.
        va: u64,
        /// Buddy order of the page actually mapped (0 after THP fallback).
        order: u32,
        /// Simulated nanoseconds the fault consumed, recovery included.
        latency_ns: u64,
    },
    /// `mm.fault_failed` — the fault surfaced a typed error.
    "mm.fault_failed" FaultFailed {
        /// Faulting process.
        pid: u32,
        /// Faulting virtual address.
        va: u64,
    },
    /// `mm.cow_break` — a copy-on-write share was broken by a private copy.
    "mm.cow_break" CowBreak {
        /// Writing process.
        pid: u32,
        /// Written virtual address.
        va: u64,
    },
    /// `mm.readahead` — a file fault populated a readahead window.
    "mm.readahead" Readahead {
        /// File identifier.
        file: u64,
        /// First file page index of the window.
        index: u64,
        /// Window length in pages (1 after pressure shrinks).
        pages: u64,
    },
    /// `mm.zone_fallback` — a home-node allocation spilled to another
    /// NUMA node (the home zone was exhausted).
    "mm.zone_fallback" ZoneFallback {
        /// The faulting process's home node.
        home: u64,
        /// The node the frame actually came from.
        got: u64,
        /// Buddy order of the allocation that spilled.
        order: u32,
    },
    /// `ca.placement` — CA paging ran a placement decision over the
    /// contiguity map.
    "ca.placement" Placement {
        /// Contiguity ambition of the search, bytes.
        key_bytes: u64,
        /// Frame the decision targets for the current fault.
        target: u64,
        /// Whether pressure degraded the ambition below the remaining VMA.
        degraded: bool,
    },
    /// `ca.target_busy` — a targeted frame was busy; CA backs off or
    /// re-places.
    "ca.target_busy" TargetBusy {
        /// The busy frame.
        target: u64,
    },
    /// `ca.contig_run` — contiguity achieved: the run containing the mapped
    /// page crossed the marking threshold.
    "ca.contig_run" ContigRun {
        /// Run length in base pages.
        pages: u64,
    },
    /// `virt.nested_fault` — the hypervisor backed a guest-physical range
    /// with host memory (one nested-fault span).
    "virt.nested_fault" NestedFault {
        /// Guest virtual address that triggered the backing.
        gva: u64,
        /// First guest-physical address backed.
        gpa: u64,
        /// Length of the backed range, bytes.
        bytes: u64,
        /// Host simulated nanoseconds consumed by the backing faults.
        latency_ns: u64,
    },
    /// `tlb.miss` — a last-level TLB miss walked the page table(s).
    "tlb.miss" TlbMiss {
        /// Referenced virtual address.
        va: u64,
        /// Walker memory references.
        refs: u32,
        /// Walk cycles under the cost model (Table IV units).
        cycles: u64,
    },
    /// `poison.event` — a memory-failure strike marked a frame poisoned
    /// (the moment the simulated ECC error is reported).
    "poison.event" PoisonEvent {
        /// The stricken frame.
        pfn: u64,
    },
    /// `poison.quarantine` — the buddy allocator pulled a poisoned frame out
    /// of circulation: carved from the free lists, evicted from a pcp cache,
    /// or diverted at free/drain time. One event per frame entering the
    /// per-zone badframe list.
    "poison.quarantine" PoisonQuarantine {
        /// The quarantined frame.
        pfn: u64,
    },
    /// `poison.heal` — migrate-and-heal succeeded: the mapping moved to a
    /// healthy replacement frame and the poisoned one went to quarantine.
    "poison.heal" PoisonHeal {
        /// The poisoned frame that was vacated.
        pfn: u64,
        /// Head frame of the replacement block.
        replacement: u64,
        /// Frames copied (1 for a base page, 512 for a huge page).
        frames: u64,
    },
    /// `poison.heal_failed` — migration could not relocate the mapping
    /// (no replacement block after bounded retries, or the page is
    /// unrecoverable); the mapping was torn down instead.
    "poison.heal_failed" PoisonHealFailed {
        /// The poisoned frame.
        pfn: u64,
    },
    /// `poison.sigbus` — an unrecoverable poisoned mapping was torn down and
    /// the SIGBUS-equivalent `MemoryFailure` error delivered. One event per
    /// `(process, page)` victim.
    "poison.sigbus" PoisonSigbus {
        /// Process that lost the mapping.
        pid: u32,
        /// Virtual address of the lost page.
        va: u64,
        /// The poisoned frame.
        pfn: u64,
    },
    /// `poison.soft_offline` — a suspect frame was proactively drained
    /// without declaring it failed.
    "poison.soft_offline" PoisonSoftOffline {
        /// The drained frame.
        pfn: u64,
        /// Whether a live mapping had to be migrated (false when the frame
        /// was free or cached).
        migrated: bool,
    },
    /// `poison.guest_mce` — a host-frame poison event resolved through the
    /// nested mapping and was surfaced to the guest as a machine-check at
    /// the guest address.
    "poison.guest_mce" PoisonGuestMce {
        /// Guest process that saw the MCE.
        pid: u32,
        /// Guest virtual address the MCE was delivered at.
        va: u64,
        /// Guest-physical address whose host backing was poisoned.
        gpa: u64,
    },
    /// `migrate.chunk_sent` — a migration data chunk went onto the wire
    /// (counted per transmission attempt, so retries re-emit).
    "migrate.chunk_sent" MigrateChunkSent {
        /// Chunk sequence number, unique per migration.
        seq = "chunk": u64,
        /// Pre-copy round the chunk belongs to (`u32::MAX` pseudo-rounds are
        /// never emitted; stop-and-copy uses the final round number).
        round: u32,
        /// Guest-frame records in the chunk (0 for the guest-state chunk).
        pages: u64,
    },
    /// `migrate.chunk_acked` — the destination acknowledged a chunk and the
    /// acknowledgment made it back to the source.
    "migrate.chunk_acked" MigrateChunkAcked {
        /// Acknowledged chunk sequence number.
        seq = "chunk": u64,
    },
    /// `migrate.chunk_rejected` — a chunk arrived but failed its FNV-1a-64
    /// digest (injected corruption); the destination discarded it.
    "migrate.chunk_rejected" MigrateChunkRejected {
        /// Rejected chunk sequence number (`u64::MAX` when the frame was too
        /// mangled to parse a sequence number out of).
        seq = "chunk": u64,
    },
    /// `migrate.chunk_dropped` — the transport silently swallowed a data
    /// chunk; the source times it out and retries.
    "migrate.chunk_dropped" MigrateChunkDropped {
        /// Dropped chunk sequence number.
        seq = "chunk": u64,
    },
    /// `migrate.ack_lost` — the destination applied a chunk but its
    /// acknowledgment was dropped or mangled in flight; the source must
    /// retransmit and the destination must re-apply idempotently.
    "migrate.ack_lost" MigrateAckLost {
        /// Sequence number whose acknowledgment was lost.
        seq = "chunk": u64,
    },
    /// `migrate.retry` — the source re-queued a chunk after a lost frame,
    /// paying the jittered exponential backoff.
    "migrate.retry" MigrateRetry {
        /// Retried chunk sequence number.
        seq = "chunk": u64,
        /// Retry attempt, counting from 1.
        attempt: u32,
        /// Backoff the sender's clock paid before this attempt, ns.
        backoff_ns: u64,
    },
    /// `migrate.stall` — the transport delivered a frame late; the sender's
    /// clock paid the injected delay.
    "migrate.stall" MigrateStall {
        /// Injected delay beyond base latency, ns.
        ns: u64,
    },
    /// `migrate.round` — a pre-copy round fully acknowledged.
    "migrate.round" MigrateRound {
        /// The completed round, counting from 0.
        round: u32,
        /// Dirty pages discovered for the next round.
        dirty: u64,
    },
    /// `migrate.timeout` — a phase blew its time budget; the migration
    /// errored out (resumable).
    "migrate.timeout" MigrateTimeout {
        /// Round the timeout hit.
        round: u32,
    },
    /// `migrate.disconnect` — the transport closed mid-migration; the
    /// migration errored out (resumable on a fresh transport).
    "migrate.disconnect" MigrateDisconnect {
        /// Round the disconnect hit.
        round: u32,
    },
    /// `migrate.resume` — a checkpointed migration picked up again from its
    /// last acknowledged state on a fresh transport.
    "migrate.resume" MigrateResume {
        /// Round the migration resumed into.
        round: u32,
    },
    /// `migrate.abort` — the migration was abandoned: the destination's
    /// resources were fully released and the source resumed exclusive
    /// service.
    "migrate.abort" MigrateAbort {
        /// Round the abort hit.
        round: u32,
    },
    /// `migrate.cutover` — stop-and-copy finished and the destination took
    /// over; the source VM is now stale.
    "migrate.cutover" MigrateCutover {
        /// Pre-copy rounds the migration took (stop-and-copy excluded).
        rounds: u32,
        /// Unique guest pages transferred.
        pages: u64,
        /// Stop-and-copy downtime, simulated ns.
        downtime_ns: u64,
    },
    /// `balloon.inflate` — a tenant's balloon driver reclaimed guest frames
    /// and returned their host backing to the shared host buddy.
    "balloon.inflate" BalloonInflate {
        /// Tenant whose balloon grew.
        tenant: u64,
        /// Guest frames reclaimed by this inflate step.
        frames: u64,
    },
    /// `balloon.deflate` — a tenant's balloon released guest frames back to
    /// the guest buddy and re-backed them on the host.
    "balloon.deflate" BalloonDeflate {
        /// Tenant whose balloon shrank.
        tenant: u64,
        /// Guest frames released by this deflate step.
        frames: u64,
    },
    /// `balloon.retry` — re-backing a deflated frame hit host OOM and the
    /// driver retried after a jittered exponential backoff.
    "balloon.retry" BalloonRetry {
        /// Tenant whose deflate retried.
        tenant: u64,
        /// Retry attempt, counting from 1.
        attempt: u32,
        /// Backoff the host clock paid before this attempt, ns.
        backoff_ns: u64,
    },
    /// `balloon.unbacked` — a deflated guest frame could not be re-backed
    /// after bounded retries; it is left as a legal unbacked hole that heals
    /// on the next touch.
    "balloon.unbacked" BalloonUnbacked {
        /// Tenant that owns the hole.
        tenant: u64,
        /// Guest frame left unbacked.
        gframe: u64,
    },
    /// `ksm.merge` — two identical read-only pages were merged onto one host
    /// frame behind the COW write-fault break path.
    "ksm.merge" KsmMerge {
        /// Host frame now shared by both mappings.
        kept: u64,
        /// Host frame the donor mapping dropped.
        dropped: u64,
    },
    /// `ksm.unmerge` — a write fault broke a KSM share; the writer landed on
    /// a fresh private frame via the COW break path.
    "ksm.unmerge" KsmUnmerge {
        /// The formerly shared host frame.
        pfn: u64,
        /// The fresh private frame the writer now maps.
        fresh: u64,
    },
    /// `ksm.scan` — one same-page scan pass over a host's backed frames.
    "ksm.scan" KsmScan {
        /// Candidate pages the pass inspected.
        scanned: u64,
        /// Pages merged by the pass.
        merged: u64,
    },
    /// `fleet.admit` — the fleet admitted a tenant onto a host under the
    /// overcommit limit.
    "fleet.admit" FleetAdmit {
        /// The admitted tenant.
        tenant: u64,
        /// Host index the tenant landed on.
        host: u64,
    },
    /// `fleet.pressure` — a host's free frames fell below the low watermark;
    /// a pressure episode began.
    "fleet.pressure" FleetPressure {
        /// The pressured host.
        host: u64,
        /// Free host frames at episode start.
        free: u64,
    },
    /// `fleet.resolved` — a pressure episode ended with the host back above
    /// its watermark.
    "fleet.resolved" FleetResolved {
        /// The recovered host.
        host: u64,
        /// Free host frames at episode end.
        free: u64,
    },
    /// `fleet.evacuate` — live migration moved a tenant to a less-loaded
    /// host and its source-side footprint was released.
    "fleet.evacuate" FleetEvacuate {
        /// The evacuated tenant.
        tenant: u64,
        /// Source host index.
        from: u64,
        /// Destination host index.
        to: u64,
    },
    /// `fleet.evacuate_abort` — the evacuation migration aborted through the
    /// lossy transport; the tenant stayed on its source host, audit-clean.
    "fleet.evacuate_abort" FleetEvacuateAbort {
        /// The tenant that stayed put.
        tenant: u64,
    },
    /// `fleet.victim_kill` — the last escalation rung tore one tenant down
    /// leak-free to relieve host pressure.
    "fleet.victim_kill" FleetVictimKill {
        /// The killed tenant.
        tenant: u64,
        /// Host frames the teardown returned to the buddy.
        freed: u64,
    },
    /// `audit.report` — a cross-layer invariant audit ran.
    "audit.report" AuditReport {
        /// Number of violations found (0 for a clean system).
        violations: u64,
    },
    /// `metrics.timeline_point` — a contiguity-coverage sample (Fig. 1c /
    /// Fig. 10 timelines), mirroring `contig_metrics::TimelinePoint`.
    "metrics.timeline_point" TimelinePoint {
        /// Sample position (chunks, epochs, or simulated ns).
        t: u64,
        /// Bytes the 32 largest mappings cover at the sample; over
        /// `mapped_bytes`, the top-32 footprint coverage.
        top32_bytes: u64,
        /// Footprint mapped so far, bytes.
        mapped_bytes: u64,
    },
    staged:
    /// `recovery.<stage>` — one step of the OOM recovery escalation. The
    /// per-stage meaning of `amount`/`extra` is documented on
    /// [`RecoveryStage`].
    Recovery {
        /// Escalation stage.
        stage: RecoveryStage,
        /// Stage-specific magnitude (pages evicted, blocks migrated, order).
        amount: u64,
        /// Stage-specific secondary magnitude (frames migrated).
        extra: u64,
        /// Simulated cost of the stage in cost-model nanoseconds.
        latency_ns: u64,
    },
    /// `daemon.<stage>` — one unit of background contiguity-maintenance
    /// work (or a deliberate shed/backoff). The per-stage meaning of
    /// `amount`/`extra` is documented on [`DaemonStage`].
    Daemon {
        /// Daemon work stage.
        stage: DaemonStage,
        /// Stage-specific magnitude (frames moved, budget spent, order).
        amount: u64,
        /// Stage-specific secondary magnitude (cursor frame, backoff ns).
        extra: u64,
    },
}

impl TraceEvent {
    /// The subsystem prefix of [`TraceEvent::name`] (`buddy`, `mm`,
    /// `recovery`, `daemon`, `ca`, `virt`, `poison`, `migrate`, `balloon`,
    /// `ksm`, `fleet`, `tlb`, `audit`, `inject`, `metrics`).
    pub(crate) fn subsystem(&self) -> &'static str {
        let name = self.name();
        name.split_once('.').map_or(name, |(sub, _)| sub)
    }

    /// The simulated duration the event spans, if it is a span-like event
    /// (drives the `chrome://tracing` duration exporter).
    pub(crate) fn span_ns(&self) -> Option<u64> {
        match *self {
            TraceEvent::FaultExit { latency_ns, .. }
            | TraceEvent::NestedFault { latency_ns, .. } => Some(latency_ns),
            TraceEvent::Recovery { latency_ns, .. } if latency_ns > 0 => Some(latency_ns),
            _ => None,
        }
    }
}

/// One recorded event: sequence number, simulated timestamp, dimension tag,
/// and the event payload.
#[derive(Clone, Debug, PartialEq)]
pub struct Record {
    /// Monotonic per-session sequence number (gap-free unless the sink
    /// dropped records).
    pub seq: u64,
    /// Simulated time of the emission, nanoseconds (the emitting `System`'s
    /// clock; 0 when no clock was ever set).
    pub ts_ns: u64,
    /// Guest/host dimension tag.
    pub dim: Dim,
    /// The event.
    pub event: TraceEvent,
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn names_have_subsystem_prefixes() {
        let e = TraceEvent::Alloc { order: 3, pfn: 42 };
        assert_eq!(e.name(), "buddy.alloc");
        assert_eq!(e.subsystem(), "buddy");
        let r = TraceEvent::Recovery {
            stage: RecoveryStage::ReclaimPass,
            amount: 8,
            extra: 0,
            latency_ns: 100,
        };
        assert_eq!(r.name(), "recovery.reclaim_pass");
        assert_eq!(r.subsystem(), "recovery");
        assert_eq!(r.span_ns(), Some(100));
    }

    #[test]
    fn stage_events_are_named_under_their_subsystem() {
        for stage in RecoveryStage::ALL {
            let e = TraceEvent::Recovery { stage, amount: 0, extra: 0, latency_ns: 0 };
            assert_eq!(e.name(), stage.name());
            assert!(e.name().starts_with("recovery."), "{}", e.name());
        }
        for stage in DaemonStage::ALL {
            let e = TraceEvent::Daemon { stage, amount: 0, extra: 0 };
            assert_eq!(e.subsystem(), "daemon");
            assert_eq!(e.name(), stage.name());
        }
    }

    #[test]
    fn dim_and_class_tags_roundtrip() {
        for d in [Dim::None, Dim::Guest, Dim::Host] {
            assert_eq!(Dim::from_tag(d.as_str()), Some(d));
        }
        for c in [FaultClass::Anon, FaultClass::Cow, FaultClass::File] {
            assert_eq!(FaultClass::from_tag(c.as_str()), Some(c));
        }
    }
}
