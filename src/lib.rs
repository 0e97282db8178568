//! `contig` — a pure-Rust reproduction of *Enhancing and Exploiting
//! Contiguity for Fast Memory Virtualization* (ISCA 2020).
//!
//! The paper proposes two synergistic mechanisms against address-translation
//! overhead, focusing on virtualized (nested-paging) execution:
//!
//! - **CA paging** ([`core::CaPaging`]): a contiguity-aware physical-memory
//!   allocation policy that steers demand-paging faults through per-VMA
//!   offsets and a contiguity map over the buddy allocator, creating vast
//!   unaligned contiguous mappings without pre-allocation.
//! - **SpOT** ([`core::SpotPredictor`]): a PC-indexed micro-architectural
//!   prediction table on the last-level TLB miss path that predicts missing
//!   translations from the offsets of large contiguous mappings, hiding the
//!   nested page-walk latency behind speculative execution.
//!
//! This workspace implements the full substrate the paper depends on — a
//! buddy allocator with targeted allocation, a demand-paging memory manager
//! with THP/COW/page-cache support, nested-paging virtual machines, TLB and
//! page-walk models, the comparator systems (eager paging, Ingens,
//! Translation Ranger, ideal paging, vRMM, Direct Segments, vHC), synthetic
//! versions of the paper's workloads, and an experiment harness regenerating
//! every table and figure of the evaluation (see `DESIGN.md`).
//!
//! # Quick start
//!
//! ```
//! use contig::prelude::*;
//!
//! // Boot a simulated machine and run CA paging on a demand-paged VMA.
//! let mut sys = System::new(SystemConfig::new(MachineConfig::single_node_mib(64)));
//! let pid = sys.spawn();
//! let vma = sys
//!     .aspace_mut(pid)
//!     .map_vma(VirtRange::new(VirtAddr::new(0x40_0000), 16 << 20), VmaKind::Anon);
//! let mut ca = CaPaging::new();
//! sys.populate_vma(&mut ca, pid, vma)?;
//! // The 16 MiB VMA landed on one physically contiguous run:
//! let mappings = contiguous_mappings(sys.aspace(pid).page_table());
//! assert_eq!(mappings.len(), 1);
//! # Ok::<(), contig_types::FaultError>(())
//! ```
//!
//! See the `examples/` directory for the virtualized + SpOT pipeline and the
//! fragmentation study, and `crates/bench` for the paper's experiments.

#![warn(missing_docs)]

pub use contig_audit as audit;
pub use contig_baselines as baselines;
pub use contig_buddy as buddy;
pub use contig_check as check;
pub use contig_core as core;
pub use contig_engine as engine;
pub use contig_fleet as fleet;
pub use contig_metrics as metrics;
pub use contig_mm as mm;
pub use contig_sim as sim;
pub use contig_tlb as tlb;
pub use contig_trace as trace;
pub use contig_types as types;
pub use contig_virt as virt;
pub use contig_workloads as workloads;

/// The most common imports for driving the simulator.
pub mod prelude {
    pub use contig_audit::{audit_vm, AuditReport, AuditViolation, VmAuditReport};
    pub use contig_buddy::{Hog, Machine, MachineConfig, NodeId, PcpConfig, Zone, ZoneConfig};
    pub use contig_check::{
        digest_system, digest_vm, fold_digests, minimize, run_torture, SnapshotGuestCodec,
        TortureConfig, TortureFailure, TortureReport,
    };
    pub use contig_core::{CaConfig, CaPaging, SpotConfig, SpotPredictor};
    pub use contig_engine::{run_seeded, PoolConfig, TaskCtx, TaskReport};
    pub use contig_fleet::{
        Fleet, FleetAuditReport, FleetConfig, FleetError, FleetHost, FleetSnapshot, FleetStats,
        Tenant, TenantId, TenantSnapshot,
    };
    pub use contig_metrics::{CoverageStats, PerfModel};
    pub use contig_mm::{
        contiguous_mappings, AddressSpace, BasePagesPolicy, DaemonConfig, DaemonPhase,
        DaemonState, DaemonStats, DefaultThpPolicy, FailureAction, FaultKind, KsmError,
        KsmMergeOutcome, MemoryFailureOutcome, PageTable, Pid, Placement, PlacementPolicy,
        PoisonStats, Pte, PteFlags, System, SystemConfig, VmaId, VmaKind,
    };
    pub use contig_sim::{Env, PolicyKind};
    pub use contig_tlb::{Access, MemorySim, MissHandler, MissHandling, TlbConfig};
    pub use contig_trace::{
        declare_canonical_metrics, stage, validate_metric_names, FlightRecorder, ScopedSpan,
        SpanStack, StackCell, TraceEvent, TraceSession, Tracer, FLIGHT_CAPACITY, SPAN_STAGES,
    };
    pub use contig_types::{
        fnv1a64, ContigMapping, MapOffset, PageSize, PhysAddr, Pfn, PoisonMode, PoisonPolicy,
        TransportFault, TransportMode, TransportPolicy, VirtAddr, VirtRange, Vpn,
    };
    pub use contig_virt::{
        contig_profile, migrate_with_retries, ContigProfile, GuestMce, GuestStateCodec,
        HostPoisonReport, LoopbackTransport, MigrationConfig, MigrationError, MigrationOutcome,
        MigrationReport, MigrationSession, MigrationStats, MigrationTarget, NativeBackend,
        ReleaseReport, Transport, VirtualMachine, VmBackend, VmConfig,
    };
    pub use contig_workloads::{Scale, TraceGenerator, Workload};
}
