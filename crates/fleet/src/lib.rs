//! Multi-tenant fleet layer: many guests packed onto shared hosts under
//! memory overcommit, with a kernel-style graceful-degradation ladder.
//!
//! A [`Fleet`] runs many tenant guests over a small pool of shared host
//! [`System`]s, admitting guests whose *committed* memory exceeds physical
//! capacity (overcommit). When a host's free memory falls below its low
//! watermark — or a tenant fault hits host OOM outright — the fleet
//! controller escalates through the classic reclaim ladder:
//!
//! 1. **Balloon** — inflate per-tenant balloons, reclaiming guest-free
//!    frames and returning their host backing to the buddy allocator
//!    (deflate eagerly re-backs with bounded, seeded-jitter retries).
//! 2. **KSM** — same-page merging across *all* tenants of the host: pages
//!    with identical content tags collapse onto one host frame behind the
//!    existing COW write-fault break path.
//! 3. **Evacuate** — live-migrate one tenant to a less-loaded host via
//!    `contig_virt::migrate`, tolerating lossy-transport storms and rolling
//!    back audit-clean on abort.
//! 4. **Victim kill** — the last resort: tear one tenant down leak-free so
//!    the remaining tenants keep faulting.
//!
//! Content is modelled as per-page *tags* (the simulator tracks frame
//! identity, not bytes): a tag is the oracle's ground truth for what a page
//! holds, and only equal tags merge. Every state transition emits a
//! `balloon.*` / `ksm.*` / `fleet.*` trace event whose count matches the
//! [`FleetStats`] counter exactly, so stats↔trace equality is checkable.
//!
//! # Examples
//!
//! ```
//! use contig_fleet::{Fleet, FleetConfig};
//!
//! // One 64 MiB host, tenants of 8 MiB each, admitted up to 1.5x capacity.
//! let mut fleet = Fleet::new(FleetConfig::new(1, 64, 8));
//! let a = fleet.admit().unwrap();
//! let b = fleet.admit().unwrap();
//! fleet.tenant_write(a, 3, 0xFEED).unwrap();
//! fleet.tenant_write(b, 3, 0xFEED).unwrap();
//! // Identical content on two tenants dedups onto one host frame.
//! let (_, merged) = fleet.ksm_scan_host(0);
//! assert_eq!(merged, 1);
//! assert_eq!(fleet.tenant_read(a, 3).unwrap(), Some(0xFEED));
//! assert!(fleet.audit().is_clean());
//! ```

#![warn(missing_docs)]

use std::collections::{BTreeMap, BTreeSet};
use std::fmt;

use contig_buddy::MachineConfig;
use contig_mm::{
    BasePagesPolicy, DaemonConfig, DaemonStats, FaultOutcome, Pid, PteFlags, System, SystemConfig,
    SystemSnapshot, VmaKind,
};
use contig_trace::{Dim, TraceEvent, Tracer};
use contig_types::{
    splitmix64, FaultError, PageSize, Pfn, PhysAddr, TransportMode, TransportPolicy, VirtAddr,
    VirtRange,
};
use contig_virt::{
    migrate_with_retries, GuestStateCodec, LoopbackTransport, MigrationConfig, MigrationOutcome,
    MigrationTarget, Transport, VirtualMachine, VmConfig,
};

/// Guest-physical frames live in each tenant's host VMA at this base — the
/// same convention as [`contig_virt::VirtualMachine`]. Each tenant is its
/// own host *process*, so every tenant reuses the same base in its own
/// address space.
pub const HOST_VMA_BASE: u64 = 0x7f00_0000_0000;

/// Guest virtual base of every tenant's workload VMA.
pub const GUEST_VMA_BASE: u64 = 0x40_0000;

const BASE: u64 = 4096;

fn host_va_of(gframe: u64) -> VirtAddr {
    VirtAddr::new(HOST_VMA_BASE + gframe * BASE)
}

fn page_va(page: u64) -> VirtAddr {
    VirtAddr::new(GUEST_VMA_BASE + page * BASE)
}

/// Fleet systems run base-4 KiB only: ballooning and same-page merging
/// operate on 4 KiB leaves, so THP stays off (the kernel splits huge pages
/// before KSM touches them; here we never create them).
fn base_config(mib: u64) -> SystemConfig {
    SystemConfig { thp: false, ..SystemConfig::new(MachineConfig::single_node_mib(mib)) }
}

// ---------------------------------------------------------------------------
// Configuration, identity, errors, stats.
// ---------------------------------------------------------------------------

// The fleet's admission limit, pressure ladder and retry budgets. Ratios
// of host capacity are in parts per million.

/// Admission limit: committed guest frames per host may reach `capacity *
/// OVERCOMMIT_PPM / 1_000_000` (1.6×).
const OVERCOMMIT_PPM: u64 = 1_600_000;
/// Pressure trigger: an episode starts when host free frames fall below
/// `capacity * LOW_WATERMARK_PPM / 1_000_000`.
const LOW_WATERMARK_PPM: u64 = 125_000;
/// Pressure goal: the ladder escalates until free frames reach `capacity *
/// HIGH_WATERMARK_PPM / 1_000_000` (and balloons deflate again above it).
const HIGH_WATERMARK_PPM: u64 = 187_500;
/// Frames one balloon inflate/deflate step moves per tenant.
const BALLOON_STEP: u64 = 64;
/// Bounded retries around deflate re-backing before a hole is left.
const BALLOON_RETRIES: u32 = 4;
/// Bounded pressure-relief retries a tenant fault makes on host OOM before
/// the OOM becomes fatal (the ladder should make this unreachable while
/// more than one tenant shares the host).
const BACKING_ATTEMPTS: u32 = 8;
/// Loss rate (ppm) of the evacuation transport.
const EVAC_STORM_PPM: u32 = 120_000;
/// Checkpointed-resume budget of one evacuation migration.
const EVAC_ATTEMPTS: u32 = 6;
/// Controller [`Fleet::step`]s between two ticks of an armed host daemon.
const DAEMON_SCAN_INTERVAL: u64 = 4;

contig_types::wire_struct! {
    /// Construction parameters for a [`Fleet`].
    #[derive(Clone, Debug, PartialEq, Eq)]
    pub struct FleetConfig {
        /// Number of shared hosts in the pool.
        pub hosts: usize,
        /// Physical memory of each host, MiB.
        pub host_mib: u64,
        /// Guest-physical memory of each tenant, MiB.
        pub guest_mib: u64,
        /// Seed for the fleet's deterministic decisions (transport streams).
        pub seed: u64,
    }
}

impl FleetConfig {
    /// A fleet of `hosts` hosts with `host_mib` MiB each, running tenants of
    /// `guest_mib` MiB.
    pub fn new(hosts: usize, host_mib: u64, guest_mib: u64) -> Self {
        Self { hosts, host_mib, guest_mib, seed: 0x00F1_EE70 }
    }
}

/// Opaque tenant identity, unique for the fleet's lifetime (ids of killed
/// tenants are never reused).
#[derive(Clone, Copy, Debug, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct TenantId(pub u64);

impl fmt::Display for TenantId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "tenant{}", self.0)
    }
}

/// Why a fleet operation failed.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum FleetError {
    /// No host has admission headroom for another tenant.
    NoCapacity,
    /// The tenant id is unknown (never admitted, or killed).
    UnknownTenant(TenantId),
    /// A guest-dimension fault failed (guest OOM survives balloon deflate).
    Guest(FaultError),
    /// A host-dimension fault failed even after the full escalation ladder —
    /// the "host-fatal OOM" the fleet exists to prevent.
    Host(FaultError),
}

impl fmt::Display for FleetError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Self::NoCapacity => write!(f, "no host has admission headroom"),
            Self::UnknownTenant(id) => write!(f, "unknown {id}"),
            Self::Guest(e) => write!(f, "guest fault: {e}"),
            Self::Host(e) => write!(f, "host fault after escalation: {e}"),
        }
    }
}

impl std::error::Error for FleetError {}

contig_types::wire_counters! {
    /// Cumulative fleet counters. Every field counts *emissions* of the
    /// like-named trace event, so [`FleetStats::as_named`] must equal the trace
    /// sink's per-name counts exactly — the fleet's stats↔trace invariant.
    #[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
    pub struct FleetStats {
        /// `balloon.inflate` steps that claimed at least one frame.
        pub balloon_inflates: u64 = "balloon.inflate",
        /// `balloon.deflate` steps that released at least one frame.
        pub balloon_deflates: u64 = "balloon.deflate",
        /// `balloon.retry` backoffs while re-backing deflated frames.
        pub balloon_retries: u64 = "balloon.retry",
        /// `balloon.unbacked` holes left after retries were exhausted.
        pub balloon_unbacked: u64 = "balloon.unbacked",
        /// `ksm.merge` same-page merges.
        pub ksm_merges: u64 = "ksm.merge",
        /// `ksm.unmerge` write-fault share breaks.
        pub ksm_unmerges: u64 = "ksm.unmerge",
        /// `ksm.scan` passes.
        pub ksm_scans: u64 = "ksm.scan",
        /// `fleet.admit` admissions.
        pub admits: u64 = "fleet.admit",
        /// `fleet.pressure` episodes started.
        pub pressure_events: u64 = "fleet.pressure",
        /// `fleet.resolved` episodes ended.
        pub pressure_resolved: u64 = "fleet.resolved",
        /// `fleet.evacuate` completed live migrations.
        pub evacuations: u64 = "fleet.evacuate",
        /// `fleet.evacuate_abort` migrations that rolled back.
        pub evacuation_aborts: u64 = "fleet.evacuate_abort",
        /// `fleet.victim_kill` last-resort teardowns.
        pub victim_kills: u64 = "fleet.victim_kill",
    }
}

// ---------------------------------------------------------------------------
// Tenants and hosts.
// ---------------------------------------------------------------------------

/// One tenant: a guest OS instance whose guest-physical memory is a VMA in
/// its own process on a *shared* host [`System`].
#[derive(Debug)]
pub struct Tenant {
    guest: System,
    host_idx: usize,
    host_pid: Pid,
    guest_pid: Pid,
    /// Guest frames claimed by the balloon (allocated out of the guest
    /// buddy; host backing released).
    balloon: BTreeSet<u64>,
    /// Content model: workload page index → tag of the last write. Absent
    /// means zero-filled / never written.
    tags: BTreeMap<u64, u64>,
}

impl Tenant {
    /// The tenant's guest OS instance.
    pub fn guest(&self) -> &System {
        &self.guest
    }

    /// Index of the shared host this tenant currently runs on.
    pub fn host_idx(&self) -> usize {
        self.host_idx
    }

    /// The tenant's process on the shared host (owns the VM memory region).
    pub fn host_pid(&self) -> Pid {
        self.host_pid
    }

    /// The workload process inside the guest.
    pub fn guest_pid(&self) -> Pid {
        self.guest_pid
    }

    /// The content-tag model: workload page index → last written tag.
    pub fn tags(&self) -> &BTreeMap<u64, u64> {
        &self.tags
    }

    /// Total guest-physical frames (the committed size of this tenant).
    pub(crate) fn guest_frames(&self) -> u64 {
        self.guest.machine().total_frames()
    }

    /// Pages of the workload VMA.
    pub fn workload_pages(&self) -> u64 {
        self.guest_frames() * 3 / 4
    }

    /// Host frames currently backing this tenant's VM region.
    pub(crate) fn backed_frames(&self, host: &System) -> u64 {
        host.aspace(self.host_pid)
            .page_table()
            .iter_mappings()
            .map(|m| m.size.base_pages())
            .sum()
    }
}

/// One shared host: a [`System`] plus the fleet-level KSM sharing registry
/// for frames merged across (or within) its tenants.
#[derive(Debug)]
pub struct FleetHost {
    system: System,
    /// host frame → the `(tenant id, guest frame)` mappings merged onto it.
    /// A record exists exactly while ≥ 2 members share the frame.
    sharing: BTreeMap<u64, Vec<(u64, u64)>>,
}

impl FleetHost {
    /// The host OS instance.
    pub fn system(&self) -> &System {
        &self.system
    }

    /// The KSM sharing registry: host frame → sorted `(tenant, gframe)`
    /// members, present exactly while ≥ 2 members share the frame.
    pub fn sharing(&self) -> &BTreeMap<u64, Vec<(u64, u64)>> {
        &self.sharing
    }
}

fn registry_drop(sharing: &mut BTreeMap<u64, Vec<(u64, u64)>>, pfn: u64, member: (u64, u64)) {
    if let Some(members) = sharing.get_mut(&pfn) {
        members.retain(|&m| m != member);
        if members.len() < 2 {
            sharing.remove(&pfn);
        }
    }
}

fn registry_purge(sharing: &mut BTreeMap<u64, Vec<(u64, u64)>>, tenant: u64) {
    sharing.retain(|_, members| {
        members.retain(|&(t, _)| t != tenant);
        members.len() >= 2
    });
}

// ---------------------------------------------------------------------------
// Snapshots.
// ---------------------------------------------------------------------------

/// One host's sharing registry in snapshot form: `(pfn, members)` records,
/// pfn-ascending, each member a `(tenant, gframe)` pair.
pub(crate) type SharingSnapshot = Vec<(u64, Vec<(u64, u64)>)>;

contig_types::wire_struct! {
    /// Plain-data image of one tenant.
    #[derive(Clone, Debug, PartialEq, Eq)]
    pub struct TenantSnapshot {
        /// The tenant id.
        pub id: u64,
        /// The guest system.
        pub guest: SystemSnapshot,
        /// Host index the tenant runs on.
        pub host_idx: u64,
        /// The tenant's process id on the shared host.
        pub host_pid: u32,
        /// The workload process id inside the guest.
        pub guest_pid: u32,
        /// Ballooned guest frames, ascending.
        pub balloon: Vec<u64>,
        /// Content tags as `(page, tag)`, page-ascending.
        pub tags: Vec<(u64, u64)>,
    }
}

contig_types::wire_struct! {
    /// Plain-data image of a whole [`Fleet`] — everything that can affect future
    /// behaviour, so a restored fleet replays bit-identically.
    #[derive(Clone, Debug, PartialEq, Eq)]
    pub struct FleetSnapshot {
        /// The construction parameters in force.
        pub config: FleetConfig,
        /// Host systems, index order.
        pub hosts: Vec<SystemSnapshot>,
        /// Per-host sharing registries, host-index order.
        pub sharing: Vec<SharingSnapshot>,
        /// Tenants, id order.
        pub tenants: Vec<TenantSnapshot>,
        /// Cumulative counters.
        pub stats: FleetStats,
        /// Next tenant id to hand out.
        pub next_tenant: u64,
        /// Decision RNG state, mid-stream.
        pub rng: u64,
        /// Background KSM scan cursor.
        pub ksm_cursor: u64,
    }
}

// ---------------------------------------------------------------------------
// Audit.
// ---------------------------------------------------------------------------

/// Result of [`Fleet::audit`]: cross-tenant invariants over every host.
#[derive(Clone, Debug, Default)]
pub struct FleetAuditReport {
    /// Every violation found, as human-readable descriptions.
    pub(crate) violations: Vec<String>,
    /// Hosts checked.
    pub(crate) hosts_checked: u64,
    /// Tenants checked.
    pub(crate) tenants_checked: u64,
    /// Host frames currently shared under a KSM record.
    pub(crate) shared_frames: u64,
}

impl FleetAuditReport {
    /// Whether every invariant held.
    pub fn is_clean(&self) -> bool {
        self.violations.is_empty()
    }
}

impl fmt::Display for FleetAuditReport {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        if self.is_clean() {
            write!(
                f,
                "fleet audit clean ({} hosts, {} tenants, {} shared frames)",
                self.hosts_checked, self.tenants_checked, self.shared_frames
            )
        } else {
            write!(f, "fleet audit: {} violation(s): ", self.violations.len())?;
            for (i, v) in self.violations.iter().enumerate() {
                if i > 0 {
                    write!(f, "; ")?;
                }
                write!(f, "{v}")?;
            }
            Ok(())
        }
    }
}

// ---------------------------------------------------------------------------
// The parked evacuation codec.
// ---------------------------------------------------------------------------

/// Guest-state codec for evacuation migrations: parks snapshots in a
/// call-local store and sends an index over the wire (index corruption is
/// still caught by the frame digest, so lossy-path behaviour matches a real
/// serializer). Created per [`Fleet::evacuate`] call so the fleet itself
/// stays `Send`.
#[derive(Default)]
struct ParkedCodec {
    store: std::cell::RefCell<Vec<SystemSnapshot>>,
}

impl GuestStateCodec for ParkedCodec {
    fn encode(&self, snap: &SystemSnapshot) -> Vec<u8> {
        let mut store = self.store.borrow_mut();
        store.push(snap.clone());
        ((store.len() - 1) as u64).to_le_bytes().to_vec()
    }

    fn decode(&self, bytes: &[u8]) -> Result<SystemSnapshot, String> {
        let idx =
            u64::from_le_bytes(bytes.try_into().map_err(|_| "bad index".to_string())?) as usize;
        self.store.borrow().get(idx).cloned().ok_or_else(|| "unknown index".to_string())
    }
}

// ---------------------------------------------------------------------------
// The fleet controller.
// ---------------------------------------------------------------------------

/// The fleet controller: shared hosts, tenants, overcommit admission, and
/// the pressure-escalation ladder.
#[derive(Debug)]
pub struct Fleet {
    cfg: FleetConfig,
    hosts: Vec<FleetHost>,
    tenants: BTreeMap<TenantId, Tenant>,
    stats: FleetStats,
    next_tenant: u64,
    rng: u64,
    ksm_cursor: u64,
    tracer: Tracer,
    guest_tracer: Tracer,
}

impl Fleet {
    /// Builds an empty fleet of `cfg.hosts` hosts. Hosts and guests both run
    /// base-4 KiB placement: ballooning and same-page merging operate on
    /// 4 KiB host leaves, exactly like KSM under `CONFIG_TRANSPARENT_HUGEPAGE`
    /// splitting.
    pub fn new(cfg: FleetConfig) -> Self {
        let hosts = (0..cfg.hosts)
            .map(|_| FleetHost {
                system: System::new(base_config(cfg.host_mib)),
                sharing: BTreeMap::new(),
            })
            .collect();
        let rng = cfg.seed;
        Self {
            cfg,
            hosts,
            tenants: BTreeMap::new(),
            stats: FleetStats::default(),
            next_tenant: 0,
            rng,
            ksm_cursor: 0,
            tracer: Tracer::disabled(),
            guest_tracer: Tracer::disabled(),
        }
    }

    /// Attaches a trace handle: host systems and fleet controller events go
    /// on the host track, tenant guests on the guest track.
    pub fn set_tracer(&mut self, tracer: Tracer) {
        self.guest_tracer = tracer.with_dim(Dim::Guest);
        self.tracer = tracer.with_dim(Dim::Host);
        for host in &mut self.hosts {
            host.system.set_tracer(self.tracer.clone());
        }
        for tenant in self.tenants.values_mut() {
            tenant.guest.set_tracer(self.guest_tracer.clone());
        }
    }

    /// Cumulative counters.
    pub fn stats(&self) -> &FleetStats {
        &self.stats
    }

    /// The shared hosts, index order.
    pub fn hosts(&self) -> &[FleetHost] {
        &self.hosts
    }

    /// Live tenant ids, ascending.
    pub fn tenant_ids(&self) -> Vec<TenantId> {
        self.tenants.keys().copied().collect()
    }

    /// A live tenant, if `id` is one.
    pub fn tenant(&self, id: TenantId) -> Option<&Tenant> {
        self.tenants.get(&id)
    }

    /// Free frames on host `h`.
    pub(crate) fn host_free(&self, h: usize) -> u64 {
        self.hosts[h].system.machine().free_frames()
    }

    /// Guest frames committed to host `h` by admission (balloons do not
    /// reduce commitment — they are reclaim, not a contract change).
    pub(crate) fn committed(&self, h: usize) -> u64 {
        self.tenants
            .values()
            .filter(|t| t.host_idx == h)
            .map(Tenant::guest_frames)
            .sum()
    }

    fn capacity(&self, h: usize) -> u64 {
        self.hosts[h].system.machine().total_frames()
    }

    fn limit(&self, h: usize) -> u64 {
        self.capacity(h) * OVERCOMMIT_PPM / 1_000_000
    }

    fn watermark(&self, h: usize, ppm: u64) -> u64 {
        self.capacity(h) * ppm / 1_000_000
    }

    fn tenants_on(&self, h: usize) -> Vec<TenantId> {
        self.tenants
            .iter()
            .filter(|(_, t)| t.host_idx == h)
            .map(|(&id, _)| id)
            .collect()
    }

    // -- Admission ----------------------------------------------------------

    /// Admits a new tenant onto the host with the most admission headroom.
    ///
    /// # Errors
    ///
    /// [`FleetError::NoCapacity`] when no host can take another tenant under
    /// its overcommit limit.
    pub fn admit(&mut self) -> Result<TenantId, FleetError> {
        let mut guest = System::new(base_config(self.cfg.guest_mib));
        let gframes = guest.machine().total_frames();
        let mut best: Option<(usize, u64)> = None;
        for h in 0..self.hosts.len() {
            let headroom = self.limit(h).saturating_sub(self.committed(h));
            if headroom >= gframes && best.is_none_or(|(_, b)| headroom > b) {
                best = Some((h, headroom));
            }
        }
        let Some((h, _)) = best else {
            return Err(FleetError::NoCapacity);
        };
        guest.set_tracer(self.guest_tracer.clone());
        let guest_pid = guest.spawn();
        let wl_pages = gframes * 3 / 4;
        guest.aspace_mut(guest_pid).map_vma(
            VirtRange::new(VirtAddr::new(GUEST_VMA_BASE), wl_pages * BASE),
            VmaKind::Anon,
        );
        let host_pid = self.hosts[h].system.spawn();
        self.hosts[h].system.aspace_mut(host_pid).map_vma(
            VirtRange::new(VirtAddr::new(HOST_VMA_BASE), gframes * BASE),
            VmaKind::Anon,
        );
        let id = TenantId(self.next_tenant);
        self.next_tenant += 1;
        self.tenants.insert(
            id,
            Tenant {
                guest,
                host_idx: h,
                host_pid,
                guest_pid,
                balloon: BTreeSet::new(),
                tags: BTreeMap::new(),
            },
        );
        self.stats.admits += 1;
        self.tracer.emit(TraceEvent::FleetAdmit { tenant: id.0, host: h as u64 });
        Ok(id)
    }

    // -- Tenant data path ---------------------------------------------------

    /// Write-touches workload page `page` of tenant `id`, recording `tag` as
    /// its content. Breaks any KSM share through the host COW write-fault
    /// path first, so the writer always lands on a private host frame.
    ///
    /// # Errors
    ///
    /// [`FleetError::Guest`] if the guest cannot map the page even after
    /// deflating the tenant's balloon; [`FleetError::Host`] if host memory
    /// stays exhausted after the full escalation ladder.
    pub fn tenant_write(&mut self, id: TenantId, page: u64, tag: u64) -> Result<(), FleetError> {
        let out = self.guest_fault(id, page_va(page), true)?;
        self.back_tenant(id, out.pfn.raw(), out.size.base_pages())?;
        self.settle_fault(id, page, out)?;
        let t = self.tenants.get_mut(&id).expect("tenant vanished mid-write");
        t.tags.insert(page, tag);
        Ok(())
    }

    /// Read-touches workload page `page` of tenant `id` and returns its
    /// content tag (`None` for a zero page). Heals unbacked holes left by
    /// failed deflate re-backing.
    ///
    /// # Errors
    ///
    /// As for [`Fleet::tenant_write`].
    pub fn tenant_read(&mut self, id: TenantId, page: u64) -> Result<Option<u64>, FleetError> {
        let out = self.guest_fault(id, page_va(page), false)?;
        self.back_tenant(id, out.pfn.raw(), out.size.base_pages())?;
        self.settle_fault(id, page, out)?;
        Ok(self.tenants[&id].tags.get(&page).copied())
    }

    /// Discards workload page `page`: the guest unmaps it and frees the
    /// guest frame (its next touch is a fresh zero page). Host backing
    /// persists until the balloon reclaims the frame — the madvise(FREE)
    /// shape that makes ballooning actually recover host memory. Returns
    /// whether a mapped page was discarded.
    ///
    /// # Errors
    ///
    /// [`FleetError::UnknownTenant`] for a dead tenant.
    pub fn tenant_discard(&mut self, id: TenantId, page: u64) -> Result<bool, FleetError> {
        let t = self.tenants.get_mut(&id).ok_or(FleetError::UnknownTenant(id))?;
        let dropped = t.guest.unmap_base_page(t.guest_pid, page_va(page)).is_some();
        t.tags.remove(&page);
        Ok(dropped)
    }

    /// After a guest fault: a *fresh* guest mapping zero-fills its pages — a
    /// content change, so stale tags clear and any KSM share backing the
    /// newly mapped guest frames breaks; an already-mapped write breaks the
    /// share of just the written frame.
    fn settle_fault(&mut self, id: TenantId, page: u64, out: FaultOutcome) -> Result<(), FleetError> {
        if out.already_mapped {
            let va = page_va(page);
            let g = out.pfn.raw() + va.page_offset(out.size) / BASE;
            return self.ksm_write_break(id, g);
        }
        let first_page =
            (page_va(page).align_down(out.size).raw() - GUEST_VMA_BASE) / BASE;
        for i in 0..out.size.base_pages() {
            self.ksm_write_break(id, out.pfn.raw() + i)?;
            let t = self.tenants.get_mut(&id).expect("tenant vanished mid-fault");
            t.tags.remove(&(first_page + i));
        }
        Ok(())
    }

    /// Guest-dimension fault with balloon-deflate-on-guest-OOM: a guest that
    /// cannot allocate because the balloon holds its frames gets them back.
    fn guest_fault(
        &mut self,
        id: TenantId,
        va: VirtAddr,
        write: bool,
    ) -> Result<FaultOutcome, FleetError> {
        let mut attempt = 0u32;
        loop {
            let t = self.tenants.get_mut(&id).ok_or(FleetError::UnknownTenant(id))?;
            let r = if write {
                t.guest.touch_write(&mut BasePagesPolicy, t.guest_pid, va)
            } else {
                t.guest.touch(&mut BasePagesPolicy, t.guest_pid, va)
            };
            match r {
                Ok(out) => return Ok(out),
                Err(FaultError::OutOfMemory { .. })
                    if attempt < 8 && !t.balloon.is_empty() =>
                {
                    attempt += 1;
                    self.balloon_deflate_tenant(id, BALLOON_STEP);
                }
                Err(e) => return Err(FleetError::Guest(e)),
            }
        }
    }

    /// Ensures host backing for guest frames `[start, start + pages)` of
    /// tenant `id`, escalating through the pressure ladder on host OOM.
    fn back_tenant(&mut self, id: TenantId, start: u64, pages: u64) -> Result<(), FleetError> {
        for g in start..start + pages {
            let hva = host_va_of(g);
            let mut attempt = 0u32;
            loop {
                let t = self.tenants.get(&id).ok_or(FleetError::UnknownTenant(id))?;
                let (h, pid) = (t.host_idx, t.host_pid);
                if self.hosts[h].system.aspace(pid).page_table().translate(hva).is_ok() {
                    break;
                }
                match self.hosts[h].system.touch(&mut BasePagesPolicy, pid, hva) {
                    Ok(_) => break,
                    Err(FaultError::OutOfMemory { .. })
                        if attempt < BACKING_ATTEMPTS =>
                    {
                        attempt += 1;
                        self.relieve(h, Some(id));
                        self.hosts[h].system.backoff_sleep(attempt);
                    }
                    Err(e) => return Err(FleetError::Host(e)),
                }
            }
        }
        Ok(())
    }

    // -- Balloon ------------------------------------------------------------

    /// Balloon inflate for one tenant: claims up to `frames` *reclaimable*
    /// guest frames — guest-free (the guest is done with them) but still
    /// host-backed (the host is still paying for them) — out of the guest
    /// buddy, ascending, and returns their host backing to the host buddy.
    /// Frames the host never backed are not worth claiming: the guest would
    /// lose them for zero host relief. Returns frames claimed.
    pub fn balloon_inflate_tenant(&mut self, id: TenantId, frames: u64) -> u64 {
        let Some(t) = self.tenants.get_mut(&id) else {
            return 0;
        };
        let host = &mut self.hosts[t.host_idx];
        let backed: Vec<u64> = host
            .system
            .aspace(t.host_pid)
            .page_table()
            .iter_mappings()
            .filter(|m| m.size == PageSize::Base4K)
            .map(|m| (m.va.raw() - HOST_VMA_BASE) / BASE)
            .collect();
        let mut claimed = 0u64;
        for g in backed {
            if claimed == frames {
                break;
            }
            if t.balloon.contains(&g) || !t.guest.machine().is_free(Pfn::new(g)) {
                continue;
            }
            if t.guest.machine_mut().alloc_specific(Pfn::new(g), 0).is_err() {
                continue;
            }
            t.balloon.insert(g);
            claimed += 1;
            if let Some((pfn, _)) = host.system.unmap_base_page(t.host_pid, host_va_of(g)) {
                registry_drop(&mut host.sharing, pfn.raw(), (id.0, g));
            }
        }
        if claimed > 0 {
            self.stats.balloon_inflates += 1;
            self.tracer.emit(TraceEvent::BalloonInflate { tenant: id.0, frames: claimed });
        }
        claimed
    }

    /// Balloon deflate for one tenant: releases up to `frames` ballooned
    /// frames back to the guest buddy (ascending) and eagerly re-backs each
    /// on the host, retrying around the host's seeded jittered backoff on
    /// OOM; a frame that still cannot be backed stays a legal unbacked hole
    /// that heals on the next touch. Returns frames released.
    pub fn balloon_deflate_tenant(&mut self, id: TenantId, frames: u64) -> u64 {
        let Some(t) = self.tenants.get_mut(&id) else {
            return 0;
        };
        let host = &mut self.hosts[t.host_idx];
        let picks: Vec<u64> = t.balloon.iter().take(frames as usize).copied().collect();
        for &g in &picks {
            t.balloon.remove(&g);
            t.guest.machine_mut().free(Pfn::new(g), 0);
            let hva = host_va_of(g);
            let mut attempt = 0u32;
            loop {
                match host.system.touch(&mut BasePagesPolicy, t.host_pid, hva) {
                    Ok(_) => break,
                    Err(_) if attempt < BALLOON_RETRIES => {
                        attempt += 1;
                        let backoff_ns = host.system.backoff_sleep(attempt);
                        self.stats.balloon_retries += 1;
                        self.tracer.emit(TraceEvent::BalloonRetry {
                            tenant: id.0,
                            attempt,
                            backoff_ns,
                        });
                    }
                    Err(_) => {
                        self.stats.balloon_unbacked += 1;
                        self.tracer
                            .emit(TraceEvent::BalloonUnbacked { tenant: id.0, gframe: g });
                        break;
                    }
                }
            }
        }
        let released = picks.len() as u64;
        if released > 0 {
            self.stats.balloon_deflates += 1;
            self.tracer.emit(TraceEvent::BalloonDeflate { tenant: id.0, frames: released });
        }
        released
    }

    // -- KSM ----------------------------------------------------------------

    /// One same-page scan pass over host `h`: groups every tenant's tagged,
    /// 4 KiB-backed, non-file pages by content tag and merges each group
    /// onto its first member's host frame behind the COW break path.
    /// Returns `(candidates scanned, pages merged)`.
    pub fn ksm_scan_host(&mut self, h: usize) -> (u64, u64) {
        // Candidate pass: (tag) → [(tenant, gframe, host pid)], tenant order.
        let mut groups: BTreeMap<u64, Vec<(u64, u64, Pid)>> = BTreeMap::new();
        let mut scanned = 0u64;
        for (id, t) in &self.tenants {
            if t.host_idx != h {
                continue;
            }
            for (&page, &tag) in &t.tags {
                let va = page_va(page);
                let Ok(g) = t.guest.aspace(t.guest_pid).page_table().translate(va) else {
                    continue;
                };
                let gframe = g.frame_for(va).raw();
                let hva = host_va_of(gframe);
                let Ok(tr) =
                    self.hosts[h].system.aspace(t.host_pid).page_table().translate(hva)
                else {
                    continue;
                };
                if tr.size != PageSize::Base4K || tr.flags.contains(PteFlags::FILE) {
                    continue;
                }
                scanned += 1;
                groups.entry(tag).or_default().push((id.0, gframe, t.host_pid));
            }
        }
        let mut merged = 0u64;
        for members in groups.values() {
            let (keeper_t, keeper_g, keeper_pid) = members[0];
            let keeper_hva = host_va_of(keeper_g);
            for &(donor_t, donor_g, donor_pid) in &members[1..] {
                let donor_hva = host_va_of(donor_g);
                let host = &mut self.hosts[h];
                let Ok(ktr) = host.system.aspace(keeper_pid).page_table().translate(keeper_hva)
                else {
                    break; // keeper lost its backing; abandon the group
                };
                let Ok(dtr) = host.system.aspace(donor_pid).page_table().translate(donor_hva)
                else {
                    continue;
                };
                if ktr.pfn == dtr.pfn {
                    continue; // already merged onto the keeper
                }
                let Ok(outcome) =
                    host.system.ksm_merge((keeper_pid, keeper_hva), (donor_pid, donor_hva))
                else {
                    continue;
                };
                merged += 1;
                self.stats.ksm_merges += 1;
                registry_drop(&mut host.sharing, outcome.dropped.raw(), (donor_t, donor_g));
                let rec = host
                    .sharing
                    .entry(outcome.kept.raw())
                    .or_insert_with(|| vec![(keeper_t, keeper_g)]);
                rec.push((donor_t, donor_g));
                rec.sort_unstable();
                rec.dedup();
            }
        }
        self.stats.ksm_scans += 1;
        self.tracer.emit(TraceEvent::KsmScan { scanned, merged });
        (scanned, merged)
    }

    /// If guest frame `gframe` of tenant `id` sits on a KSM-merged host
    /// frame, breaks the share through the host COW write-fault path (the
    /// writer lands on a fresh private frame), escalating through the
    /// pressure ladder when the copy itself hits host OOM.
    fn ksm_write_break(&mut self, id: TenantId, gframe: u64) -> Result<(), FleetError> {
        let hva = host_va_of(gframe);
        let mut attempt = 0u32;
        loop {
            let t = self.tenants.get(&id).ok_or(FleetError::UnknownTenant(id))?;
            let (h, pid) = (t.host_idx, t.host_pid);
            if self.hosts[h].sharing.is_empty() {
                return Ok(());
            }
            let Ok(tr) = self.hosts[h].system.aspace(pid).page_table().translate(hva) else {
                return Ok(());
            };
            if tr.size != PageSize::Base4K
                || tr.flags.contains(PteFlags::WRITE)
                || !self.hosts[h].sharing.contains_key(&tr.pfn.raw())
            {
                return Ok(());
            }
            let old = tr.pfn;
            match self.hosts[h].system.touch_write(&mut BasePagesPolicy, pid, hva) {
                Ok(_) => {
                    let fresh = self.hosts[h]
                        .system
                        .aspace(pid)
                        .page_table()
                        .translate(hva)
                        .map_or(old, |tr| tr.frame_for(hva));
                    self.stats.ksm_unmerges += 1;
                    self.tracer
                        .emit(TraceEvent::KsmUnmerge { pfn: old.raw(), fresh: fresh.raw() });
                    registry_drop(&mut self.hosts[h].sharing, old.raw(), (id.0, gframe));
                    return Ok(());
                }
                Err(FaultError::OutOfMemory { .. }) if attempt < BACKING_ATTEMPTS => {
                    attempt += 1;
                    self.relieve(h, Some(id));
                    self.hosts[h].system.backoff_sleep(attempt);
                }
                Err(e) => return Err(FleetError::Host(e)),
            }
        }
    }

    // -- Pressure ladder ----------------------------------------------------

    /// Arms the background contiguity-maintenance daemon on every host.
    /// Hosts then take one deterministic daemon tick every
    /// `DAEMON_SCAN_INTERVAL` (4) controller [`Fleet::step`]s, in host index
    /// order, between the reclaim rungs and foreground tenant faults.
    pub fn enable_host_daemons(&mut self, config: DaemonConfig) {
        for host in &mut self.hosts {
            host.system.enable_daemon(config);
        }
    }

    /// Sum of the per-host daemon counters, hosts in index order.
    pub fn host_daemon_stats(&self) -> DaemonStats {
        let mut total = DaemonStats::default();
        for host in &self.hosts {
            total.accumulate(host.system.daemon_stats());
        }
        total
    }

    /// One controller tick: relieves any host below its low watermark,
    /// deflates balloons on hosts with plenty, runs the background KSM
    /// scan cursor over one host, and steps each armed host maintenance
    /// daemon that is due this tick.
    pub fn step(&mut self) {
        // The KSM cursor doubles as the controller's step clock: it is
        // already snapshot-persisted, so daemon cadence survives
        // save/restore without a second counter.
        let tick = self.ksm_cursor;
        for h in 0..self.hosts.len() {
            let low = self.watermark(h, LOW_WATERMARK_PPM);
            let high = self.watermark(h, HIGH_WATERMARK_PPM);
            let free = self.host_free(h);
            if free < low {
                self.relieve(h, None);
            } else if free > high {
                // Plenty: hand memory back to the guests, lowest tenant
                // first, one step per tick to avoid thrash.
                let next = self
                    .tenants_on(h)
                    .into_iter()
                    .find(|id| !self.tenants[id].balloon.is_empty());
                if let Some(id) = next {
                    self.balloon_deflate_tenant(id, BALLOON_STEP);
                }
            }
        }
        if !self.hosts.is_empty() {
            let h = (self.ksm_cursor as usize) % self.hosts.len();
            self.ksm_cursor += 1;
            self.ksm_scan_host(h);
        }
        for h in 0..self.hosts.len() {
            let system = &mut self.hosts[h].system;
            if !system.daemon_enabled() {
                continue;
            }
            if tick.is_multiple_of(DAEMON_SCAN_INTERVAL) {
                system.daemon_tick();
            }
        }
    }

    /// Runs the full escalation ladder on host `h` until its free frames
    /// reach the high watermark or every rung is exhausted. `protect` is
    /// never evacuated or killed (it is mid-fault in the caller).
    fn relieve(&mut self, h: usize, protect: Option<TenantId>) {
        let free0 = self.host_free(h);
        self.stats.pressure_events += 1;
        self.tracer.emit(TraceEvent::FleetPressure { host: h as u64, free: free0 });
        let goal = self.watermark(h, HIGH_WATERMARK_PPM);
        // Rung 1: balloon reclaim, round-robin over the host's tenants,
        // until a full pass frees nothing (claiming never-backed frames
        // makes no host progress — escalate instead of spinning).
        while self.host_free(h) < goal {
            let before = self.host_free(h);
            for id in self.tenants_on(h) {
                self.balloon_inflate_tenant(id, BALLOON_STEP);
                if self.host_free(h) >= goal {
                    break;
                }
            }
            if self.host_free(h) <= before {
                break;
            }
        }
        // Rung 2: same-page merging across all tenants of the host.
        if self.host_free(h) < goal {
            self.ksm_scan_host(h);
        }
        // Rung 3: live-migrate one tenant to a less-loaded host.
        if self.host_free(h) < goal {
            if let Some((victim, dest)) = self.pick_evacuation(h, protect) {
                self.evacuate(victim, dest);
            }
        }
        // Rung 4: last resort — tear tenants down until pressure clears.
        while self.host_free(h) < goal {
            let Some(victim) = self.pick_victim(h, protect) else {
                break;
            };
            self.victim_kill(victim);
        }
        self.stats.pressure_resolved += 1;
        self.tracer
            .emit(TraceEvent::FleetResolved { host: h as u64, free: self.host_free(h) });
    }

    fn backed_count(&self, id: TenantId) -> u64 {
        let t = &self.tenants[&id];
        t.backed_frames(&self.hosts[t.host_idx].system)
    }

    /// Largest-footprint tenant on `h` (excluding `protect`) and the host
    /// with the most free frames that can admit it and hold its backing.
    fn pick_evacuation(
        &self,
        h: usize,
        protect: Option<TenantId>,
    ) -> Option<(TenantId, usize)> {
        let victim = self
            .tenants_on(h)
            .into_iter()
            .filter(|&id| Some(id) != protect)
            .max_by_key(|&id| (self.backed_count(id), std::cmp::Reverse(id.0)))?;
        let t = &self.tenants[&victim];
        let need_commit = t.guest_frames();
        let need_free = self.backed_count(victim) + 64;
        let dest = (0..self.hosts.len())
            .filter(|&d| d != h)
            .filter(|&d| self.limit(d).saturating_sub(self.committed(d)) >= need_commit)
            .filter(|&d| self.host_free(d) >= need_free)
            .max_by_key(|&d| (self.host_free(d), std::cmp::Reverse(d)))?;
        Some((victim, dest))
    }

    fn pick_victim(&self, h: usize, protect: Option<TenantId>) -> Option<TenantId> {
        self.tenants_on(h)
            .into_iter()
            .filter(|&id| Some(id) != protect)
            .max_by_key(|&id| (self.backed_count(id), std::cmp::Reverse(id.0)))
    }

    // -- Evacuation ---------------------------------------------------------

    /// Live-migrates tenant `id` to host `dest` through the (possibly
    /// lossy) evacuation transport. The tenant keeps serving on its source
    /// host until cutover: an aborted migration rolls the destination back
    /// frame-exact and leaves the tenant untouched. Returns whether the
    /// tenant moved.
    pub(crate) fn evacuate(&mut self, id: TenantId, dest: usize) -> bool {
        let Some(t) = self.tenants.get(&id) else {
            return false;
        };
        let from = t.host_idx;
        if dest == from || dest >= self.hosts.len() {
            return false;
        }
        // Stage the tenant as a private VM: its live guest state over a
        // scratch host big enough to back every transferred frame. The
        // migration engine then moves guest state + backed set through the
        // wire exactly as it would between real machines.
        let staging_cfg = VmConfig {
            guest: base_config(self.cfg.guest_mib),
            host: base_config(self.cfg.guest_mib * 2 + 4),
            host_vma_base: VirtAddr::new(HOST_VMA_BASE),
        };
        let mut staging = VirtualMachine::new(
            staging_cfg.clone(),
            Box::new(BasePagesPolicy),
            Box::new(BasePagesPolicy),
        );
        staging.restore_guest(&t.guest.snapshot());
        let backed: Vec<u64> = self.hosts[from]
            .system
            .aspace(t.host_pid)
            .page_table()
            .iter_mappings()
            .flat_map(|m| {
                let first = (m.va.raw() - HOST_VMA_BASE) / BASE;
                first..first + m.size.base_pages()
            })
            .collect();
        for &g in &backed {
            if staging.back_gpa(PhysAddr::new(g * BASE), BASE).is_err() {
                self.stats.evacuation_aborts += 1;
                self.tracer.emit(TraceEvent::FleetEvacuateAbort { tenant: id.0 });
                return false;
            }
        }
        let target = MigrationTarget::new(
            staging_cfg,
            Box::new(BasePagesPolicy),
            Box::new(BasePagesPolicy),
        );
        let codec = ParkedCodec::default();
        let stream_seed = splitmix64(&mut self.rng);
        let make_transport = move |attempt: u32| -> Box<dyn Transport> {
            // Fresh deterministic stream per attempt, decorrelated across
            // evacuations by the fleet RNG draw above.
            let stream = stream_seed ^ (u64::from(attempt) << 48);
            Box::new(LoopbackTransport::new(TransportPolicy::new(TransportMode::storm(
                EVAC_STORM_PPM,
                stream,
            ))))
        };
        let outcome = migrate_with_retries(
            MigrationConfig,
            &mut staging,
            target,
            &codec,
            make_transport,
            |_vm, _round| {}, // the tenant is paused for the brownout window
            EVAC_ATTEMPTS,
            Tracer::disabled(),
        );
        match outcome {
            MigrationOutcome::Completed { vm, .. } => {
                // Attach on the destination host: new process, new VM
                // region, every transferred frame re-backed.
                let moved = vm.backed_gframes();
                let gframes = self.tenants[&id].guest_frames();
                let new_pid = self.hosts[dest].system.spawn();
                self.hosts[dest].system.aspace_mut(new_pid).map_vma(
                    VirtRange::new(VirtAddr::new(HOST_VMA_BASE), gframes * BASE),
                    VmaKind::Anon,
                );
                for &g in &moved {
                    let hva = host_va_of(g);
                    if self.hosts[dest]
                        .system
                        .touch(&mut BasePagesPolicy, new_pid, hva)
                        .is_err()
                    {
                        // Destination ran dry mid-attach: unwind leak-free
                        // and keep serving from the source.
                        self.hosts[dest].system.exit(new_pid);
                        self.hosts[dest].system.drain_pcp();
                        self.stats.evacuation_aborts += 1;
                        self.tracer.emit(TraceEvent::FleetEvacuateAbort { tenant: id.0 });
                        return false;
                    }
                }
                // Detach from the source: registry members die with the
                // mappings, then the process teardown frees the footprint.
                let old_pid = self.tenants[&id].host_pid;
                registry_purge(&mut self.hosts[from].sharing, id.0);
                self.hosts[from].system.exit(old_pid);
                self.hosts[from].system.drain_pcp();
                let t = self.tenants.get_mut(&id).expect("tenant vanished mid-evacuation");
                t.host_idx = dest;
                t.host_pid = new_pid;
                self.stats.evacuations += 1;
                self.tracer.emit(TraceEvent::FleetEvacuate {
                    tenant: id.0,
                    from: from as u64,
                    to: dest as u64,
                });
                true
            }
            MigrationOutcome::Aborted { .. } => {
                // The engine rolled the staging destination back; the tenant
                // never stopped serving from the source.
                self.stats.evacuation_aborts += 1;
                self.tracer.emit(TraceEvent::FleetEvacuateAbort { tenant: id.0 });
                false
            }
        }
    }

    // -- Victim kill --------------------------------------------------------

    /// Tears tenant `id` down leak-free: sharing-registry members die first,
    /// then the host process exit returns every exclusively owned frame (and
    /// every last-sharer KSM frame) to the buddy. Returns frames freed.
    pub(crate) fn victim_kill(&mut self, id: TenantId) -> u64 {
        let Some(t) = self.tenants.remove(&id) else {
            return 0;
        };
        let h = t.host_idx;
        let free0 = self.hosts[h].system.machine().free_frames();
        registry_purge(&mut self.hosts[h].sharing, id.0);
        self.hosts[h].system.exit(t.host_pid);
        self.hosts[h].system.drain_pcp();
        let freed = self.hosts[h].system.machine().free_frames() - free0;
        self.stats.victim_kills += 1;
        self.tracer.emit(TraceEvent::FleetVictimKill { tenant: id.0, freed });
        freed
    }

    // -- Audit --------------------------------------------------------------

    /// Audits every cross-tenant invariant: per-host system audits, sharing-
    /// registry exactness (a host frame mapped by ≥ 2 tenant mappings has a
    /// record naming exactly those members, and vice versa), tag agreement
    /// across sharing members, balloon↔backing exclusion, and per-host
    /// admission accounting.
    pub fn audit(&self) -> FleetAuditReport {
        let mut report = FleetAuditReport {
            hosts_checked: self.hosts.len() as u64,
            tenants_checked: self.tenants.len() as u64,
            ..FleetAuditReport::default()
        };
        for (h, host) in self.hosts.iter().enumerate() {
            let sys_audit = host.system.audit();
            if !sys_audit.is_clean() {
                report.violations.push(format!("host{h}: {sys_audit}"));
            }
            // Ground truth: host frame → every (tenant, gframe) mapping it.
            let mut actual: BTreeMap<u64, Vec<(u64, u64)>> = BTreeMap::new();
            for (id, t) in &self.tenants {
                if t.host_idx != h {
                    continue;
                }
                for m in host.system.aspace(t.host_pid).page_table().iter_mappings() {
                    let first = (m.va.raw() - HOST_VMA_BASE) / BASE;
                    for i in 0..m.size.base_pages() {
                        actual
                            .entry(m.pte.pfn.raw() + i)
                            .or_default()
                            .push((id.0, first + i));
                    }
                }
            }
            let expected: BTreeMap<u64, Vec<(u64, u64)>> = actual
                .iter()
                .filter(|(_, members)| members.len() >= 2)
                .map(|(&pfn, members)| {
                    let mut m = members.clone();
                    m.sort_unstable();
                    (pfn, m)
                })
                .collect();
            report.shared_frames += expected.len() as u64;
            if expected != host.sharing {
                for (pfn, members) in &expected {
                    match host.sharing.get(pfn) {
                        None => report.violations.push(format!(
                            "host{h}: frame {pfn} mapped by {members:?} has no sharing record"
                        )),
                        Some(rec) if rec != members => report.violations.push(format!(
                            "host{h}: frame {pfn} record {rec:?} != mappings {members:?}"
                        )),
                        Some(_) => {}
                    }
                }
                for (pfn, rec) in &host.sharing {
                    if !expected.contains_key(pfn) {
                        report.violations.push(format!(
                            "host{h}: stale sharing record for frame {pfn}: {rec:?}"
                        ));
                    }
                }
            }
            // Tag agreement: every member of a record that is still reachable
            // from a tagged workload page must carry the same tag.
            for (pfn, members) in &host.sharing {
                let mut tags_seen: Vec<u64> = Vec::new();
                for &(tid, gframe) in members {
                    let Some(t) = self.tenants.get(&TenantId(tid)) else {
                        report.violations.push(format!(
                            "host{h}: record for frame {pfn} names dead tenant {tid}"
                        ));
                        continue;
                    };
                    for (&page, &tag) in &t.tags {
                        let va = page_va(page);
                        let mapped = t
                            .guest
                            .aspace(t.guest_pid)
                            .page_table()
                            .translate(va)
                            .map(|g| g.frame_for(va).raw());
                        if mapped == Ok(gframe) {
                            tags_seen.push(tag);
                        }
                    }
                }
                tags_seen.dedup();
                if tags_seen.len() > 1 {
                    report.violations.push(format!(
                        "host{h}: frame {pfn} shared by pages with differing tags {tags_seen:?}"
                    ));
                }
            }
            // Admission accounting.
            let committed = self.committed(h);
            let limit = self.limit(h);
            if committed > limit {
                report.violations.push(format!(
                    "host{h}: committed {committed} frames exceeds overcommit limit {limit}"
                ));
            }
        }
        // Balloon ↔ backing exclusion: a ballooned frame's host backing was
        // released at inflate and must stay gone until deflate.
        for (id, t) in &self.tenants {
            let host = &self.hosts[t.host_idx];
            for &g in &t.balloon {
                if host.system.aspace(t.host_pid).page_table().translate(host_va_of(g)).is_ok()
                {
                    report.violations.push(format!(
                        "{id}: ballooned guest frame {g} still has host backing"
                    ));
                }
            }
        }
        report
    }

    // -- Snapshot / restore -------------------------------------------------

    /// Captures a plain-data image of the whole fleet.
    pub fn snapshot(&self) -> FleetSnapshot {
        FleetSnapshot {
            config: self.cfg.clone(),
            hosts: self.hosts.iter().map(|h| h.system.snapshot()).collect(),
            sharing: self
                .hosts
                .iter()
                .map(|h| h.sharing.iter().map(|(&p, m)| (p, m.clone())).collect())
                .collect(),
            tenants: self
                .tenants
                .iter()
                .map(|(id, t)| TenantSnapshot {
                    id: id.0,
                    guest: t.guest.snapshot(),
                    host_idx: t.host_idx as u64,
                    host_pid: t.host_pid.0,
                    guest_pid: t.guest_pid.0,
                    balloon: t.balloon.iter().copied().collect(),
                    tags: t.tags.iter().map(|(&p, &tag)| (p, tag)).collect(),
                })
                .collect(),
            stats: self.stats,
            next_tenant: self.next_tenant,
            rng: self.rng,
            ksm_cursor: self.ksm_cursor,
        }
    }

    /// Rebuilds a fleet from a snapshot. The tracer comes back disabled
    /// (reattach with [`Fleet::set_tracer`]).
    pub fn restore(snap: &FleetSnapshot) -> Self {
        let hosts = snap
            .hosts
            .iter()
            .zip(&snap.sharing)
            .map(|(sys, sharing)| FleetHost {
                system: System::restore(sys),
                sharing: sharing.iter().map(|(p, m)| (*p, m.clone())).collect(),
            })
            .collect();
        let tenants = snap
            .tenants
            .iter()
            .map(|t| {
                (
                    TenantId(t.id),
                    Tenant {
                        guest: System::restore(&t.guest),
                        host_idx: t.host_idx as usize,
                        host_pid: Pid(t.host_pid),
                        guest_pid: Pid(t.guest_pid),
                        balloon: t.balloon.iter().copied().collect(),
                        tags: t.tags.iter().copied().collect(),
                    },
                )
            })
            .collect();
        Self {
            cfg: snap.config.clone(),
            hosts,
            tenants,
            stats: snap.stats,
            next_tenant: snap.next_tenant,
            rng: snap.rng,
            ksm_cursor: snap.ksm_cursor,
            tracer: Tracer::disabled(),
            guest_tracer: Tracer::disabled(),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn assert_send<T: Send>() {}

    #[test]
    fn fleet_is_send() {
        assert_send::<Fleet>();
    }

    fn small_fleet() -> Fleet {
        // 1 host × 32 MiB, 8 MiB tenants, up to 1.6× overcommit.
        Fleet::new(FleetConfig::new(1, 32, 8))
    }

    #[test]
    fn admit_until_overcommit_limit_then_refuse() {
        let mut fleet = small_fleet();
        // 32 MiB × 1.6 = 51.2 MiB of 8 MiB tenants → 6 admits, 7th refused.
        for _ in 0..6 {
            fleet.admit().unwrap();
        }
        assert_eq!(fleet.admit(), Err(FleetError::NoCapacity));
        assert_eq!(fleet.stats().admits, 6);
        assert!(fleet.audit().is_clean());
    }

    #[test]
    fn write_read_roundtrip_and_zero_pages() {
        let mut fleet = small_fleet();
        let t = fleet.admit().unwrap();
        assert_eq!(fleet.tenant_read(t, 0).unwrap(), None);
        fleet.tenant_write(t, 0, 42).unwrap();
        fleet.tenant_write(t, 7, 43).unwrap();
        assert_eq!(fleet.tenant_read(t, 0).unwrap(), Some(42));
        assert_eq!(fleet.tenant_read(t, 7).unwrap(), Some(43));
        assert_eq!(fleet.tenant_read(t, 3).unwrap(), None);
        assert!(fleet.audit().is_clean());
    }

    #[test]
    fn ksm_merges_equal_tags_and_write_breaks_privately() {
        let mut fleet = small_fleet();
        let a = fleet.admit().unwrap();
        let b = fleet.admit().unwrap();
        fleet.tenant_write(a, 1, 0xAB).unwrap();
        fleet.tenant_write(b, 5, 0xAB).unwrap();
        fleet.tenant_write(b, 6, 0xCD).unwrap();
        let free_before = fleet.host_free(0);
        let (scanned, merged) = fleet.ksm_scan_host(0);
        assert!(scanned >= 3);
        assert_eq!(merged, 1);
        assert_eq!(fleet.host_free(0), free_before + 1, "dedup freed one frame");
        assert_eq!(fleet.hosts()[0].sharing().len(), 1);
        assert!(fleet.audit().is_clean());
        // Re-scanning is idempotent.
        assert_eq!(fleet.ksm_scan_host(0).1, 0);
        // A write by one sharer breaks the share onto a private frame and
        // the other sharer still reads its own content.
        fleet.tenant_write(b, 5, 0xEE).unwrap();
        assert_eq!(fleet.stats().ksm_unmerges, 1);
        assert!(fleet.hosts()[0].sharing().is_empty());
        assert_eq!(fleet.tenant_read(a, 1).unwrap(), Some(0xAB));
        assert_eq!(fleet.tenant_read(b, 5).unwrap(), Some(0xEE));
        assert!(fleet.audit().is_clean());
    }

    #[test]
    fn discard_then_balloon_recovers_host_memory() {
        let mut fleet = small_fleet();
        let t = fleet.admit().unwrap();
        for p in 0..128 {
            fleet.tenant_write(t, p, p + 1).unwrap();
        }
        for p in 0..128 {
            assert!(fleet.tenant_discard(t, p).unwrap());
        }
        let free_before = fleet.host_free(0);
        let claimed = fleet.balloon_inflate_tenant(t, 128);
        assert_eq!(claimed, 128);
        assert_eq!(fleet.host_free(0), free_before + 128);
        assert!(fleet.audit().is_clean());
        // Deflate re-backs eagerly; the frames read as zero after reuse.
        let released = fleet.balloon_deflate_tenant(t, 128);
        assert_eq!(released, 128);
        assert_eq!(fleet.host_free(0), free_before);
        assert_eq!(fleet.tenant_read(t, 3).unwrap(), None);
        assert!(fleet.audit().is_clean());
    }

    #[test]
    fn pressure_ladder_keeps_tenants_faulting_without_host_oom() {
        // 16 MiB host (4096 frames), three 8 MiB tenants (1.5×, inside the
        // 1.6× admission limit), each writing its whole 1536-page workload
        // with tenant-unique tags (nothing for KSM to merge): 4608 pages of
        // demand beyond capacity. The ladder must kill rather than OOM.
        let mut fleet = Fleet::new(FleetConfig::new(1, 16, 8));
        let ids: Vec<TenantId> = (0..3).map(|_| fleet.admit().unwrap()).collect();
        let mut writes = 0u64;
        'outer: for p in 0..1536 {
            for &id in &ids {
                if fleet.tenant(id).is_none() {
                    continue; // killed by an earlier pressure episode
                }
                match fleet.tenant_write(id, p, id.0 * 10_000 + p + 1) {
                    Ok(()) => writes += 1,
                    Err(e) => panic!("host-fatal fault after {writes} writes: {e}"),
                }
                if fleet.tenant_ids().len() == 1 {
                    break 'outer; // one survivor left; the point is proven
                }
            }
        }
        assert!(fleet.stats().pressure_events > 0);
        assert!(fleet.stats().victim_kills > 0, "ladder never escalated to kill");
        assert!(!fleet.tenant_ids().is_empty());
        assert!(fleet.audit().is_clean());
        // Leak-free: everything not backing a live tenant is in the buddy.
        let backed: u64 = fleet
            .tenant_ids()
            .iter()
            .map(|&id| {
                let t = fleet.tenant(id).unwrap();
                t.backed_frames(fleet.hosts()[t.host_idx()].system())
            })
            .sum();
        let shared_extra: u64 = fleet.hosts()[0]
            .sharing()
            .values()
            .map(|m| m.len() as u64 - 1)
            .sum();
        assert_eq!(
            fleet.host_free(0),
            fleet.hosts()[0].system().machine().total_frames() - (backed - shared_extra)
        );
    }

    #[test]
    fn evacuation_moves_tenant_and_preserves_content() {
        // The evacuation wire is lossy; resume survives it.
        let mut fleet = Fleet::new(FleetConfig::new(2, 32, 8));
        let a = fleet.admit().unwrap();
        let from = fleet.tenant(a).unwrap().host_idx();
        for p in 0..64 {
            fleet.tenant_write(a, p, 1000 + p).unwrap();
        }
        let dest = 1 - from;
        assert!(fleet.evacuate(a, dest), "evacuation failed to complete");
        assert_eq!(fleet.tenant(a).unwrap().host_idx(), dest);
        assert_eq!(fleet.stats().evacuations, 1);
        // Source host fully freed (its only tenant left).
        assert_eq!(
            fleet.host_free(from),
            fleet.hosts()[from].system().machine().total_frames()
        );
        for p in 0..64 {
            assert_eq!(fleet.tenant_read(a, p).unwrap(), Some(1000 + p));
        }
        assert!(fleet.audit().is_clean());
    }

    #[test]
    fn victim_kill_is_leak_free() {
        let mut fleet = small_fleet();
        let a = fleet.admit().unwrap();
        let b = fleet.admit().unwrap();
        fleet.tenant_write(a, 0, 7).unwrap();
        fleet.tenant_write(a, 1, 8).unwrap(); // private to a
        fleet.tenant_write(b, 0, 7).unwrap();
        fleet.ksm_scan_host(0);
        // a's page 0 frame is KSM-shared with b (survives the kill); its
        // private page-1 frame must come back.
        let freed = fleet.victim_kill(a);
        assert!(freed > 0);
        assert!(fleet.tenant(a).is_none());
        assert_eq!(fleet.tenant_read(b, 0).unwrap(), Some(7));
        assert!(fleet.audit().is_clean());
        let freed_b = fleet.victim_kill(b);
        assert!(freed_b > 0);
        assert_eq!(
            fleet.host_free(0),
            fleet.hosts()[0].system().machine().total_frames(),
            "teardown leaked host frames"
        );
    }

    #[test]
    fn snapshot_restore_replays_identically() {
        let mut fleet = small_fleet();
        let a = fleet.admit().unwrap();
        let b = fleet.admit().unwrap();
        for p in 0..32 {
            fleet.tenant_write(a, p, p % 5).unwrap();
            fleet.tenant_write(b, p, p % 5).unwrap();
        }
        fleet.ksm_scan_host(0);
        fleet.step();
        let snap = fleet.snapshot();
        let mut twin = Fleet::restore(&snap);
        assert_eq!(twin.snapshot(), snap);
        // Same ops on both sides → same snapshots.
        for f in [&mut fleet, &mut twin] {
            f.tenant_write(a, 2, 99).unwrap();
            f.balloon_inflate_tenant(b, 8);
            f.step();
        }
        assert_eq!(fleet.snapshot(), twin.snapshot());
        assert!(fleet.audit().is_clean());
    }

    #[test]
    fn stats_match_trace_counts() {
        let session = contig_trace::TraceSession::ring(1 << 14);
        let mut fleet = small_fleet();
        fleet.set_tracer(session.tracer());
        let a = fleet.admit().unwrap();
        let b = fleet.admit().unwrap();
        for p in 0..64 {
            fleet.tenant_write(a, p, p % 3).unwrap();
            fleet.tenant_write(b, p, p % 3).unwrap();
        }
        fleet.ksm_scan_host(0);
        fleet.tenant_write(a, 0, 77).unwrap(); // one unmerge
        for p in 0..32 {
            fleet.tenant_discard(a, p).unwrap();
        }
        fleet.balloon_inflate_tenant(a, 16);
        fleet.balloon_deflate_tenant(a, 8);
        fleet.victim_kill(b);
        fleet.step();
        let metrics = session.metrics();
        for (name, want) in fleet.stats().as_named() {
            assert_eq!(metrics.counter(name), want, "stats↔trace mismatch for {name}");
        }
    }
}
