//! The virtual machine: a guest OS instance whose physical memory is demand-
//! backed by a host OS instance, exactly like QEMU/KVM nested paging.
//!
//! The guest's "physical" frames are addresses inside one big host VMA (the
//! VM memory region); touching guest-physical memory for the first time
//! raises a *nested fault* that the host services with its own placement
//! policy. CA paging therefore applies to each dimension independently
//! (paper §III-C, "Virtualized execution") with zero coordination.

use contig_buddy::MachineConfig;
use contig_mm::{
    FaultOutcome, PageTable, PlacementPolicy, Pid, PteFlags, System, SystemConfig, VmaId, VmaKind,
    READAHEAD_PAGES,
};
use contig_trace::{stage, Dim, TraceEvent, Tracer};
use contig_types::{ContigError, FaultError, PageSize, PhysAddr, Pfn, VirtAddr, VirtRange};

/// Construction parameters for a [`VirtualMachine`].
#[derive(Clone, Debug)]
pub struct VmConfig {
    /// Guest-visible physical memory layout (the guest buddy allocator runs
    /// over this).
    pub guest: SystemConfig,
    /// Host physical memory layout.
    pub host: SystemConfig,
    /// Guest-physical address where the VM memory region starts inside the
    /// host VMA space (arbitrary; kept non-zero to catch confusion between
    /// the address spaces).
    pub host_vma_base: VirtAddr,
}

impl VmConfig {
    /// A VM with `guest_mib` of guest memory on a host with `host_mib`,
    /// both single-node with default (THP) configurations.
    pub fn with_mib(guest_mib: u64, host_mib: u64) -> Self {
        Self::with_mib_nodes(guest_mib, host_mib, 1)
    }

    /// A VM whose guest and host machines are each split into `nodes`
    /// equal-size NUMA zones (`nodes` clamped to at least 1). Total memory
    /// stays `guest_mib`/`host_mib`; sizes that do not divide evenly give
    /// the remainder to the last zone.
    pub fn with_mib_nodes(guest_mib: u64, host_mib: u64, nodes: usize) -> Self {
        Self {
            guest: SystemConfig::new(split_mib(guest_mib, nodes)),
            host: SystemConfig::new(split_mib(host_mib, nodes)),
            host_vma_base: VirtAddr::new(0x7f00_0000_0000),
        }
    }
}

/// Splits `mib` of memory into `nodes` equal zones (remainder to the last).
fn split_mib(mib: u64, nodes: usize) -> MachineConfig {
    let nodes = nodes.max(1) as u64;
    let per = mib / nodes;
    let mut sizes = vec![per; nodes as usize];
    *sizes.last_mut().expect("at least one node") += mib - per * nodes;
    MachineConfig::with_node_mib(&sizes)
}

/// A nested-paging virtual machine: guest [`System`] + host [`System`].
///
/// The guest and host placement policies are owned by the VM so both
/// dimensions run their strategy on every fault path.
///
/// # Examples
///
/// ```
/// use contig_mm::{DefaultThpPolicy, VmaKind};
/// use contig_types::{VirtAddr, VirtRange};
/// use contig_virt::{VirtualMachine, VmConfig};
///
/// let mut vm = VirtualMachine::new(
///     VmConfig::with_mib(64, 128),
///     Box::new(DefaultThpPolicy),
///     Box::new(DefaultThpPolicy),
/// );
/// let pid = vm.guest_mut().spawn();
/// vm.guest_mut()
///     .aspace_mut(pid)
///     .map_vma(VirtRange::new(VirtAddr::new(0x40_0000), 4 << 20), VmaKind::Anon);
/// vm.touch(pid, VirtAddr::new(0x40_0000))?;
/// // The walk composes guest and host translations.
/// assert!(vm.translate_2d(pid, VirtAddr::new(0x40_0000)).is_some());
/// # Ok::<(), contig_types::FaultError>(())
/// ```
pub struct VirtualMachine {
    guest: System,
    host: System,
    guest_policy: Box<dyn PlacementPolicy>,
    host_policy: Box<dyn PlacementPolicy>,
    host_pid: Pid,
    host_vma: VmaId,
    host_vma_base: VirtAddr,
    /// Hypervisor-level trace probe (nested-fault spans); disabled by default.
    tracer: Tracer,
}

impl std::fmt::Debug for VirtualMachine {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("VirtualMachine")
            .field("guest_policy", &self.guest_policy.name())
            .field("host_policy", &self.host_policy.name())
            .field("guest_frames", &self.guest.machine().total_frames())
            .field("host_frames", &self.host.machine().total_frames())
            .finish()
    }
}

impl VirtualMachine {
    /// Boots a VM: creates the host process owning the VM memory region.
    ///
    /// # Panics
    ///
    /// Panics if the guest memory does not fit the host VMA space.
    pub fn new(
        config: VmConfig,
        guest_policy: Box<dyn PlacementPolicy>,
        host_policy: Box<dyn PlacementPolicy>,
    ) -> Self {
        let guest = System::new(config.guest);
        let mut host = System::new(config.host);
        let host_pid = host.spawn();
        let guest_bytes = guest.machine().total_frames() * PageSize::Base4K.bytes();
        let host_vma = host.aspace_mut(host_pid).map_vma(
            VirtRange::new(config.host_vma_base, guest_bytes),
            VmaKind::Anon,
        );
        Self {
            guest,
            host,
            guest_policy,
            host_policy,
            host_pid,
            host_vma,
            host_vma_base: config.host_vma_base,
            tracer: Tracer::disabled(),
        }
    }

    /// Attaches a trace handle to the whole VM: guest-dimension events are
    /// tagged `guest`, host-dimension events `host`, and the hypervisor
    /// itself emits `virt.nested_fault` spans for nested fault service.
    pub fn set_tracer(&mut self, tracer: Tracer) {
        self.guest.set_tracer(tracer.with_dim(Dim::Guest));
        self.host.set_tracer(tracer.with_dim(Dim::Host));
        // Nested-fault service is host-side work: put its spans on the host
        // track alongside the host fault events they subsume.
        self.tracer = tracer.with_dim(Dim::Host);
    }

    /// The guest OS instance.
    pub fn guest(&self) -> &System {
        &self.guest
    }

    /// Mutable access to the guest OS (spawn processes, map VMAs).
    pub fn guest_mut(&mut self) -> &mut System {
        &mut self.guest
    }

    /// The host OS instance.
    pub fn host(&self) -> &System {
        &self.host
    }

    /// Mutable access to the host OS (fragmenters, daemons).
    pub fn host_mut(&mut self) -> &mut System {
        &mut self.host
    }

    /// Arms the background contiguity-maintenance daemon in both
    /// dimensions, mirroring khugepaged/kcompactd running in the guest
    /// kernel and the hypervisor at once.
    pub fn enable_daemon(&mut self, config: contig_mm::DaemonConfig) {
        self.guest.enable_daemon(config);
        self.host.enable_daemon(config);
    }

    /// One deterministic maintenance-daemon tick: guest dimension first,
    /// then host, exactly like the two kernels' daemons racing the same
    /// foreground faults. Disarmed dimensions are strict no-ops. Returns
    /// the total work units spent across both dimensions.
    pub fn daemon_tick(&mut self) -> u64 {
        self.guest.daemon_tick() + self.host.daemon_tick()
    }

    /// Enables per-CPU frame caches in *both* dimensions: the guest buddy
    /// allocator and the host's (see [`contig_buddy::PcpConfig`]) — the
    /// paper's virtualized setting, where pcp lists exist in guest and host
    /// kernels alike and CA paging must drain them at each level.
    ///
    /// # Panics
    ///
    /// Panics if pcp is already enabled in either dimension.
    pub fn enable_pcp(&mut self, config: contig_buddy::PcpConfig) {
        self.guest.enable_pcp(config);
        self.host.enable_pcp(config);
    }

    /// Selects the simulated CPU in both dimensions (no-op while pcp is
    /// disabled).
    ///
    /// # Panics
    ///
    /// Panics if `cpu` is out of range for the configured CPU count.
    pub fn set_cpu(&mut self, cpu: usize) {
        self.guest.set_cpu(cpu);
        self.host.set_cpu(cpu);
    }

    /// The VM's trace handle (disabled unless [`VirtualMachine::set_tracer`]
    /// was called).
    pub fn tracer(&self) -> &Tracer {
        &self.tracer
    }

    /// The host process backing this VM.
    pub fn host_pid(&self) -> Pid {
        self.host_pid
    }

    /// Host virtual address corresponding to guest-physical `gpa`.
    pub fn host_va_of(&self, gpa: PhysAddr) -> VirtAddr {
        VirtAddr::new(self.host_vma_base.raw() + gpa.raw())
    }

    /// Touches guest virtual address `va` in process `pid`, servicing the
    /// guest fault and any nested fault it raises.
    ///
    /// # Errors
    ///
    /// Guest faults propagate [`FaultError`]; nested out-of-host-memory is
    /// reported as [`FaultError::OutOfMemory`] at the guest address.
    pub fn touch(&mut self, pid: Pid, va: VirtAddr) -> Result<FaultOutcome, FaultError> {
        let out = self.guest.touch(&mut *self.guest_policy, pid, va)?;
        if !out.already_mapped
            || !self.backing_complete(PhysAddr::from(out.pfn), out.size.bytes())
        {
            // Either a fresh guest mapping, or one left unbacked by an
            // earlier nested-fault OOM: (re-)establish host backing.
            self.back_fault(pid, va, out)?;
        }
        Ok(out)
    }

    /// Write-touches `va`, breaking guest copy-on-write.
    ///
    /// # Errors
    ///
    /// As for [`VirtualMachine::touch`].
    pub fn touch_write(&mut self, pid: Pid, va: VirtAddr) -> Result<FaultOutcome, FaultError> {
        let out = self.guest.touch_write(&mut *self.guest_policy, pid, va)?;
        if !out.already_mapped
            || !self.backing_complete(PhysAddr::from(out.pfn), out.size.bytes())
        {
            self.back_fault(pid, va, out)?;
        }
        Ok(out)
    }

    /// Ensures host backing for whatever guest memory the fault touched:
    /// the allocated anonymous page, or the page-cache readahead window for
    /// file faults.
    fn back_fault(
        &mut self,
        pid: Pid,
        va: VirtAddr,
        out: FaultOutcome,
    ) -> Result<(), FaultError> {
        // Anonymous (and COW) faults allocate exactly `out`.
        let mut proven = self.back_gpa_range(va, PhysAddr::from(out.pfn), out.size.bytes())?;
        // File faults additionally populated a readahead window; back every
        // cached frame of the window. A frame inside a host leaf that a
        // touch proved mapped needs no touch of its own.
        let aspace = self.guest.aspace(pid);
        if let Some(vma_id) = aspace.vma_containing(va) {
            if let VmaKind::File { file, start_page } = aspace.vma(vma_id).kind() {
                let vma_start = aspace.vma(vma_id).range().start();
                let vma_index = (va.align_down(PageSize::Base4K) - vma_start) / 4096;
                // The guest fault succeeded, so the index fits; the window
                // end saturates at the top of the index space.
                let index = start_page.saturating_add(vma_index);
                let frames: Vec<Pfn> = self
                    .guest
                    .page_cache()
                    .window(file, index, READAHEAD_PAGES)
                    .map(|(_, pfn)| pfn)
                    .collect();
                for pfn in frames {
                    let gpa = PhysAddr::from(pfn);
                    if proven.is_some_and(|leaf| leaf.contains(self.host_va_of(gpa))) {
                        // A touch here would find the proven leaf and change
                        // nothing: keep only its (zero-length) span.
                        self.tracer.set_clock(self.host.now_ns());
                        self.tracer.span_mark(stage::GFAULT);
                    } else {
                        proven = self.back_gpa_range(va, gpa, PageSize::Base4K.bytes())?;
                    }
                }
            }
        }
        Ok(())
    }

    /// Nested fault service: back `[gpa, gpa + len)` with host memory.
    ///
    /// Host faults run the host's full recovery path (reclaim, compaction,
    /// order back-off); a hard host OOM is reported at the *guest* virtual
    /// address `gva`, which is the address the guest workload can act on.
    ///
    /// Returns the host leaf the last touch found already mapped, if no
    /// touch faulted after it: a touch that changes nothing proves that
    /// leaf mapped until the next touch that faults.
    fn back_gpa_range(
        &mut self,
        gva: VirtAddr,
        gpa: PhysAddr,
        len: u64,
    ) -> Result<Option<VirtRange>, FaultError> {
        let mut hva = self.host_va_of(gpa);
        let end = self.host_va_of(gpa) + len;
        let before_ns = self.host.now_ns();
        // Guest-fault span on the *host* timeline: host faults triggered by
        // the touches below nest inside it, so a flamegraph shows
        // `gfault;fault;…` with the host-side cost attributed underneath.
        self.tracer.set_clock(before_ns);
        let _gfault_span = self.tracer.span(stage::GFAULT);
        let mut proven = None;
        while hva < end {
            let out = self
                .host
                .touch(&mut *self.host_policy, self.host_pid, hva)
                .map_err(|e| match e {
                    FaultError::OutOfMemory { size, .. } => {
                        FaultError::OutOfMemory { addr: gva, size }
                    }
                    other => other,
                })?;
            // Advance past whatever the host mapped (a huge host page may
            // cover far more than the guest page that faulted).
            let leaf = VirtRange::new(hva.align_down(out.size), out.size.bytes());
            proven = out.already_mapped.then_some(leaf);
            hva = leaf.end();
        }
        // Span only when the host actually serviced a fault: revalidating
        // already-backed frames costs nothing in the simulated clock.
        let latency_ns = self.host.now_ns() - before_ns;
        if latency_ns > 0 {
            self.tracer.emit(TraceEvent::NestedFault {
                gva: gva.raw(),
                gpa: gpa.raw(),
                bytes: len,
                latency_ns,
            });
        }
        Ok(proven)
    }

    /// Whether `[gpa, gpa + len)` is fully backed by host mappings.
    ///
    /// A nested-fault OOM can leave a guest mapping without (complete) host
    /// backing; the fault entry points use this to detect and heal the hole
    /// on the next touch instead of silently returning `already_mapped`.
    fn backing_complete(&self, gpa: PhysAddr, len: u64) -> bool {
        let mut hva = self.host_va_of(gpa);
        let end = self.host_va_of(gpa) + len;
        while hva < end {
            match self.host.aspace(self.host_pid).page_table().translate(hva) {
                Ok(t) => hva = hva.align_down(t.size) + t.size.bytes(),
                Err(_) => return false,
            }
        }
        true
    }

    /// Establishes host backing for `[gpa, gpa + len)` if any of it is
    /// missing, returning whether backing work was actually performed.
    ///
    /// This is the migration destination's apply primitive: it is strictly
    /// idempotent — re-applying an already-backed range is a pure read (no
    /// host faults, no clock movement), which is what makes retransmitted
    /// chunks and lost acknowledgments harmless to the destination digest.
    ///
    /// # Errors
    ///
    /// Host out-of-memory is reported as [`FaultError::OutOfMemory`] at the
    /// host virtual address of `gpa`.
    pub fn back_gpa(&mut self, gpa: PhysAddr, len: u64) -> Result<bool, FaultError> {
        if self.backing_complete(gpa, len) {
            return Ok(false);
        }
        let hva = self.host_va_of(gpa);
        self.back_gpa_range(hva, gpa, len)?;
        Ok(true)
    }

    /// Total guest-physical frames of this VM (the VM memory region spans
    /// exactly this many base pages).
    pub(crate) fn guest_frames(&self) -> u64 {
        self.guest.machine().total_frames()
    }

    /// Host virtual address of guest-physical zero (the VM memory region
    /// base).
    pub(crate) fn host_vma_base(&self) -> VirtAddr {
        self.host_vma_base
    }

    /// Every guest-physical frame currently backed by a host mapping, sorted
    /// ascending. This is a migration's round-0 transfer set: everything the
    /// hypervisor has ever materialized for the guest (anonymous memory,
    /// page cache, leftovers from exited guest processes — backing persists
    /// for the VM's lifetime).
    pub fn backed_gframes(&self) -> Vec<u64> {
        let base = self.host_vma_base.raw();
        let end = base + self.guest_frames() * PageSize::Base4K.bytes();
        let region = VirtRange::from_bounds(self.host_vma_base, VirtAddr::new(end));
        let mut frames = Vec::new();
        for m in self.host.aspace(self.host_pid).page_table().mappings_in(region) {
            let va = m.va.raw();
            let first = (va - base) / PageSize::Base4K.bytes();
            let span = m.size.base_pages().min((end - va) / PageSize::Base4K.bytes());
            frames.extend(first..first + span);
        }
        frames.sort_unstable();
        frames.dedup();
        frames
    }

    /// Replaces the guest dimension with a restored snapshot, keeping the
    /// host dimension and the live policies — the migration cutover: the
    /// destination host has pre-backed the transferred pages, and this
    /// installs the source's final guest state on top. The guest tracer
    /// comes back disabled (reattach with [`VirtualMachine::set_tracer`]).
    pub fn restore_guest(&mut self, snap: &contig_mm::SystemSnapshot) {
        self.guest = System::restore(snap);
    }

    /// Faults every page of a guest VMA in address order (allocation phase).
    ///
    /// # Errors
    ///
    /// Propagates the first fault failure.
    pub fn populate_vma(&mut self, pid: Pid, vma: VmaId) -> Result<(), FaultError> {
        let range = self.guest.aspace(pid).vma(vma).range();
        let mut va = range.start();
        while va < range.end() {
            let out = self.touch(pid, va)?;
            va = va.align_down(out.size) + out.size.bytes();
        }
        Ok(())
    }

    /// Full two-dimensional translation gVA → hPA for one 4 KiB page.
    ///
    /// Returns `(host physical address, guest leaf size, host leaf size,
    /// guest flags ∧ host flags CONTIG, walk levels)` — everything the nested
    /// walker produces. `None` when either dimension is unmapped.
    pub fn translate_2d(&self, pid: Pid, va: VirtAddr) -> Option<TwoDTranslation> {
        self.translate_through(
            self.guest.aspace(pid).page_table(),
            self.host.aspace(self.host_pid).page_table(),
            va,
        )
    }

    /// [`VirtualMachine::translate_2d`] over page tables the caller already
    /// resolved: `guest` one guest process's, `host` the nested table.
    pub(crate) fn translate_through(
        &self,
        guest: &PageTable,
        host: &PageTable,
        va: VirtAddr,
    ) -> Option<TwoDTranslation> {
        let g = guest.translate(va).ok()?;
        let gpa = PhysAddr::from(g.frame_for(va)) + va.page_offset(PageSize::Base4K);
        let hva = self.host_va_of(gpa);
        let h = host.translate(hva).ok()?;
        let hpa = PhysAddr::from(h.frame_for(hva)) + hva.page_offset(PageSize::Base4K);
        Some(TwoDTranslation {
            hpa,
            guest_size: g.size,
            host_size: h.size,
            guest_levels: g.levels,
            host_levels: h.levels,
            contig: g.flags.contains(PteFlags::CONTIG) && h.flags.contains(PteFlags::CONTIG),
            write: g.flags.contains(PteFlags::WRITE),
        })
    }

    /// Terminates a guest process. Host backing persists (the hypervisor
    /// keeps gPA→hPA mappings as long as the VM lives — §III-C).
    pub fn exit_guest_process(&mut self, pid: Pid) {
        self.guest.exit(pid);
    }

    /// Handles an uncorrectable memory error on *host* frame `pfn` — the
    /// hypervisor half of hwpoison (paper's virtualized setting: the strike
    /// lands in host-physical memory underneath a running guest).
    ///
    /// The host recovery path runs first ([`System::memory_failure`]): a
    /// migrate-and-heal is fully transparent — the gPA→hPA mapping moves and
    /// the guest never notices. When the host *kills* the VM backing mapping
    /// instead, every guest mapping composed onto the destroyed
    /// guest-physical page receives a machine-check (`poison.guest_mce`,
    /// with the guest virtual address the guest workload can act on), and
    /// the hypervisor immediately re-backs the hole with fresh host frames —
    /// the guest data is lost (that is what the MCE reports) but the VM
    /// memory region self-heals. If re-backing itself OOMs the hole stays,
    /// visible to `audit_vm` as `unbacked`, and heals on the next touch.
    /// A frame no host zone owns is refused with
    /// [`contig_mm::FailureAction::NoSuchFrame`].
    pub fn poison_host_frame(&mut self, pfn: Pfn) -> HostPoisonReport {
        // Remember the VM-region mapping that may lose its backing: after a
        // kill the host page table no longer records its extent. Only a
        // frame in use has users; free, pcp-cached and already-quarantined
        // strikes build nothing.
        let m = self.host.machine();
        let in_use = !(m.is_free(pfn) || m.pcp_contains(pfn) || m.is_poisoned(pfn));
        let hole = in_use
            .then(|| self.host.frame_users().covering(pfn))
            .and_then(|refs| refs.into_iter().find(|r| r.0 == self.host_pid))
            .map(|(_, hva, size, ..)| (hva, size));
        let outcome = self.host.memory_failure(pfn);
        let mut guest_mces = Vec::new();
        for victim in &outcome.victims {
            if victim.ctx().pid != Some(self.host_pid.0) {
                continue; // another host process; no guest impact
            }
            let ContigError::Fault {
                source: FaultError::MemoryFailure { addr, .. }, ..
            } = victim
            else {
                continue;
            };
            if addr.raw() < self.host_vma_base.raw() {
                continue;
            }
            let gpa = PhysAddr::new(addr.raw() - self.host_vma_base.raw());
            // Every guest mapping composed onto the destroyed guest-physical
            // page receives the MCE at the va of the affected base page.
            let gframe = Pfn::new(gpa.raw() / PageSize::Base4K.bytes());
            for (pid, head_va, _, _, head) in self.guest.frame_users().covering(gframe) {
                let va = head_va + (gframe.raw() - head.raw()) * PageSize::Base4K.bytes();
                self.tracer.emit(TraceEvent::PoisonGuestMce {
                    pid: pid.0,
                    va: va.raw(),
                    gpa: gpa.raw(),
                });
                guest_mces.push(GuestMce { pid, va, gpa });
            }
        }
        if let Some((hva, size)) = hole {
            // Only a kill tears the mapping down; heals remap in place.
            if self.host.aspace(self.host_pid).page_table().translate(hva).is_err() {
                self.reback(hva, size.bytes());
            }
        }
        HostPoisonReport { guest_mces }
    }

    /// Consults the *host* poison policy once (see
    /// [`System::set_poison_policy`] on [`VirtualMachine::host_mut`]); if it
    /// fires, the strike runs through [`VirtualMachine::poison_host_frame`]
    /// so guest MCE delivery and re-backing happen. Guest-dimension poison
    /// needs no hypervisor help: drive `guest_mut().poison_tick()` directly.
    pub fn poison_tick(&mut self) -> Option<HostPoisonReport> {
        let pfn = self.host.poison_draw()?;
        Some(self.poison_host_frame(pfn))
    }

    /// Re-establishes host backing for `[start, start + len)` after a kill,
    /// tolerating OOM (the hole then heals on the next guest touch).
    fn reback(&mut self, start: VirtAddr, len: u64) {
        let mut hva = start;
        let end = start + len;
        while hva < end {
            match self.host.touch(&mut *self.host_policy, self.host_pid, hva) {
                Ok(out) => hva = hva.align_down(out.size) + out.size.bytes(),
                Err(_) => return,
            }
        }
    }

    /// Captures both dimensions as plain data. Placement policies are not
    /// part of the image: they are strategy objects the restoring side
    /// supplies (and the stock ones are stateless — CA's state lives in the
    /// VMAs and the page cache, which *are* captured).
    pub fn snapshot(&self) -> VmSnapshot {
        VmSnapshot {
            guest: self.guest.snapshot(),
            host: self.host.snapshot(),
            host_pid: self.host_pid.0,
            host_vma_start: self.host_vma.0.raw(),
            host_vma_base: self.host_vma_base.raw(),
        }
    }

    /// Rebuilds a VM from a snapshot under the given placement policies,
    /// which are not part of the image (see [`VirtualMachine::snapshot`]).
    /// Tracing comes back disabled (reattach with
    /// [`VirtualMachine::set_tracer`]).
    pub fn restore(
        snap: &VmSnapshot,
        guest_policy: Box<dyn PlacementPolicy>,
        host_policy: Box<dyn PlacementPolicy>,
    ) -> Self {
        Self {
            guest: System::restore(&snap.guest),
            host: System::restore(&snap.host),
            guest_policy,
            host_policy,
            host_pid: Pid(snap.host_pid),
            host_vma: VmaId(VirtAddr::new(snap.host_vma_start)),
            host_vma_base: VirtAddr::new(snap.host_vma_base),
            tracer: Tracer::disabled(),
        }
    }
}

contig_types::wire_struct! {
    /// Plain-data image of a whole VM: both [`contig_mm::SystemSnapshot`]
    /// dimensions plus the gPA→hVA wiring between them.
    #[derive(Clone, Debug, PartialEq)]
    pub struct VmSnapshot {
        /// The guest OS instance.
        pub guest: contig_mm::SystemSnapshot,
        /// The host OS instance.
        pub host: contig_mm::SystemSnapshot,
        /// The host process backing the VM memory region.
        pub(crate) host_pid: u32,
        /// Start address of the host VMA holding the VM memory region.
        pub(crate) host_vma_start: u64,
        /// Host virtual address of guest-physical zero.
        pub(crate) host_vma_base: u64,
    }
}

/// One guest-visible machine-check: a guest mapping whose guest-physical
/// page lost its data to a host memory failure.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct GuestMce {
    /// The guest process owning the mapping.
    pub(crate) pid: Pid,
    /// Guest virtual address of the destroyed base page — where the guest
    /// workload would receive the SIGBUS/MCE.
    pub(crate) va: VirtAddr,
    /// The guest-physical page whose host backing was destroyed.
    pub(crate) gpa: PhysAddr,
}

/// Result of poisoning one host frame underneath a running VM.
#[derive(Clone, Debug)]
pub struct HostPoisonReport {
    /// Machine-checks delivered to guest mappings, one per affected guest
    /// base page (empty when the host healed transparently).
    pub guest_mces: Vec<GuestMce>,
}

/// The product of a nested page walk.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct TwoDTranslation {
    /// Final host-physical address.
    pub hpa: PhysAddr,
    /// Guest leaf page size.
    pub guest_size: PageSize,
    /// Host leaf page size.
    pub host_size: PageSize,
    /// Guest radix levels walked.
    pub guest_levels: u32,
    /// Host radix levels walked.
    pub host_levels: u32,
    /// Contiguity bit set in both dimensions (SpOT's fill filter).
    pub(crate) contig: bool,
    /// Guest mapping is writable.
    pub(crate) write: bool,
}

impl TwoDTranslation {
    /// Effective cacheable page size: the smaller of the two dimensions.
    pub fn effective_size(&self) -> PageSize {
        self.guest_size.min(self.host_size)
    }

    /// Memory references of the nested walk.
    pub fn walk_refs(&self) -> u32 {
        (self.guest_levels + 1) * (self.host_levels + 1) - 1
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use contig_mm::DefaultThpPolicy;

    fn vm() -> VirtualMachine {
        VirtualMachine::new(
            VmConfig::with_mib(64, 128),
            Box::new(DefaultThpPolicy),
            Box::new(DefaultThpPolicy),
        )
    }

    fn map_anon(vm: &mut VirtualMachine, pid: Pid, start: u64, len: u64) -> VmaId {
        vm.guest_mut()
            .aspace_mut(pid)
            .map_vma(VirtRange::new(VirtAddr::new(start), len), VmaKind::Anon)
    }

    #[test]
    fn guest_fault_triggers_nested_fault() {
        let mut vm = vm();
        let pid = vm.guest_mut().spawn();
        map_anon(&mut vm, pid, 0x40_0000, 4 << 20);
        let host_free_before = vm.host().machine().free_frames();
        vm.touch(pid, VirtAddr::new(0x40_0000)).unwrap();
        assert!(
            vm.host().machine().free_frames() < host_free_before,
            "nested fault must consume host memory"
        );
        // Both dimensions mapped with huge pages on a fresh system.
        let t = vm.translate_2d(pid, VirtAddr::new(0x40_0000)).unwrap();
        assert_eq!(t.guest_size, PageSize::Huge2M);
        assert_eq!(t.host_size, PageSize::Huge2M);
        assert_eq!(t.effective_size(), PageSize::Huge2M);
        assert_eq!(t.walk_refs(), 15);
    }

    #[test]
    fn second_touch_is_tlb_only() {
        let mut vm = vm();
        let pid = vm.guest_mut().spawn();
        map_anon(&mut vm, pid, 0x40_0000, 4 << 20);
        vm.touch(pid, VirtAddr::new(0x40_0000)).unwrap();
        let host_faults = vm.host().aspace(vm.host_pid()).stats().total_faults();
        let out = vm.touch(pid, VirtAddr::new(0x40_1000)).unwrap();
        assert!(out.already_mapped);
        assert_eq!(vm.host().aspace(vm.host_pid()).stats().total_faults(), host_faults);
    }

    #[test]
    fn host_mappings_survive_guest_process_exit() {
        let mut vm = vm();
        let pid = vm.guest_mut().spawn();
        let vma = map_anon(&mut vm, pid, 0x40_0000, 8 << 20);
        vm.populate_vma(pid, vma).unwrap();
        let host_used =
            vm.host().machine().total_frames() - vm.host().machine().free_frames();
        vm.exit_guest_process(pid);
        // Guest frames returned to the guest buddy, host backing intact.
        assert_eq!(
            vm.guest().machine().free_frames(),
            vm.guest().machine().total_frames()
        );
        assert_eq!(
            vm.host().machine().total_frames() - vm.host().machine().free_frames(),
            host_used
        );
    }

    #[test]
    fn translate_2d_none_outside_mappings() {
        let vm = {
            let mut v = vm();
            let pid = v.guest_mut().spawn();
            map_anon(&mut v, pid, 0x40_0000, 2 << 20);
            v.touch(pid, VirtAddr::new(0x40_0000)).unwrap();
            v
        };
        let pid = vm.guest().pids()[0];
        assert!(vm.translate_2d(pid, VirtAddr::new(0x40_0000)).is_some());
        assert!(vm.translate_2d(pid, VirtAddr::new(0x100_0000)).is_none());
    }

    #[test]
    fn consecutive_workloads_reuse_host_backing() {
        let mut vm = vm();
        // First guest process populates, exits.
        let a = vm.guest_mut().spawn();
        let vma_a = map_anon(&mut vm, a, 0x40_0000, 8 << 20);
        vm.populate_vma(a, vma_a).unwrap();
        vm.exit_guest_process(a);
        let host_faults_after_a = vm.host().aspace(vm.host_pid()).stats().total_faults();
        // Second process reuses the same guest frames: no new nested faults.
        let b = vm.guest_mut().spawn();
        let vma_b = map_anon(&mut vm, b, 0x40_0000, 8 << 20);
        vm.populate_vma(b, vma_b).unwrap();
        assert_eq!(
            vm.host().aspace(vm.host_pid()).stats().total_faults(),
            host_faults_after_a,
            "gPA→hPA persists across guest process lifetimes"
        );
    }

    #[test]
    fn vm_snapshot_round_trips_and_continues_identically() {
        let mut vm = vm();
        let pid = vm.guest_mut().spawn();
        map_anon(&mut vm, pid, 0x40_0000, 8 << 20);
        vm.touch(pid, VirtAddr::new(0x40_0000)).unwrap();
        vm.touch_write(pid, VirtAddr::new(0x20_0000 + 0x40_0000)).unwrap();
        let snap = vm.snapshot();
        // Restoring twice and driving both copies identically must stay
        // bit-identical, including the nested dimension.
        let restore = || {
            VirtualMachine::restore(&snap, Box::new(DefaultThpPolicy), Box::new(DefaultThpPolicy))
        };
        let mut other = restore();
        assert_eq!(other.snapshot(), snap);
        let mut vm = restore();
        for i in 0..16u64 {
            let va = VirtAddr::new(0x40_0000 + i * 0x8_0000);
            assert_eq!(vm.touch(pid, va), other.touch(pid, va));
        }
        assert_eq!(vm.snapshot(), other.snapshot());
    }

    #[test]
    fn host_strike_on_vm_backing_heals_transparently() {
        let mut vm = vm();
        let pid = vm.guest_mut().spawn();
        map_anon(&mut vm, pid, 0x40_0000, 2 << 20);
        vm.touch(pid, VirtAddr::new(0x40_0000)).unwrap();
        let before = vm.translate_2d(pid, VirtAddr::new(0x40_0000)).unwrap();
        let victim = Pfn::new(before.hpa.raw() / PageSize::Base4K.bytes() + 7);
        let report = vm.poison_host_frame(victim);
        assert_eq!(vm.host().poison_stats().healed, 1, "plenty of host memory");
        assert!(report.guest_mces.is_empty(), "a heal is invisible to the guest");
        let after = vm.translate_2d(pid, VirtAddr::new(0x40_0000)).unwrap();
        assert_ne!(after.hpa, before.hpa, "backing must have moved");
        assert!(vm.host().machine().is_poisoned(victim));
    }

    #[test]
    fn unhealable_host_strike_delivers_guest_mce_and_self_heals() {
        let mut vm = VirtualMachine::new(
            VmConfig::with_mib(8, 16),
            Box::new(DefaultThpPolicy),
            Box::new(DefaultThpPolicy),
        );
        let pid = vm.guest_mut().spawn();
        map_anon(&mut vm, pid, 0x40_0000, 4 << 20);
        vm.touch(pid, VirtAddr::new(0x40_0000)).unwrap();
        let gpa = {
            let t = vm.guest().aspace(pid).page_table().translate(VirtAddr::new(0x40_0000)).unwrap();
            PhysAddr::from(t.frame_for(VirtAddr::new(0x40_0000)))
        };
        let hpa = vm.translate_2d(pid, VirtAddr::new(0x40_0000)).unwrap().hpa;
        let victim = Pfn::new(hpa.raw() / PageSize::Base4K.bytes());
        // Exhaust the host with blocks recovery cannot move, so
        // migrate-and-heal has nowhere to go.
        let mut hogs = Vec::new();
        while let Ok(p) = vm.host_mut().machine_mut().alloc(0) {
            hogs.push(p);
        }
        let report = vm.poison_host_frame(victim);
        assert_eq!(vm.host().poison_stats().heal_failed, 1, "the host kills the backing");
        assert!(!report.guest_mces.is_empty(), "the guest must see the MCE");
        let mce = report.guest_mces[0];
        assert_eq!(mce.pid, pid);
        assert_eq!(mce.gpa, gpa);
        assert_eq!(mce.va, VirtAddr::new(0x40_0000));
        // The kill released the stricken block, so re-backing may have
        // partially succeeded; either way the next touch finishes the job.
        for p in hogs {
            vm.host_mut().machine_mut().free(p, 0);
        }
        vm.touch(pid, VirtAddr::new(0x40_0000)).unwrap();
        assert!(vm.translate_2d(pid, VirtAddr::new(0x40_0000)).is_some());
        assert!(vm.host().machine().is_poisoned(victim), "strike sticks");
        assert!(vm.host().poison_stats().sigbus >= 1);
    }

    #[test]
    fn vm_poison_tick_drives_the_host_policy() {
        use contig_types::{PoisonMode, PoisonPolicy};
        let mut vm = vm();
        let pid = vm.guest_mut().spawn();
        map_anon(&mut vm, pid, 0x40_0000, 2 << 20);
        vm.touch(pid, VirtAddr::new(0x40_0000)).unwrap();
        let target = Pfn::new(4096);
        vm.host_mut().set_poison_policy(PoisonPolicy::new(PoisonMode::Address {
            pfn: target,
            n: 1,
        }));
        vm.poison_tick().expect("policy fires on the first tick");
        assert!(vm.host().machine().is_poisoned(target));
        assert!(vm.poison_tick().is_none(), "one-shot disarms");
    }

    #[test]
    fn mixed_page_sizes_compose() {
        // Tiny host memory forces host 4 KiB fallback under a guest huge page.
        let mut vm = VirtualMachine::new(
            VmConfig::with_mib(16, 4),
            Box::new(DefaultThpPolicy),
            Box::new(DefaultThpPolicy),
        );
        let pid = vm.guest_mut().spawn();
        map_anon(&mut vm, pid, 0x40_0000, 2 << 20);
        // Shred host memory so only 4 KiB blocks remain.
        let mut held = Vec::new();
        while let Ok(p) = vm.host_mut().machine_mut().alloc(0) {
            held.push(p);
        }
        for p in held.iter().step_by(2) {
            vm.host_mut().machine_mut().free(*p, 0);
        }
        vm.touch(pid, VirtAddr::new(0x40_0000)).unwrap();
        let t = vm.translate_2d(pid, VirtAddr::new(0x40_0000)).unwrap();
        assert_eq!(t.guest_size, PageSize::Huge2M);
        assert_eq!(t.host_size, PageSize::Base4K);
        assert_eq!(t.effective_size(), PageSize::Base4K);
        assert_eq!(t.walk_refs(), (3 + 1) * (4 + 1) - 1);
    }

    /// [`VirtualMachine::touch`] with every frame of a file fault's window
    /// backed through its own [`VirtualMachine::back_gpa_range`], as the
    /// nested fault did before it remembered proven host leaves.
    fn touch_per_frame(
        vm: &mut VirtualMachine,
        pid: Pid,
        va: VirtAddr,
    ) -> Result<FaultOutcome, FaultError> {
        let out = vm.guest.touch(&mut *vm.guest_policy, pid, va)?;
        if out.already_mapped && vm.backing_complete(PhysAddr::from(out.pfn), out.size.bytes()) {
            return Ok(out);
        }
        vm.back_gpa_range(va, PhysAddr::from(out.pfn), out.size.bytes())?;
        let aspace = vm.guest.aspace(pid);
        let vma = aspace.vma(aspace.vma_containing(va).expect("the guest fault found a VMA"));
        if let VmaKind::File { file, start_page } = vma.kind() {
            let index = start_page + (va.align_down(PageSize::Base4K) - vma.range().start()) / 4096;
            let frames: Vec<Pfn> = vm
                .guest
                .page_cache()
                .window(file, index, READAHEAD_PAGES)
                .map(|(_, pfn)| pfn)
                .collect();
            for pfn in frames {
                vm.back_gpa_range(va, PhysAddr::from(pfn), PageSize::Base4K.bytes())?;
            }
        }
        Ok(out)
    }

    #[test]
    fn window_backing_matches_per_frame_backing() {
        use contig_trace::{export_jsonl, TraceSession};
        use contig_types::{FailMode, FailPolicy};

        // The file's first 1520 pages, cached contiguously from frame 0,
        // fill guest-physical memory to 16 frames short of a 2 MiB boundary.
        // The next window starts inside the host leaf they were backed by
        // and runs on into an unbacked one.
        let mut config = VmConfig::with_mib(64, 128);
        config.guest.cache_mode = contig_mm::CacheAllocMode::CaContiguous;
        let mut windowed =
            VirtualMachine::new(config, Box::new(DefaultThpPolicy), Box::new(DefaultThpPolicy));
        let pid = windowed.guest_mut().spawn();
        let file = windowed.guest_mut().page_cache_mut().create_file();
        let mut map_file = |va: VirtAddr, start_page: u64, pages: u64| {
            let range = VirtRange::new(va, pages * 4096);
            windowed.guest_mut().aspace_mut(pid).map_vma(range, VmaKind::File { file, start_page })
        };
        let head = map_file(VirtAddr::new(0x4000_0000), 0, 1520);
        let file_va = VirtAddr::new(0x1000_0000);
        map_file(file_va, 1520, 64);
        windowed.populate_vma(pid, head).unwrap();
        let mut per_frame = VirtualMachine::restore(
            &windowed.snapshot(),
            Box::new(DefaultThpPolicy),
            Box::new(DefaultThpPolicy),
        );

        let sessions = [TraceSession::ring(0), TraceSession::ring(0)];
        for (vm, session) in [&mut windowed, &mut per_frame].into_iter().zip(&sessions) {
            vm.set_tracer(session.tracer());
            // Every host allocation fails: the window's second host leaf
            // cannot be backed.
            vm.host_mut().set_fail_policy(FailPolicy::new(FailMode::MinOrder { min_order: 0 }));
        }
        let oom = windowed.touch(pid, file_va);
        assert!(matches!(oom, Err(FaultError::OutOfMemory { addr, .. }) if addr == file_va));
        assert_eq!(touch_per_frame(&mut per_frame, pid, file_va), oom);
        let window: Vec<u64> =
            windowed.guest().page_cache().window(file, 1520, 32).map(|(_, p)| p.raw()).collect();
        let backed = windowed.backed_gframes();
        assert!(
            window.iter().any(|f| backed.contains(f)) && !window.iter().all(|f| backed.contains(f)),
            "the OOM must strike partway through the window {window:?}"
        );

        // The hole heals on the next file fault once memory is available.
        let next = file_va + 16 * 4096;
        for vm in [&mut windowed, &mut per_frame] {
            vm.host_mut().clear_fail_policy();
        }
        let healed = windowed.touch(pid, next).unwrap();
        assert_eq!(touch_per_frame(&mut per_frame, pid, next).unwrap(), healed);
        let backed = windowed.backed_gframes();
        for pfn in windowed.guest().page_cache().frames_of(file) {
            assert!(backed.binary_search(&pfn.raw()).is_ok(), "cached frame {pfn:?} unbacked");
        }

        assert_eq!(windowed.snapshot(), per_frame.snapshot());
        let [got, want] = sessions;
        assert_eq!(export_jsonl(&got.records()), export_jsonl(&want.records()));
        assert_eq!(got.spans().export_collapsed(), want.spans().export_collapsed());
        let metrics = got.metrics();
        assert_eq!(metrics, want.metrics());
        let gfaults = metrics.histograms().find(|(name, _)| *name == "span.gfault.total_ns");
        assert!(gfaults.is_some_and(|(_, h)| h.count() > 32), "{metrics:?}");
    }
}
