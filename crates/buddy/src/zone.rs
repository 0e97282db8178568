//! The buddy allocator for one physical-memory zone (one NUMA node).

use contig_trace::{stage, TraceEvent, Tracer};
use contig_types::{AllocError, FailPolicy, PhysRange, Pfn};

use crate::contiguity::ContiguityMap;
use crate::frame::{FrameState, FrameTable};
use crate::freelist::FreeList;
use crate::pcp::{PcpConfig, PcpCounters, PcpSnapshot, PcpState};

/// Default top buddy order: blocks of `2^10` frames = 4 MiB, matching Linux's
/// `MAX_ORDER = 11` convention of eleven lists for orders `0..=10`.
pub const DEFAULT_TOP_ORDER: u32 = 10;

contig_types::wire_struct! {
    /// Construction parameters for a [`Zone`].
    #[derive(Clone, Copy, Debug, PartialEq, Eq)]
    pub struct ZoneConfig {
        /// First absolute frame number of the zone.
        pub base: Pfn,
        /// Number of 4 KiB frames in the zone.
        pub frames: u64,
        /// Largest buddy order maintained (Linux default 10 → 4 MiB blocks).
        /// The eager-paging baseline raises this to keep larger blocks.
        pub top_order: u32,
        /// Keep the top-order free list sorted by physical address so fallback
        /// allocations carve low addresses first (paper §III-C). The default
        /// kernel uses LIFO lists.
        pub sorted_top_list: bool,
    }
}

impl ZoneConfig {
    /// A zone of `frames` frames at base 0 with kernel-default parameters.
    pub fn with_frames(frames: u64) -> Self {
        Self { base: Pfn::new(0), frames, top_order: DEFAULT_TOP_ORDER, sorted_top_list: false }
    }

    /// Same, but sized in mebibytes for readability in tests and examples.
    pub fn with_mib(mib: u64) -> Self {
        Self::with_frames(mib * 256)
    }
}

contig_types::wire_counters! {
    /// Event counters exposed for the software-overhead experiments (Fig. 11).
    #[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
    pub struct ZoneCounters {
        /// Successful untargeted allocations.
        pub allocs: u64,
        /// Successful targeted (`alloc_specific`) allocations.
        pub targeted_allocs: u64,
        /// Targeted allocations that failed because the frame was busy.
        pub targeted_misses: u64,
        /// Frees performed.
        pub frees: u64,
        /// Block splits performed.
        pub splits: u64,
        /// Buddy coalesces performed.
        pub coalesces: u64,
    }
}

contig_types::wire_counters! {
    /// Memory-failure (hwpoison) counters of one zone's quarantine machinery.
    #[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
    pub struct PoisonCounters {
        /// Frames ever marked poisoned in this zone.
        pub poisoned: u64,
        /// Poisoned frames carved straight out of the free lists.
        pub quarantined_free: u64,
        /// Poisoned frames pulled out of a per-CPU cache list.
        pub quarantined_pcp: u64,
        /// Frames poisoned while allocated/mapped; quarantine completes when the
        /// owner frees (or migrates away from) the block.
        pub deferred: u64,
        /// Frames diverted to quarantine at free or pcp-drain time instead of
        /// re-entering the free lists.
        pub quarantined_on_free: u64,
    }
}

/// What [`Zone::poison`] found the stricken frame doing.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum PoisonDisposition {
    /// The frame was already on the badframe list; nothing changed.
    AlreadyPoisoned,
    /// The frame was free: it was carved out of its buddy block and
    /// quarantined immediately.
    QuarantinedFree,
    /// The frame was parked on a per-CPU cache list: it was evicted and
    /// quarantined immediately.
    QuarantinedPcp,
    /// The frame is allocated (possibly mapped): it is marked poisoned but
    /// stays with its owner until freed or migrated — the mm layer drives
    /// the recovery.
    Deferred,
}

contig_types::wire_struct! {
    /// Plain-data image of a zone's complete allocator state, produced by
    /// [`Zone::snapshot`] and consumed by [`Zone::from_snapshot`].
    ///
    /// Free lists are captured *in list iteration order*: for the kernel-default
    /// LIFO discipline the order blocks sit on a list decides which block the next
    /// allocation carves, so a restore that reordered a list would make the
    /// restored run diverge from the original. Allocated blocks carry their order
    /// so the frame table can be rebuilt exactly.
    #[derive(Clone, Debug, PartialEq, Eq)]
    pub struct ZoneSnapshot {
        /// The zone's construction parameters.
        pub config: ZoneConfig,
        /// Per-order free-list contents (absolute frame numbers) in iteration
        /// order — LIFO insertion order for kernel-default lists, ascending for
        /// sorted lists.
        pub free_lists: Vec<Vec<u64>>,
        /// Allocated block heads as `(absolute pfn, order)`, ascending.
        pub allocated: Vec<(u64, u32)>,
        /// Event counters at snapshot time.
        pub counters: ZoneCounters,
        /// The fault-injection policy, including its mid-stream RNG state, so a
        /// restored run injects the same failures the original would have.
        pub fail: FailPolicy,
        /// The contiguity map's next-fit rover (absolute frame number).
        pub contig_rover: Option<u64>,
        /// The contiguity map's update counter.
        pub contig_updates: u64,
        /// The per-CPU frame-cache layer, if enabled. Pcp-resident frames appear
        /// in `allocated` (they are carved out of the buddy block structure) but
        /// still count as free; see [`crate::PcpConfig`].
        pub pcp: Option<PcpSnapshot>,
        /// Poisoned frames (ascending). Quarantined ones appear in `allocated`
        /// as order-0 blocks; deferred ones sit inside a live allocation.
        pub badframes: Vec<u64>,
        /// Memory-failure counters at snapshot time.
        pub poison: PoisonCounters,
    }
}

/// A power-of-two buddy allocator with eager coalescing, targeted allocation,
/// and a [`ContiguityMap`] tracking unaligned runs of free top-order blocks.
///
/// # Examples
///
/// ```
/// use contig_buddy::{Zone, ZoneConfig};
/// use contig_types::PageSize;
///
/// let mut zone = Zone::new(ZoneConfig::with_mib(64));
/// let huge = zone.alloc(PageSize::Huge2M.order())?;
/// let base = zone.alloc(0)?;
/// zone.free(huge, PageSize::Huge2M.order());
/// zone.free(base, 0);
/// assert_eq!(zone.free_frames(), zone.total_frames());
/// # Ok::<(), contig_types::AllocError>(())
/// ```
#[derive(Clone, Debug)]
pub struct Zone {
    config: ZoneConfig,
    frames: FrameTable,
    free_lists: Vec<FreeList>,
    free_frames: u64,
    contiguity: ContiguityMap,
    counters: ZoneCounters,
    /// Deterministic fault injection consulted before every allocation
    /// attempt; `FailMode::Never` (the default) costs one inlined test.
    fail: FailPolicy,
    /// Observability probes; [`Tracer::disabled`] (the default) costs one
    /// branch per allocator operation.
    tracer: Tracer,
    /// Per-CPU frame caches over the order-0 hot path; `None` (the default)
    /// preserves the historical direct-to-buddy behaviour.
    pcp: Option<PcpState>,
    /// Number of poisoned frames (hwpoison); the frame table's poisoned bit
    /// is the set. Invariant: no poisoned frame is ever free or pcp-resident
    /// — quarantined frames read `AllocatedHead { order: 0 }` and deferred
    /// ones sit inside a live allocation until its free.
    badframes: u64,
    /// Memory-failure counters.
    poison_counters: PoisonCounters,
}

impl Zone {
    /// The zone with no free block listed and every frame a free tail.
    fn empty(config: ZoneConfig) -> Self {
        assert!(config.frames > 0, "zone must contain at least one frame");
        assert!(config.top_order < 32, "top order {} too large", config.top_order);
        Zone {
            config,
            frames: FrameTable::new(config.base, config.frames),
            free_lists: vec![FreeList::default(); config.top_order as usize + 1],
            free_frames: 0,
            contiguity: ContiguityMap::with_base(config.base, config.top_order),
            counters: ZoneCounters::default(),
            fail: FailPolicy::default(),
            tracer: Tracer::disabled(),
            pcp: None,
            badframes: 0,
            poison_counters: PoisonCounters::default(),
        }
    }

    /// Builds the zone with all memory free, pre-coalesced into the largest
    /// blocks the zone-relative alignment allows.
    ///
    /// # Panics
    ///
    /// Panics if `frames` is zero or `top_order` exceeds 31.
    pub fn new(config: ZoneConfig) -> Self {
        let mut zone = Zone::empty(config);
        // Seed free blocks: greedily install maximal aligned blocks.
        let mut rel = 0u64;
        while rel < config.frames {
            let mut order = config.top_order;
            loop {
                let size = 1u64 << order;
                if rel.is_multiple_of(size) && rel + size <= config.frames {
                    break;
                }
                order -= 1;
            }
            zone.insert_into_list(config.base.add(rel), order);
            zone.free_frames += 1 << order;
            rel += 1 << order;
        }
        zone
    }

    /// Captures the complete allocator state as plain data. The attached
    /// tracer is observability plumbing, not state, and is not captured.
    pub fn snapshot(&self) -> ZoneSnapshot {
        let (top, (rover, updates)) = (self.config.top_order, self.contiguity.cursor());
        ZoneSnapshot {
            config: self.config,
            // A sorted top-order list is recorded ascending, as the map holds it.
            free_lists: (0..=top)
                .map(|order| match self.config.sorted_top_list && order == top {
                    true => self.contiguity.blocks().map(Pfn::raw).collect(),
                    false => self.free_lists[order as usize].iter().map(Pfn::raw).collect(),
                })
                .collect(),
            allocated: self.frames.allocated_blocks().map(|(h, o)| (h.raw(), o)).collect(),
            counters: self.counters,
            fail: self.fail.clone(),
            contig_rover: rover.map(Pfn::raw),
            contig_updates: updates,
            pcp: self.pcp.as_ref().map(PcpState::snapshot),
            badframes: self.badframes().map(|p| p.raw()).collect(),
            poison: self.poison_counters,
        }
    }

    /// Rebuilds a zone from a snapshot, byte-for-byte equivalent to the
    /// captured one: free lists are reinstalled in their captured order so
    /// subsequent allocations carve the same blocks the original would have.
    /// The tracer comes back disabled; re-attach with `Zone::set_tracer`.
    ///
    /// # Panics
    ///
    /// Panics if the snapshot is internally inconsistent (free and allocated
    /// blocks must exactly tile the zone); [`Zone::verify_integrity`] is the
    /// post-restore check callers should run on untrusted snapshots.
    pub fn from_snapshot(snap: &ZoneSnapshot) -> Self {
        let config = snap.config;
        assert_eq!(
            snap.free_lists.len(),
            config.top_order as usize + 1,
            "snapshot free-list count disagrees with top order"
        );
        let mut zone = Zone {
            counters: snap.counters,
            fail: snap.fail.clone(),
            pcp: snap.pcp.as_ref().map(PcpState::from_snapshot),
            poison_counters: snap.poison,
            ..Zone::empty(config)
        };
        for (order, list) in snap.free_lists.iter().enumerate() {
            for &head in list {
                zone.insert_into_list(Pfn::new(head), order as u32);
                zone.free_frames += 1 << order;
            }
        }
        for &(head, order) in &snap.allocated {
            zone.frames.mark_allocated_block(Pfn::new(head), order);
        }
        // Listing the top-order blocks rebuilt the contiguity map; the
        // captured rover/update-count resume the next-fit cursor.
        zone.contiguity.restore_cursor(snap.contig_rover.map(Pfn::new), snap.contig_updates);
        // Pcp-resident frames were captured as allocated order-0 blocks (they
        // are carved out of the buddy structure), so the frame table is
        // already correct; re-count them into the free total.
        let frames = &mut zone.frames;
        if let Some(state) = &zone.pcp {
            for &pfn in state.lists.iter().flatten() {
                assert_eq!(
                    frames.state(pfn),
                    FrameState::AllocatedHead { order: 0 },
                    "pcp-resident frame {pfn} not an allocated order-0 block in snapshot"
                );
                assert!(!frames.is_pcp_resident(pfn), "pcp frame {pfn} on two lists");
                frames.set_pcp_resident(pfn, true);
            }
            zone.free_frames += state.frames();
        }
        for pfn in snap.badframes.iter().map(|&p| Pfn::new(p)) {
            assert!(!frames.state(pfn).is_free(), "poisoned frame {pfn} is free in snapshot");
            assert!(!frames.is_pcp_resident(pfn), "poisoned frame {pfn} is pcp-resident");
            if !frames.is_poisoned(pfn) {
                frames.set_poisoned(pfn);
                zone.badframes += 1;
            }
        }
        zone
    }

    /// The construction parameters.
    pub fn config(&self) -> &ZoneConfig {
        &self.config
    }

    /// Total frames in the zone.
    pub fn total_frames(&self) -> u64 {
        self.config.frames
    }

    /// Currently free frames.
    pub fn free_frames(&self) -> u64 {
        self.free_frames
    }

    /// First frame of the zone.
    pub fn base(&self) -> Pfn {
        self.config.base
    }

    /// Whether `pfn` belongs to this zone.
    pub(crate) fn contains(&self, pfn: Pfn) -> bool {
        self.frames.contains(pfn)
    }

    /// Whether the frame is currently free (the CA-paging target check).
    /// Pcp-resident frames are free: nobody owns them, and a targeted
    /// allocation can claim them by draining the caches first.
    pub fn is_free(&self, pfn: Pfn) -> bool {
        self.frames.is_free(pfn) || self.frames.is_pcp_resident(pfn)
    }

    /// Enables the per-CPU frame-cache layer (see [`PcpConfig`]). Order-0
    /// allocations are subsequently served from the current CPU's list,
    /// batch-refilled from the buddy heap; order-0 frees land on the list
    /// and drain back in batches past the high watermark.
    ///
    /// # Panics
    ///
    /// Panics if pcp is already enabled, or on invalid tunables.
    pub fn enable_pcp(&mut self, config: PcpConfig) {
        assert!(self.pcp.is_none(), "pcp layer already enabled");
        self.pcp = Some(PcpState::new(config));
    }

    /// Selects the simulated CPU whose pcp list serves subsequent order-0
    /// allocations and frees. No-op while pcp is disabled.
    ///
    /// # Panics
    ///
    /// Panics if `cpu` is out of range for the configured CPU count.
    pub fn set_cpu(&mut self, cpu: usize) {
        if let Some(p) = &mut self.pcp {
            assert!(cpu < p.config.cpus, "cpu {cpu} out of range ({} cpus)", p.config.cpus);
            p.current_cpu = cpu;
        }
    }

    /// Frames currently parked on pcp lists (they also count as free).
    pub fn pcp_frames(&self) -> u64 {
        self.pcp.as_ref().map_or(0, PcpState::frames)
    }

    /// Whether `pfn` is currently parked on a pcp list (false while pcp is
    /// disabled). Used by the cross-layer auditor to prove quarantined
    /// frames never hide in a per-CPU cache.
    pub fn pcp_contains(&self, pfn: Pfn) -> bool {
        self.frames.is_pcp_resident(pfn)
    }

    /// Event counters of the pcp layer, if enabled.
    pub(crate) fn pcp_counters(&self) -> Option<PcpCounters> {
        self.pcp.as_ref().map(|p| p.counters)
    }

    /// Returns every cached frame from every CPU list to the buddy heap,
    /// coalescing as usual. Returns the number of frames drained.
    pub fn drain_pcp(&mut self) -> u64 {
        let Some(p) = &mut self.pcp else { return 0 };
        let mut victims: Vec<Pfn> = Vec::with_capacity(p.frames() as usize);
        for list in &mut p.lists {
            victims.append(list);
        }
        self.unpark(victims, false)
    }

    /// Returns frames just taken off pcp lists to the buddy heap, counted as
    /// one drain or, when a targeted allocation claimed their block, as
    /// evictions. Returns the number of frames moved.
    fn unpark(&mut self, victims: Vec<Pfn>, targeted: bool) -> u64 {
        let moved = victims.len() as u64;
        if moved == 0 {
            return 0;
        }
        let p = self.pcp.as_mut().expect("victims came off a pcp list");
        if targeted {
            p.counters.targeted_evictions += moved;
            self.tracer.add("buddy.pcp_evict", moved);
        } else {
            p.counters.drains += 1;
            p.counters.drained_frames += moved;
            self.tracer.add("buddy.pcp_drain", moved);
        }
        for pfn in victims {
            self.frames.set_pcp_resident(pfn, false);
            self.release_drained(pfn);
        }
        moved
    }

    /// Returns one drained pcp frame to the buddy heap — unless it was
    /// poisoned while parked, in which case it is diverted to quarantine so
    /// a poison event between refill and drain can never resurrect a bad
    /// frame into the free lists. (The frame already reads
    /// `AllocatedHead { order: 0 }`, the quarantine representation.)
    fn release_drained(&mut self, pfn: Pfn) {
        if self.frames.is_poisoned(pfn) {
            self.free_frames -= 1;
            self.poison_counters.quarantined_on_free += 1;
            self.tracer.emit(TraceEvent::PoisonQuarantine { pfn: pfn.raw() });
            return;
        }
        self.merge_and_insert(pfn, 0);
    }

    /// Read-only view of the per-frame metadata.
    pub fn frame_table(&self) -> &FrameTable {
        &self.frames
    }

    /// Records the COW share count of the allocation `head` heads; freeing
    /// the block resets it.
    ///
    /// # Panics
    ///
    /// Panics if `head` is outside the zone or heads no allocation.
    pub fn set_share_count(&mut self, head: Pfn, count: u32) {
        self.frames.set_share_count(head, count);
    }

    /// Read-only view of the contiguity map.
    pub fn contiguity_map(&self) -> &ContiguityMap {
        &self.contiguity
    }

    /// Event counters.
    pub fn counters(&self) -> &ZoneCounters {
        &self.counters
    }

    /// Attaches observability probes: every allocator operation emits a
    /// `buddy.*` event, injector consultations bump the `fail.attempts`
    /// counter, and injected failures emit `inject.failure`.
    pub(crate) fn set_tracer(&mut self, tracer: Tracer) {
        self.tracer = tracer;
    }

    /// Installs a fault-injection policy consulted before every allocation
    /// attempt (see [`FailPolicy`]). Replaces any previous policy.
    pub(crate) fn set_fail_policy(&mut self, policy: FailPolicy) {
        self.fail = policy;
    }

    /// The fault-injection policy in force (attempt/injection counters live
    /// on it).
    pub(crate) fn fail_policy(&self) -> &FailPolicy {
        &self.fail
    }

    /// Removes any fault-injection policy, returning the old one with its
    /// final counters.
    pub(crate) fn clear_fail_policy(&mut self) -> FailPolicy {
        std::mem::take(&mut self.fail)
    }

    /// Marks `pfn` poisoned (hwpoison) and quarantines it as far as the
    /// allocator can on its own: a free frame is carved out of its buddy
    /// block, a pcp-resident frame is evicted from its cache list, and an
    /// allocated frame is only *marked* — its owner (the mm layer) must
    /// migrate or free it, at which point [`Zone::free`] completes the
    /// quarantine instead of recirculating the frame.
    ///
    /// # Panics
    ///
    /// Panics if `pfn` is outside the zone.
    pub fn poison(&mut self, pfn: Pfn) -> PoisonDisposition {
        assert!(self.contains(pfn), "poison of {pfn} outside zone");
        if self.frames.is_poisoned(pfn) {
            return PoisonDisposition::AlreadyPoisoned;
        }
        self.badframes += 1;
        self.frames.set_poisoned(pfn);
        self.poison_counters.poisoned += 1;
        // Pcp-resident first: those frames read as allocated in the frame
        // table but are really free, parked on a cache list.
        if self.frames.is_pcp_resident(pfn) {
            let p = self.pcp.as_mut().expect("a resident frame implies a pcp layer");
            for list in &mut p.lists {
                list.retain(|&f| f != pfn);
            }
            self.frames.set_pcp_resident(pfn, false);
            self.free_frames -= 1;
            self.poison_counters.quarantined_pcp += 1;
            self.tracer.emit(TraceEvent::PoisonQuarantine { pfn: pfn.raw() });
            return PoisonDisposition::QuarantinedPcp;
        }
        if self.frames.state(pfn).is_free() {
            let (head, order) = self
                .frames
                .free_block_containing(pfn, self.config.top_order)
                .expect("free frame must belong to a free block");
            self.remove_from_list(head, order);
            let head = self.split_towards(head, order, pfn, 0);
            debug_assert_eq!(head, pfn);
            self.frames.mark_allocated_block(pfn, 0);
            self.free_frames -= 1;
            self.poison_counters.quarantined_free += 1;
            self.tracer.emit(TraceEvent::PoisonQuarantine { pfn: pfn.raw() });
            return PoisonDisposition::QuarantinedFree;
        }
        self.poison_counters.deferred += 1;
        PoisonDisposition::Deferred
    }

    /// Whether `pfn` is on the badframe list.
    pub fn is_poisoned(&self, pfn: Pfn) -> bool {
        self.frames.is_poisoned(pfn)
    }

    /// The poisoned frames, ascending. Walks the frame table, and only as
    /// far as the last poisoned frame.
    pub fn badframes(&self) -> impl Iterator<Item = Pfn> + '_ {
        self.frames.poisoned().take(self.badframes as usize)
    }

    /// Number of poisoned frames in the zone.
    pub fn poisoned_frames(&self) -> u64 {
        self.badframes
    }

    /// Whether a free block of at least `order` exists (without allocating).
    /// A non-empty pcp list satisfies an order-0 query — those frames are
    /// allocatable without any buddy block existing; for larger orders the
    /// check stays conservative and ignores what a pcp drain might coalesce.
    pub fn has_free_block(&self, order: u32) -> bool {
        if order > self.config.top_order {
            return false;
        }
        if order == 0 && self.pcp_frames() > 0 {
            return true;
        }
        (order..=self.config.top_order).any(|o| !self.free_lists[o as usize].is_empty())
    }

    /// The lowest-addressed free block head of order at least `order` whose
    /// head lies strictly below `below`. Compaction uses this as the
    /// migration destination scanner: movable blocks near the end of the
    /// zone are packed down into the lowest free space.
    pub fn lowest_free_block(&self, order: u32, below: Pfn) -> Option<Pfn> {
        self.lowest_free_head(order, |head| head < below)
    }

    fn lowest_free_head(&self, order: u32, wanted: impl Fn(Pfn) -> bool) -> Option<Pfn> {
        (order..=self.config.top_order)
            .flat_map(|o| self.free_lists[o as usize].iter())
            .filter(|&head| wanted(head))
            .min()
    }

    /// Lowest free block of at least `order` whose head is at or above
    /// `from` — the maintenance daemon's fallback migration target when a
    /// poisoned neighbourhood has no free space below it.
    pub fn lowest_free_block_at_or_above(&self, order: u32, from: Pfn) -> Option<Pfn> {
        self.lowest_free_head(order, |head| head >= from)
    }

    /// Allocates a block of `1 << order` frames wherever the free lists
    /// provide one, splitting larger blocks as needed — the kernel-default
    /// "random" placement that CA paging replaces.
    ///
    /// # Errors
    ///
    /// [`AllocError::OutOfMemory`] when no block of the order (or larger)
    /// is free, or when the installed [`FailPolicy`] injects a failure.
    pub fn alloc(&mut self, order: u32) -> Result<Pfn, AllocError> {
        if order > self.config.top_order {
            return Err(AllocError::OutOfMemory { order });
        }
        self.tracer.add("fail.attempts", 1);
        if self.fail.decide(order) {
            self.tracer.emit(TraceEvent::InjectedFailure { order, targeted: false });
            return Err(AllocError::OutOfMemory { order });
        }
        if order == 0 && self.pcp.is_some() {
            return self.alloc_order0_pcp();
        }
        let splits_before = self.counters.splits;
        let mut carved = self.carve(order);
        if carved.is_none() && self.pcp_frames() > 0 {
            // The buddy heap is dry at this order but frames are parked on
            // pcp lists; draining may coalesce them into a large-enough
            // block (the kernel's drain-on-high-order-failure path).
            self.drain_pcp();
            carved = self.carve(order);
        }
        let Some(head) = carved else {
            self.tracer.emit(TraceEvent::AllocFailed { order });
            return Err(AllocError::OutOfMemory { order });
        };
        self.free_frames -= 1 << order;
        self.counters.allocs += 1;
        if self.tracer.is_enabled() {
            self.tracer.add("buddy.split", self.counters.splits - splits_before);
            self.tracer.emit(TraceEvent::Alloc { order, pfn: head.raw() });
        }
        Ok(head)
    }

    /// Allocates precisely the block `[target, target + 2^order)`. This is the
    /// core CA-paging operation: claim the frame the VMA offset designates.
    ///
    /// # Errors
    ///
    /// - [`AllocError::Unaligned`] if `target` is not aligned to `order`
    ///   (zone-relative) — a placement-policy bug, reported as a typed error
    ///   so a misbehaving policy cannot crash the fault path.
    /// - [`AllocError::OutOfZone`] if the block is not fully inside the zone.
    /// - [`AllocError::TargetBusy`] if any frame of the block is allocated,
    ///   or when the installed [`FailPolicy`] injects a failure.
    pub fn alloc_specific(&mut self, target: Pfn, order: u32) -> Result<(), AllocError> {
        let rel = target.raw().wrapping_sub(self.config.base.raw());
        if !rel.is_multiple_of(1 << order) {
            return Err(AllocError::Unaligned { target, order });
        }
        if !self.contains(target) || !self.contains(target.add((1 << order) - 1)) {
            return Err(AllocError::OutOfZone { target });
        }
        self.tracer.add("fail.attempts", 1);
        if self.fail.decide(order) {
            // Injected targeted failures surface as a busy target: the
            // realistic race where another allocation claimed the frame
            // between the policy's free check and the claim attempt.
            self.tracer.emit(TraceEvent::InjectedFailure { order, targeted: true });
            return Err(AllocError::TargetBusy { target });
        }
        if self.badframes > 0 && self.frames.any_poisoned(target, order) {
            // A poisoned frame inside the designated block can never be
            // handed out: report busy without disturbing the pcp caches.
            self.counters.targeted_misses += 1;
            self.tracer.emit(TraceEvent::TargetedMiss { target: target.raw(), order });
            return Err(AllocError::TargetBusy { target });
        }
        // With eager coalescing, a fully-free aligned 2^order region is always
        // covered by a single free block of order >= `order`; find it.
        let mut block = self.covering_free_block(target, order);
        // Paper §III: per-CPU caches may hold frames of the designated block
        // (they read as allocated, so only an uncovered target can have any);
        // flush them back to the heap and look again.
        if block.is_none() && self.evict_pcp_range(target, order) {
            block = self.covering_free_block(target, order);
        }
        let Some((head, found_order)) = block else {
            // Some frame in the target range is busy.
            self.counters.targeted_misses += 1;
            self.tracer.emit(TraceEvent::TargetedMiss { target: target.raw(), order });
            return Err(AllocError::TargetBusy { target });
        };
        self.remove_from_list(head, found_order);
        let splits_before = self.counters.splits;
        let head = self.split_towards(head, found_order, target, order);
        debug_assert_eq!(head, target);
        self.frames.mark_allocated_block(target, order);
        self.free_frames -= 1 << order;
        self.counters.targeted_allocs += 1;
        if self.tracer.is_enabled() {
            self.tracer.add("buddy.split", self.counters.splits - splits_before);
            self.tracer.emit(TraceEvent::TargetedAlloc { target: target.raw(), order });
        }
        Ok(())
    }

    /// Frees the block `[head, head + 2^order)`, eagerly coalescing buddies
    /// up to the top order.
    ///
    /// # Panics
    ///
    /// Panics on double free or when the block was allocated with a different
    /// order.
    pub fn free(&mut self, head: Pfn, order: u32) {
        if self.frames.is_pcp_resident(head) {
            // A pcp-resident frame keeps its AllocatedHead state, so the
            // state match below would not catch this double free.
            panic!("invalid free of {head}: frame is pcp-resident (double free)");
        }
        match self.frames.state(head) {
            FrameState::AllocatedHead { order: o } => {
                assert_eq!(o, order, "block {head} freed with order {order}, allocated {o}");
            }
            s => panic!("invalid free of {head} in state {s:?}"),
        }
        self.counters.frees += 1;
        if self.tracer.is_enabled() {
            self.tracer.emit(TraceEvent::Free { pfn: head.raw(), order });
        }
        if self.badframes > 0 && self.frames.any_poisoned(head, order) {
            // The block contains poisoned frames: quarantine completes
            // now. Healthy frames return to the heap one by one; each
            // badframe stays carved out as an order-0 allocated block
            // so no future coalesce or allocation can cross it.
            for i in 0..(1u64 << order) {
                self.frames.mark_allocated_block(head.add(i), 0);
            }
            for i in 0..(1u64 << order) {
                let pfn = head.add(i);
                if self.frames.is_poisoned(pfn) {
                    self.poison_counters.quarantined_on_free += 1;
                    self.tracer.emit(TraceEvent::PoisonQuarantine { pfn: pfn.raw() });
                } else {
                    self.free_frames += 1;
                    self.merge_and_insert(pfn, 0);
                }
            }
            return;
        }
        self.free_frames += 1 << order;
        if order == 0 {
            if let Some(p) = &mut self.pcp {
                // Order-0 free with pcp enabled: park the frame on the local
                // CPU's list instead of returning it to the buddy heap. The
                // frame keeps its allocated state — it is invisible to the
                // free lists, exactly like the kernel's free_unref_page().
                let cpu = p.current_cpu;
                p.lists[cpu].push(head);
                self.frames.set_pcp_resident(head, true);
                if p.lists[cpu].len() as u64 > p.config.high {
                    self.drain_pcp_batch(cpu);
                }
                return;
            }
        }
        self.merge_and_insert(head, order);
    }

    /// Returns an allocated block to the free lists, eagerly coalescing with
    /// free buddies up to the top order. Callers have already updated
    /// `free_frames` and counters; the block's frame states still read
    /// allocated on entry.
    fn merge_and_insert(&mut self, head: Pfn, order: u32) {
        let coalesces_before = self.counters.coalesces;
        let mut head = head;
        let mut order = order;
        // Coalesce with the buddy while it is free and the same order.
        while order < self.config.top_order {
            let rel = head.raw() - self.config.base.raw();
            let buddy_rel = rel ^ (1 << order);
            let buddy = self.config.base.add(buddy_rel);
            if buddy_rel + (1 << order) > self.config.frames {
                break;
            }
            let buddy_free = matches!(
                self.frames.state(buddy),
                FrameState::FreeHead { order: bo } if bo == order
            );
            if !buddy_free {
                break;
            }
            self.remove_from_list(buddy, order);
            self.counters.coalesces += 1;
            head = if buddy_rel < rel { buddy } else { head };
            order += 1;
        }
        self.insert_into_list(head, order);
        if self.tracer.is_enabled() {
            self.tracer.add("buddy.coalesce", self.counters.coalesces - coalesces_before);
        }
    }

    /// Drains the coldest `batch` frames of one CPU's list back to the buddy
    /// heap (the watermark-overflow path).
    fn drain_pcp_batch(&mut self, cpu: usize) {
        let Some(p) = &mut self.pcp else { return };
        let take = (p.config.batch as usize).min(p.lists[cpu].len());
        let victims: Vec<Pfn> = p.lists[cpu].drain(..take).collect();
        self.unpark(victims, false);
    }

    /// Order-0 allocation through the pcp layer: pop the local list,
    /// batch-refilling it from the buddy heap when empty (`rmqueue_bulk`).
    /// The fail policy was already consulted by [`Zone::alloc`].
    fn alloc_order0_pcp(&mut self) -> Result<Pfn, AllocError> {
        let cpu = self.pcp.as_ref().map_or(0, |p| p.current_cpu);
        let warm = self.pcp.as_ref().is_some_and(|p| !p.lists[cpu].is_empty());
        if !warm {
            self.refill_pcp(cpu);
        }
        if self.pcp.as_ref().is_some_and(|p| p.lists[cpu].is_empty()) && self.pcp_frames() > 0 {
            // The heap is exhausted but other CPUs hold cached frames:
            // drain everything and refill before declaring OOM.
            self.drain_pcp();
            self.refill_pcp(cpu);
        }
        let popped = self.pcp.as_mut().and_then(|p| {
            let pfn = p.lists[cpu].pop()?;
            p.counters.hits += 1;
            Some(pfn)
        });
        let Some(pfn) = popped else {
            self.tracer.emit(TraceEvent::AllocFailed { order: 0 });
            return Err(AllocError::OutOfMemory { order: 0 });
        };
        self.frames.set_pcp_resident(pfn, false);
        self.free_frames -= 1;
        self.counters.allocs += 1;
        // Zero-duration span leaf: lets profiles count warm-list hits vs
        // refill misses per stack path (`fault;buddy_alloc;pcp_hit`).
        self.tracer.span_mark(if warm { stage::PCP_HIT } else { stage::PCP_MISS });
        self.tracer.emit(TraceEvent::Alloc { order: 0, pfn: pfn.raw() });
        Ok(pfn)
    }

    /// Pulls up to `batch` order-0 frames from the buddy free lists onto one
    /// CPU's pcp list. Deliberately bypasses the fail policy and the
    /// alloc/free counters: refills are internal frame motion, not
    /// user-visible allocations, and must not perturb injection streams.
    fn refill_pcp(&mut self, cpu: usize) {
        let batch = match &self.pcp {
            Some(p) => p.config.batch,
            None => return,
        };
        let mut pulled: Vec<Pfn> = Vec::with_capacity(batch as usize);
        let splits_before = self.counters.splits;
        while (pulled.len() as u64) < batch {
            let Some(head) = self.carve(0) else { break };
            pulled.push(head);
        }
        if self.tracer.is_enabled() {
            self.tracer.add("buddy.split", self.counters.splits - splits_before);
        }
        if pulled.is_empty() {
            return;
        }
        let Some(p) = &mut self.pcp else { return };
        p.counters.refills += 1;
        p.counters.refilled_frames += pulled.len() as u64;
        self.tracer.add("buddy.pcp_refill", pulled.len() as u64);
        // Push in reverse so the list pops frames in the same order the
        // buddy heap would have handed them out directly.
        for &pfn in pulled.iter().rev() {
            p.lists[cpu].push(pfn);
            self.frames.set_pcp_resident(pfn, true);
        }
    }

    /// Evicts any pcp-resident frames inside `[target, target + 2^order)`
    /// back to the buddy heap so a targeted allocation can claim the block —
    /// the paper-§III conflict: CA paging must flush per-CPU caches that
    /// hold frames of its designated region. The residency bits answer
    /// "nothing of the block is cached" without walking any list; returns
    /// whether anything was evicted.
    fn evict_pcp_range(&mut self, target: Pfn, order: u32) -> bool {
        let Some(p) = &mut self.pcp else { return false };
        if !self.frames.any_pcp_resident(target, order) {
            return false;
        }
        let end = target.add(1 << order);
        let mut victims: Vec<Pfn> = Vec::new();
        for list in &mut p.lists {
            list.retain(|&pfn| {
                let hit = pfn >= target && pfn < end;
                if hit {
                    victims.push(pfn);
                }
                !hit
            });
        }
        self.unpark(victims, true) > 0
    }

    /// The free block covering all of `[target, target + 2^order)`, if the
    /// whole range is free.
    fn covering_free_block(&self, target: Pfn, order: u32) -> Option<(Pfn, u32)> {
        self.frames.free_block_containing(target, self.config.top_order).filter(|&(head, found)| {
            found >= order && head.raw() + (1 << found) >= target.raw() + (1 << order)
        })
    }

    /// Takes a block off the smallest stocked list of at least `order`,
    /// splits it down to `order` and marks the remainder allocated.
    fn carve(&mut self, order: u32) -> Option<Pfn> {
        let from = (order..=self.config.top_order)
            .find(|&o| !self.free_lists[o as usize].is_empty())?;
        let block = self.take_from_list(from)?;
        let head = self.split_to(block, from, order);
        self.frames.mark_allocated_block(head, order);
        Some(head)
    }

    /// Splits an *allocated* block into `2^(order - new_order)` independently
    /// freeable allocated blocks of `new_order` — Linux's `split_page()`.
    /// Eager paging uses this after grabbing a high-order block so the pages
    /// can later be returned at mapping granularity.
    ///
    /// # Panics
    ///
    /// Panics if `head` is not the head of an allocated block or the block's
    /// order is below `new_order`.
    pub fn split_allocated(&mut self, head: Pfn, new_order: u32) {
        let order = match self.frames.state(head) {
            FrameState::AllocatedHead { order } => order,
            s => panic!("split_allocated on {head} in state {s:?}"),
        };
        assert!(
            order >= new_order,
            "cannot split order-{order} allocation at {head} into order {new_order}"
        );
        if order == new_order {
            return;
        }
        let pieces = 1u64 << (order - new_order);
        for i in 0..pieces {
            self.frames.set_allocated_order(head.add(i << new_order), new_order);
        }
        self.counters.splits += pieces - 1;
        self.tracer.add("buddy.split", pieces - 1);
    }

    /// Next-fit placement over the contiguity map (paper Fig. 4). Returns the
    /// chosen free cluster as a byte range.
    pub(crate) fn next_fit_cluster(&mut self, bytes: u64) -> Option<PhysRange> {
        let frames = bytes.div_ceil(contig_types::BASE_PAGE_SIZE);
        self.contiguity.next_fit(frames).map(|c| c.range())
    }

    /// Exhaustively checks the allocator's internal invariants. Intended for
    /// tests; cost is linear in zone size.
    ///
    /// # Panics
    ///
    /// Panics with a description of the first violated invariant.
    pub fn verify_integrity(&self) {
        // 1. Free lists and frame states agree, and every stack block's
        //    stored position is its index.
        let mut listed_free = 0u64;
        for order in 0..=self.config.top_order {
            let list = &self.free_lists[order as usize];
            for (pos, head) in list.iter().enumerate() {
                assert_eq!(self.frames.position(head), Some(pos), "stale position on {head}");
                match self.frames.state(head) {
                    FrameState::FreeHead { order: o } => {
                        assert_eq!(o, order, "list order mismatch at {head}");
                    }
                    s => panic!("listed block {head} has state {s:?}"),
                }
                let rel = head.raw() - self.config.base.raw();
                assert_eq!(rel % (1 << order), 0, "unaligned free block {head} order {order}");
                listed_free += 1 << order;
            }
        }
        assert_eq!(
            listed_free + self.pcp_frames(),
            self.free_frames,
            "free frame accounting drifted"
        );
        // 2. Every frame state is consistent with exactly one covering block.
        //    Pcp-resident frames read as allocated order-0 blocks but count
        //    toward free_frames; tally them separately.
        let mut rel = 0u64;
        let mut counted_free = 0u64;
        let mut pcp_seen = 0u64;
        while rel < self.config.frames {
            let head = self.config.base.add(rel);
            match self.frames.state(head) {
                FrameState::FreeHead { order } => {
                    assert!(
                        self.free_lists[order as usize].contains(&self.frames, head),
                        "free head {head} missing from list {order}"
                    );
                    assert!(
                        self.frames.tails_intact(head, order),
                        "free block {head} has non-tail interior frame"
                    );
                    counted_free += 1 << order;
                    rel += 1 << order;
                }
                FrameState::AllocatedHead { order } => {
                    assert!(
                        self.frames.tails_intact(head, order),
                        "allocated block {head} has non-tail interior frame"
                    );
                    if self.frames.is_pcp_resident(head) {
                        assert_eq!(order, 0, "pcp-resident frame {head} in order-{order} block");
                        assert_eq!(self.frames.share_count(head), 0, "ownerless {head} is shared");
                        pcp_seen += 1;
                    }
                    rel += 1 << order;
                }
                s => panic!("dangling {s:?} at {head} outside any block"),
            }
        }
        assert_eq!(
            counted_free + pcp_seen,
            self.free_frames,
            "frame scan disagrees with accounting"
        );
        let mut parked: Vec<Pfn> =
            self.pcp.iter().flat_map(|p| p.lists.iter().flatten().copied()).collect();
        assert_eq!(pcp_seen, parked.len() as u64, "pcp residency bits disagree with the lists");
        parked.sort_unstable();
        parked.dedup();
        assert_eq!(pcp_seen, parked.len() as u64, "a frame sits on two pcp lists");
        for pfn in parked {
            assert!(self.frames.is_pcp_resident(pfn), "pcp list frame {pfn} not marked resident");
        }
        // 3. Poisoned frames are never free, never pcp-resident, and never
        //    inside a free block: quarantine is airtight. The table is
        //    walked only while the zone counts a poisoned frame.
        if self.badframes > 0 {
            let mut poisoned = 0u64;
            for pfn in self.frames.poisoned() {
                poisoned += 1;
                assert!(!self.frames.state(pfn).is_free(), "poisoned frame {pfn} is free");
                assert!(!self.frames.is_pcp_resident(pfn), "poisoned frame {pfn} is pcp-resident");
            }
            assert_eq!(poisoned, self.badframes, "poisoned-frame count drifted from the table");
        }
        // 4. The contiguity map's clusters are the maximal runs of the
        //    top-order list's blocks, found by a linear scan.
        let (top, step) = (self.config.top_order, 1u64 << self.config.top_order);
        let mut blocks: Vec<u64> = self.free_lists[top as usize].iter().map(Pfn::raw).collect();
        blocks.sort_unstable();
        let mut runs: Vec<(u64, u64)> = Vec::new();
        for b in blocks {
            match runs.last_mut() {
                Some((start, frames)) if *start + *frames == b => *frames += step,
                _ => runs.push((b, step)),
            }
        }
        let map: Vec<_> = self.contiguity.iter().map(|c| (c.start.raw(), c.frames)).collect();
        assert_eq!(map, runs, "contiguity map diverged from top-order free list");
    }

    fn take_from_list(&mut self, order: u32) -> Option<Pfn> {
        if order == self.config.top_order && self.config.sorted_top_list {
            // Paper §III-C: the lowest-addressed block, the map's lowest bit.
            let head = self.contiguity.blocks().next()?;
            self.remove_from_list(head, order);
            return Some(head);
        }
        let head = self.free_lists[order as usize].pop()?;
        if order == self.config.top_order {
            self.contiguity.on_block_allocated(head);
        }
        Some(head)
    }

    fn remove_from_list(&mut self, head: Pfn, order: u32) {
        let removed = self.free_lists[order as usize].remove(&mut self.frames, head);
        assert!(removed, "block {head} missing from free list {order}");
        if order == self.config.top_order {
            self.contiguity.on_block_allocated(head);
        }
    }

    /// Lists the block and marks its frames free.
    fn insert_into_list(&mut self, head: Pfn, order: u32) {
        self.free_lists[order as usize].insert(&mut self.frames, head, order);
        if order == self.config.top_order {
            self.contiguity.on_block_freed(head);
        }
    }

    /// Splits `block` of `from` order down until a block of `to` order remains
    /// at the lowest address; frees the upper halves. Returns the head.
    fn split_to(&mut self, block: Pfn, from: u32, to: u32) -> Pfn {
        let mut order = from;
        while order > to {
            order -= 1;
            self.counters.splits += 1;
            self.insert_into_list(block.add(1 << order), order);
        }
        block
    }

    /// Splits `block` of `from` order down so that exactly the range
    /// `[target, target + 2^to)` remains; frees every sibling half.
    fn split_towards(&mut self, block: Pfn, from: u32, target: Pfn, to: u32) -> Pfn {
        let mut head = block;
        let mut order = from;
        while order > to {
            order -= 1;
            self.counters.splits += 1;
            let lower = head;
            let upper = head.add(1 << order);
            if target.raw() >= upper.raw() {
                self.insert_into_list(lower, order);
                head = upper;
            } else {
                self.insert_into_list(upper, order);
                head = lower;
            }
        }
        head
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn zone(frames: u64) -> Zone {
        Zone::new(ZoneConfig::with_frames(frames))
    }

    #[test]
    fn fresh_zone_is_fully_free_and_coalesced() {
        let z = zone(4096);
        assert_eq!(z.free_frames(), 4096);
        z.verify_integrity();
        assert_eq!(z.contiguity_map().iter().count(), 1);
        assert_eq!(z.contiguity_map().largest().unwrap().frames, 4096);
    }

    #[test]
    fn odd_sized_zone_seeds_maximal_blocks() {
        let z = zone(1024 + 512 + 3);
        assert_eq!(z.free_frames(), 1539);
        z.verify_integrity();
    }

    #[test]
    fn alloc_free_roundtrip_restores_state() {
        let mut z = zone(2048);
        let a = z.alloc(0).unwrap();
        let b = z.alloc(9).unwrap();
        let c = z.alloc(3).unwrap();
        assert_eq!(z.free_frames(), 2048 - 1 - 512 - 8);
        z.verify_integrity();
        z.free(a, 0);
        z.free(c, 3);
        z.free(b, 9);
        assert_eq!(z.free_frames(), 2048);
        z.verify_integrity();
        assert_eq!(z.contiguity_map().largest().unwrap().frames, 2048);
    }

    #[test]
    fn alloc_specific_claims_exact_frame() {
        let mut z = zone(4096);
        let target = Pfn::new(1234);
        z.alloc_specific(target, 0).unwrap();
        assert!(!z.is_free(target));
        assert!(z.is_free(Pfn::new(1233)));
        assert!(z.is_free(Pfn::new(1235)));
        z.verify_integrity();
        z.free(target, 0);
        z.verify_integrity();
        assert_eq!(z.free_frames(), 4096);
    }

    #[test]
    fn alloc_specific_huge_page() {
        let mut z = zone(4096);
        let target = Pfn::new(1024);
        z.alloc_specific(target, 9).unwrap();
        assert_eq!(z.free_frames(), 4096 - 512);
        assert!(!z.is_free(Pfn::new(1535)));
        assert!(z.is_free(Pfn::new(1536)));
        z.verify_integrity();
    }

    #[test]
    fn alloc_specific_busy_target_fails() {
        let mut z = zone(1024);
        z.alloc_specific(Pfn::new(100), 0).unwrap();
        assert_eq!(
            z.alloc_specific(Pfn::new(100), 0),
            Err(AllocError::TargetBusy { target: Pfn::new(100) })
        );
        // A huge request overlapping the busy frame also fails.
        assert_eq!(
            z.alloc_specific(Pfn::new(0), 9),
            Err(AllocError::TargetBusy { target: Pfn::new(0) })
        );
        assert_eq!(z.counters().targeted_misses, 2);
    }

    #[test]
    fn alloc_specific_out_of_zone() {
        let mut z = zone(1280);
        assert_eq!(
            z.alloc_specific(Pfn::new(4096), 0),
            Err(AllocError::OutOfZone { target: Pfn::new(4096) })
        );
        // Aligned order-9 block [1024, 1536) straddling the zone end at 1280.
        assert_eq!(
            z.alloc_specific(Pfn::new(1024), 9),
            Err(AllocError::OutOfZone { target: Pfn::new(1024) })
        );
    }

    #[test]
    fn out_of_memory_reports_order() {
        let mut z = zone(64);
        assert_eq!(z.alloc(9), Err(AllocError::OutOfMemory { order: 9 }));
        for _ in 0..64 {
            z.alloc(0).unwrap();
        }
        assert_eq!(z.alloc(0), Err(AllocError::OutOfMemory { order: 0 }));
    }

    #[test]
    #[should_panic(expected = "invalid free")]
    fn double_free_panics() {
        let mut z = zone(64);
        let p = z.alloc(0).unwrap();
        z.free(p, 0);
        z.free(p, 0);
    }

    #[test]
    #[should_panic(expected = "freed with order")]
    fn mismatched_order_free_panics() {
        let mut z = zone(64);
        let p = z.alloc(2).unwrap();
        z.free(p, 3);
    }

    #[test]
    fn coalescing_rebuilds_large_blocks() {
        let mut z = zone(1024);
        let pages: Vec<_> = (0..1024).map(|_| z.alloc(0).unwrap()).collect();
        assert_eq!(z.free_frames(), 0);
        for p in pages {
            z.free(p, 0);
        }
        z.verify_integrity();
        assert_eq!(z.contiguity_map().largest().unwrap().frames, 1024);
        assert!(z.counters().coalesces >= 1023);
    }

    #[test]
    fn nonzero_base_zone_operations() {
        let mut z = Zone::new(ZoneConfig {
            base: Pfn::new(1 << 20),
            frames: 2048,
            top_order: DEFAULT_TOP_ORDER,
            sorted_top_list: false,
        });
        let p = z.alloc(9).unwrap();
        assert!(p >= Pfn::new(1 << 20));
        z.alloc_specific(Pfn::new((1 << 20) + 512), 9).unwrap();
        z.verify_integrity();
    }

    #[test]
    fn sorted_top_list_hands_out_lowest_blocks() {
        // On a fresh zone every free block sits on the top-order list; the
        // first order-0 allocation must split a top-order block. The sorted
        // discipline carves the lowest-addressed one so the rest of the zone
        // stays unsplintered; the kernel-default LIFO list splinters the most
        // recently inserted (highest) block.
        let mut sorted =
            Zone::new(ZoneConfig { sorted_top_list: true, ..ZoneConfig::with_frames(8192) });
        assert_eq!(sorted.alloc(0).unwrap(), Pfn::new(0));
        let mut lifo = zone(8192);
        assert_eq!(lifo.alloc(0).unwrap(), Pfn::new(8192 - 1024));
    }

    #[test]
    fn contiguity_map_tracks_alloc_and_free() {
        let mut z = zone(4096);
        assert_eq!(z.contiguity_map().iter().count(), 1);
        // Claim the middle top-order block: the cluster splits.
        z.alloc_specific(Pfn::new(1024), DEFAULT_TOP_ORDER).unwrap();
        assert_eq!(z.contiguity_map().iter().count(), 2);
        z.free(Pfn::new(1024), DEFAULT_TOP_ORDER);
        assert_eq!(z.contiguity_map().iter().count(), 1);
        z.verify_integrity();
    }

    #[test]
    fn next_fit_cluster_returns_byte_range() {
        let mut z = zone(4096);
        let r = z.next_fit_cluster(1 << 20).unwrap();
        assert_eq!(r.len(), 4096 * 4096);
    }

    #[test]
    fn unaligned_target_is_typed_error_not_panic() {
        let mut z = zone(1024);
        assert_eq!(
            z.alloc_specific(Pfn::new(3), 2),
            Err(contig_types::AllocError::Unaligned { target: Pfn::new(3), order: 2 })
        );
        assert_eq!(z.free_frames(), 1024, "failed claim must not leak frames");
        z.verify_integrity();
    }

    #[test]
    fn fail_policy_injects_oom_without_corrupting_state() {
        use contig_types::{FailMode, FailPolicy};
        let mut z = zone(1024);
        z.set_fail_policy(FailPolicy::new(FailMode::EveryNth { n: 2 }));
        let a = z.alloc(0).unwrap();
        assert_eq!(z.alloc(0), Err(AllocError::OutOfMemory { order: 0 }));
        let b = z.alloc(0).unwrap();
        assert_eq!(z.fail_policy().attempts(), 3);
        assert_eq!(z.fail_policy().injected(), 1);
        z.free(a, 0);
        z.free(b, 0);
        z.verify_integrity();
        assert_eq!(z.free_frames(), 1024);
        let final_policy = z.clear_fail_policy();
        assert_eq!(final_policy.injected(), 1);
        assert!(!z.fail_policy().is_armed());
    }

    #[test]
    fn fail_policy_injects_busy_on_targeted_alloc() {
        use contig_types::{FailMode, FailPolicy};
        let mut z = zone(1024);
        z.set_fail_policy(FailPolicy::new(FailMode::Nth { n: 1 }));
        assert_eq!(
            z.alloc_specific(Pfn::new(0), 0),
            Err(AllocError::TargetBusy { target: Pfn::new(0) })
        );
        // The injected miss is not a real one: zone counters stay clean and
        // the very next attempt succeeds.
        assert_eq!(z.counters().targeted_misses, 0);
        z.alloc_specific(Pfn::new(0), 0).unwrap();
        z.verify_integrity();
    }

    #[test]
    fn free_block_queries_for_compaction() {
        let mut z = zone(2048);
        assert!(z.has_free_block(10));
        assert!(!z.has_free_block(11));
        // Claim everything, then free only the higher top-order block.
        let mut blocks: Vec<_> = (0..2).map(|_| z.alloc(10).unwrap()).collect();
        blocks.sort_unstable();
        assert!(!z.has_free_block(0));
        assert_eq!(z.lowest_free_block(0, Pfn::new(2048)), None);
        z.free(blocks[1], 10);
        assert!(z.has_free_block(10));
        assert_eq!(z.lowest_free_block(0, Pfn::new(2048)), Some(Pfn::new(1024)));
        assert_eq!(z.lowest_free_block(0, Pfn::new(1024)), None, "strictly below");
    }

    #[test]
    fn raised_top_order_supports_bigger_blocks() {
        let mut z = Zone::new(ZoneConfig { top_order: 14, ..ZoneConfig::with_frames(1 << 15) });
        let p = z.alloc(14).unwrap();
        assert_eq!(z.free_frames(), (1 << 15) - (1 << 14));
        z.free(p, 14);
        z.verify_integrity();
    }

    fn pcp_zone(frames: u64) -> Zone {
        let mut z = zone(frames);
        z.enable_pcp(PcpConfig { cpus: 2, batch: 4, high: 8 });
        z
    }

    #[test]
    fn pcp_order0_alloc_batch_refills() {
        let mut z = pcp_zone(1024);
        let a = z.alloc(0).unwrap();
        let c = z.pcp_counters().unwrap();
        assert_eq!(c.refills, 1);
        assert_eq!(c.refilled_frames, 4);
        assert_eq!(c.hits, 1);
        // Three more frames sit cached; they still count as free.
        assert_eq!(z.pcp_frames(), 3);
        assert_eq!(z.free_frames(), 1023);
        z.verify_integrity();
        z.free(a, 0);
        assert_eq!(z.pcp_frames(), 4);
        assert_eq!(z.free_frames(), 1024);
        z.verify_integrity();
    }

    #[test]
    fn pcp_frees_drain_past_high_watermark() {
        let mut z = pcp_zone(1024);
        let pages: Vec<_> = (0..16).map(|_| z.alloc(0).unwrap()).collect();
        for &p in &pages {
            z.free(p, 0);
        }
        let c = z.pcp_counters().unwrap();
        assert!(c.drains >= 1, "watermark drain never fired: {c:?}");
        assert!(z.pcp_frames() <= 8 + 4, "list grew past high + batch");
        assert_eq!(z.free_frames(), 1024);
        z.verify_integrity();
        assert_eq!(z.drain_pcp(), z.pcp_counters().unwrap().drained_frames - c.drained_frames);
        assert_eq!(z.pcp_frames(), 0);
        z.verify_integrity();
        assert_eq!(z.contiguity_map().largest().unwrap().frames, 1024);
    }

    #[test]
    fn pcp_targeted_alloc_evicts_conflicting_frames() {
        let mut z = pcp_zone(1024);
        // Pull the frames covering [0, 4) onto cpu 0's list.
        let pulled: Vec<_> = (0..4).map(|_| z.alloc(0).unwrap()).collect();
        for &p in &pulled {
            z.free(p, 0);
        }
        assert!(z.pcp_frames() >= 4);
        // A targeted order-2 claim of [0, 4) must flush those cached frames.
        z.alloc_specific(Pfn::new(0), 2).unwrap();
        let c = z.pcp_counters().unwrap();
        assert!(c.targeted_evictions >= 1, "no eviction recorded: {c:?}");
        assert!(!z.is_free(Pfn::new(0)));
        z.verify_integrity();
        z.free(Pfn::new(0), 2);
        z.verify_integrity();
    }

    #[test]
    fn pcp_cpus_are_independent_lists() {
        let mut z = pcp_zone(1024);
        z.set_cpu(0);
        let a = z.alloc(0).unwrap();
        z.free(a, 0);
        z.set_cpu(1);
        let b = z.alloc(0).unwrap();
        // cpu 1 refilled its own list rather than stealing cpu 0's cache.
        assert_ne!(a, b);
        assert_eq!(z.pcp_counters().unwrap().refills, 2);
        z.free(b, 0);
        z.verify_integrity();
    }

    #[test]
    fn pcp_oom_falls_back_to_draining_other_cpus() {
        let mut z = pcp_zone(8);
        z.set_cpu(0);
        let held: Vec<_> = (0..8).map(|_| z.alloc(0).unwrap()).collect();
        // Return half of the frames to cpu 0's cache; the heap stays dry.
        for &p in held.iter().take(4) {
            z.free(p, 0);
        }
        z.set_cpu(1);
        // cpu 1's list is empty and so is the heap — cpu 0's cached frames
        // must be drained back rather than reporting OOM.
        let p = z.alloc(0).unwrap();
        assert!(held[..4].contains(&p));
        assert!(z.pcp_counters().unwrap().drains >= 1);
        z.free(p, 0);
        for &b in held.iter().skip(4) {
            z.free(b, 0);
        }
        z.drain_pcp();
        assert_eq!(z.free_frames(), 8);
        assert_eq!(z.pcp_frames(), 0);
        z.verify_integrity();
    }

    #[test]
    fn pcp_order3_alloc_drains_when_heap_is_dry() {
        let mut z = pcp_zone(8);
        // Cache every frame on cpu 0, leaving the buddy heap empty.
        let all: Vec<_> = (0..8).map(|_| z.alloc(0).unwrap()).collect();
        for &p in &all {
            z.free(p, 0);
        }
        assert_eq!(z.pcp_frames(), 8);
        // An order-3 request finds no buddy block; draining coalesces the
        // cached frames back into one.
        let big = z.alloc(3).unwrap();
        assert_eq!(z.pcp_frames(), 0);
        z.free(big, 3);
        z.verify_integrity();
    }

    #[test]
    #[should_panic(expected = "invalid free")]
    fn pcp_resident_double_free_panics() {
        let mut z = pcp_zone(64);
        let p = z.alloc(0).unwrap();
        z.free(p, 0);
        z.free(p, 0);
    }

    #[test]
    fn poison_free_frame_is_quarantined_immediately() {
        let mut z = zone(1024);
        assert_eq!(z.poison(Pfn::new(300)), PoisonDisposition::QuarantinedFree);
        assert_eq!(z.poison(Pfn::new(300)), PoisonDisposition::AlreadyPoisoned);
        assert!(z.is_poisoned(Pfn::new(300)));
        assert!(!z.is_free(Pfn::new(300)));
        assert_eq!(z.free_frames(), 1023);
        assert_eq!(z.poisoned_frames(), 1);
        z.verify_integrity();
        // Every frame around the badframe is still allocatable; the badframe
        // itself never is.
        let mut got = Vec::new();
        while let Ok(p) = z.alloc(0) {
            assert_ne!(p, Pfn::new(300), "allocator handed out a poisoned frame");
            got.push(p);
        }
        assert_eq!(got.len(), 1023);
    }

    #[test]
    fn poison_pcp_resident_frame_is_evicted_and_quarantined() {
        let mut z = pcp_zone(1024);
        let a = z.alloc(0).unwrap();
        z.free(a, 0);
        assert!(z.pcp_frames() >= 1);
        assert_eq!(z.poison(a), PoisonDisposition::QuarantinedPcp);
        assert!(!z.is_free(a));
        z.verify_integrity();
        // Draining afterwards must not resurrect the frame.
        z.drain_pcp();
        z.verify_integrity();
        assert!(!z.is_free(a));
    }

    #[test]
    fn poison_allocated_frame_defers_until_free() {
        let mut z = zone(1024);
        let head = z.alloc(3).unwrap();
        let victim = head.add(5);
        assert_eq!(z.poison(victim), PoisonDisposition::Deferred);
        assert_eq!(z.poison_counters.deferred, 1);
        z.verify_integrity();
        // Freeing the block quarantines the badframe and frees the rest.
        z.free(head, 3);
        z.verify_integrity();
        assert_eq!(z.free_frames(), 1023);
        assert!(!z.is_free(victim));
        assert_eq!(z.poison_counters.quarantined_on_free, 1);
    }

    #[test]
    fn buddies_never_coalesce_across_a_badframe() {
        let mut z = zone(1024);
        // Poison one frame in the middle, then cycle all memory through the
        // allocator: the rebuilt free space must stop at the badframe.
        z.poison(Pfn::new(512));
        let pages: Vec<_> = (0..1023).map(|_| z.alloc(0).unwrap()).collect();
        for p in pages {
            z.free(p, 0);
        }
        z.verify_integrity();
        let runs: Vec<_> = z.frame_table().free_runs().collect();
        assert_eq!(runs, vec![(Pfn::new(0), 512), (Pfn::new(513), 511)]);
        // No MAX_ORDER (1024-frame) block can ever re-form across the
        // badframe, so the contiguity map stays empty.
        assert!(z.contiguity_map().largest().is_none());
    }

    #[test]
    fn alloc_specific_refuses_poisoned_ranges() {
        let mut z = zone(1024);
        z.poison(Pfn::new(100));
        assert_eq!(
            z.alloc_specific(Pfn::new(100), 0),
            Err(AllocError::TargetBusy { target: Pfn::new(100) })
        );
        // A huge block covering the badframe is busy too.
        assert_eq!(
            z.alloc_specific(Pfn::new(0), 9),
            Err(AllocError::TargetBusy { target: Pfn::new(0) })
        );
        assert_eq!(z.counters().targeted_misses, 2);
        z.verify_integrity();
    }

    #[test]
    fn poison_snapshot_round_trips() {
        let mut z = pcp_zone(1024);
        z.poison(Pfn::new(17));
        let held = z.alloc(2).unwrap();
        z.poison(held.add(1));
        let snap = z.snapshot();
        assert_eq!(snap.badframes, vec![17, held.add(1).raw()]);
        let restored = Zone::from_snapshot(&snap);
        restored.verify_integrity();
        assert!(restored.is_poisoned(Pfn::new(17)));
        assert!(restored.is_poisoned(held.add(1)));
        assert_eq!(restored.poison_counters, z.poison_counters);
        assert_eq!(restored.snapshot(), snap);
    }

    #[test]
    fn pcp_snapshot_round_trip_preserves_caches() {
        let mut z = pcp_zone(1024);
        z.set_cpu(1);
        let pages: Vec<_> = (0..6).map(|_| z.alloc(0).unwrap()).collect();
        for &p in pages.iter().take(3) {
            z.free(p, 0);
        }
        let snap = z.snapshot();
        let restored = Zone::from_snapshot(&snap);
        restored.verify_integrity();
        assert_eq!(restored.free_frames(), z.free_frames());
        assert_eq!(restored.pcp_frames(), z.pcp_frames());
        assert_eq!(restored.pcp_counters(), z.pcp_counters());
        assert_eq!(restored.snapshot(), snap);
        // The restored zone pops the same frame next.
        let mut a = z;
        let mut b = restored;
        assert_eq!(a.alloc(0).unwrap(), b.alloc(0).unwrap());
    }
}
