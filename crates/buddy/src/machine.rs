//! A physical machine: one buddy [`Zone`] per NUMA node plus node-fill
//! allocation policy, mirroring how Linux keeps a buddy instance and a
//! separate `contiguity_map` per `struct zone` (paper §III-B).

use contig_trace::Tracer;
use contig_types::{AllocError, FailPolicy, PageSize, PhysRange, Pfn};

use crate::stats::FreeBlockHistogram;
use crate::zone::{PoisonDisposition, Zone, ZoneConfig, ZoneCounters, ZoneSnapshot};

/// Index of a NUMA node / zone within a [`Machine`].
#[derive(Clone, Copy, Debug, PartialEq, Eq, PartialOrd, Ord, Hash, Default)]
pub struct NodeId(pub usize);

/// Construction parameters for a [`Machine`].
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct MachineConfig {
    /// Frame count of each NUMA node, in node order. Nodes are laid out
    /// consecutively in the physical address space.
    pub node_frames: Vec<u64>,
    /// Largest buddy order maintained per zone.
    pub top_order: u32,
    /// Keep top-order free lists address-sorted (CA paging optimization).
    pub sorted_top_list: bool,
}

impl MachineConfig {
    /// A machine with the given per-node sizes in MiB and default parameters.
    pub fn with_node_mib(nodes: &[u64]) -> Self {
        Self {
            node_frames: nodes.iter().map(|mib| mib * 256).collect(),
            top_order: crate::zone::DEFAULT_TOP_ORDER,
            sorted_top_list: false,
        }
    }

    /// Single-node machine of the given size in MiB (the paper turns NUMA off
    /// for the fragmentation experiments).
    pub fn single_node_mib(mib: u64) -> Self {
        Self::with_node_mib(&[mib])
    }
}

contig_types::wire_struct! {
    /// Plain-data image of a whole machine's allocator state, produced by
    /// [`Machine::snapshot`] and consumed by [`Machine::from_snapshot`].
    #[derive(Clone, Debug, PartialEq, Eq)]
    pub struct MachineSnapshot {
        /// One snapshot per zone, in node order.
        pub zones: Vec<ZoneSnapshot>,
        /// Contiguity reservations as `(owner, start byte, length)`, in
        /// registration order.
        pub reservations: Vec<(u64, u64, u64)>,
        /// The reservation-aware placement rover (byte address).
        pub reservation_rover: u64,
    }
}

/// A multi-zone physical memory with first-fill node selection: allocations
/// prefer the lowest-numbered node with space, spilling to the next when a
/// node runs dry (how BT ends up spanning two nodes in the paper).
///
/// # Examples
///
/// ```
/// use contig_buddy::{Machine, MachineConfig};
/// use contig_types::PageSize;
///
/// let mut m = Machine::new(MachineConfig::with_node_mib(&[64, 64]));
/// let pfn = m.alloc_page(PageSize::Huge2M)?;
/// assert!(m.node_of(pfn).is_some());
/// m.free_page(pfn, PageSize::Huge2M);
/// # Ok::<(), contig_types::AllocError>(())
/// ```
#[derive(Clone, Debug)]
pub struct Machine {
    zones: Vec<Zone>,
    /// Contiguity reservations (the paper's §III-D extension): regions a
    /// placement owner has claimed for its future faults. Reservations only
    /// steer *placement decisions* — ordinary allocations ignore them, so
    /// demand paging and memory availability are unaffected.
    reservations: Vec<(u64, PhysRange)>,
    /// Next-fit rover for reservation-aware placement, as a byte address.
    reservation_rover: u64,
}

impl Machine {
    /// Builds the machine with consecutive zones, all memory free.
    ///
    /// # Panics
    ///
    /// Panics if no nodes are configured.
    pub fn new(config: MachineConfig) -> Self {
        assert!(!config.node_frames.is_empty(), "machine needs at least one node");
        let mut zones = Vec::with_capacity(config.node_frames.len());
        let mut base = 0u64;
        for &frames in &config.node_frames {
            zones.push(Zone::new(ZoneConfig {
                base: Pfn::new(base),
                frames,
                top_order: config.top_order,
                sorted_top_list: config.sorted_top_list,
            }));
            base += frames;
        }
        Machine { zones, reservations: Vec::new(), reservation_rover: 0 }
    }

    /// Captures the complete machine state (every zone plus the reservation
    /// book) as plain data. Tracers are not captured.
    pub fn snapshot(&self) -> MachineSnapshot {
        MachineSnapshot {
            zones: self.zones.iter().map(Zone::snapshot).collect(),
            reservations: self
                .reservations
                .iter()
                .map(|&(owner, r)| (owner, r.start().raw(), r.len()))
                .collect(),
            reservation_rover: self.reservation_rover,
        }
    }

    /// Rebuilds a machine from a snapshot. Zones come back with disabled
    /// tracers; re-attach with [`Machine::set_tracer`].
    ///
    /// # Panics
    ///
    /// Panics if the snapshot holds no zones or a zone image is internally
    /// inconsistent (see [`Zone::from_snapshot`]).
    pub fn from_snapshot(snap: &MachineSnapshot) -> Self {
        assert!(!snap.zones.is_empty(), "machine needs at least one node");
        Machine {
            zones: snap.zones.iter().map(Zone::from_snapshot).collect(),
            reservations: snap
                .reservations
                .iter()
                .map(|&(owner, start, len)| {
                    (owner, PhysRange::new(contig_types::PhysAddr::new(start), len))
                })
                .collect(),
            reservation_rover: snap.reservation_rover,
        }
    }

    /// Number of NUMA nodes.
    pub fn nodes(&self) -> usize {
        self.zones.len()
    }

    /// The zone of one node.
    pub fn zone(&self, node: NodeId) -> &Zone {
        &self.zones[node.0]
    }

    /// Mutable access to one node's zone.
    pub fn zone_mut(&mut self, node: NodeId) -> &mut Zone {
        &mut self.zones[node.0]
    }

    /// Iterates all zones in node order.
    pub fn iter_zones(&self) -> impl Iterator<Item = &Zone> {
        self.zones.iter()
    }

    /// The node owning frame `pfn`, if any.
    pub fn node_of(&self, pfn: Pfn) -> Option<NodeId> {
        self.zones.iter().position(|z| z.contains(pfn)).map(NodeId)
    }

    /// Total frames across nodes.
    pub fn total_frames(&self) -> u64 {
        self.zones.iter().map(Zone::total_frames).sum()
    }

    /// Free frames across nodes.
    pub fn free_frames(&self) -> u64 {
        self.zones.iter().map(Zone::free_frames).sum()
    }

    /// Whether a frame is currently free on its owning node.
    pub fn is_free(&self, pfn: Pfn) -> bool {
        self.node_of(pfn).is_some_and(|n| self.zones[n.0].is_free(pfn))
    }

    /// Whether any node has a free block of at least `order`.
    pub fn has_free_block(&self, order: u32) -> bool {
        self.zones.iter().any(|z| z.has_free_block(order))
    }

    /// Attaches observability probes to every zone (each zone holds a clone
    /// of the handle; all feed the same session).
    pub fn set_tracer(&mut self, tracer: Tracer) {
        for zone in &mut self.zones {
            zone.set_tracer(tracer.clone());
        }
    }

    /// Installs a fault-injection policy on every zone (each zone gets its
    /// own clone, so probabilistic streams stay per-zone deterministic).
    pub fn set_fail_policy(&mut self, policy: FailPolicy) {
        for zone in &mut self.zones {
            zone.set_fail_policy(policy.clone());
        }
    }

    /// Removes fault injection from every zone.
    pub fn clear_fail_policy(&mut self) {
        for zone in &mut self.zones {
            zone.clear_fail_policy();
        }
    }

    /// Total failures injected across all zones.
    pub fn injected_failures(&self) -> u64 {
        self.zones.iter().map(|z| z.fail_policy().injected()).sum()
    }

    /// Total allocation attempts the injectors observed across all zones.
    pub fn fail_attempts(&self) -> u64 {
        self.zones.iter().map(|z| z.fail_policy().attempts()).sum()
    }

    /// Quarantines a frame after a hardware memory error (hwpoison) on its
    /// owning node. See [`Zone::poison`] for the disposition semantics.
    ///
    /// # Panics
    ///
    /// Panics if no node owns the frame.
    pub fn poison(&mut self, pfn: Pfn) -> PoisonDisposition {
        let node = self.node_of(pfn).expect("poisoned frame belongs to no node");
        self.zones[node.0].poison(pfn)
    }

    /// Whether a frame is quarantined on its owning node.
    pub fn is_poisoned(&self, pfn: Pfn) -> bool {
        self.node_of(pfn).is_some_and(|n| self.zones[n.0].is_poisoned(pfn))
    }

    /// Total quarantined frames across all nodes.
    pub fn poisoned_frames(&self) -> u64 {
        self.zones.iter().map(Zone::poisoned_frames).sum()
    }

    /// Iterates every quarantined frame machine-wide, in address order.
    pub fn badframes(&self) -> impl Iterator<Item = Pfn> + '_ {
        self.zones.iter().flat_map(|z| z.badframes())
    }

    /// Enables the per-CPU frame-cache layer on every zone (see
    /// [`crate::PcpConfig`]).
    ///
    /// # Panics
    ///
    /// Panics if pcp is already enabled on a zone, or on invalid tunables.
    pub fn enable_pcp(&mut self, config: crate::PcpConfig) {
        for zone in &mut self.zones {
            zone.enable_pcp(config);
        }
    }

    /// Selects the simulated CPU on every zone (no-op while pcp is
    /// disabled).
    ///
    /// # Panics
    ///
    /// Panics if `cpu` is out of range for the configured CPU count.
    pub fn set_cpu(&mut self, cpu: usize) {
        for zone in &mut self.zones {
            zone.set_cpu(cpu);
        }
    }

    /// Drains every zone's pcp lists back to the buddy heaps; returns the
    /// number of frames moved.
    pub fn drain_pcp(&mut self) -> u64 {
        self.zones.iter_mut().map(Zone::drain_pcp).sum()
    }

    /// Frames currently parked on pcp lists across all zones.
    pub fn pcp_frames(&self) -> u64 {
        self.zones.iter().map(Zone::pcp_frames).sum()
    }

    /// Whether `pfn` is parked on a pcp list of its owning node.
    pub fn pcp_contains(&self, pfn: Pfn) -> bool {
        self.node_of(pfn).is_some_and(|n| self.zones[n.0].pcp_contains(pfn))
    }

    /// Machine-wide pcp counters, or `None` if no zone has pcp enabled.
    pub fn pcp_counters(&self) -> Option<crate::PcpCounters> {
        let mut total: Option<crate::PcpCounters> = None;
        for zone in &self.zones {
            if let Some(c) = zone.pcp_counters() {
                total.get_or_insert_with(Default::default).accumulate(&c);
            }
        }
        total
    }

    /// Allocates a block of `1 << order` frames from the first node with
    /// space (default kernel placement).
    ///
    /// # Errors
    ///
    /// [`AllocError::OutOfMemory`] when every node is exhausted.
    pub fn alloc(&mut self, order: u32) -> Result<Pfn, AllocError> {
        self.alloc_on(NodeId(0), order)
    }

    /// Allocates a block of `1 << order` frames preferring `home`, falling
    /// back to the other nodes in deterministic wrap-around order
    /// (`home, home+1, …, n-1, 0, …, home-1`) — the NUMA-local placement
    /// path. Callers detect a cross-node fallback by comparing
    /// [`Machine::node_of`] on the result against `home`.
    ///
    /// # Errors
    ///
    /// [`AllocError::OutOfMemory`] when every node is exhausted; any other
    /// error (e.g. an injected failure) propagates from the first node that
    /// raised it.
    pub fn alloc_on(&mut self, home: NodeId, order: u32) -> Result<Pfn, AllocError> {
        let n = self.zones.len();
        for k in 0..n {
            let idx = (home.0 + k) % n;
            match self.zones[idx].alloc(order) {
                Ok(pfn) => return Ok(pfn),
                Err(AllocError::OutOfMemory { .. }) => continue,
                Err(e) => return Err(e),
            }
        }
        Err(AllocError::OutOfMemory { order })
    }

    /// Allocates one page of the given size preferring `home` (see
    /// [`Machine::alloc_on`]).
    ///
    /// # Errors
    ///
    /// Propagates [`AllocError`] from [`Machine::alloc_on`].
    pub fn alloc_page_on(&mut self, home: NodeId, size: PageSize) -> Result<Pfn, AllocError> {
        self.alloc_on(home, size.order())
    }

    /// Allocates `count` order-0 frames in one pass, remembering which node
    /// last had space instead of rescanning exhausted nodes per frame — the
    /// batched path behind populate/readahead.
    ///
    /// Returns the frames obtained plus the error that stopped the batch
    /// early, if any; callers keep the partial results either way. With an
    /// armed fault-injection policy this degrades to the per-frame
    /// [`Machine::alloc`] loop so injection streams see the exact same
    /// per-allocation consultations as unbatched code.
    pub fn alloc_bulk(&mut self, count: u64) -> (Vec<Pfn>, Option<AllocError>) {
        self.alloc_bulk_on(NodeId(0), count)
    }

    /// Batched order-0 allocation preferring `home`: like
    /// [`Machine::alloc_bulk`], but the node cursor starts at `home` and
    /// wraps deterministically instead of always starting at node 0. With an
    /// armed fault-injection policy the cursor starts over at `home` for
    /// every frame, which is exactly the per-frame [`Machine::alloc_on`] loop.
    pub(crate) fn alloc_bulk_on(&mut self, home: NodeId, count: u64) -> (Vec<Pfn>, Option<AllocError>) {
        let n = self.zones.len();
        let mut got = Vec::with_capacity(count.min(65_536) as usize);
        let armed = self.zones.iter().any(|z| z.fail_policy().is_armed());
        let mut step = 0usize;
        for _ in 0..count {
            if armed {
                step = 0;
            }
            loop {
                if step == n {
                    return (got, Some(AllocError::OutOfMemory { order: 0 }));
                }
                match self.zones[(home.0 + step) % n].alloc(0) {
                    Ok(p) => {
                        got.push(p);
                        break;
                    }
                    Err(AllocError::OutOfMemory { .. }) => step += 1,
                    Err(e) => return (got, Some(e)),
                }
            }
        }
        (got, None)
    }

    /// Allocates one page of the given size.
    ///
    /// # Errors
    ///
    /// Propagates [`AllocError`] from [`Machine::alloc`].
    pub fn alloc_page(&mut self, size: PageSize) -> Result<Pfn, AllocError> {
        self.alloc(size.order())
    }

    /// Targeted allocation on whichever node owns the frame.
    ///
    /// # Errors
    ///
    /// [`AllocError::OutOfZone`] if no node owns the block;
    /// [`AllocError::TargetBusy`] if the block is (partially) in use.
    pub fn alloc_specific(&mut self, target: Pfn, order: u32) -> Result<(), AllocError> {
        let node = self.node_of(target).ok_or(AllocError::OutOfZone { target })?;
        self.zones[node.0].alloc_specific(target, order)
    }

    /// Targeted allocation of one page of the given size.
    ///
    /// # Errors
    ///
    /// As for [`Machine::alloc_specific`].
    pub fn alloc_page_at(&mut self, target: Pfn, size: PageSize) -> Result<(), AllocError> {
        self.alloc_specific(target, size.order())
    }

    /// Frees a block on its owning node.
    ///
    /// # Panics
    ///
    /// Panics if no node owns the block, on double free, or on order mismatch.
    pub fn free(&mut self, head: Pfn, order: u32) {
        let node = self.node_of(head).expect("freed block belongs to no node");
        self.zones[node.0].free(head, order);
    }

    /// Frees one page of the given size.
    pub fn free_page(&mut self, head: Pfn, size: PageSize) {
        self.free(head, size.order());
    }

    /// Splits an allocated block into independently freeable sub-blocks on
    /// its owning node (see [`Zone::split_allocated`]).
    ///
    /// # Panics
    ///
    /// Panics if no node owns the block, or per [`Zone::split_allocated`].
    pub fn split_allocated(&mut self, head: Pfn, new_order: u32) {
        let node = self.node_of(head).expect("split target belongs to no node");
        self.zones[node.0].split_allocated(head, new_order);
    }

    /// The COW share count of the allocation `head` heads: 0 while a single
    /// mapper owns it (and for a frame that heads no allocation), otherwise
    /// the number of sharers still holding a reference. It lives in the
    /// frame's table entry, the way `struct page` carries `_mapcount`, and
    /// dies with the allocation.
    pub fn share_count(&self, head: Pfn) -> u32 {
        self.node_of(head).map_or(0, |n| self.zones[n.0].frame_table().share_count(head))
    }

    /// Sets the share count of the allocation `head` heads.
    ///
    /// # Panics
    ///
    /// Panics if `head` heads no allocation on any node.
    pub fn set_share_count(&mut self, head: Pfn, count: u32) {
        let node = self.node_of(head).expect("shared frame belongs to no node");
        self.zones[node.0].set_share_count(head, count);
    }

    /// Records one more sharer of `head`: an exclusively owned block becomes
    /// shared by two.
    pub fn share_inc(&mut self, head: Pfn) {
        let node = self.node_of(head).expect("shared frame belongs to no node");
        let zone = &mut self.zones[node.0];
        zone.set_share_count(head, zone.frame_table().share_count(head).max(1) + 1);
    }

    /// Drops one sharer of `head`. Returns whether that was the last
    /// reference: the count is then back to 0 and the caller frees the block.
    pub fn share_dec(&mut self, head: Pfn) -> bool {
        let Some(node) = self.node_of(head) else { return true };
        let zone = &mut self.zones[node.0];
        let count = zone.frame_table().share_count(head);
        if count > 0 {
            zone.set_share_count(head, count - 1);
        }
        count <= 1
    }

    /// Every allocation with a non-zero share count as `(head, count)`, in
    /// address order.
    pub fn shared_frames(&self) -> impl Iterator<Item = (Pfn, u32)> + '_ {
        self.zones.iter().flat_map(|z| z.frame_table().shared_heads())
    }

    /// Next-fit placement across nodes: tries each node's contiguity map in
    /// node-fill order, returning the first cluster able to fit `bytes`; if
    /// none fits entirely, returns the largest cluster found machine-wide.
    pub fn next_fit_cluster(&mut self, bytes: u64) -> Option<PhysRange> {
        self.next_fit_cluster_on(NodeId(0), bytes)
    }

    /// Topology-aware next-fit placement preferring `home`: tries the home
    /// node's contiguity map first, then the remaining nodes in deterministic
    /// wrap-around order (`home, home+1, …, n-1, 0, …, home-1`) — the same
    /// fallback sequence as [`Machine::alloc_on`], so a contiguity-driven
    /// placement spills to the node its base-page allocations would spill to.
    /// Returns the first cluster able to fit `bytes`; if none fits entirely,
    /// returns the largest cluster found machine-wide.
    pub fn next_fit_cluster_on(&mut self, home: NodeId, bytes: u64) -> Option<PhysRange> {
        let n = self.zones.len();
        let mut best: Option<PhysRange> = None;
        for k in 0..n {
            let idx = (home.0 + k) % n;
            if let Some(r) = self.zones[idx].next_fit_cluster(bytes) {
                if r.len() >= bytes {
                    return Some(r);
                }
                if best.as_ref().is_none_or(|b| r.len() > b.len()) {
                    best = Some(r);
                }
            }
        }
        best
    }

    /// Records a contiguity reservation for `owner`: other owners'
    /// reservation-aware placements ([`Machine::next_fit_cluster_excluding`])
    /// will avoid this region. Ordinary allocations are unaffected.
    pub fn reserve(&mut self, owner: u64, range: PhysRange) {
        self.reservations.push((owner, range));
    }

    /// Drops every reservation held by `owner` (process exit, re-placement).
    pub fn release_reservations(&mut self, owner: u64) {
        self.reservations.retain(|&(o, _)| o != owner);
    }

    /// Total bytes currently under reservation.
    pub fn reserved_bytes(&self) -> u64 {
        self.reservations.iter().map(|(_, r)| r.len()).sum()
    }

    /// Reservation-aware next-fit placement: like
    /// [`Machine::next_fit_cluster`], but the free clusters are first clipped
    /// against every reservation *not* held by `owner`, so competing
    /// placements are steered away from each other's claimed regions
    /// (paper §III-D).
    pub fn next_fit_cluster_excluding(&mut self, owner: u64, bytes: u64) -> Option<PhysRange> {
        // Gather clipped candidate sub-ranges from every zone's map.
        let mut candidates: Vec<PhysRange> = Vec::new();
        for zone in &self.zones {
            for cluster in zone.contiguity_map().iter() {
                candidates.extend(subtract_reservations(
                    cluster.range(),
                    &self.reservations,
                    owner,
                ));
            }
        }
        candidates.retain(|r| !r.is_empty());
        candidates.sort_by_key(|r| r.start());
        if candidates.is_empty() {
            return None;
        }
        let rover = self.reservation_rover;
        let pick = candidates
            .iter()
            .filter(|r| r.start().raw() > rover)
            .chain(candidates.iter().filter(|r| r.start().raw() <= rover))
            .find(|r| r.len() >= bytes)
            .copied()
            .or_else(|| candidates.iter().max_by_key(|r| r.len()).copied());
        if let Some(r) = pick {
            self.reservation_rover = r.end().raw().saturating_sub(1);
        }
        pick
    }

    /// Machine-wide unaligned free-run histogram (Fig. 9).
    pub fn free_block_histogram(&self) -> FreeBlockHistogram {
        FreeBlockHistogram::from_runs(self.zones.iter().flat_map(|z| {
            z.frame_table().free_runs().collect::<Vec<_>>()
        }))
    }

    /// Sum of per-zone event counters.
    pub fn counters(&self) -> ZoneCounters {
        let mut total = ZoneCounters::default();
        for z in &self.zones {
            let c = z.counters();
            total.allocs += c.allocs;
            total.targeted_allocs += c.targeted_allocs;
            total.targeted_misses += c.targeted_misses;
            total.frees += c.frees;
            total.splits += c.splits;
            total.coalesces += c.coalesces;
        }
        total
    }

    /// Runs [`Zone::verify_integrity`] on every node.
    ///
    /// # Panics
    ///
    /// Panics on the first violated invariant.
    pub fn verify_integrity(&self) {
        for z in &self.zones {
            z.verify_integrity();
        }
    }
}

/// Subtracts every reservation not held by `owner` from `range`, returning
/// the remaining sub-ranges in address order.
fn subtract_reservations(
    range: PhysRange,
    reservations: &[(u64, PhysRange)],
    owner: u64,
) -> Vec<PhysRange> {
    let mut pieces = vec![range];
    for &(o, res) in reservations {
        if o == owner {
            continue;
        }
        let mut next = Vec::with_capacity(pieces.len() + 1);
        for piece in pieces {
            if !piece.overlaps(&res) {
                next.push(piece);
                continue;
            }
            if res.start() > piece.start() {
                next.push(PhysRange::from_bounds(piece.start(), res.start()));
            }
            if res.end() < piece.end() {
                next.push(PhysRange::from_bounds(res.end(), piece.end()));
            }
        }
        pieces = next;
    }
    pieces
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn nodes_are_laid_out_consecutively() {
        let m = Machine::new(MachineConfig::with_node_mib(&[4, 4]));
        assert_eq!(m.nodes(), 2);
        assert_eq!(m.zone(NodeId(0)).base(), Pfn::new(0));
        assert_eq!(m.zone(NodeId(1)).base(), Pfn::new(1024));
        assert_eq!(m.node_of(Pfn::new(1023)), Some(NodeId(0)));
        assert_eq!(m.node_of(Pfn::new(1024)), Some(NodeId(1)));
        assert_eq!(m.node_of(Pfn::new(2048)), None);
    }

    #[test]
    fn allocation_spills_to_second_node() {
        let mut m = Machine::new(MachineConfig::with_node_mib(&[4, 4]));
        // Drain node 0 (1024 frames = 1 top-order block at order 10).
        let a = m.alloc(10).unwrap();
        assert_eq!(m.node_of(a), Some(NodeId(0)));
        let b = m.alloc(10).unwrap();
        assert_eq!(m.node_of(b), Some(NodeId(1)));
        assert!(m.alloc(10).is_err());
    }

    #[test]
    fn alloc_on_prefers_home_node() {
        let mut m = Machine::new(MachineConfig::with_node_mib(&[4, 4, 4]));
        let a = m.alloc_on(NodeId(1), 0).unwrap();
        assert_eq!(m.node_of(a), Some(NodeId(1)));
        let b = m.alloc_on(NodeId(2), 0).unwrap();
        assert_eq!(m.node_of(b), Some(NodeId(2)));
        m.verify_integrity();
    }

    #[test]
    fn alloc_on_falls_back_in_wraparound_order() {
        let mut m = Machine::new(MachineConfig::with_node_mib(&[4, 4, 4]));
        // Drain node 1 and node 2 (one top-order block each).
        m.zone_mut(NodeId(1)).alloc(10).unwrap();
        m.zone_mut(NodeId(2)).alloc(10).unwrap();
        // Home 1 is full; wrap-around tries 2 (also full) then 0.
        let p = m.alloc_on(NodeId(1), 0).unwrap();
        assert_eq!(m.node_of(p), Some(NodeId(0)));
        // Order-10 is now impossible everywhere: nodes 1 and 2 are drained
        // and node 0's top block is split by `p`.
        let q = m.alloc_on(NodeId(1), 10);
        assert!(matches!(q, Err(AllocError::OutOfMemory { order: 10 })));
    }

    #[test]
    fn alloc_bulk_on_starts_at_home_and_wraps() {
        let mut m = Machine::new(MachineConfig::with_node_mib(&[4, 4]));
        let (got, err) = m.alloc_bulk_on(NodeId(1), 1030);
        assert!(err.is_none());
        assert_eq!(got.len(), 1030);
        // First 1024 frames come from node 1, the spill from node 0.
        assert_eq!(m.node_of(got[0]), Some(NodeId(1)));
        assert_eq!(m.node_of(got[1023]), Some(NodeId(1)));
        assert_eq!(m.node_of(got[1024]), Some(NodeId(0)));
        m.verify_integrity();
    }

    #[test]
    fn targeted_allocation_routes_to_owning_node() {
        let mut m = Machine::new(MachineConfig::with_node_mib(&[4, 4]));
        m.alloc_specific(Pfn::new(1500), 0).unwrap();
        assert!(!m.is_free(Pfn::new(1500)));
        m.free(Pfn::new(1500), 0);
        assert!(m.is_free(Pfn::new(1500)));
        m.verify_integrity();
    }

    #[test]
    fn next_fit_prefers_fitting_cluster() {
        let mut m = Machine::new(MachineConfig::with_node_mib(&[8, 8]));
        // Make node 0's single cluster smaller than node 1's by carving it.
        m.zone_mut(NodeId(0)).alloc_specific(Pfn::new(1024), 10).unwrap();
        let r = m.next_fit_cluster(8 << 20).unwrap();
        assert_eq!(r.start().page_number(), Pfn::new(2048), "full 8 MiB only on node 1");
    }

    #[test]
    fn next_fit_falls_back_to_largest_anywhere() {
        let mut m = Machine::new(MachineConfig::with_node_mib(&[8, 8]));
        m.zone_mut(NodeId(0)).alloc_specific(Pfn::new(1024), 10).unwrap();
        m.zone_mut(NodeId(1)).alloc_specific(Pfn::new(2048 + 512), 9).unwrap();
        // No cluster fits 16 MiB; largest is node0's low 4 MiB? node0: [0,1024) = 4MiB,
        // [2048..) on node 0 is 8 MiB minus... node0 frames: 2048, hole at 1024..2048 →
        // cluster [0,1024) of 4 MiB. Node 1: holes split it into [2048,2560) 2 MiB and
        // [3072,4096) 4 MiB. Largest overall: 4 MiB at frame 0 (first found).
        let r = m.next_fit_cluster(16 << 20).unwrap();
        assert_eq!(r.len(), 4 << 20);
    }

    #[test]
    fn reservations_steer_placement_but_not_allocation() {
        let mut m = Machine::new(MachineConfig::with_node_mib(&[16]));
        // Owner 1 reserves the first half of the single 16 MiB cluster.
        let half = PhysRange::new(contig_types::PhysAddr::new(0), 8 << 20);
        m.reserve(1, half);
        // Another owner's placement lands beyond the reservation...
        let r = m.next_fit_cluster_excluding(2, 4 << 20).unwrap();
        assert!(r.start().raw() >= (8 << 20), "placement {r} inside foreign reservation");
        // ...while the owner itself still sees the full cluster...
        let own = m.next_fit_cluster_excluding(1, 16 << 20).unwrap();
        assert_eq!(own.len(), 16 << 20);
        // ...and ordinary allocation is unaffected.
        assert!(m.alloc(9).is_ok());
        m.release_reservations(1);
        assert_eq!(m.reserved_bytes(), 0);
    }

    #[test]
    fn reservation_subtraction_splits_ranges() {
        let range = PhysRange::new(contig_types::PhysAddr::new(0x1000), 0x9000);
        let reservations = vec![
            (7u64, PhysRange::new(contig_types::PhysAddr::new(0x3000), 0x2000)),
            (9u64, PhysRange::new(contig_types::PhysAddr::new(0x8000), 0x1000)),
        ];
        let pieces = subtract_reservations(range, &reservations, 9);
        // Owner 9 ignores its own reservation: only [0x3000,0x5000) is cut.
        assert_eq!(
            pieces,
            vec![
                PhysRange::new(contig_types::PhysAddr::new(0x1000), 0x2000),
                PhysRange::new(contig_types::PhysAddr::new(0x5000), 0x5000),
            ]
        );
        let foreign = subtract_reservations(range, &reservations, 1);
        assert_eq!(foreign.len(), 3);
    }

    #[test]
    fn counters_aggregate_across_zones() {
        let mut m = Machine::new(MachineConfig::with_node_mib(&[4, 4]));
        let a = m.alloc(10).unwrap();
        let b = m.alloc(10).unwrap();
        m.free(a, 10);
        m.free(b, 10);
        let c = m.counters();
        assert_eq!(c.allocs, 2);
        assert_eq!(c.frees, 2);
    }

    #[test]
    fn alloc_bulk_matches_per_frame_loop() {
        let mut batched = Machine::new(MachineConfig::with_node_mib(&[4, 4]));
        let mut looped = Machine::new(MachineConfig::with_node_mib(&[4, 4]));
        // Punch a hole on node 0 so the batch has to spill mid-way.
        batched.alloc_specific(Pfn::new(512), 9).unwrap();
        looped.alloc_specific(Pfn::new(512), 9).unwrap();
        let (got, err) = batched.alloc_bulk(1000);
        assert!(err.is_none());
        let expect: Vec<_> = (0..1000).map(|_| looped.alloc(0).unwrap()).collect();
        assert_eq!(got, expect);
        assert_eq!(batched.counters().allocs, looped.counters().allocs);
        batched.verify_integrity();
    }

    #[test]
    fn alloc_bulk_reports_partial_progress_on_oom() {
        let mut m = Machine::new(MachineConfig::with_node_mib(&[4]));
        let (got, err) = m.alloc_bulk(2000);
        assert_eq!(got.len(), 1024);
        assert!(matches!(err, Some(AllocError::OutOfMemory { order: 0 })));
    }

    #[test]
    fn pcp_controls_fan_out_to_every_zone() {
        let mut m = Machine::new(MachineConfig::with_node_mib(&[4, 4]));
        m.enable_pcp(crate::PcpConfig::with_cpus(2));
        m.set_cpu(1);
        let a = m.alloc(0).unwrap();
        m.alloc_specific(Pfn::new(1500), 0).unwrap();
        m.free(a, 0);
        m.free(Pfn::new(1500), 0);
        assert!(m.pcp_frames() > 0);
        let c = m.pcp_counters().expect("pcp enabled");
        assert!(c.hits >= 1);
        let parked = m.pcp_frames();
        assert_eq!(m.drain_pcp(), parked);
        assert_eq!(m.pcp_frames(), 0);
        assert_eq!(m.free_frames(), m.total_frames());
        m.verify_integrity();
    }
}
