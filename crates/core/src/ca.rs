//! Contiguity-aware (CA) paging — the paper's software contribution (§III).
//!
//! CA paging keeps demand paging intact but steers each allocation so that
//! faults of the same VMA land on physically consecutive frames:
//!
//! 1. **Offset tracking.** The first fault in a VMA runs a *placement
//!    decision* over the buddy allocator's contiguity map (next-fit) and
//!    records `offset = fault_va − chosen_pa` in the VMA.
//! 2. **Targeted allocation.** Every later fault derives its target frame
//!    from the nearest recorded offset and claims it with a targeted buddy
//!    allocation, extending the contiguous mapping.
//! 3. **Re-placement on failure.** A busy target on a *huge* fault triggers
//!    a sub-VMA placement keyed by the remaining unmapped bytes; a busy
//!    target on a 4 KiB fault falls back to the default allocator without
//!    touching the offsets.
//! 4. **Contiguity-bit marking.** After mapping, PTEs of runs beyond a
//!    threshold get the reserved contiguity bit that filters SpOT fills.

use contig_mm::{FaultCtx, Placement, PlacementPolicy};
use contig_trace::{TraceEvent, Tracer};
use contig_types::{MapOffset, PageSize, Pfn};

use crate::marking::mark_contiguity;

/// Minimum run length, in 4 KiB pages, before PTEs are marked with the
/// contiguity bit (paper: empirically 32).
const CONTIG_THRESHOLD_PAGES: u64 = 32;

/// Tuning knobs of [`CaPaging`].
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct CaConfig {
    /// Retry targeted allocation through re-placements on huge faults.
    /// Disabling re-placement degrades CA to "single offset" (an ablation).
    pub replacement: bool,
    /// Shield contiguity with reservations (the paper's §III-D future-work
    /// extension): each placement claims its target region so competing
    /// placements steer around it. Demand paging is unaffected — ordinary
    /// allocations ignore reservations.
    pub reserve: bool,
}

impl Default for CaConfig {
    fn default() -> Self {
        Self { replacement: true, reserve: false }
    }
}

/// Distinguishes CA paging instances (and their VMAs) as reservation owners.
static CA_INSTANCE_IDS: std::sync::atomic::AtomicU64 = std::sync::atomic::AtomicU64::new(1);

/// Counters exposed by [`CaPaging`] for the software-overhead analysis.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct CaStats {
    /// Placement decisions (contiguity-map searches).
    pub placements: u64,
    /// Faults whose target was derived from a recorded offset.
    pub offset_allocs: u64,
    /// Targets found busy.
    pub target_busy: u64,
    /// 4 KiB faults that fell back to default allocation.
    pub(crate) fallbacks_4k: u64,
    /// Re-placements suppressed because another fault held the VMA's
    /// replacement claim.
    pub replacement_races: u64,
    /// Placements whose contiguity target was shrunk because preceding
    /// targets were repeatedly busy (graceful degradation under pressure).
    pub(crate) degraded_placements: u64,
}

/// The CA paging placement policy.
///
/// # Examples
///
/// ```
/// use contig_buddy::MachineConfig;
/// use contig_core::CaPaging;
/// use contig_mm::{System, SystemConfig, VmaKind};
/// use contig_types::{VirtAddr, VirtRange};
///
/// let mut sys = System::new(SystemConfig::new(MachineConfig::single_node_mib(64)));
/// let pid = sys.spawn();
/// let vma = sys
///     .aspace_mut(pid)
///     .map_vma(VirtRange::new(VirtAddr::new(0x40_0000), 16 << 20), VmaKind::Anon);
/// let mut ca = CaPaging::new();
/// sys.populate_vma(&mut ca, pid, vma)?;
/// // The whole VMA landed on one contiguous physical run:
/// let maps = contig_mm::contiguous_mappings(sys.aspace(pid).page_table());
/// assert_eq!(maps.len(), 1);
/// assert_eq!(maps[0].len(), 16 << 20);
/// # Ok::<(), contig_types::FaultError>(())
/// ```
#[derive(Clone, Debug)]
pub struct CaPaging {
    config: CaConfig,
    stats: CaStats,
    /// Reservation owner namespace for this instance.
    instance: u64,
    /// Busy targets seen since the last successful map: under memory
    /// pressure, each one halves the next placement's contiguity ambition.
    consecutive_busy: u32,
    /// Trace probe for placement decisions (disabled by default).
    tracer: Tracer,
}

impl Default for CaPaging {
    fn default() -> Self {
        Self::with_config(CaConfig::default())
    }
}

impl CaPaging {
    /// CA paging with default configuration.
    pub fn new() -> Self {
        Self::default()
    }

    /// CA paging with explicit tuning.
    pub fn with_config(config: CaConfig) -> Self {
        Self {
            config,
            stats: CaStats::default(),
            instance: CA_INSTANCE_IDS.fetch_add(1, std::sync::atomic::Ordering::Relaxed),
            consecutive_busy: 0,
            tracer: Tracer::disabled(),
        }
    }

    /// Attaches a trace handle; placement decisions, busy targets, and
    /// achieved contiguity runs are reported through it.
    pub fn set_tracer(&mut self, tracer: Tracer) {
        self.tracer = tracer;
    }

    /// Counters accumulated so far.
    pub fn stats(&self) -> CaStats {
        self.stats
    }

    /// The reservation owner id for one VMA of this instance.
    fn owner_of(&self, vma_start: u64) -> u64 {
        self.instance.wrapping_mul(0x9E37_79B9).wrapping_add(vma_start >> 12)
    }

    /// Runs a placement decision: search the contiguity map with next-fit,
    /// record the offset, and return the target for the current fault.
    ///
    /// The key is the whole VMA size on the first placement and the
    /// remaining unmapped bytes on sub-VMA re-placements (paper §III-C).
    fn place(&mut self, ctx: &mut FaultCtx<'_>) -> Placement {
        let mut key_bytes = if ctx.vma.offsets().is_empty() {
            ctx.vma.range().len()
        } else {
            ctx.vma.remaining_from(ctx.va).max(ctx.size.bytes())
        };
        let degraded = self.consecutive_busy > 0;
        if degraded {
            // Graceful degradation: repeated busy targets mean the machine is
            // under contiguity pressure, so halve the ambition per failure
            // (floored at the fault size) instead of chasing runs that the
            // contiguity map can no longer deliver.
            let shrink = self.consecutive_busy.min(8);
            key_bytes = (key_bytes >> shrink).max(ctx.size.bytes());
            self.stats.degraded_placements += 1;
        }
        self.stats.placements += 1;
        ctx.stats.placements += 1;
        let owner = self.owner_of(ctx.vma.range().start().raw());
        let cluster = if self.config.reserve {
            // Re-placements drop the VMA's previous claim before searching.
            ctx.machine.release_reservations(owner);
            ctx.machine.next_fit_cluster_excluding(owner, key_bytes)
        } else if let Some(home) = ctx.home {
            // A pinned process searches its home node's contiguity map
            // first and only then the remaining nodes in wrap-around
            // order, so CA placements spill exactly where base-page
            // allocations would instead of raiding remote zones blindly.
            ctx.machine.next_fit_cluster_on(contig_buddy::NodeId(home), key_bytes)
        } else {
            ctx.machine.next_fit_cluster(key_bytes)
        };
        let Some(cluster) = cluster else {
            return Placement::Default;
        };
        // Anchor: on the first placement the VMA's first size-eligible page
        // maps to the start of the chosen region, so forthcoming faults of
        // the whole VMA land inside it regardless of fault order. Sub-VMA
        // re-placements anchor at the faulting page itself.
        let anchor_va = if ctx.vma.offsets().is_empty() {
            let start = ctx.vma.range().start();
            if ctx.size == PageSize::Huge2M {
                start.align_up(PageSize::Huge2M)
            } else {
                start
            }
        } else {
            ctx.va
        };
        let base_pa = cluster.start().align_up(ctx.size);
        if base_pa + ctx.size.bytes() > cluster.end() {
            return Placement::Default;
        }
        let offset = MapOffset::between(anchor_va, base_pa);
        if self.config.reserve {
            let claim = key_bytes.min(cluster.end() - base_pa);
            ctx.machine
                .reserve(owner, contig_types::PhysRange::new(base_pa, claim));
        }
        // Record the offset keyed at the fault address (the paper combines
        // each Offset with "the virtual address of the fault that created"
        // it for nearest-offset selection).
        ctx.vma.offsets_mut().push(ctx.va, offset);
        let Some(target) = offset.try_apply(ctx.va) else {
            return Placement::Default;
        };
        debug_assert!(target.is_aligned(ctx.size));
        self.tracer.emit(TraceEvent::Placement {
            key_bytes,
            target: target.page_number().raw(),
            degraded,
        });
        Placement::Target(target.page_number())
    }

    /// Derives the target frame for `ctx.va` from the nearest offset, or
    /// `None` when no usable offset exists (unaligned for the fault size or
    /// out of physical range).
    fn target_from_offsets(&self, ctx: &FaultCtx<'_>) -> Option<Pfn> {
        let offset = ctx.vma.offsets().nearest(ctx.va)?;
        let pa = offset.try_apply(ctx.va)?;
        // Huge faults need a 2 MiB-aligned frame; an offset recorded by a
        // 4 KiB placement may not provide one.
        if !pa.is_aligned(ctx.size) {
            return None;
        }
        Some(pa.page_number())
    }
}

impl PlacementPolicy for CaPaging {
    fn name(&self) -> &'static str {
        "CA"
    }

    fn on_fault(&mut self, ctx: &mut FaultCtx<'_>) -> Placement {
        match self.target_from_offsets(ctx) {
            Some(target) => {
                self.stats.offset_allocs += 1;
                self.tracer.add("ca.offset_alloc", 1);
                Placement::Target(target)
            }
            None if ctx.vma.offsets().is_empty() => self.place(ctx),
            None => {
                // An offset exists but cannot serve this fault (alignment):
                // treat like a busy target.
                self.on_target_busy(ctx, Pfn::new(0))
            }
        }
    }

    fn on_target_busy(&mut self, ctx: &mut FaultCtx<'_>, busy: Pfn) -> Placement {
        self.stats.target_busy += 1;
        self.consecutive_busy = self.consecutive_busy.saturating_add(1);
        self.tracer.emit(TraceEvent::TargetBusy { target: busy.raw() });
        if ctx.size == PageSize::Base4K {
            // 4 KiB failures skip offset tracking and fall back (paper:
            // decisions on top of huge pages amortize placement cost).
            self.stats.fallbacks_4k += 1;
            self.tracer.add("ca.fallback_4k", 1);
            return Placement::Default;
        }
        if !self.config.replacement {
            return Placement::Default;
        }
        if !ctx.vma.claim_replacement() {
            // Another in-flight fault is already re-placing this VMA; retry
            // through the freshly recorded offset rather than racing
            // (paper §III-C option ii).
            self.stats.replacement_races += 1;
            return match self.target_from_offsets(ctx) {
                Some(target) => Placement::Target(target),
                None => Placement::Default,
            };
        }
        let placement = self.place(ctx);
        ctx.vma.release_replacement();
        placement
    }

    fn post_map(&mut self, ctx: &mut FaultCtx<'_>, _mapped: Pfn) {
        // A successful map ends the pressure streak.
        self.consecutive_busy = 0;
        let run = mark_contiguity(ctx.page_table, ctx.va, CONTIG_THRESHOLD_PAGES);
        if run > 0 && self.tracer.is_enabled() {
            self.tracer.emit(TraceEvent::ContigRun { pages: run });
            self.tracer.observe("ca.run_pages", run);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use contig_buddy::MachineConfig;
    use contig_mm::{contiguous_mappings, System, SystemConfig, VmaKind};
    use contig_types::{VirtAddr, VirtRange};

    fn system(mib: u64) -> System {
        System::new(SystemConfig::new(MachineConfig::single_node_mib(mib)))
    }

    fn anon(sys: &mut System, pid: contig_mm::Pid, start: u64, len: u64) -> contig_mm::VmaId {
        sys.aspace_mut(pid).map_vma(VirtRange::new(VirtAddr::new(start), len), VmaKind::Anon)
    }

    #[test]
    fn single_vma_maps_one_contiguous_run() {
        let mut sys = system(128);
        let pid = sys.spawn();
        let vma = anon(&mut sys, pid, 0x40_0000, 32 << 20);
        let mut ca = CaPaging::new();
        sys.populate_vma(&mut ca, pid, vma).unwrap();
        let maps = contiguous_mappings(sys.aspace(pid).page_table());
        assert_eq!(maps.len(), 1);
        assert_eq!(maps[0].len(), 32 << 20);
        assert_eq!(ca.stats().placements, 1, "one placement decision for the whole VMA");
        assert!(ca.stats().offset_allocs >= 15);
    }

    #[test]
    fn random_touch_order_still_contiguous() {
        let mut sys = system(128);
        let pid = sys.spawn();
        anon(&mut sys, pid, 0x40_0000, 16 << 20);
        let mut ca = CaPaging::new();
        // Touch huge regions in a scrambled order.
        let mut order: Vec<u64> = (0..8).collect();
        order.swap(0, 5);
        order.swap(2, 7);
        order.swap(1, 6);
        for i in order {
            sys.touch(&mut ca, pid, VirtAddr::new(0x40_0000 + i * (2 << 20))).unwrap();
        }
        let maps = contiguous_mappings(sys.aspace(pid).page_table());
        assert_eq!(maps.len(), 1, "offset-derived targets are order independent");
    }

    #[test]
    fn two_vmas_get_disjoint_regions() {
        let mut sys = system(128);
        // Split the free space into two clusters so next-fit has distinct
        // regions to hand out (a fresh machine is one degenerate cluster).
        sys.machine_mut().alloc_specific(contig_types::Pfn::new(16384), 10).unwrap();
        let pid = sys.spawn();
        let a = anon(&mut sys, pid, 0x40_0000, 8 << 20);
        let b = anon(&mut sys, pid, 0x4000_0000, 8 << 20);
        let mut ca = CaPaging::new();
        // Interleave faults of the two VMAs.
        for i in 0..4 {
            sys.touch(&mut ca, pid, VirtAddr::new(0x40_0000 + i * (2 << 20))).unwrap();
            sys.touch(&mut ca, pid, VirtAddr::new(0x4000_0000 + i * (2 << 20))).unwrap();
        }
        let _ = (a, b);
        let maps = contiguous_mappings(sys.aspace(pid).page_table());
        assert_eq!(maps.len(), 2, "next-fit keeps the VMAs from interleaving physically");
        assert!(maps.iter().all(|m| m.len() == 8 << 20));
    }

    #[test]
    fn fragmentation_triggers_sub_vma_placements() {
        let mut sys = system(64);
        // Fragment: pin scattered 4 MiB blocks so no single cluster can hold
        // the VMA.
        let hog = contig_buddy::Hog::occupy(sys.machine_mut(), 0.5, 3);
        let pid = sys.spawn();
        let vma = anon(&mut sys, pid, 0x40_0000, 16 << 20);
        let mut ca = CaPaging::new();
        sys.populate_vma(&mut ca, pid, vma).unwrap();
        assert_eq!(sys.aspace(pid).mapped_bytes(), 16 << 20);
        let maps = contiguous_mappings(sys.aspace(pid).page_table());
        assert!(
            maps.len() > 1,
            "hogged memory cannot yield a single run for a 16 MiB VMA"
        );
        assert!(ca.stats().placements > 1, "sub-VMA placements expected");
        // CA still harvests multi-block clusters: far fewer runs than huge pages.
        assert!(maps.len() < 8, "got {} runs", maps.len());
        drop(hog);
    }

    #[test]
    fn repeated_busy_targets_shrink_placement_ambition() {
        let mut sys = system(64);
        let hog = contig_buddy::Hog::occupy(sys.machine_mut(), 0.5, 3);
        let pid = sys.spawn();
        let vma = anon(&mut sys, pid, 0x40_0000, 16 << 20);
        let mut ca = CaPaging::new();
        sys.populate_vma(&mut ca, pid, vma).unwrap();
        assert_eq!(sys.aspace(pid).mapped_bytes(), 16 << 20);
        assert!(ca.stats().target_busy > 0, "hogged memory must produce busy targets");
        assert!(
            ca.stats().degraded_placements > 0,
            "re-placements after busy targets must shrink their ambition"
        );
        drop(hog);
    }

    #[test]
    fn fallback_4k_does_not_disturb_offsets() {
        let mut sys = system(64);
        let pid = sys.spawn();
        // Unaligned 4 KiB-only VMA (too small for THP).
        let vma = anon(&mut sys, pid, 0x10_0000, 0x8000);
        let mut ca = CaPaging::new();
        sys.populate_vma(&mut ca, pid, vma).unwrap();
        let offsets_before = sys.aspace(pid).vma(vma).offsets().len();
        assert_eq!(offsets_before, 1, "one placement, no re-placement for 4 KiB faults");
        let maps = contiguous_mappings(sys.aspace(pid).page_table());
        assert_eq!(maps.len(), 1);
    }

    #[test]
    fn contig_bits_marked_beyond_threshold() {
        let mut sys = system(64);
        let pid = sys.spawn();
        let vma = anon(&mut sys, pid, 0x40_0000, 4 << 20);
        let mut ca = CaPaging::new();
        sys.populate_vma(&mut ca, pid, vma).unwrap();
        // Two huge pages = 1024 base pages >> 32-page threshold.
        for m in sys.aspace(pid).page_table().iter_mappings() {
            assert!(
                m.pte.flags.contains(contig_mm::PteFlags::CONTIG),
                "PTE at {} lacks the contiguity bit",
                m.va
            );
        }
    }

    #[test]
    fn replacement_race_retries_via_fresh_offset() {
        let mut sys = system(64);
        let pid = sys.spawn();
        let vma = anon(&mut sys, pid, 0x40_0000, 8 << 20);
        let mut ca = CaPaging::new();
        // Simulate a concurrent fault holding the claim.
        sys.aspace_mut(pid).vma_mut(vma).claim_replacement();
        sys.populate_vma(&mut ca, pid, vma).unwrap();
        // All pages mapped despite the held claim.
        assert_eq!(sys.aspace(pid).mapped_bytes(), 8 << 20);
        sys.aspace_mut(pid).vma_mut(vma).release_replacement();
    }

    #[test]
    fn reservation_shields_against_competing_placements() {
        // Two processes with interleaved faults on a machine whose free
        // space is one giant cluster: without reservations their placements
        // chase each other; with reservations each keeps a clean run.
        let run = |reserve: bool| -> usize {
            let mut sys = system(128);
            let pid_a = sys.spawn();
            let pid_b = sys.spawn();
            let cfg = CaConfig { reserve, ..CaConfig::default() };
            let mut ca_a = CaPaging::with_config(cfg);
            let mut ca_b = CaPaging::with_config(cfg);
            for pid in [pid_a, pid_b] {
                anon(&mut sys, pid, 0x40_0000, 16 << 20);
            }
            for i in 0..8u64 {
                let va = VirtAddr::new(0x40_0000 + i * (2 << 20));
                sys.touch(&mut ca_a, pid_a, va).unwrap();
                sys.touch(&mut ca_b, pid_b, va).unwrap();
            }
            contiguous_mappings(sys.aspace(pid_a).page_table()).len()
                + contiguous_mappings(sys.aspace(pid_b).page_table()).len()
        };
        let without = run(false);
        let with = run(true);
        assert_eq!(with, 2, "reservation keeps each footprint in one run");
        assert!(without >= with, "reservation can only help: {without} vs {with}");
    }

    #[test]
    fn reservations_do_not_block_ordinary_allocation() {
        let mut sys = system(16);
        let pid = sys.spawn();
        anon(&mut sys, pid, 0x40_0000, 8 << 20);
        let mut ca = CaPaging::with_config(CaConfig { reserve: true, ..CaConfig::default() });
        sys.touch(&mut ca, pid, VirtAddr::new(0x40_0000)).unwrap();
        assert!(sys.machine().reserved_bytes() > 0);
        // A default allocation proceeds despite the standing reservation.
        let p = sys.machine_mut().alloc_page(contig_types::PageSize::Huge2M).unwrap();
        sys.machine_mut().free_page(p, contig_types::PageSize::Huge2M);
        sys.machine_mut().release_reservations(ca.owner_of(0x40_0000));
        assert_eq!(sys.machine().reserved_bytes(), 0);
    }

    #[test]
    fn exhausted_contiguity_falls_back_cleanly() {
        let mut sys = system(8);
        let pid = sys.spawn();
        let vma = anon(&mut sys, pid, 0x40_0000, 6 << 20);
        let mut ca = CaPaging::new();
        sys.populate_vma(&mut ca, pid, vma).unwrap();
        assert_eq!(sys.aspace(pid).mapped_bytes(), 6 << 20);
    }
}
