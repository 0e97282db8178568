//! Memory-pressure recovery: page-cache reclaim, buddy compaction by page
//! migration, and the bounded retry escalation the fault driver runs when an
//! allocation comes back out-of-memory.
//!
//! The escalation mirrors the kernel's slow path: first drop clean page-cache
//! pages (`shrink_node`), then migrate movable allocations to assemble a free
//! block of the failing order (`try_to_compact_pages`), then retry the
//! allocation a bounded number of times before degrading the request (THP
//! falls back to a base page, readahead shrinks to a single page) and finally
//! surfacing a typed error. Every stage keeps a counter in [`RecoveryStats`]
//! so experiments can attribute survived pressure to its cause.
//!
//! Both stages ask `rmap.rs` who uses a frame: reclaim to unmap a victim's
//! PTEs, compaction to move blocks with `move_block`.

use std::collections::BTreeSet;

use contig_buddy::NodeId;
use contig_trace::{stage, RecoveryStage};
use contig_types::Pfn;

use crate::page_cache::FileId;
use crate::rmap::Dest;
use crate::stats::ZERO_PAGE_NS;
use crate::system::System;

// The recovery escalation's bounds and costs.

/// Cache pages evicted per reclaim pass at most.
const RECLAIM_BATCH: u64 = 256;
/// Blocks migrated per compaction pass at most.
const COMPACT_BUDGET: u64 = 128;
/// Recovery rounds a single fault may burn per request size before it
/// degrades (THP fallback) or fails.
pub(crate) const MAX_RETRIES: u32 = 2;
/// First retry's backoff delay, in ns; doubles per attempt.
pub(crate) const BACKOFF_BASE_NS: u64 = 200;
/// Ceiling on the exponential term of one backoff delay.
pub(crate) const BACKOFF_CAP_NS: u64 = 100_000;
/// Seed of the deterministic jitter added to each backoff delay.
pub(crate) const BACKOFF_SEED: u64 = 0xC0_FFEE;

contig_types::wire_counters! {
    /// Per-stage counters of the recovery escalation. All monotonic; exact under
    /// a fixed seed and workload, so tests can assert run-to-run determinism.
    #[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
    pub struct RecoveryStats {
        /// Allocation failures that entered the escalation.
        pub oom_events: u64,
        /// Reclaim passes executed.
        pub reclaim_passes: u64,
        /// Page-cache pages evicted by reclaim.
        pub reclaimed_pages: u64,
        /// Compaction passes executed.
        pub compaction_passes: u64,
        /// Buddy blocks migrated by compaction.
        pub migrated_blocks: u64,
        /// Base frames moved by those migrations.
        pub migrated_frames: u64,
        /// Allocation retries after a recovery stage reported progress.
        pub retries: u64,
        /// Huge requests degraded to base pages after recovery failed.
        pub order_backoffs: u64,
        /// Readahead windows shrunk to a single page under pressure.
        pub readahead_shrinks: u64,
        /// Faults that ultimately succeeded after at least one recovery round.
        pub recovered_faults: u64,
        /// Faults that failed even after the full escalation.
        pub hard_ooms: u64,
        /// Simulated nanoseconds spent backing off between retries.
        pub backoff_ns: u64,
        /// Simulated nanoseconds spent in reclaim passes (cost-model units:
        /// one page-touch cost per evicted page).
        pub reclaim_ns: u64,
        /// Simulated nanoseconds spent in compaction passes (one page-copy cost
        /// per migrated frame).
        pub compaction_ns: u64,
    }
}

/// Result of one [`System::compact`] pass.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub(crate) struct CompactOutcome {
    /// Buddy blocks migrated.
    pub(crate) migrated_blocks: u64,
    /// Base frames those blocks covered.
    pub(crate) migrated_frames: u64,
}

impl System {
    /// Cumulative recovery counters.
    pub fn recovery_stats(&self) -> &RecoveryStats {
        &self.recovery_stats
    }

    /// One round of the escalation: reclaim, then compaction, stopping as
    /// soon as a free block of `order` exists. Returns whether the caller
    /// should retry its allocation.
    pub(crate) fn try_recover(&mut self, order: u32) -> bool {
        if self.machine.has_free_block(order) {
            // The failure was injected or transient; the block is there.
            return true;
        }
        // Reclaim, in a span of its own that closes before compaction's.
        {
            let _reclaim_span = self.tracer.span(stage::RECLAIM);
            self.recovery_stats.reclaim_passes += 1;
            let n = self.reclaim_cache_pages();
            self.recovery_stats.reclaimed_pages += n;
            // Cost model: evicting a page costs one page-touch, like
            // zeroing one (Table IV treats both as one page-sized memory
            // operation).
            let ns = n * ZERO_PAGE_NS;
            self.recovery_stats.reclaim_ns += ns;
            self.advance_clock(ns);
            self.trace_recovery(RecoveryStage::ReclaimPass, n, 0, ns);
            self.tracer.observe("recovery.reclaim_ns", ns);
            if self.machine.has_free_block(order) {
                return true;
            }
        }
        if order > 0 {
            let _compaction_span = self.tracer.span(stage::COMPACTION);
            self.recovery_stats.compaction_passes += 1;
            let before_ns = self.now_ns;
            let out = self.compact(order, COMPACT_BUDGET);
            self.recovery_stats.migrated_blocks += out.migrated_blocks;
            self.recovery_stats.migrated_frames += out.migrated_frames;
            let ns = self.now_ns - before_ns;
            self.recovery_stats.compaction_ns += ns;
            self.trace_recovery(
                RecoveryStage::CompactionPass,
                out.migrated_blocks,
                out.migrated_frames,
                ns,
            );
            self.tracer.observe("recovery.compaction_ns", ns);
            if self.machine.has_free_block(order) {
                return true;
            }
        }
        false
    }

    /// Evicts up to `RECLAIM_BATCH` page-cache pages, clean (unmapped) pages
    /// first. Mapped file pages are unmapped from every referencing process
    /// before eviction, so no page table is left with a dangling translation.
    pub(crate) fn reclaim_cache_pages(&mut self) -> u64 {
        let users = self.frame_users();
        let mut evicted = 0u64;
        // Pass 1: clean pages nothing maps — the cheap victims.
        for f in 0..self.page_cache.file_count() {
            if evicted >= RECLAIM_BATCH {
                break;
            }
            let file = FileId(f);
            let victims: BTreeSet<u64> = self
                .page_cache
                .pages_of(file)
                .filter(|&(_, pfn)| users.mappings_of(pfn).is_empty())
                .map(|(idx, _)| idx)
                .take((RECLAIM_BATCH - evicted) as usize)
                .collect();
            if victims.is_empty() {
                continue;
            }
            evicted += self.page_cache.evict_pages_where(&mut self.machine, file, |idx| {
                victims.contains(&idx)
            });
        }
        // Pass 2: mapped file pages, unmapping every referencing PTE first.
        for f in 0..self.page_cache.file_count() {
            if evicted >= RECLAIM_BATCH {
                break;
            }
            let file = FileId(f);
            let victims: Vec<(u64, Pfn)> = self
                .page_cache
                .pages_of(file)
                .take((RECLAIM_BATCH - evicted) as usize)
                .collect();
            if victims.is_empty() {
                continue;
            }
            for &(_, pfn) in &victims {
                self.unmap_mappings_of(&users, pfn);
            }
            let indices: BTreeSet<u64> = victims.iter().map(|&(idx, _)| idx).collect();
            evicted += self.page_cache.evict_pages_where(&mut self.machine, file, |idx| {
                indices.contains(&idx)
            });
        }
        evicted
    }

    /// One compaction pass: migrates movable allocated blocks downward (the
    /// kernel's migrate scanner walks from the zone end, its free scanner
    /// from the start) until a free block of at least `target_order` exists
    /// or `budget` block moves are spent.
    ///
    /// Movable is the one rule every mover shares (`classify_movable` in
    /// `rmap.rs`): a single exclusive anonymous mapping exactly covering the
    /// block, or an order-0 page-cache page with its 4 KiB FILE mappings.
    pub(crate) fn compact(&mut self, target_order: u32, budget: u64) -> CompactOutcome {
        let mut out = CompactOutcome::default();
        let mut users = self.frame_users();
        let mut budget = budget;
        for node in 0..self.machine.nodes() {
            if budget == 0 || self.machine.has_free_block(target_order) {
                break;
            }
            let node = NodeId(node);
            let mut candidates: Vec<(Pfn, u32)> =
                self.machine.zone(node).frame_table().allocated_blocks().collect();
            candidates.reverse(); // migrate scanner: highest blocks first
            for (head, order) in candidates {
                if budget == 0 || self.machine.zone(node).has_free_block(target_order) {
                    break;
                }
                let Some(dest) = self.machine.zone(node).lowest_free_block(order, head) else {
                    continue;
                };
                if let Some(frames) = self.move_block(head, order, Dest::At(dest), &mut users) {
                    out.migrated_blocks += 1;
                    out.migrated_frames += frames;
                    budget -= 1;
                }
            }
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::policy::{BasePagesPolicy, DefaultThpPolicy};
    use crate::system::{System, SystemConfig};
    use crate::vma::VmaKind;
    use contig_buddy::MachineConfig;
    use contig_types::{FaultError, VirtRange};

    fn system_mib(mib: u64) -> System {
        System::new(SystemConfig::new(MachineConfig::single_node_mib(mib)))
    }

    #[test]
    fn reclaim_rescues_anon_fault_under_cache_pressure() {
        let mut sys = system_mib(4);
        // Fill nearly all memory with page-cache pages.
        let file = sys.page_cache_mut().create_file();
        let total = sys.machine().total_frames();
        {
            let (pc, m) = sys.cache_and_machine();
            pc.readahead(m, file, 0, total - 8).unwrap();
        }
        let pid = sys.spawn();
        sys.aspace_mut(pid)
            .map_vma(VirtRange::new(contig_types::VirtAddr::new(0x40_0000), 0x10_0000), VmaKind::Anon);
        let mut policy = BasePagesPolicy;
        // 256 base faults need far more than the 8 free frames: reclaim must
        // repeatedly evict cache pages to keep the process running.
        for i in 0..256u64 {
            sys.touch(&mut policy, pid, contig_types::VirtAddr::new(0x40_0000 + i * 4096))
                .unwrap();
        }
        let stats = *sys.recovery_stats();
        assert!(stats.oom_events > 0, "pressure never materialized");
        assert!(stats.reclaim_passes > 0);
        assert!(stats.reclaimed_pages > 0);
        assert!(stats.recovered_faults > 0);
        assert_eq!(stats.hard_ooms, 0);
        assert!(sys.audit().is_clean(), "{}", sys.audit());
        sys.machine().verify_integrity();
    }

    #[test]
    fn compaction_assembles_huge_block_from_movable_pages() {
        let mut sys = system_mib(4);
        let a = sys.spawn();
        let b = sys.spawn();
        // VMA starts are deliberately 2 MiB-misaligned so every fault is a
        // movable 4 KiB page even with THP on.
        for (pid, base) in [(a, 0x40_1000u64), (b, 0x100_1000u64)] {
            sys.aspace_mut(pid)
                .map_vma(VirtRange::new(contig_types::VirtAddr::new(base), 0x20_0000), VmaKind::Anon);
        }
        let mut policy = BasePagesPolicy;
        // Interleave 4 KiB faults of the two processes so their frames
        // alternate, then exit one: memory is half free but shattered.
        for i in 0..512u64 {
            sys.touch(&mut policy, a, contig_types::VirtAddr::new(0x40_1000 + i * 4096)).unwrap();
            sys.touch(&mut policy, b, contig_types::VirtAddr::new(0x100_1000 + i * 4096)).unwrap();
        }
        sys.exit(b);
        // Thin A out of the upper 2 MiB to 100 pages, fewer than one
        // compaction pass's budget moves, each still pinning that block.
        let va = |i: u64| contig_types::VirtAddr::new(0x40_1000 + i * 4096);
        let upper: Vec<u64> = (0..512u64)
            .filter(|&i| sys.aspace(a).page_table().translate(va(i)).unwrap().pfn.raw() >= 512)
            .collect();
        for &i in &upper[100..] {
            sys.unmap_base_page(a, va(i));
        }
        assert!(
            !sys.machine().has_free_block(contig_types::PageSize::Huge2M.order()),
            "exit pattern unexpectedly left a huge block"
        );
        // A huge fault now requires compaction to migrate A's pages.
        let c = sys.spawn();
        sys.aspace_mut(c)
            .map_vma(VirtRange::new(contig_types::VirtAddr::new(0x4000_0000), 0x20_0000), VmaKind::Anon);
        let mut thp = DefaultThpPolicy;
        let out = sys.touch(&mut thp, c, contig_types::VirtAddr::new(0x4000_0000)).unwrap();
        assert_eq!(out.size, contig_types::PageSize::Huge2M, "compaction failed to help");
        let stats = *sys.recovery_stats();
        assert!(stats.compaction_passes > 0);
        assert!(stats.migrated_blocks > 0);
        assert_eq!(stats.migrated_blocks, stats.migrated_frames, "only 4 KiB moves expected");
        assert!(stats.recovered_faults > 0);
        let report = sys.audit();
        assert!(report.is_clean(), "{report}");
        sys.machine().verify_integrity();
        // Process A's translations still resolve to allocated frames.
        for i in (0..512u64).filter(|i| !upper[100..].contains(i)) {
            let t = sys.aspace(a).page_table().translate(va(i)).unwrap();
            assert!(!sys.machine().is_free(t.pfn));
        }
    }

    #[test]
    fn cache_pages_migrate_with_their_mappings() {
        let mut sys = System::new(SystemConfig {
            thp: false,
            ..SystemConfig::new(MachineConfig::single_node_mib(4))
        });
        let file = sys.page_cache_mut().create_file();
        let pid = sys.spawn();
        let hole = sys.spawn();
        sys.aspace_mut(pid).map_vma(
            VirtRange::new(contig_types::VirtAddr::new(0x200_0000), 0x20_0000),
            VmaKind::File { file, start_page: 0 },
        );
        sys.aspace_mut(hole).map_vma(
            VirtRange::new(contig_types::VirtAddr::new(0x40_0000), 0x40_0000),
            VmaKind::Anon,
        );
        let mut policy = BasePagesPolicy;
        // Interleave file faults with anon faults until the machine fills,
        // then drop the anon process: cache pages sit scattered across the
        // zone with no huge block free.
        for i in 0..512u64 {
            sys.touch(&mut policy, pid, contig_types::VirtAddr::new(0x200_0000 + i * 4096))
                .unwrap();
            sys.touch(&mut policy, hole, contig_types::VirtAddr::new(0x40_0000 + i * 2 * 4096))
                .unwrap();
        }
        sys.exit(hole);
        let huge_order = contig_types::PageSize::Huge2M.order();
        assert!(!sys.machine().has_free_block(huge_order), "zone not fragmented");
        let before = sys.page_cache().cached_pages(file);
        let out = sys.compact(huge_order, 512);
        assert!(out.migrated_blocks > 0, "no cache page moved");
        assert!(sys.machine().has_free_block(huge_order), "compaction made no huge block");
        assert_eq!(sys.page_cache().cached_pages(file), before);
        let report = sys.audit();
        assert!(report.is_clean(), "{report}");
        // Every mapped file page still translates to the cached frame.
        for i in 0..512u64 {
            let va = contig_types::VirtAddr::new(0x200_0000 + i * 4096);
            let t = sys.aspace(pid).page_table().translate(va).unwrap();
            assert_eq!(Some(t.pfn), sys.page_cache().lookup(file, i));
        }
        sys.machine().verify_integrity();
    }

    #[test]
    fn an_injected_failure_storm_surfaces_after_bounded_retries() {
        use contig_types::{FailMode, FailPolicy};
        // Every allocation attempt fails by injection while memory is free:
        // each recovery round "succeeds", and only the per-size retry
        // budget ends the loop, with a typed error and seeded backoff.
        let run = || {
            let mut sys = system_mib(4);
            sys.set_fail_policy(FailPolicy::new(FailMode::EveryNth { n: 1 }));
            let pid = sys.spawn();
            sys.aspace_mut(pid).map_vma(
                VirtRange::new(contig_types::VirtAddr::new(0x40_0000), 0x40_0000),
                VmaKind::Anon,
            );
            let err = sys
                .touch(&mut BasePagesPolicy, pid, contig_types::VirtAddr::new(0x40_0000))
                .unwrap_err();
            assert!(matches!(err, FaultError::OutOfMemory { .. }), "unexpected error: {err}");
            assert!(sys.audit().is_clean(), "{}", sys.audit());
            sys.clear_fail_policy();
            // The system is fully usable once injection stops.
            sys.touch(&mut BasePagesPolicy, pid, contig_types::VirtAddr::new(0x40_0000)).unwrap();
            (*sys.recovery_stats(), sys.now_ns())
        };
        let (stats, now) = run();
        // MAX_RETRIES rounds at 2 MiB, then as many at 4 KiB.
        assert_eq!(stats.retries, 2 * u64::from(MAX_RETRIES));
        assert_eq!((stats.order_backoffs, stats.hard_ooms), (1, 1));
        assert!(stats.backoff_ns > 0, "no backoff was applied before retries");
        assert_eq!(run(), (stats, now), "same seed, same delays");
    }

    #[test]
    fn stage_counters_are_deterministic_across_runs() {
        let run = || {
            let mut sys = system_mib(2);
            let file = sys.page_cache_mut().create_file();
            {
                let (pc, m) = sys.cache_and_machine();
                pc.readahead(m, file, 0, 256).unwrap();
            }
            let pid = sys.spawn();
            sys.aspace_mut(pid).map_vma(
                VirtRange::new(contig_types::VirtAddr::new(0x40_0000), 0x40_0000),
                VmaKind::Anon,
            );
            let mut policy = DefaultThpPolicy;
            for i in 0..256u64 {
                let _ =
                    sys.touch(&mut policy, pid, contig_types::VirtAddr::new(0x40_0000 + i * 4096));
            }
            *sys.recovery_stats()
        };
        assert_eq!(run(), run());
    }
}
