//! A Translation Ranger-style defragmentation daemon (Yan et al., ISCA'19).
//!
//! Ranger leaves allocation untouched (faults land wherever THP puts them)
//! and periodically coalesces each process's footprint with post-allocation
//! page migrations: it picks an *anchor region* of physical memory per VMA
//! and migrates pages so the VMA's virtual pages become physically
//! consecutive there. Contiguity therefore arrives *late* — after migrations
//! catch up with the allocation phase (paper Fig. 1c) — and each migration
//! costs a copy plus a TLB shootdown (Fig. 11's ~3 % overhead).

use std::collections::HashMap;

use contig_mm::{Dest, FrameUsers, Pid, PteFlags, System};
use contig_types::{ContigMapping, MapOffset, PageSize, PhysAddr, Pfn, VirtAddr, VirtRange};

/// Counters exposed by [`RangerDaemon`].
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct RangerStats {
    /// Base pages moved (a 2 MiB migration counts 512).
    pub pages_migrated: u64,
    /// TLB shootdowns issued (one per migrated leaf).
    pub shootdowns: u64,
    /// Occupant leaves displaced out of a migration destination (page
    /// exchange).
    pub(crate) displaced: u64,
}

/// The asynchronous defragmentation daemon.
///
/// Call [`RangerDaemon::epoch`] between batches of application faults; each
/// epoch migrates at most `budget_pages` base pages, modelling the daemon's
/// bounded scan rate.
///
/// # Examples
///
/// ```
/// use contig_baselines::RangerDaemon;
/// use contig_buddy::MachineConfig;
/// use contig_mm::{DefaultThpPolicy, System, SystemConfig, VmaKind};
/// use contig_types::{VirtAddr, VirtRange};
///
/// let mut sys = System::new(SystemConfig::new(MachineConfig::single_node_mib(64)));
/// let pid = sys.spawn();
/// let vma = sys
///     .aspace_mut(pid)
///     .map_vma(VirtRange::new(VirtAddr::new(0x40_0000), 8 << 20), VmaKind::Anon);
/// sys.populate_vma(&mut DefaultThpPolicy, pid, vma)?;
/// let mut ranger = RangerDaemon::new(100_000);
/// ranger.epoch(&mut sys, &[pid]);
/// // After enough epochs the footprint coalesces into one mapping.
/// let maps = contig_mm::contiguous_mappings(sys.aspace(pid).page_table());
/// assert_eq!(maps.len(), 1);
/// # Ok::<(), contig_types::FaultError>(())
/// ```
#[derive(Clone, Debug)]
pub struct RangerDaemon {
    budget_pages: u64,
    /// Anchor offsets per (pid, VMA start), persisted across epochs so
    /// migration converges. Each entry is a `(VA, offset)` sub-anchor; a
    /// leaf uses the last sub-anchor at or before its address. Pinned
    /// destinations trigger sub-VMA re-anchoring instead of punching holes.
    anchors: HashMap<(Pid, u64), Vec<(u64, MapOffset)>>,
    stats: RangerStats,
}

/// Re-anchors allowed per VMA per epoch before giving up (bounds churn when
/// pinned memory blocks every candidate region).
const MAX_REANCHORS_PER_EPOCH: usize = 8;

/// Leaves inside a contiguous run at least this long are left in place:
/// migrating them would trade one large run for another at copy cost, and
/// under pinned memory it would split runs. Translation Ranger's region
/// scoring has the same effect — regions that are already coalesced win.
const PROTECTED_RUN_BYTES: u64 = 8 << 20;

impl RangerDaemon {
    /// A daemon migrating at most `budget_pages` base pages per epoch.
    ///
    /// # Panics
    ///
    /// Panics if the budget is zero.
    pub fn new(budget_pages: u64) -> Self {
        assert!(budget_pages > 0, "ranger budget must be positive");
        Self { budget_pages, anchors: HashMap::new(), stats: RangerStats::default() }
    }

    /// Counters accumulated so far.
    pub fn stats(&self) -> RangerStats {
        self.stats
    }

    /// Runs one defragmentation epoch over the given processes (scanned
    /// serially, like the released ranger code — the multi-programmed
    /// response-time penalty of Fig. 10 follows from this). Every move goes
    /// through `contig-mm`'s block move, over one reverse map built at the
    /// epoch's first move.
    pub fn epoch(&mut self, sys: &mut System, pids: &[Pid]) {
        let mut budget = self.budget_pages;
        let mut users = None;
        for &pid in pids {
            if budget == 0 {
                break;
            }
            let vma_ids: Vec<_> = sys.aspace(pid).vma_ids().collect();
            for vma_id in vma_ids {
                if budget == 0 {
                    break;
                }
                self.defrag_vma(sys, pids, pid, vma_id, &mut users, &mut budget);
            }
        }
    }

    /// Page exchange: moves every leaf occupying `target`'s range to
    /// wherever default placement puts it, if each is an exclusive anonymous
    /// leaf of one of `pids`. Returns whether the range was fully vacated.
    fn displace_occupants(
        &mut self,
        sys: &mut System,
        users: &mut FrameUsers,
        pids: &[Pid],
        target: Pfn,
        size: PageSize,
    ) -> bool {
        // Collect every occupant first: one foreign or pinned frame (hog,
        // page cache, shared or another process's memory) refuses the range.
        let end = target.raw() + size.base_pages();
        let mut leaves: Vec<(Pfn, u32)> = Vec::new();
        let mut f = target.raw();
        while f < end {
            if sys.machine().is_free(Pfn::new(f)) {
                f += 1;
                continue;
            }
            let &[(pid, _, lsize, _, head)] = users.covering(Pfn::new(f)).as_slice() else {
                return false;
            };
            if !pids.contains(&pid) || sys.anon_owner(head, lsize.order(), users).is_none() {
                return false;
            }
            leaves.push((head, lsize.order()));
            f = head.raw() + lsize.base_pages();
        }
        for (head, order) in leaves {
            if sys.move_block(head, order, Dest::Anywhere, users).is_none() {
                return false;
            }
            self.stats.displaced += 1;
            self.stats.pages_migrated += 1 << order;
            self.stats.shootdowns += 1;
        }
        true
    }

    fn defrag_vma(
        &mut self,
        sys: &mut System,
        pids: &[Pid],
        pid: Pid,
        vma_id: contig_mm::VmaId,
        users: &mut Option<FrameUsers>,
        budget: &mut u64,
    ) {
        let range = sys.aspace(pid).vma(vma_id).range();
        // Anchor selection: sticky across epochs. Like Translation Ranger's
        // region choice, the anchor maximizes overlap with pages that are
        // already in place: the VMA's largest existing contiguous run keeps
        // its position and everything else migrates toward it. A VMA with
        // nothing mapped yet anchors at the largest free cluster.
        let key = (pid, range.start().raw());
        if let std::collections::hash_map::Entry::Vacant(e) = self.anchors.entry(key) {
            let dominant = contig_mm::contiguous_mappings(sys.aspace(pid).page_table())
                .into_iter()
                .filter(|m| range.contains(m.virt.start()))
                .max_by_key(|m| m.len());
            let a = if let Some(run) = dominant {
                run.offset
            } else if let Some(a) = free_cluster_anchor(sys, range.start()) {
                a
            } else {
                return;
            };
            e.insert(vec![(range.start().raw(), a)]);
        }
        let mut reanchors = 0usize;
        // Walk the VMA's leaves; migrate any leaf not at its anchored target
        // and not already inside a protected (large) run.
        let mut protected =
            ProtectedRuns::new(contig_mm::contiguous_mappings(sys.aspace(pid).page_table()));
        let leaves: Vec<VirtAddr> = sys
            .aspace(pid)
            .page_table()
            .mappings_in(range)
            .filter(|m| !protected.contains(m.va))
            .map(|m| m.va)
            .collect();
        for va in leaves {
            if *budget == 0 {
                return;
            }
            // Re-read the leaf: a displacement earlier in this epoch may have
            // already moved it.
            let Ok(t) = sys.aspace(pid).page_table().translate(va) else { continue };
            if t.flags.contains(PteFlags::FILE) || t.flags.contains(PteFlags::COW) {
                continue; // ranger migrates exclusive anonymous memory only
            }
            let (size, order) = (t.size, t.size.order());
            let anchor = {
                let subs = &self.anchors[&key];
                subs.iter().rev().find(|&&(sva, _)| sva <= va.raw()).map(|&(_, a)| a)
            };
            let Some(anchor) = anchor else { continue };
            let Some(target_pa) = anchor.try_apply(va) else { continue };
            if !target_pa.is_aligned(size) {
                continue;
            }
            let target = target_pa.page_number();
            if target == t.pfn {
                continue; // already in place
            }
            let users = users.get_or_insert_with(|| sys.frame_users());
            if sys.anon_owner(t.pfn, order, users).is_none() {
                continue; // shared or aliased: the mover would refuse it
            }
            // Copy onto the target. When it is busy, exchange pages:
            // displace the movable occupants, then retry. A pinned occupant
            // (hog, page cache, shared memory) triggers a sub-VMA re-anchor
            // instead: the remaining pages coalesce in a fresh region rather
            // than punching holes into existing runs.
            let to = Dest::At(target);
            if sys.move_block(t.pfn, order, to, users).is_none()
                && (!self.displace_occupants(sys, users, pids, target, size)
                    || sys.move_block(t.pfn, order, to, users).is_none())
            {
                reanchors += 1;
                if reanchors > MAX_REANCHORS_PER_EPOCH {
                    return;
                }
                let Some(a) = free_cluster_anchor(sys, va) else { return };
                self.anchors.get_mut(&key).expect("anchored above").push((va.raw(), a));
                continue;
            }
            self.stats.pages_migrated += size.base_pages();
            self.stats.shootdowns += 1;
            *budget = budget.saturating_sub(size.base_pages());
        }
    }
}

/// The contiguous runs of at least [`PROTECTED_RUN_BYTES`], asked about in
/// ascending VA order: the runs are VA-sorted and disjoint, so one cursor
/// answers each query, for O(leaves + runs) per VMA instead of a scan of
/// every run per leaf.
struct ProtectedRuns {
    runs: Vec<VirtRange>,
    next: usize,
}

impl ProtectedRuns {
    fn new(runs: Vec<ContigMapping>) -> Self {
        let runs = runs.into_iter().filter(|m| m.len() >= PROTECTED_RUN_BYTES).map(|m| m.virt);
        Self { runs: runs.collect(), next: 0 }
    }

    /// Whether `va` lies inside a protected run; `va` must not be below the
    /// previous query's.
    fn contains(&mut self, va: VirtAddr) -> bool {
        while self.runs.get(self.next).is_some_and(|r| r.end() <= va) {
            self.next += 1;
        }
        self.runs.get(self.next).is_some_and(|r| r.contains(va))
    }
}

/// An anchor mapping `va` to the start of the largest free cluster, huge
/// aligned; `None` when no free cluster exists.
fn free_cluster_anchor(sys: &System, va: VirtAddr) -> Option<MapOffset> {
    let cluster = sys
        .machine()
        .iter_zones()
        .flat_map(|z| z.contiguity_map().iter())
        .max_by_key(|c| c.frames)?;
    let base = PhysAddr::from(cluster.start).align_up(PageSize::Huge2M);
    Some(MapOffset::between(va.align_down(PageSize::Huge2M), base))
}

#[cfg(test)]
mod tests {
    use super::*;
    use contig_buddy::MachineConfig;
    use contig_mm::{contiguous_mappings, DefaultThpPolicy, PageTable, SystemConfig, VmaKind};

    /// Fraction of a page table's mapped bytes covered by its single
    /// largest contiguous mapping.
    fn largest_mapping_fraction(pt: &PageTable) -> f64 {
        let maps = contiguous_mappings(pt);
        let total: u64 = maps.iter().map(|m| m.len()).sum();
        if total == 0 {
            return 0.0;
        }
        maps.iter().map(|m| m.len()).max().unwrap_or(0) as f64 / total as f64
    }

    /// Runs epochs over `pid` until one migrates nothing (at most 64),
    /// calling `check` after each; returns the epochs run.
    fn converge(ranger: &mut RangerDaemon, sys: &mut System, pid: Pid, check: impl Fn(&System)) -> u64 {
        for epoch in 1..=64 {
            let migrated = ranger.stats().pages_migrated;
            ranger.epoch(sys, &[pid]);
            check(sys);
            if ranger.stats().pages_migrated == migrated {
                return epoch;
            }
        }
        64
    }

    fn fragmented_system() -> (System, Pid, contig_mm::VmaId) {
        let mut sys = System::new(SystemConfig::new(MachineConfig::single_node_mib(128)));
        let pid = sys.spawn();
        let vma = sys
            .aspace_mut(pid)
            .map_vma(VirtRange::new(VirtAddr::new(0x40_0000), 16 << 20), VmaKind::Anon);
        // Interleave the application's huge faults with short-lived noise
        // allocations so THP scatters the footprint.
        let mut policy = DefaultThpPolicy;
        let mut noise = Vec::new();
        for i in 0..8u64 {
            sys.touch(&mut policy, pid, VirtAddr::new(0x40_0000 + i * (2 << 20))).unwrap();
            noise.push(sys.machine_mut().alloc(9).unwrap());
        }
        for n in noise {
            sys.machine_mut().free(n, 9);
        }
        (sys, pid, vma)
    }

    #[test]
    fn migration_coalesces_scattered_footprint() {
        let (mut sys, pid, _) = fragmented_system();
        let before = contiguous_mappings(sys.aspace(pid).page_table()).len();
        assert!(before > 1, "setup must scatter the footprint, got {before} runs");
        let mut ranger = RangerDaemon::new(1 << 20);
        let epochs = converge(&mut ranger, &mut sys, pid, |_| {});
        let after = contiguous_mappings(sys.aspace(pid).page_table());
        assert_eq!(after.len(), 1, "converged footprint must be one run");
        assert_eq!(after[0].len(), 16 << 20);
        assert!(ranger.stats().pages_migrated > 0);
        assert!(epochs >= 2, "convergence takes work then a quiescent epoch");
        sys.machine().verify_integrity();
    }

    #[test]
    fn budget_bounds_per_epoch_progress() {
        let (mut sys, pid, _) = fragmented_system();
        let mut ranger = RangerDaemon::new(512); // one huge page per epoch
        ranger.epoch(&mut sys, &[pid]);
        assert!(ranger.stats().pages_migrated <= 512);
        let partial = largest_mapping_fraction(sys.aspace(pid).page_table());
        ranger.epoch(&mut sys, &[pid]);
        ranger.epoch(&mut sys, &[pid]);
        let later = largest_mapping_fraction(sys.aspace(pid).page_table());
        assert!(later >= partial, "coverage must be monotone under migration");
    }

    #[test]
    fn migration_accounting_matches_shootdowns() {
        let (mut sys, pid, _) = fragmented_system();
        let mut ranger = RangerDaemon::new(1 << 20);
        converge(&mut ranger, &mut sys, pid, |_| {});
        let s = ranger.stats();
        assert_eq!(s.pages_migrated, s.shootdowns * 512, "huge-leaf migrations only");
    }

    #[test]
    fn converged_state_is_stable() {
        let (mut sys, pid, _) = fragmented_system();
        let mut ranger = RangerDaemon::new(1 << 20);
        converge(&mut ranger, &mut sys, pid, |_| {});
        let migrated = ranger.stats().pages_migrated;
        ranger.epoch(&mut sys, &[pid]);
        assert_eq!(ranger.stats().pages_migrated, migrated, "no churn after convergence");
    }

    proptest::proptest! {
        /// The cursor answers every leaf as the per-leaf scan over all runs
        /// did, on VA-sorted disjoint runs (some touching, some protected)
        /// and ascending leaves. Runs are whole MiBs and leaves quarter
        /// MiBs, so leaves often sit exactly on a run boundary.
        #[test]
        fn protected_cursor_matches_the_run_scan(
            shape in proptest::collection::vec((0u64..4, 1u64..16), 0..24),
            leaves in proptest::collection::btree_set(0u64..1600, 0..200),
        ) {
            const MIB: u64 = 1 << 20;
            let mut runs = Vec::new();
            let mut at = 0;
            for (gap, len) in shape {
                let va = VirtAddr::new((at + gap) * MIB);
                runs.push(ContigMapping::new(va, PhysAddr::new(at * MIB), len * MIB));
                at += gap + len;
            }
            let scan = |va: VirtAddr| {
                runs.iter().any(|m| m.virt.contains(va) && m.len() >= PROTECTED_RUN_BYTES)
            };
            let mut cursor = ProtectedRuns::new(runs.clone());
            for leaf in leaves {
                let va = VirtAddr::new(leaf * MIB / 4);
                proptest::prop_assert_eq!(cursor.contains(va), scan(va), "leaf {}", va);
            }
        }
    }

    #[test]
    #[should_panic(expected = "budget must be positive")]
    fn zero_budget_rejected() {
        let _ = RangerDaemon::new(0);
    }

    #[test]
    fn displacement_regression_under_crowding() {
        // A crowded machine forces migration destinations onto frames that
        // hold other movable leaves — including later leaves of the same
        // VMA. Migration must displace them and then work from the leaves'
        // *new* frames, not a stale snapshot (a past bug double-freed the
        // old frame, corrupting the allocator). Another process and a cached
        // file share the machine: ranger, given only `pid`, must leave their
        // frames alone and every epoch must leave the system consistent.
        let mut sys = System::new(SystemConfig::new(MachineConfig::single_node_mib(48)));
        let (pid, other) = (sys.spawn(), sys.spawn());
        let file = sys.page_cache_mut().create_file();
        let maps = [
            (pid, 0x40_0000, 16 << 20, VmaKind::Anon),
            (pid, 0x4000_0000, 24 << 20, VmaKind::Anon),
            (pid, 0x8000_0000, 1 << 20, VmaKind::File { file, start_page: 0 }),
            (other, 0x40_0000, 4 << 20, VmaKind::Anon),
        ];
        for (p, start, len, kind) in maps {
            sys.aspace_mut(p).map_vma(VirtRange::new(VirtAddr::new(start), len), kind);
        }
        let mut policy = DefaultThpPolicy;
        let mut touch = |sys: &mut System, p: Pid, va: u64| {
            sys.touch(&mut policy, p, VirtAddr::new(va)).unwrap();
        };
        // Reverse-touch the first VMA (descending frames), forward-touch the
        // second: their anchored destinations interleave. The other process
        // and the file's readahead land among them.
        for i in (0..8u64).rev() {
            touch(&mut sys, pid, 0x40_0000 + i * (2 << 20));
        }
        for i in 0..12u64 {
            touch(&mut sys, pid, 0x4000_0000 + i * (2 << 20));
            if i < 8 {
                touch(&mut sys, pid, 0x8000_0000 + i * (128 << 10));
            }
            if i % 6 == 0 {
                touch(&mut sys, other, 0x40_0000 + i / 6 * (2 << 20));
            }
        }
        let untouched = |sys: &System| {
            let other = sys.aspace(other).page_table().iter_mappings().map(|m| (m.va, m.pte.pfn));
            (other.collect::<Vec<_>>(), sys.page_cache().pages_of(file).collect::<Vec<_>>())
        };
        let kept = untouched(&sys);
        assert!(!kept.0.is_empty() && kept.1.len() == 256);
        let used = sys.machine().total_frames() - sys.machine().free_frames();
        let before = contiguous_mappings(sys.aspace(pid).page_table()).len();
        let mut ranger = RangerDaemon::new(1 << 20);
        converge(&mut ranger, &mut sys, pid, |sys| {
            assert!(sys.audit().is_clean(), "{}", sys.audit());
            sys.machine().verify_integrity();
            assert_eq!(untouched(sys), kept, "frames outside ranger's scope moved");
        });
        assert!(ranger.stats().displaced > 0, "the crowding must force page exchange");
        assert_eq!(sys.machine().total_frames() - sys.machine().free_frames(), used);
        let after = contiguous_mappings(sys.aspace(pid).page_table()).len();
        assert!(after <= before, "coalescing must not regress: {after} vs {before}");
    }
}
