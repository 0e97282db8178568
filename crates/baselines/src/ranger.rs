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

use contig_mm::{Pid, Pte, PteFlags, System};
use contig_types::{ContigMapping, MapOffset, PageSize, PhysAddr, Pfn, VirtAddr, VirtRange};

/// Counters exposed by [`RangerDaemon`].
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct RangerStats {
    /// Defragmentation epochs executed.
    pub(crate) epochs: u64,
    /// Base pages moved (a 2 MiB migration counts 512).
    pub pages_migrated: u64,
    /// TLB shootdowns issued (one per migrated leaf).
    pub shootdowns: u64,
    /// Migrations skipped because the destination was pinned or unknown.
    pub(crate) skipped: u64,
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
    /// response-time penalty of Fig. 10 follows from this).
    pub fn epoch(&mut self, sys: &mut System, pids: &[Pid]) {
        self.stats.epochs += 1;
        let mut budget = self.budget_pages;
        // Reverse map for page exchange: which (pid, va, size) owns a frame.
        let mut owners: HashMap<Pfn, (Pid, VirtAddr, PageSize)> = HashMap::new();
        for &pid in pids {
            for m in sys.aspace(pid).page_table().iter_mappings() {
                if !m.pte.flags.contains(PteFlags::FILE) && !m.pte.flags.contains(PteFlags::COW) {
                    owners.insert(m.pte.pfn, (pid, m.va, m.size));
                }
            }
        }
        for &pid in pids {
            if budget == 0 {
                break;
            }
            let vma_ids: Vec<_> = sys.aspace(pid).vma_ids().collect();
            for vma_id in vma_ids {
                if budget == 0 {
                    break;
                }
                self.defrag_vma(sys, pid, vma_id, &mut owners, &mut budget);
            }
        }
    }

    /// Moves the leaf owning `target`'s range out of the way, if every frame
    /// of the range belongs to movable leaves of tracked processes. Returns
    /// whether the range was fully vacated.
    fn displace_occupants(
        &mut self,
        sys: &mut System,
        owners: &mut HashMap<Pfn, (Pid, VirtAddr, PageSize)>,
        target: Pfn,
        size: PageSize,
    ) -> bool {
        // Collect distinct occupant leaves covering the target range.
        let mut leaves: Vec<(Pid, VirtAddr, PageSize, Pfn)> = Vec::new();
        let mut f = 0u64;
        while f < size.base_pages() {
            let frame = target.add(f);
            if sys.machine().is_free(frame) {
                f += 1;
                continue;
            }
            // Find the leaf head owning this frame: it is registered under
            // its first frame; huge leaves are 512-aligned.
            let head = if let Some(&(pid, va, lsize)) = owners.get(&frame) {
                (pid, va, lsize, frame)
            } else {
                let huge_head = frame.align_down(9);
                match owners.get(&huge_head) {
                    Some(&(pid, va, PageSize::Huge2M)) => (pid, va, PageSize::Huge2M, huge_head),
                    _ => return false, // pinned (hog/cache) or foreign memory
                }
            };
            leaves.push(head);
            f = head.3.raw() - target.raw() + head.2.base_pages();
        }
        for (pid, va, lsize, old) in leaves {
            let Ok(new) = sys.machine_mut().alloc_page(lsize) else {
                return false;
            };
            let flags = sys
                .aspace(pid)
                .page_table()
                .translate(va)
                .map(|t| t.flags)
                .unwrap_or(PteFlags::WRITE);
            sys.aspace_mut(pid).page_table_mut().remap(va, Pte::new(new, flags));
            sys.machine_mut().free_page(old, lsize);
            owners.remove(&old);
            owners.insert(new, (pid, va, lsize));
            self.stats.displaced += 1;
            self.stats.pages_migrated += lsize.base_pages();
            self.stats.shootdowns += 1;
        }
        true
    }

    fn defrag_vma(
        &mut self,
        sys: &mut System,
        pid: Pid,
        vma_id: contig_mm::VmaId,
        owners: &mut HashMap<Pfn, (Pid, VirtAddr, PageSize)>,
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
            // already moved it, and migrating from the stale snapshot would
            // free a frame that no longer backs this mapping.
            let Ok(t) = sys.aspace(pid).page_table().translate(va) else { continue };
            let size = t.size;
            let pte = Pte::new(t.pfn, t.flags);
            if pte.flags.contains(PteFlags::FILE) || pte.flags.contains(PteFlags::COW) {
                continue; // ranger migrates exclusive anonymous memory only
            }
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
            if target == pte.pfn {
                continue; // already in place
            }
            if sys.machine_mut().alloc_specific(target, size.order()).is_err() {
                // Destination busy: exchange pages — displace the movable
                // occupants, then retry. A pinned occupant (hog, page cache,
                // shared memory) triggers a sub-VMA re-anchor: the remaining
                // pages coalesce in a fresh region instead of punching holes
                // into existing runs.
                if !self.displace_occupants(sys, owners, target, size)
                    || sys.machine_mut().alloc_specific(target, size.order()).is_err()
                {
                    self.stats.skipped += 1;
                    reanchors += 1;
                    if reanchors > MAX_REANCHORS_PER_EPOCH {
                        return;
                    }
                    let Some(a) = free_cluster_anchor(sys, va) else { return };
                    self.anchors.get_mut(&key).expect("anchored above").push((va.raw(), a));
                    continue;
                }
            }
            // Copy: remap the leaf onto the target, free the old frame.
            sys.aspace_mut(pid)
                .page_table_mut()
                .remap(va, Pte::new(target, pte.flags));
            sys.machine_mut().free_page(pte.pfn, size);
            owners.remove(&pte.pfn);
            owners.insert(target, (pid, va, size));
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

/// Convenience: run epochs until no migration happens or `max_epochs` is hit.
/// Returns the epochs executed.
pub fn run_ranger_to_convergence(
    ranger: &mut RangerDaemon,
    sys: &mut System,
    pids: &[Pid],
    max_epochs: u64,
) -> u64 {
    let mut executed = 0;
    for _ in 0..max_epochs {
        let before = ranger.stats().pages_migrated;
        ranger.epoch(sys, pids);
        executed += 1;
        if ranger.stats().pages_migrated == before {
            break;
        }
    }
    executed
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
        let epochs = run_ranger_to_convergence(&mut ranger, &mut sys, &[pid], 64);
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
        run_ranger_to_convergence(&mut ranger, &mut sys, &[pid], 64);
        let s = ranger.stats();
        assert_eq!(s.pages_migrated, s.shootdowns * 512, "huge-leaf migrations only");
    }

    #[test]
    fn converged_state_is_stable() {
        let (mut sys, pid, _) = fragmented_system();
        let mut ranger = RangerDaemon::new(1 << 20);
        run_ranger_to_convergence(&mut ranger, &mut sys, &[pid], 64);
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
        // old frame, corrupting the allocator).
        let mut sys = System::new(SystemConfig::new(MachineConfig::single_node_mib(48)));
        let pid = sys.spawn();
        sys.aspace_mut(pid)
            .map_vma(VirtRange::new(VirtAddr::new(0x40_0000), 16 << 20), VmaKind::Anon);
        sys.aspace_mut(pid)
            .map_vma(VirtRange::new(VirtAddr::new(0x4000_0000), 24 << 20), VmaKind::Anon);
        let mut policy = DefaultThpPolicy;
        // Reverse-touch the first VMA (descending frames), forward-touch the
        // second: their anchored destinations interleave.
        for i in (0..8u64).rev() {
            sys.touch(&mut policy, pid, VirtAddr::new(0x40_0000 + i * (2 << 20))).unwrap();
        }
        for i in 0..12u64 {
            sys.touch(&mut policy, pid, VirtAddr::new(0x4000_0000 + i * (2 << 20))).unwrap();
        }
        let used = sys.machine().total_frames() - sys.machine().free_frames();
        let before = contiguous_mappings(sys.aspace(pid).page_table()).len();
        let mut ranger = RangerDaemon::new(1 << 20);
        run_ranger_to_convergence(&mut ranger, &mut sys, &[pid], 64);
        assert!(ranger.stats().pages_migrated > 0);
        assert_eq!(sys.machine().total_frames() - sys.machine().free_frames(), used);
        sys.machine().verify_integrity();
        let after = contiguous_mappings(sys.aspace(pid).page_table()).len();
        assert!(after <= before, "coalescing must not regress: {after} vs {before}");
    }
}
