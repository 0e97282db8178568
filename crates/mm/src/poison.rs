//! Memory-failure (hwpoison) recovery: migrate-and-heal, SIGBUS delivery,
//! and proactive soft-offlining.
//!
//! When a hardware strike destroys a frame ([`System::memory_failure`]), the
//! buddy layer quarantines it instantly if it was free or pcp-cached. For a
//! frame in use the mm layer decides, like the kernel's `memory-failure.c`:
//!
//! - a page-cache page is dropped (its content is re-readable from backing
//!   store): every PTE on it is unmapped, the cache slot evicted, and the
//!   frame diverted to quarantine on its way back to the buddy heap;
//! - a movable block (`rmap.rs`'s `classify_movable`: one exclusive
//!   anonymous mapping) is *healed by migration*: a replacement block is
//!   allocated (leaning on the OOM recovery escalation under pressure), the
//!   contents copied, the PTE repointed with a TLB shootdown, and the
//!   stricken block freed — the poisoned frame lands in quarantine, its
//!   healthy neighbours return to the free lists;
//! - a COW-shared or multiply-referenced page is unrecoverable (the copy
//!   could be stale): every mapping is torn down and each owner receives a
//!   typed [`FaultError::MemoryFailure`] — the SIGBUS equivalent — carrying
//!   pid, VMA, and the exact faulting address;
//! - a raw allocation with no references (pinned memory, fragmenter hogs)
//!   stays deferred: quarantine completes when the owner frees the block.
//!
//! [`System::soft_offline`] is the proactive variant: migrate a *suspect*
//! frame away before it fails, never killing anything — an unmovable page
//! simply stays put. Heal and soft-offline share one `evacuate`; who uses
//! the frame is `rmap.rs`'s answer, re-validated after the allocation
//! because the escalation's reclaim may evict the very page being moved.
//!
//! Every [`PoisonStats`] bump pairs with exactly one `poison.*` trace
//! emission (the zone emits `poison.quarantine` for `cache_dropped`'s
//! eviction), so trace totals equal stats totals — the invariant the torture
//! harness asserts after a poison storm.

use contig_buddy::PoisonDisposition;
use contig_trace::{stage, TraceEvent};
use contig_types::{ContigError, FaultError, PageSize, Pfn, PoisonPolicy};

use crate::pte::PteFlags;
use crate::recovery::MAX_RETRIES;
use crate::rmap::{FrameRef, MoveKind};
use crate::stats::{BASE_NS, ZERO_PAGE_NS};
use crate::system::System;

contig_types::wire_counters! {
    /// Cumulative memory-failure counters. All monotonic and exact under a fixed
    /// seed, like [`crate::RecoveryStats`].
    #[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
    pub struct PoisonStats {
        /// Strikes processed by [`System::memory_failure`] (↔ `poison.event`).
        pub strikes: u64 = "poison.event",
        /// Mapped pages healed by migration (↔ `poison.heal`).
        pub healed: u64 = "poison.heal",
        /// Base frames copied by successful heals (the `frames` field summed
        /// over `poison.heal` emissions).
        pub healed_frames: u64,
        /// Heal attempts that failed to allocate a replacement even after the
        /// recovery escalation (↔ `poison.heal_failed`); the page was killed.
        pub heal_failed: u64 = "poison.heal_failed",
        /// SIGBUS-equivalent [`FaultError::MemoryFailure`] deliveries, one per
        /// torn-down mapping (↔ `poison.sigbus`).
        pub sigbus: u64 = "poison.sigbus",
        /// Page-cache pages dropped because their frame was stricken (↔ the
        /// zone's `poison.quarantine` at eviction time).
        pub cache_dropped: u64,
        /// Soft-offline requests that quarantined or migrated the frame
        /// (↔ `poison.soft_offline`).
        pub soft_offline_ok: u64,
        /// Soft-offline requests refused — the frame was unmovable or no
        /// replacement could be found (↔ `poison.soft_offline`).
        pub soft_offline_failed: u64,
    }
}

/// What [`System::memory_failure`] did about one strike.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum FailureAction {
    /// The frame was already quarantined; the strike was absorbed.
    AlreadyPoisoned,
    /// The frame was free or pcp-cached: quarantined instantly, no user
    /// impact.
    Quarantined,
    /// A page-cache page: mappings unmapped, slot evicted, frame
    /// quarantined. Readable again from backing store on the next fault.
    CacheDropped,
    /// A mapped page healed by migration onto `replacement`; the owner never
    /// notices.
    Healed {
        /// Head frame of the replacement block.
        replacement: Pfn,
    },
    /// Unrecoverable: mappings torn down, owners killed with
    /// [`FaultError::MemoryFailure`].
    Killed,
    /// An unreferenced raw allocation: quarantine completes when the owner
    /// frees the block.
    Deferred,
    /// No zone owns the frame (Linux's `-ENXIO`): the strike was refused
    /// before any counter, trace event or clock moved.
    NoSuchFrame,
}

/// Result of one [`System::memory_failure`] strike.
#[derive(Clone, Debug)]
pub struct MemoryFailureOutcome {
    /// What the recovery path did.
    pub action: FailureAction,
    /// One SIGBUS-equivalent error per mapping torn down (empty unless
    /// `action` is [`FailureAction::Killed`]), each carrying pid, VMA, and
    /// the exact poisoned address.
    pub victims: Vec<ContigError>,
}

impl System {
    /// Installs a memory-failure injection policy, consulted by
    /// [`System::poison_tick`].
    pub fn set_poison_policy(&mut self, policy: PoisonPolicy) {
        self.poison_policy = policy;
    }

    /// Removes poison injection (the default).
    pub fn clear_poison_policy(&mut self) {
        self.poison_policy = PoisonPolicy::default();
    }

    /// The poison-injection policy in force.
    pub fn poison_policy(&self) -> &PoisonPolicy {
        &self.poison_policy
    }

    /// Cumulative memory-failure counters.
    pub fn poison_stats(&self) -> &PoisonStats {
        &self.poison_stats
    }

    /// Consults the poison policy once; if it fires, a victim frame is drawn
    /// from the policy's deterministic stream (or taken from
    /// [`PoisonMode::Address`](contig_types::PoisonMode::Address)) and
    /// [`System::memory_failure`] runs on it. The explicit tick keeps strike
    /// points well-defined — op boundaries in the torture harness — so
    /// poison-free runs stay bit-identical to pre-poison builds.
    pub fn poison_tick(&mut self) -> Option<MemoryFailureOutcome> {
        let pfn = self.poison_draw()?;
        Some(self.memory_failure(pfn))
    }

    /// Consults the poison policy once and returns the victim frame if it
    /// fires, *without* striking it. Virtualization layers use this to route
    /// the strike through their own handler (guest MCE delivery, re-backing)
    /// instead of the bare [`System::memory_failure`].
    pub fn poison_draw(&mut self) -> Option<Pfn> {
        if !self.poison_policy.is_armed() || !self.poison_policy.decide(()) {
            return None;
        }
        Some(match self.poison_policy.mode().target() {
            Some(target) => target,
            None => Pfn::new(self.poison_policy.draw_index(self.machine.total_frames())),
        })
    }

    /// Handles an uncorrectable memory error on `pfn`: quarantines the frame
    /// and heals or kills its users, per the module-level rules. A frame no
    /// zone owns is refused with [`FailureAction::NoSuchFrame`].
    pub fn memory_failure(&mut self, pfn: Pfn) -> MemoryFailureOutcome {
        if self.machine.node_of(pfn).is_none() {
            let action = FailureAction::NoSuchFrame;
            return MemoryFailureOutcome { action, victims: Vec::new() };
        }
        self.poison_stats.strikes += 1;
        self.tracer.emit(TraceEvent::PoisonEvent { pfn: pfn.raw() });
        match self.machine.poison(pfn) {
            PoisonDisposition::AlreadyPoisoned => MemoryFailureOutcome {
                action: FailureAction::AlreadyPoisoned,
                victims: Vec::new(),
            },
            PoisonDisposition::QuarantinedFree | PoisonDisposition::QuarantinedPcp => {
                MemoryFailureOutcome {
                    action: FailureAction::Quarantined,
                    victims: Vec::new(),
                }
            }
            PoisonDisposition::Deferred => self.recover_poisoned_in_use(pfn),
        }
    }

    /// Recovery for a stricken frame that is allocated: classify its
    /// references and drop, heal, kill, or defer.
    fn recover_poisoned_in_use(&mut self, pfn: Pfn) -> MemoryFailureOutcome {
        let outcome = |action, victims| MemoryFailureOutcome { action, victims };
        let users = self.frame_users();
        if let Some((file, index)) = users.cache_slot(pfn) {
            // Drop the page: unmap its PTEs, evict the slot. The eviction
            // frees the frame, which the zone diverts straight to quarantine.
            self.unmap_mappings_of(&users, pfn);
            self.page_cache.evict_pages_where(&mut self.machine, file, |idx| idx == index);
            self.poison_stats.cache_dropped += 1;
            return outcome(FailureAction::CacheDropped, Vec::new());
        }
        let refs = users.covering(pfn);
        let Some(&(_, _, size, _, head)) = refs.first() else {
            // Raw allocation (hog, pinned): the owner's eventual free
            // completes the quarantine.
            return outcome(FailureAction::Deferred, Vec::new());
        };
        if let Some(kind) = self.classify_movable(head, size.order(), &users) {
            // Migrate-and-heal: the stricken block is freed, quarantining
            // the poisoned frame; its healthy neighbours return to the heap.
            if let Some(replacement) = self.evacuate(pfn, head, size.order(), &kind) {
                let frames = size.base_pages();
                self.poison_stats.healed += 1;
                self.poison_stats.healed_frames += frames;
                self.tracer.emit(TraceEvent::PoisonHeal {
                    pfn: head.raw(),
                    replacement: replacement.raw(),
                    frames,
                });
                return outcome(FailureAction::Healed { replacement }, Vec::new());
            }
            self.poison_stats.heal_failed += 1;
            self.tracer.emit(TraceEvent::PoisonHealFailed { pfn: pfn.raw() });
        }
        let victims = self.kill_mappings(pfn, head, &refs);
        outcome(FailureAction::Killed, victims)
    }

    /// Moves the users of the block `(head, order)` holding `pfn` onto a
    /// replacement allocated with the OOM escalation, then quarantines `pfn`
    /// and frees the block: classify (the caller), allocate, re-validate,
    /// copy and repoint — one page-copy per frame plus one base fault cost
    /// for the shootdown round. Returns the replacement head; `None` when
    /// no block could be found or the escalation's reclaim evicted the page
    /// meanwhile (the frame is then free, and nothing was touched).
    fn evacuate(&mut self, pfn: Pfn, head: Pfn, order: u32, kind: &MoveKind) -> Option<Pfn> {
        let dest = self.alloc_with_recovery(order)?;
        if !self.still_names(kind, head) {
            self.machine.free(dest, order);
            return None;
        }
        {
            // A hard failure arrives with the frame already poisoned and
            // profiles its copy as a TLB shootdown; soft-offline's is bare.
            let _shootdown_span =
                self.machine.is_poisoned(pfn).then(|| self.tracer.span(stage::TLB_SHOOTDOWN));
            self.advance_clock((1u64 << order) * ZERO_PAGE_NS + BASE_NS);
            self.repoint(kind, dest);
        }
        self.machine.poison(pfn);
        self.machine.free(head, order);
        Some(dest)
    }

    /// Tears down every mapping of the stricken block and delivers one
    /// SIGBUS-equivalent error per owner, then releases the block so the
    /// poisoned frame reaches quarantine.
    fn kill_mappings(&mut self, pfn: Pfn, head: Pfn, refs: &[FrameRef]) -> Vec<ContigError> {
        let mut victims = Vec::with_capacity(refs.len());
        let mut any_file = false;
        for &(pid, va, _size, flags, _) in refs {
            any_file |= flags.contains(PteFlags::FILE);
            let vma_start = self
                .processes
                .get(pid)
                .and_then(|a| a.vma_containing(va))
                .map(|crate::aspace::VmaId(start)| start);
            if let Some(aspace) = self.processes.get_mut(pid) {
                aspace.page_table_mut().unmap(va);
            }
            // The SIGBUS names the exact poisoned page, not the mapping head.
            let addr = va + (pfn.raw() - head.raw()) * PageSize::Base4K.bytes();
            self.poison_stats.sigbus += 1;
            self.tracer.emit(TraceEvent::PoisonSigbus { pid: pid.0, va: addr.raw(), pfn: pfn.raw() });
            let mut err = ContigError::from(FaultError::MemoryFailure { addr, pfn }).with_pid(pid.0);
            if let Some(start) = vma_start {
                err = err.with_vma(start);
            }
            victims.push(err);
        }
        // Every reference is gone: release the block. (A FILE-flagged PTE
        // without a cache slot is dangling state the auditor reports; the
        // cache-owned case never reaches here.)
        if !any_file {
            let (_, _, size, _, _) = refs[0];
            self.machine.free(head, size.order());
        }
        victims
    }

    /// Proactively drains a *suspect* (still readable) frame: free frames
    /// are quarantined outright, movable pages are migrated away and their
    /// old frame quarantined. Never kills — an unmovable page stays put and
    /// the call reports failure. Returns whether the frame was drained.
    pub fn soft_offline(&mut self, pfn: Pfn) -> bool {
        let ok = self.soft_offline_inner(pfn);
        if ok {
            self.poison_stats.soft_offline_ok += 1;
        } else {
            self.poison_stats.soft_offline_failed += 1;
        }
        self.tracer.emit(TraceEvent::PoisonSoftOffline { pfn: pfn.raw(), migrated: ok });
        ok
    }

    fn soft_offline_inner(&mut self, pfn: Pfn) -> bool {
        if self.machine.is_poisoned(pfn) {
            return false;
        }
        if !self.machine.is_free(pfn) && !self.machine.pcp_contains(pfn) {
            // In use: migrate a movable block away, like compaction does.
            let users = self.frame_users();
            let (head, order) = match users.covering(pfn).first() {
                Some(&(_, _, size, _, head)) => (head, size.order()),
                None => (pfn, 0), // a cache page nothing maps, or a raw allocation
            };
            let Some(kind) = self.classify_movable(head, order, &users) else { return false };
            if self.evacuate(pfn, head, order, &kind).is_some() {
                return true;
            }
            // No replacement — unless the escalation's reclaim evicted the
            // very page, which leaves the frame free: fall through.
        }
        // Free or pcp-cached: quarantine directly (no data to move).
        (self.machine.is_free(pfn) || self.machine.pcp_contains(pfn))
            && !matches!(self.machine.poison(pfn), PoisonDisposition::Deferred)
    }

    /// Allocation with the bounded OOM-recovery escalation of the fault
    /// path (reclaim, compaction, backoff) but no size degradation: the
    /// replacement must match the stricken block.
    fn alloc_with_recovery(&mut self, order: u32) -> Option<Pfn> {
        let mut attempts = 0u32;
        loop {
            match self.machine.alloc(order) {
                Ok(dest) => return Some(dest),
                Err(_) => {
                    attempts += 1;
                    if attempts <= MAX_RETRIES && self.try_recover(order) {
                        self.backoff_sleep(attempts);
                        continue;
                    }
                    return None;
                }
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::policy::{BasePagesPolicy, DefaultThpPolicy};
    use crate::system::SystemConfig;
    use crate::vma::VmaKind;
    use contig_buddy::MachineConfig;
    use contig_types::{PoisonMode, VirtAddr, VirtRange};

    fn system_mib(mib: u64) -> System {
        System::new(SystemConfig::new(MachineConfig::single_node_mib(mib)))
    }

    fn va(addr: u64) -> VirtAddr {
        VirtAddr::new(addr)
    }

    #[test]
    fn strike_on_free_frame_quarantines_silently() {
        let mut sys = system_mib(4);
        let out = sys.memory_failure(Pfn::new(100));
        assert_eq!(out.action, FailureAction::Quarantined);
        assert!(out.victims.is_empty());
        assert_eq!(sys.poison_stats().strikes, 1);
        assert!(sys.machine().is_poisoned(Pfn::new(100)));
        assert!(sys.audit().is_clean(), "{}", sys.audit());
        // A repeat strike on the same DIMM address is absorbed.
        assert_eq!(sys.memory_failure(Pfn::new(100)).action, FailureAction::AlreadyPoisoned);
    }

    #[test]
    fn mapped_anon_page_is_healed_by_migration() {
        let mut sys = system_mib(32);
        let pid = sys.spawn();
        sys.aspace_mut(pid)
            .map_vma(VirtRange::new(va(0x40_0000), 0x20_0000), VmaKind::Anon);
        let mut policy = DefaultThpPolicy;
        let out = sys.touch(&mut policy, pid, va(0x40_0000)).unwrap();
        assert_eq!(out.size, PageSize::Huge2M);
        // Strike an interior frame of the huge block.
        let victim = out.pfn.add(13);
        let mf = sys.memory_failure(victim);
        let FailureAction::Healed { replacement } = mf.action else {
            panic!("expected heal, got {:?}", mf.action);
        };
        assert!(mf.victims.is_empty(), "heal must not SIGBUS");
        // The translation now points at the replacement; the old block is
        // gone and the poisoned frame quarantined.
        let t = sys.aspace(pid).page_table().translate(va(0x40_0000)).unwrap();
        assert_eq!(t.pfn, replacement);
        assert!(sys.machine().is_poisoned(victim));
        assert!(!sys.machine().is_free(victim));
        let stats = *sys.poison_stats();
        assert_eq!(stats.healed, 1);
        assert_eq!(stats.healed_frames, 512);
        assert_eq!(stats.sigbus, 0);
        assert!(sys.audit().is_clean(), "{}", sys.audit());
        // All other frames of the stricken block returned to the heap.
        sys.exit(pid);
        assert_eq!(
            sys.machine().free_frames(),
            sys.machine().total_frames() - 1,
            "exactly the poisoned frame is carved out"
        );
        sys.machine().verify_integrity();
    }

    #[test]
    fn cow_shared_page_kills_every_sharer() {
        let mut sys = system_mib(8);
        let parent = sys.spawn();
        let vma = sys
            .aspace_mut(parent)
            .map_vma(VirtRange::new(va(0x40_0000), 0x1000), VmaKind::Anon);
        let mut policy = BasePagesPolicy;
        sys.populate_vma(&mut policy, parent, vma).unwrap();
        let child = sys.fork_vma(parent, vma);
        let pfn = sys.aspace(parent).page_table().translate(va(0x40_0000)).unwrap().pfn;
        let mf = sys.memory_failure(pfn);
        assert_eq!(mf.action, FailureAction::Killed);
        assert_eq!(mf.victims.len(), 2, "both sharers die");
        for v in &mf.victims {
            let is_mce = matches!(v, ContigError::Fault { source: FaultError::MemoryFailure { .. }, .. });
            assert!(is_mce, "{v}");
        }
        // Both mappings are gone and the frame is quarantined, not leaked.
        assert!(sys.aspace(parent).page_table().translate(va(0x40_0000)).is_err());
        assert!(sys.aspace(child).page_table().translate(va(0x40_0000)).is_err());
        assert_eq!(sys.poison_stats().sigbus, 2);
        assert!(sys.audit().is_clean(), "{}", sys.audit());
        sys.exit(parent);
        sys.exit(child);
        assert_eq!(sys.machine().free_frames(), sys.machine().total_frames() - 1);
    }

    #[test]
    fn cache_page_is_dropped_and_refetchable() {
        let mut sys = system_mib(8);
        let file = sys.page_cache_mut().create_file();
        let pid = sys.spawn();
        sys.aspace_mut(pid).map_vma(
            VirtRange::new(va(0x200_0000), 0x10_0000),
            VmaKind::File { file, start_page: 0 },
        );
        let mut policy = BasePagesPolicy;
        let out = sys.touch(&mut policy, pid, va(0x200_0000)).unwrap();
        let mf = sys.memory_failure(out.pfn);
        assert_eq!(mf.action, FailureAction::CacheDropped);
        assert!(mf.victims.is_empty(), "clean cache drops are not fatal");
        assert!(sys.aspace(pid).page_table().translate(va(0x200_0000)).is_err());
        assert!(sys.page_cache().lookup(file, 0).is_none());
        assert_eq!(sys.poison_stats().cache_dropped, 1);
        assert!(sys.audit().is_clean(), "{}", sys.audit());
        // The page is simply re-read from backing store on the next fault.
        let again = sys.touch(&mut policy, pid, va(0x200_0000)).unwrap();
        assert_ne!(again.pfn, out.pfn, "poisoned frame must not come back");
    }

    #[test]
    fn heal_failure_degrades_to_sigbus() {
        // Tiny machine, memory exhausted by anonymous pages reclaim cannot
        // drop: migration has nowhere to go, so the strike kills the mapping.
        let mut sys = system_mib(1);
        let pid = sys.spawn();
        let vma = sys
            .aspace_mut(pid)
            .map_vma(VirtRange::new(va(0x40_0000), 0x10_0000), VmaKind::Anon);
        let mut policy = BasePagesPolicy;
        sys.populate_vma(&mut policy, pid, vma).unwrap();
        let pfn = sys.aspace(pid).page_table().translate(va(0x40_0000)).unwrap().pfn;
        let mf = sys.memory_failure(pfn);
        assert_eq!(mf.action, FailureAction::Killed);
        assert_eq!(mf.victims.len(), 1);
        let stats = *sys.poison_stats();
        assert_eq!(stats.heal_failed, 1);
        assert_eq!(stats.sigbus, 1);
        assert!(sys.audit().is_clean(), "{}", sys.audit());
    }

    #[test]
    fn soft_offline_migrates_without_killing() {
        let mut sys = system_mib(8);
        let pid = sys.spawn();
        sys.aspace_mut(pid)
            .map_vma(VirtRange::new(va(0x40_0000), 0x1000), VmaKind::Anon);
        let mut policy = BasePagesPolicy;
        let out = sys.touch(&mut policy, pid, va(0x40_0000)).unwrap();
        assert!(sys.soft_offline(out.pfn));
        let t = sys.aspace(pid).page_table().translate(va(0x40_0000)).unwrap();
        assert_ne!(t.pfn, out.pfn, "page must have moved");
        assert!(sys.machine().is_poisoned(out.pfn));
        assert_eq!(sys.poison_stats().soft_offline_ok, 1);
        assert!(sys.audit().is_clean(), "{}", sys.audit());
        // COW-shared pages are unmovable: soft-offline refuses, nothing dies.
        let vma = sys.aspace(pid).vma_containing(va(0x40_0000)).unwrap();
        let child = sys.fork_vma(pid, vma);
        let shared = sys.aspace(pid).page_table().translate(va(0x40_0000)).unwrap().pfn;
        assert!(!sys.soft_offline(shared));
        assert!(!sys.machine().is_poisoned(shared));
        assert!(sys.aspace(child).page_table().translate(va(0x40_0000)).is_ok());
        assert_eq!(sys.poison_stats().soft_offline_failed, 1);
    }

    #[test]
    fn soft_offline_drains_free_and_pcp_frames() {
        let mut sys = system_mib(4);
        sys.enable_pcp(contig_buddy::PcpConfig::with_cpus(1));
        assert!(sys.soft_offline(Pfn::new(50)), "free frame");
        // Park a frame on the pcp list, then offline it.
        let f = sys.machine_mut().alloc(0).unwrap();
        sys.machine_mut().free(f, 0);
        assert!(sys.machine().pcp_contains(f));
        assert!(sys.soft_offline(f), "pcp frame");
        assert!(!sys.soft_offline(f), "already quarantined");
        assert!(sys.audit().is_clean(), "{}", sys.audit());
    }

    #[test]
    fn poison_tick_strikes_the_configured_address() {
        let mut sys = system_mib(4);
        sys.set_poison_policy(PoisonPolicy::new(PoisonMode::Address {
            pfn: Pfn::new(123),
            n: 2,
        }));
        assert!(sys.poison_tick().is_none(), "first tick must not fire");
        sys.poison_tick().expect("second tick fires");
        assert!(sys.machine().is_poisoned(Pfn::new(123)));
        assert!(sys.poison_tick().is_none(), "one-shot disarms");
        sys.clear_poison_policy();
        assert!(!sys.poison_policy().is_armed());
    }

    #[test]
    fn seeded_poison_storm_is_deterministic() {
        let run = || {
            let mut sys = system_mib(8);
            sys.set_poison_policy(PoisonPolicy::new(PoisonMode::Probability {
                rate_ppm: 300_000,
                seed: 2020,
            }));
            let pid = sys.spawn();
            sys.aspace_mut(pid)
                .map_vma(VirtRange::new(va(0x40_0000), 0x40_0000), VmaKind::Anon);
            let mut policy = BasePagesPolicy;
            for i in 0..256u64 {
                let _ = sys.touch(&mut policy, pid, va(0x40_0000 + i * 4096));
                sys.poison_tick();
            }
            assert!(sys.audit().is_clean(), "{}", sys.audit());
            (*sys.poison_stats(), sys.machine().poisoned_frames(), sys.now_ns())
        };
        assert_eq!(run(), run());
        let (stats, poisoned, _) = run();
        assert!(stats.strikes > 0, "storm never struck");
        assert!(poisoned > 0);
    }
}
