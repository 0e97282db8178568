//! Crash-consistent full-system checkpoints.
//!
//! A [`SystemSnapshot`] is a plain-data image of everything that can affect
//! future [`System`] behaviour: buddy free lists (in list order, so LIFO
//! allocation order survives the round trip), zone counters and fail-injection
//! state, the contiguity-map rover, every process's VMAs with their CA offset
//! sets, page-table leaves, fault statistics, the page cache, the COW share
//! counts, the recovery escalation state, and the simulated clock. Restoring a
//! snapshot yields a system whose subsequent execution is bit-identical to the
//! original's — the property the `contig-check` torture harness leans on for
//! crash-point testing.
//!
//! The tracer is deliberately *not* captured: trace sessions are observers,
//! not state, and a restored system comes back with tracing disabled.

use contig_buddy::{Machine, MachineSnapshot};
use contig_trace::Tracer;
use contig_types::{MapOffset, PageSize, Pfn, PoisonPolicy, VirtAddr, VirtRange};

use crate::aspace::AddressSpace;
use crate::daemon::DaemonState;
use crate::page_cache::{PageCache, PageCacheSnapshot};
use crate::pte::{Pte, PteFlags};
use crate::poison::PoisonStats;
use crate::recovery::RecoveryStats;
use crate::stats::FaultStats;
use crate::system::{Pid, ProcessTable, System};
use crate::vma::VmaKind;

contig_types::wire_struct! {
    /// Plain-data image of one VMA, including CA paging metadata.
    #[derive(Clone, Debug, PartialEq, Eq)]
    pub struct VmaSnapshot {
        /// Start byte address of the virtual range.
        pub start: u64,
        /// Length of the virtual range in bytes.
        pub len: u64,
        /// `Some((file id, start page))` for file mappings, `None` for anonymous.
        pub file: Option<(u32, u64)>,
        /// The FIFO offset set: `(fault address, raw offset)` oldest-first.
        pub offsets: Vec<(u64, i128)>,
        /// Whether the re-placement slot was claimed at capture time.
        pub replacement_claimed: bool,
    }
}

contig_types::wire_struct! {
    /// Plain-data image of per-address-space fault statistics.
    #[derive(Clone, Debug, Default, PartialEq, Eq)]
    pub struct FaultStatsSnapshot {
        /// The eight public counters of [`FaultStats`], in declaration order:
        /// `faults_4k, faults_2m, cow_faults, thp_fallbacks, ca_target_hits,
        /// ca_target_misses, placements, total_fault_ns`.
        pub counters: [u64; 8],
        /// Recorded per-fault latencies (empty unless recording).
        pub latencies_ns: Vec<u64>,
        /// Whether latency recording was on.
        pub record_latencies: bool,
    }
}

contig_types::wire_struct! {
    /// Plain-data image of one process address space.
    #[derive(Clone, Debug, PartialEq, Eq)]
    pub struct ProcessSnapshot {
        /// The process id.
        pub pid: u32,
        /// Page-table radix depth.
        pub pt_levels: u32,
        /// VMAs in address order.
        pub vmas: Vec<VmaSnapshot>,
        /// Page-table leaves in address order: `(va, pfn, flag bits, huge)`.
        pub mappings: Vec<(u64, u64, u8, bool)>,
        /// Fault statistics.
        pub stats: FaultStatsSnapshot,
        /// NUMA home node, if one is assigned (codec v5).
        pub home: Option<u64>,
    } => ProcessSnapshot::validate
}

impl ProcessSnapshot {
    /// `System::restore` packs each mapping's frame into a page-table entry.
    fn validate(&self) -> Result<(), String> {
        match self.mappings.iter().find(|m| m.1 > Pte::MAX_PFN.raw()) {
            Some(m) => Err(format!("mapping pfn {:#x} exceeds 52 bits", m.1)),
            None => Ok(()),
        }
    }
}

contig_types::wire_struct! {
    /// Plain-data image of a whole [`System`].
    #[derive(Clone, Debug, PartialEq, Eq)]
    pub struct SystemSnapshot {
        /// Physical memory: zones, free lists, allocated blocks, reservations.
        pub machine: MachineSnapshot,
        /// Processes in pid order.
        pub processes: Vec<ProcessSnapshot>,
        /// The page cache.
        pub page_cache: PageCacheSnapshot,
        /// Next pid to hand out.
        pub next_pid: u32,
        /// THP enabled.
        pub thp: bool,
        /// Page-table depth new processes get.
        pub pt_levels: u32,
        /// Whether new processes record fault latencies.
        pub record_latencies: bool,
        /// COW sharer counts as `(raw pfn, count)`, pfn-ascending.
        pub shared: Vec<(u64, u32)>,
        /// The simulated clock.
        pub now_ns: u64,
        /// Cumulative recovery counters.
        pub recovery_stats: RecoveryStats,
        /// Retry-backoff jitter generator state.
        pub backoff_rng: u64,
        /// Memory-failure injector state, mid-stream.
        pub poison_policy: PoisonPolicy,
        /// Cumulative memory-failure counters.
        pub poison_stats: PoisonStats,
        /// Background maintenance daemon: policy, mid-epoch cursors, counters
        /// (codec v6). Defaulted (disabled) when restoring older images.
        pub daemon: DaemonState,
    } => SystemSnapshot::validate
}

impl SystemSnapshot {
    /// `System::restore` sizes its process table by the largest pid, and a
    /// system hands out only pids below `next_pid`.
    fn validate(&self) -> Result<(), String> {
        match self.processes.iter().find(|proc| proc.pid >= self.next_pid) {
            Some(proc) => Err(format!("pid {} is not below next_pid {}", proc.pid, self.next_pid)),
            None => Ok(()),
        }
    }
}

fn stats_snapshot(stats: &FaultStats) -> FaultStatsSnapshot {
    FaultStatsSnapshot {
        counters: [
            stats.faults_4k,
            stats.faults_2m,
            stats.cow_faults,
            stats.thp_fallbacks,
            stats.ca_target_hits,
            stats.ca_target_misses,
            stats.placements,
            stats.total_fault_ns,
        ],
        latencies_ns: stats.recorded_latencies().to_vec(),
        record_latencies: stats.is_recording(),
    }
}

fn stats_restore(snap: &FaultStatsSnapshot) -> FaultStats {
    FaultStats::restore(snap.counters, snap.latencies_ns.clone(), snap.record_latencies)
}

impl System {
    /// Captures the full system as plain data.
    pub fn snapshot(&self) -> SystemSnapshot {
        let mut processes = Vec::new();
        for (pid, aspace) in self.processes.iter() {
            let vmas = aspace
                .vma_ids()
                .map(|id| {
                    let vma = aspace.vma(id);
                    VmaSnapshot {
                        start: vma.range().start().raw(),
                        len: vma.range().len(),
                        file: match vma.kind() {
                            VmaKind::Anon => None,
                            VmaKind::File { file, start_page } => Some((file.0, start_page)),
                        },
                        offsets: vma
                            .offsets()
                            .iter()
                            .map(|(va, off)| (va.raw(), off.0))
                            .collect(),
                        replacement_claimed: vma.replacement_claimed(),
                    }
                })
                .collect();
            let mappings = aspace
                .page_table()
                .iter_mappings()
                .map(|m| {
                    (m.va.raw(), m.pte.pfn.raw(), m.pte.flags.bits(), m.size == PageSize::Huge2M)
                })
                .collect();
            processes.push(ProcessSnapshot {
                pid: pid.0,
                pt_levels: aspace.page_table().levels(),
                vmas,
                mappings,
                stats: stats_snapshot(aspace.stats()),
                home: aspace.home().map(|n| n as u64),
            });
        }
        let shared = self.machine.shared_frames().map(|(pfn, count)| (pfn.raw(), count)).collect();
        SystemSnapshot {
            machine: self.machine.snapshot(),
            processes,
            page_cache: self.page_cache.snapshot(),
            next_pid: self.next_pid,
            thp: self.thp,
            pt_levels: self.pt_levels,
            record_latencies: self.record_latencies,
            shared,
            now_ns: self.now_ns,
            recovery_stats: self.recovery_stats,
            backoff_rng: self.backoff_rng,
            poison_policy: self.poison_policy.clone(),
            poison_stats: self.poison_stats,
            daemon: self.daemon.clone(),
        }
    }

    /// Rebuilds a system from a snapshot. The result's observable behaviour
    /// is identical to the captured system's at the moment of capture, with
    /// one exception: tracing comes back disabled (reattach with
    /// [`System::set_tracer`]).
    ///
    /// # Panics
    ///
    /// Panics if the machine image is internally inconsistent (see
    /// [`Machine::from_snapshot`]) or a `shared` entry names a frame that
    /// heads no allocation.
    pub fn restore(snap: &SystemSnapshot) -> System {
        let mut processes = ProcessTable::default();
        for proc in &snap.processes {
            let mut aspace = AddressSpace::new();
            aspace.set_page_table_levels(proc.pt_levels);
            for vma in &proc.vmas {
                let range = VirtRange::new(VirtAddr::new(vma.start), vma.len);
                let kind = match vma.file {
                    None => VmaKind::Anon,
                    Some((file, start_page)) => VmaKind::File {
                        file: crate::page_cache::FileId(file),
                        start_page,
                    },
                };
                let id = aspace.map_vma(range, kind);
                let live = aspace.vma_mut(id);
                for &(va, off) in &vma.offsets {
                    live.offsets_mut().push(VirtAddr::new(va), MapOffset(off));
                }
                if vma.replacement_claimed {
                    live.claim_replacement();
                }
            }
            for &(va, pfn, bits, huge) in &proc.mappings {
                let size = if huge { PageSize::Huge2M } else { PageSize::Base4K };
                aspace.page_table_mut().map(
                    VirtAddr::new(va),
                    Pte::new(Pfn::new(pfn), PteFlags::from_bits(bits)),
                    size,
                );
            }
            *aspace.stats_mut() = stats_restore(&proc.stats);
            aspace.set_home(proc.home.map(|h| h as usize));
            processes.insert(Pid(proc.pid), aspace);
        }
        let mut machine = Machine::from_snapshot(&snap.machine);
        for &(pfn, count) in &snap.shared {
            machine.set_share_count(Pfn::new(pfn), count);
        }
        System {
            machine,
            processes,
            page_cache: PageCache::from_snapshot(&snap.page_cache),
            next_pid: snap.next_pid,
            thp: snap.thp,
            record_latencies: snap.record_latencies,
            pt_levels: snap.pt_levels,
            now_ns: snap.now_ns,
            recovery_stats: snap.recovery_stats,
            backoff_rng: snap.backoff_rng,
            poison_policy: snap.poison_policy.clone(),
            poison_stats: snap.poison_stats,
            dirty_log: None,
            daemon: snap.daemon.clone(),
            tracer: Tracer::disabled(),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::policy::DefaultThpPolicy;
    use crate::system::SystemConfig;
    use crate::vma::VmaKind;
    use contig_buddy::MachineConfig;

    fn populated_system() -> System {
        let mut sys = System::new(SystemConfig::new(MachineConfig::single_node_mib(32)));
        let file = sys.page_cache_mut().create_file();
        let parent = sys.spawn();
        let vma = sys.aspace_mut(parent).map_vma(
            VirtRange::new(VirtAddr::new(0x40_0000), 0x40_0000),
            VmaKind::Anon,
        );
        sys.aspace_mut(parent).map_vma(
            VirtRange::new(VirtAddr::new(0x200_0000), 0x10_0000),
            VmaKind::File { file, start_page: 0 },
        );
        let mut policy = DefaultThpPolicy;
        sys.populate_vma(&mut policy, parent, vma).unwrap();
        sys.touch(&mut policy, parent, VirtAddr::new(0x200_0000)).unwrap();
        let child = sys.fork_vma(parent, vma);
        sys.touch_write(&mut policy, child, VirtAddr::new(0x40_0000)).unwrap();
        sys
    }

    #[test]
    fn snapshot_round_trip_is_exact() {
        let sys = populated_system();
        let snap = sys.snapshot();
        let restored = System::restore(&snap);
        assert_eq!(restored.snapshot(), snap);
        restored.machine().verify_integrity();
        assert!(restored.audit().is_clean(), "{}", restored.audit());
    }

    #[test]
    fn restored_system_continues_identically() {
        let sys = populated_system();
        let snap = sys.snapshot();
        let mut a = System::restore(&snap);
        let mut b = System::restore(&snap);
        let mut policy = DefaultThpPolicy;
        // Drive both copies through the same op sequence; every outcome and
        // every counter must match bit-for-bit.
        for (i, &pid) in [Pid(1), Pid(2)].iter().enumerate() {
            let va = VirtAddr::new(0x40_0000 + (i as u64 + 1) * 0x1000);
            let oa = a.touch_write(&mut policy, pid, va);
            let ob = b.touch_write(&mut policy, pid, va);
            assert_eq!(oa, ob);
        }
        assert_eq!(a.snapshot(), b.snapshot());
        assert_eq!(a.now_ns(), b.now_ns());
    }

    #[test]
    fn restore_preserves_allocation_order() {
        // The next allocation after restore must pick the same frame the
        // original system would have picked (LIFO free-list order survives).
        let mut sys = populated_system();
        let snap = sys.snapshot();
        let mut restored = System::restore(&snap);
        let a = sys.machine_mut().alloc_page(PageSize::Base4K).unwrap();
        let b = restored.machine_mut().alloc_page(PageSize::Base4K).unwrap();
        assert_eq!(a, b);
    }
}
