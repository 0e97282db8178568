//! Cross-layer invariant auditor: walks every process page table and the
//! page cache and cross-checks what they reference against buddy-allocator
//! frame ownership.
//!
//! The auditor is read-only and reports violations instead of panicking, so
//! it can run after fault-injection campaigns to prove that error paths left
//! the system consistent:
//!
//! - every mapped or cached frame is allocated in its owning zone;
//! - no frame is referenced twice, except COW sharing (with an exact
//!   reference count) and FILE sharing (the cache plus its mappings);
//! - FILE translations point at pages the cache still holds;
//! - per-zone free-frame counters agree with a full frame-table recount.

use std::collections::HashMap;
use std::fmt;

use contig_types::{PageSize, Pfn, VirtAddr};

use crate::page_cache::FileId;
use crate::pte::PteFlags;
use crate::system::{Pid, System};

/// One violated invariant found by [`System::audit`].
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum AuditViolation {
    /// A PTE references a frame the buddy allocator considers free.
    MappedFrameFree {
        /// Owning process.
        pid: Pid,
        /// Virtual address of the mapping head.
        va: VirtAddr,
        /// The free frame referenced.
        pfn: Pfn,
    },
    /// A PTE references a frame outside every zone.
    MappedFrameOutOfRange {
        /// Owning process.
        pid: Pid,
        /// Virtual address of the mapping head.
        va: VirtAddr,
        /// The out-of-range frame.
        pfn: Pfn,
    },
    /// A frame is referenced by two mappings that are neither COW-shared
    /// nor file-shared.
    DoubleMapped {
        /// The frame mapped twice.
        pfn: Pfn,
        /// First mapping found.
        first: (Pid, VirtAddr),
        /// Second mapping found.
        second: (Pid, VirtAddr),
    },
    /// A cached file page's frame is free or outside every zone.
    CachedFrameUnowned {
        /// Owning file.
        file: FileId,
        /// Page index within the file.
        index: u64,
        /// The unowned frame.
        pfn: Pfn,
    },
    /// A frame is used by two cache slots, or by the cache and a non-FILE
    /// mapping.
    CacheAliased {
        /// Owning file of the (second) cache slot.
        file: FileId,
        /// Page index within the file.
        index: u64,
        /// The aliased frame.
        pfn: Pfn,
    },
    /// A FILE translation points at a page the cache no longer holds.
    FilePteNotCached {
        /// Owning process.
        pid: Pid,
        /// Virtual address of the mapping.
        va: VirtAddr,
        /// The orphaned frame.
        pfn: Pfn,
    },
    /// The recorded COW sharer count disagrees with the COW mappings
    /// observed (0 recorded means no sharing entry exists).
    CowCountMismatch {
        /// The miscounted frame.
        pfn: Pfn,
        /// Sharer count recorded on the frame.
        recorded: u32,
        /// COW mappings actually referencing the frame.
        observed: u32,
    },
    /// A zone's free-frame counter disagrees with its frame table.
    FreeAccounting {
        /// Base frame of the zone.
        zone_base: Pfn,
        /// Free frames counted from the frame table.
        counted: u64,
        /// Free frames the zone's counter reports.
        recorded: u64,
    },
    /// A quarantined (hwpoisoned) frame is still referenced by a PTE —
    /// recovery left a mapping pointing at dead memory.
    PoisonedFrameMapped {
        /// Owning process.
        pid: Pid,
        /// Virtual address of the poisoned base page.
        va: VirtAddr,
        /// The poisoned frame.
        pfn: Pfn,
    },
    /// A quarantined frame still backs a page-cache slot.
    PoisonedFrameCached {
        /// Owning file.
        file: FileId,
        /// Page index within the file.
        index: u64,
        /// The poisoned frame.
        pfn: Pfn,
    },
    /// A quarantined frame sits on the buddy free lists — it could be
    /// handed out again.
    PoisonedFrameFree {
        /// The poisoned frame.
        pfn: Pfn,
    },
    /// A quarantined frame hides in a per-CPU cache list.
    PoisonedFrameInPcp {
        /// The poisoned frame.
        pfn: Pfn,
    },
}

impl fmt::Display for AuditViolation {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Self::MappedFrameFree { pid, va, pfn } => {
                write!(f, "pid {} maps free frame {pfn} at {va}", pid.0)
            }
            Self::MappedFrameOutOfRange { pid, va, pfn } => {
                write!(f, "pid {} maps out-of-range frame {pfn} at {va}", pid.0)
            }
            Self::DoubleMapped { pfn, first, second } => write!(
                f,
                "frame {pfn} mapped twice without sharing: pid {} at {} and pid {} at {}",
                first.0 .0, first.1, second.0 .0, second.1
            ),
            Self::CachedFrameUnowned { file, index, pfn } => {
                write!(f, "cache page {}:{index} backed by unowned frame {pfn}", file.0)
            }
            Self::CacheAliased { file, index, pfn } => {
                write!(f, "cache page {}:{index} aliases frame {pfn}", file.0)
            }
            Self::FilePteNotCached { pid, va, pfn } => {
                write!(f, "pid {} FILE-maps evicted frame {pfn} at {va}", pid.0)
            }
            Self::CowCountMismatch { pfn, recorded, observed } => write!(
                f,
                "frame {pfn} COW count mismatch: {recorded} recorded, {observed} observed"
            ),
            Self::FreeAccounting { zone_base, counted, recorded } => write!(
                f,
                "zone at {zone_base}: frame table counts {counted} free, zone reports {recorded}"
            ),
            Self::PoisonedFrameMapped { pid, va, pfn } => {
                write!(f, "pid {} maps poisoned frame {pfn} at {va}", pid.0)
            }
            Self::PoisonedFrameCached { file, index, pfn } => {
                write!(f, "cache page {}:{index} backed by poisoned frame {pfn}", file.0)
            }
            Self::PoisonedFrameFree { pfn } => {
                write!(f, "poisoned frame {pfn} is on the free lists")
            }
            Self::PoisonedFrameInPcp { pfn } => {
                write!(f, "poisoned frame {pfn} is parked in a per-CPU cache")
            }
        }
    }
}

/// Result of one [`System::audit`] walk.
#[derive(Clone, Debug, Default)]
pub struct AuditReport {
    /// Every invariant violation found, in discovery order.
    pub(crate) violations: Vec<AuditViolation>,
    /// Leaf PTEs walked.
    pub(crate) mappings_checked: u64,
    /// Distinct base frames referenced by mappings.
    pub(crate) frames_checked: u64,
    /// Page-cache pages walked.
    pub(crate) cached_pages_checked: u64,
}

impl AuditReport {
    /// Whether the walk found no violations.
    pub fn is_clean(&self) -> bool {
        self.violations.is_empty()
    }
}

impl fmt::Display for AuditReport {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "audit: {} mappings, {} frames, {} cached pages, {} violations",
            self.mappings_checked,
            self.frames_checked,
            self.cached_pages_checked,
            self.violations.len()
        )?;
        for v in &self.violations {
            write!(f, "\n  {v}")?;
        }
        Ok(())
    }
}

impl System {
    /// Walks every address space and the page cache and cross-checks them
    /// against buddy frame ownership. Read-only; never panics on a violated
    /// invariant — it reports instead, so it is safe to run after failure
    /// campaigns.
    pub fn audit(&self) -> AuditReport {
        let mut report = AuditReport::default();
        // Expand every leaf PTE to its base frames (a 2 MiB leaf covers 512),
        // one flat row per reference; mapping heads that COW-share an
        // anonymous frame are kept apart for the count check.
        let mapped: u64 = self.processes.iter().map(|(_, a)| a.page_table().mapped_bytes()).sum();
        let mut frame_refs: Vec<(Pfn, Pid, VirtAddr, PteFlags)> =
            Vec::with_capacity((mapped / PageSize::Base4K.bytes()) as usize);
        let mut cow_heads: Vec<Pfn> = Vec::new();
        for (pid, aspace) in self.processes.iter() {
            for m in aspace.page_table().iter_mappings() {
                report.mappings_checked += 1;
                if m.pte.flags.contains(PteFlags::COW) && !m.pte.flags.contains(PteFlags::FILE) {
                    cow_heads.push(m.pte.pfn);
                }
                for i in 0..m.size.base_pages() {
                    let va = m.va + i * PageSize::Base4K.bytes();
                    frame_refs.push((m.pte.pfn.add(i), pid, va, m.pte.flags));
                }
            }
        }
        // Stable, so the references to one frame keep their discovery order.
        frame_refs.sort_by_key(|&(pfn, ..)| pfn);

        // Cache inventory first: FILE PTEs are validated against it below.
        let mut cache_frames: HashMap<Pfn, (FileId, u64)> = HashMap::new();
        for f in 0..self.page_cache.file_count() {
            let file = FileId(f);
            for (index, pfn) in self.page_cache.pages_of(file) {
                report.cached_pages_checked += 1;
                if self.machine.node_of(pfn).is_none() || self.machine.is_free(pfn) {
                    report.violations.push(AuditViolation::CachedFrameUnowned {
                        file,
                        index,
                        pfn,
                    });
                }
                if self.machine.is_poisoned(pfn) {
                    report.violations.push(AuditViolation::PoisonedFrameCached {
                        file,
                        index,
                        pfn,
                    });
                }
                if cache_frames.insert(pfn, (file, index)).is_some() {
                    report.violations.push(AuditViolation::CacheAliased { file, index, pfn });
                }
            }
        }

        for refs in frame_refs.chunk_by(|a, b| a.0 == b.0) {
            let pfn = refs[0].0;
            report.frames_checked += 1;
            if self.machine.node_of(pfn).is_none() {
                for &(_, pid, va, _) in refs {
                    report.violations.push(AuditViolation::MappedFrameOutOfRange {
                        pid,
                        va,
                        pfn,
                    });
                }
                continue;
            }
            if self.machine.is_free(pfn) {
                for &(_, pid, va, _) in refs {
                    report.violations.push(AuditViolation::MappedFrameFree { pid, va, pfn });
                }
            }
            if self.machine.is_poisoned(pfn) {
                for &(_, pid, va, _) in refs {
                    report.violations.push(AuditViolation::PoisonedFrameMapped { pid, va, pfn });
                }
            }
            let all_cow = refs.iter().all(|(.., fl)| fl.contains(PteFlags::COW));
            let all_file = refs.iter().all(|(.., fl)| fl.contains(PteFlags::FILE));
            if refs.len() > 1 && !all_cow && !all_file {
                report.violations.push(AuditViolation::DoubleMapped {
                    pfn,
                    first: (refs[0].1, refs[0].2),
                    second: (refs[1].1, refs[1].2),
                });
            }
            let cached = cache_frames.get(&pfn);
            for &(_, pid, va, fl) in refs {
                if fl.contains(PteFlags::FILE) && cached.is_none() {
                    report.violations.push(AuditViolation::FilePteNotCached { pid, va, pfn });
                }
            }
            if let Some(&(file, index)) = cached.filter(|_| !all_file) {
                report.violations.push(AuditViolation::CacheAliased { file, index, pfn });
            }
        }

        // COW reference counts, checked at mapping heads (the count sits on
        // the head frame of the shared page): every frame that is COW-mapped
        // or carries a count must have the two agree.
        cow_heads.sort_unstable();
        let mut counted: Vec<Pfn> = self.machine.shared_frames().map(|(pfn, _)| pfn).collect();
        counted.extend_from_slice(&cow_heads);
        counted.sort_unstable();
        counted.dedup();
        for pfn in counted {
            let first = cow_heads.partition_point(|&head| head < pfn);
            let observed = (cow_heads.partition_point(|&head| head <= pfn) - first) as u32;
            let recorded = self.machine.share_count(pfn);
            // A zero count is consistent only while nothing COW-maps the
            // frame; a non-zero count must match the mappings exactly.
            if recorded != observed {
                report.violations.push(AuditViolation::CowCountMismatch {
                    pfn,
                    recorded,
                    observed,
                });
            }
        }

        // Quarantine is airtight: no poisoned frame may be free or hide in a
        // per-CPU cache (mapped/cached poisoned frames were caught above).
        for zone in self.machine.iter_zones() {
            for pfn in zone.badframes() {
                if zone.is_free(pfn) {
                    report.violations.push(AuditViolation::PoisonedFrameFree { pfn });
                }
                if zone.pcp_contains(pfn) {
                    report.violations.push(AuditViolation::PoisonedFrameInPcp { pfn });
                }
            }
        }

        // Zone conservation: recount free frames from the ground truth.
        // Pcp-resident frames count as free but live outside the free runs
        // (their frame states read allocated), so add them back.
        for zone in self.machine.iter_zones() {
            let counted: u64 = zone.frame_table().free_runs().map(|(_, len)| len).sum::<u64>()
                + zone.pcp_frames();
            let recorded = zone.free_frames();
            if counted != recorded {
                report.violations.push(AuditViolation::FreeAccounting {
                    zone_base: zone.base(),
                    counted,
                    recorded,
                });
            }
        }
        if self.tracer.is_enabled() {
            self.tracer.emit(contig_trace::TraceEvent::AuditReport {
                violations: report.violations.len() as u64,
            });
            self.tracer.add("audit.violations", report.violations.len() as u64);
        }
        report
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::policy::DefaultThpPolicy;
    use crate::pte::Pte;
    use crate::system::SystemConfig;
    use crate::vma::VmaKind;
    use contig_buddy::MachineConfig;
    use contig_types::{PageSize, VirtRange};

    fn system_mib(mib: u64) -> System {
        System::new(SystemConfig::new(MachineConfig::single_node_mib(mib)))
    }

    fn va(addr: u64) -> VirtAddr {
        VirtAddr::new(addr)
    }

    #[test]
    fn clean_after_mixed_workload() {
        let mut sys = system_mib(32);
        let mut policy = DefaultThpPolicy;
        let file = sys.page_cache_mut().create_file();
        let parent = sys.spawn();
        let anon = sys
            .aspace_mut(parent)
            .map_vma(VirtRange::new(va(0x40_0000), 0x40_0000), VmaKind::Anon);
        sys.aspace_mut(parent).map_vma(
            VirtRange::new(va(0x200_0000), 0x10_0000),
            VmaKind::File { file, start_page: 0 },
        );
        sys.populate_vma(&mut policy, parent, anon).unwrap();
        sys.touch(&mut policy, parent, va(0x200_0000)).unwrap();
        let child = sys.fork_vma(parent, anon);
        sys.touch_write(&mut policy, child, va(0x40_0000)).unwrap();
        let report = sys.audit();
        assert!(report.is_clean(), "{report}");
        assert!(report.mappings_checked > 0);
        assert!(report.frames_checked > 0);
        assert!(report.cached_pages_checked > 0);
        sys.exit(child);
        sys.exit(parent);
        assert!(sys.audit().is_clean(), "{}", sys.audit());
    }

    #[test]
    fn detects_mapping_onto_free_frame() {
        let mut sys = system_mib(4);
        let pid = sys.spawn();
        sys.aspace_mut(pid)
            .map_vma(VirtRange::new(va(0x40_0000), 0x1000), VmaKind::Anon);
        // Forge a PTE pointing at a frame the buddy never handed out.
        sys.aspace_mut(pid).page_table_mut().map(
            va(0x40_0000),
            Pte::new(Pfn::new(100), PteFlags::WRITE),
            PageSize::Base4K,
        );
        let report = sys.audit();
        assert!(matches!(
            report.violations.as_slice(),
            [AuditViolation::MappedFrameFree { pfn, .. }] if *pfn == Pfn::new(100)
        ));
        // Clean up the forged mapping so drop paths stay consistent.
        sys.aspace_mut(pid).page_table_mut().unmap(va(0x40_0000));
    }

    #[test]
    fn detects_double_map_without_sharing() {
        let mut sys = system_mib(4);
        let frame = sys.machine_mut().alloc_page(PageSize::Base4K).unwrap();
        let a = sys.spawn();
        let b = sys.spawn();
        for pid in [a, b] {
            sys.aspace_mut(pid)
                .map_vma(VirtRange::new(va(0x40_0000), 0x1000), VmaKind::Anon);
            sys.aspace_mut(pid).page_table_mut().map(
                va(0x40_0000),
                Pte::new(frame, PteFlags::WRITE),
                PageSize::Base4K,
            );
        }
        let report = sys.audit();
        assert!(
            report
                .violations
                .iter()
                .any(|v| matches!(v, AuditViolation::DoubleMapped { pfn, .. } if *pfn == frame)),
            "{report}"
        );
        for pid in [a, b] {
            sys.aspace_mut(pid).page_table_mut().unmap(va(0x40_0000));
        }
    }

    #[test]
    fn detects_dangling_file_pte() {
        let mut sys = system_mib(4);
        let frame = sys.machine_mut().alloc_page(PageSize::Base4K).unwrap();
        let pid = sys.spawn();
        sys.aspace_mut(pid)
            .map_vma(VirtRange::new(va(0x40_0000), 0x1000), VmaKind::Anon);
        // A FILE-flagged PTE whose frame the cache does not hold.
        sys.aspace_mut(pid).page_table_mut().map(
            va(0x40_0000),
            Pte::new(frame, PteFlags::FILE),
            PageSize::Base4K,
        );
        let report = sys.audit();
        assert!(
            report
                .violations
                .iter()
                .any(|v| matches!(v, AuditViolation::FilePteNotCached { pfn, .. } if *pfn == frame)),
            "{report}"
        );
    }

    #[test]
    fn detects_cow_count_drift() {
        let mut sys = system_mib(8);
        let mut policy = DefaultThpPolicy;
        let parent = sys.spawn();
        let anon = sys
            .aspace_mut(parent)
            .map_vma(VirtRange::new(va(0x40_0000), 0x20_0000), VmaKind::Anon);
        sys.populate_vma(&mut policy, parent, anon).unwrap();
        let _child = sys.fork_vma(parent, anon);
        assert!(sys.audit().is_clean());
        // Simulate a lost reference: bump a count without a mapping.
        let pfn = sys
            .aspace(parent)
            .page_table()
            .translate(va(0x40_0000))
            .unwrap()
            .pfn;
        sys.machine_mut().share_inc(pfn);
        let report = sys.audit();
        assert!(
            report.violations.iter().any(|v| matches!(
                v,
                AuditViolation::CowCountMismatch { recorded: 3, observed: 2, .. }
            )),
            "{report}"
        );
    }

    #[test]
    fn report_display_lists_violations() {
        let mut sys = system_mib(4);
        let pid = sys.spawn();
        sys.aspace_mut(pid)
            .map_vma(VirtRange::new(va(0x40_0000), 0x1000), VmaKind::Anon);
        sys.aspace_mut(pid).page_table_mut().map(
            va(0x40_0000),
            Pte::new(Pfn::new(7), PteFlags::WRITE),
            PageSize::Base4K,
        );
        let text = sys.audit().to_string();
        assert!(text.contains("1 violations"), "{text}");
        assert!(text.contains("maps free frame"), "{text}");
    }
}
