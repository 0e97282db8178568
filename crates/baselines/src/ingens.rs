//! An Ingens-style huge-page manager (Kwon et al., OSDI'16).
//!
//! Ingens decouples huge-page *allocation* from fault handling: faults are
//! serviced with 4 KiB pages, and a background promotion daemon upgrades a
//! 2 MiB region to a huge page once its measured utilization crosses a
//! threshold (90 % in the paper). This keeps memory bloat near zero
//! (Table VI) at the cost of promotion migrations; its contiguity stays at
//! huge-page scale, like THP (Fig. 7).

use contig_mm::{FaultCtx, PageTable, Placement, PlacementPolicy, Pid, Pte, PteFlags, System};
use contig_types::{PageSize, VirtAddr, PAGES_PER_HUGE};

/// The Ingens fault policy plus asynchronous promotion daemon.
///
/// # Examples
///
/// ```
/// use contig_baselines::IngensPolicy;
/// use contig_buddy::MachineConfig;
/// use contig_mm::{System, SystemConfig, VmaKind};
/// use contig_types::{PageSize, VirtAddr, VirtRange};
///
/// let mut sys = System::new(SystemConfig::new(MachineConfig::single_node_mib(64)));
/// let pid = sys.spawn();
/// let vma = sys
///     .aspace_mut(pid)
///     .map_vma(VirtRange::new(VirtAddr::new(0x40_0000), 4 << 20), VmaKind::Anon);
/// let mut ingens = IngensPolicy::new();
/// sys.populate_vma(&mut ingens, pid, vma)?;
/// assert_eq!(sys.aspace(pid).stats().faults_2m, 0, "Ingens faults 4 KiB only");
/// ingens.promote(&mut sys, pid);
/// assert!(sys.aspace(pid).page_table().mapped_huge_pages() > 0);
/// # Ok::<(), contig_types::FaultError>(())
/// ```
#[derive(Clone, Debug, Default)]
pub struct IngensPolicy {
    /// Base pages migrated during promotions.
    pages_migrated: u64,
}

/// Utilization above which a 2 MiB region is promoted (the paper's 90 %).
const UTILIZATION_THRESHOLD: f64 = 0.9;

impl IngensPolicy {
    /// Ingens with the paper's 90 % utilization threshold.
    pub fn new() -> Self {
        Self::default()
    }

    /// One promotion-daemon pass over `pid`: promotes every 2 MiB region
    /// whose utilization crosses the threshold and for which a free huge
    /// frame is available.
    pub fn promote(&mut self, sys: &mut System, pid: Pid) {
        // Gather candidate regions: 2 MiB-aligned VAs with enough 4 KiB
        // leaves and no huge leaf yet.
        let candidates = {
            let pt = sys.aspace(pid).page_table();
            candidate_regions(pt, UTILIZATION_THRESHOLD)
        };
        for region in candidates {
            let Ok(huge_frame) = sys.machine_mut().alloc_page(PageSize::Huge2M) else {
                continue;
            };
            // Unmap the 4 KiB leaves (the "copy" into the huge frame),
            // install the huge leaf, then return the old frames.
            let mut old_frames = Vec::new();
            {
                let pt = sys.aspace_mut(pid).page_table_mut();
                for i in 0..PAGES_PER_HUGE {
                    let va = region + i * PageSize::Base4K.bytes();
                    if let Some((pte, PageSize::Base4K)) = pt.unmap(va) {
                        self.pages_migrated += 1;
                        old_frames.push(pte.pfn);
                    }
                }
                pt.map(region, Pte::new(huge_frame, PteFlags::WRITE), PageSize::Huge2M);
            }
            for pfn in old_frames {
                sys.machine_mut().free_page(pfn, PageSize::Base4K);
            }
        }
    }
}

/// 2 MiB-aligned region starts whose 4 KiB utilization crosses `threshold`.
fn candidate_regions(pt: &PageTable, threshold: f64) -> Vec<VirtAddr> {
    let mut regions: Vec<(u64, u64)> = Vec::new(); // (region base, count)
    for m in pt.iter_mappings() {
        if m.size != PageSize::Base4K || m.pte.flags.contains(PteFlags::FILE) {
            continue;
        }
        let base = m.va.align_down(PageSize::Huge2M).raw();
        match regions.last_mut() {
            Some((b, count)) if *b == base => *count += 1,
            _ => regions.push((base, 1)),
        }
    }
    let need = (PAGES_PER_HUGE as f64 * threshold).ceil() as u64;
    regions
        .into_iter()
        .filter(|&(_, count)| count >= need)
        .map(|(base, _)| VirtAddr::new(base))
        .collect()
}

impl PlacementPolicy for IngensPolicy {
    fn name(&self) -> &'static str {
        "Ingens"
    }

    fn on_fault(&mut self, _ctx: &mut FaultCtx<'_>) -> Placement {
        Placement::Default
    }

    fn prefers_base_pages(&self) -> bool {
        true
    }

    /// One promotion-daemon pass over each process in turn.
    fn tick(&mut self, sys: &mut System, pids: &[Pid]) {
        for &pid in pids {
            self.promote(sys, pid);
        }
    }

    fn pages_migrated(&self) -> u64 {
        self.pages_migrated
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use contig_buddy::MachineConfig;
    use contig_mm::{SystemConfig, VmaKind};
    use contig_types::VirtRange;

    fn system() -> System {
        System::new(SystemConfig::new(MachineConfig::single_node_mib(64)))
    }

    #[test]
    fn faults_are_base_pages_only() {
        let mut sys = system();
        let pid = sys.spawn();
        let vma = sys
            .aspace_mut(pid)
            .map_vma(VirtRange::new(VirtAddr::new(0x40_0000), 2 << 20), VmaKind::Anon);
        let mut ingens = IngensPolicy::new();
        sys.populate_vma(&mut ingens, pid, vma).unwrap();
        let stats = sys.aspace(pid).stats();
        assert_eq!(stats.faults_2m, 0);
        assert_eq!(stats.faults_4k, 512);
    }

    #[test]
    fn full_region_promotes_to_huge() {
        let mut sys = system();
        let pid = sys.spawn();
        let vma = sys
            .aspace_mut(pid)
            .map_vma(VirtRange::new(VirtAddr::new(0x40_0000), 4 << 20), VmaKind::Anon);
        let mut ingens = IngensPolicy::new();
        sys.populate_vma(&mut ingens, pid, vma).unwrap();
        let free_before = sys.machine().free_frames();
        ingens.promote(&mut sys, pid);
        assert_eq!(sys.aspace(pid).page_table().mapped_huge_pages(), 2);
        assert_eq!(sys.aspace(pid).page_table().mapped_base_pages(), 0);
        // Memory usage unchanged: 1024 pages freed, 2 huge frames allocated.
        assert_eq!(sys.machine().free_frames(), free_before);
        assert_eq!(sys.aspace(pid).mapped_bytes(), 4 << 20);
    }

    #[test]
    fn sparse_region_is_not_promoted() {
        let mut sys = system();
        let pid = sys.spawn();
        sys.aspace_mut(pid)
            .map_vma(VirtRange::new(VirtAddr::new(0x40_0000), 2 << 20), VmaKind::Anon);
        let mut ingens = IngensPolicy::new();
        // Touch only half the region.
        for i in 0..256u64 {
            sys.touch(&mut ingens, pid, VirtAddr::new(0x40_0000 + i * 4096)).unwrap();
        }
        ingens.promote(&mut sys, pid);
        assert_eq!(sys.aspace(pid).page_table().mapped_huge_pages(), 0);
    }
}
