//! An Ingens-style huge-page manager (Kwon et al., OSDI'16).
//!
//! Ingens decouples huge-page *allocation* from fault handling: faults are
//! serviced with 4 KiB pages, and a background promotion daemon upgrades a
//! 2 MiB region to a huge page once its measured utilization crosses a
//! threshold (90 % in the paper). This keeps memory bloat near zero
//! (Table VI) at the cost of promotion migrations; its contiguity stays at
//! huge-page scale, like THP (Fig. 7).

use contig_mm::{FaultCtx, PageTable, Placement, PlacementPolicy, Pid, PteFlags, System};
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
    /// whose utilization crosses the threshold, through `contig-mm`'s one
    /// collapse (which refuses a region whose collapse would change what an
    /// address sees, and needs a free huge frame).
    pub fn promote(&mut self, sys: &mut System, pid: Pid) {
        let candidates = candidate_regions(sys.aspace(pid).page_table(), UTILIZATION_THRESHOLD);
        for region in candidates {
            if let Ok((_, copied)) = sys.collapse(pid, region) {
                self.pages_migrated += copied;
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
    use contig_mm::{SystemConfig, VmaId, VmaKind};
    use contig_types::VirtRange;

    /// A process whose anonymous VMA of `len` bytes at 4 MiB Ingens has
    /// populated, one 4 KiB fault per page.
    fn populated(len: u64) -> (System, Pid, VmaId, IngensPolicy) {
        let mut sys = System::new(SystemConfig::new(MachineConfig::single_node_mib(64)));
        let pid = sys.spawn();
        let range = VirtRange::new(VirtAddr::new(0x40_0000), len);
        let vma = sys.aspace_mut(pid).map_vma(range, VmaKind::Anon);
        let mut ingens = IngensPolicy::new();
        sys.populate_vma(&mut ingens, pid, vma).unwrap();
        (sys, pid, vma, ingens)
    }

    #[test]
    fn faults_are_base_pages_only() {
        let (sys, pid, ..) = populated(2 << 20);
        let stats = sys.aspace(pid).stats();
        assert_eq!(stats.faults_2m, 0);
        assert_eq!(stats.faults_4k, 512);
    }

    #[test]
    fn full_region_promotes_to_huge() {
        let (mut sys, pid, _, mut ingens) = populated(4 << 20);
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
        let mut sys = System::new(SystemConfig::new(MachineConfig::single_node_mib(64)));
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

    #[test]
    fn cow_shared_windows_stay_base_pages() {
        let (mut sys, pid, vma, mut ingens) = populated(2 << 20);
        let child = sys.fork_vma(pid, vma);
        ingens.promote(&mut sys, pid);
        ingens.promote(&mut sys, child);
        for p in [pid, child] {
            assert_eq!(sys.aspace(p).page_table().mapped_huge_pages(), 0);
            assert_eq!(sys.aspace(p).page_table().mapped_base_pages(), 512);
        }
        assert!(sys.audit().is_clean(), "{}", sys.audit());
    }

    #[test]
    fn a_window_past_the_vma_end_stays_base_pages() {
        let len = (2 << 20) - (16 << 10);
        let (mut sys, pid, _, mut ingens) = populated(len);
        ingens.promote(&mut sys, pid);
        let past_end = VirtAddr::new(0x40_0000 + len);
        assert_eq!(sys.aspace(pid).page_table().mapped_huge_pages(), 0);
        assert!(sys.aspace(pid).page_table().translate(past_end).is_err());
        assert!(sys.audit().is_clean(), "{}", sys.audit());
    }
}
