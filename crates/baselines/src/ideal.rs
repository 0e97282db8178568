//! Ideal paging: the offline upper bound of §VI-A.
//!
//! Before execution, an oracle best-fit planner assigns every VMA to free
//! clusters using a snapshot of the contiguity map, producing the maximum
//! contiguity the machine state could possibly provide. At run time the
//! policy simply replays the plan. Real allocators cannot do this (they see
//! faults one at a time and share the machine); the planner exists to bound
//! how much contiguity CA paging leaves on the table.

use std::collections::HashMap;

use contig_buddy::Machine;
use contig_mm::{FaultCtx, Placement, PlacementPolicy};
use contig_types::{MapOffset, PageSize, PhysAddr, VirtRange};

/// The offline-planned placement policy.
///
/// # Examples
///
/// ```
/// use contig_baselines::IdealPaging;
/// use contig_buddy::MachineConfig;
/// use contig_mm::{contiguous_mappings, System, SystemConfig, VmaKind};
/// use contig_types::{VirtAddr, VirtRange};
///
/// let mut sys = System::new(SystemConfig::new(MachineConfig::single_node_mib(64)));
/// let pid = sys.spawn();
/// let range = VirtRange::new(VirtAddr::new(0x40_0000), 8 << 20);
/// let vma = sys.aspace_mut(pid).map_vma(range, VmaKind::Anon);
/// let mut ideal = IdealPaging::plan(sys.machine(), &[range]);
/// sys.populate_vma(&mut ideal, pid, vma)?;
/// assert_eq!(contiguous_mappings(sys.aspace(pid).page_table()).len(), 1);
/// # Ok::<(), contig_types::FaultError>(())
/// ```
#[derive(Clone, Debug)]
pub struct IdealPaging {
    /// Planned sub-placements per VMA start: `(vma-relative byte, offset)`
    /// pairs sorted by the relative byte.
    plan: HashMap<u64, Vec<(u64, MapOffset)>>,
}

impl IdealPaging {
    /// Plans placements for the given VMAs against a snapshot of the
    /// machine's free clusters, best-fit, largest VMA first.
    pub fn plan(machine: &Machine, vmas: &[VirtRange]) -> Self {
        // Snapshot free clusters as (start, frames), mutable locally.
        let mut clusters: Vec<(PhysAddr, u64)> = machine
            .iter_zones()
            .flat_map(|z| z.contiguity_map().iter())
            .map(|c| (PhysAddr::from(c.start), c.bytes()))
            .collect();
        let mut order: Vec<&VirtRange> = vmas.iter().collect();
        order.sort_by_key(|r| std::cmp::Reverse(r.len()));
        let mut plan: HashMap<u64, Vec<(u64, MapOffset)>> = HashMap::new();
        for range in order {
            let mut covered = 0u64;
            let entries = plan.entry(range.start().raw()).or_default();
            while covered < range.len() {
                let need = range.len() - covered;
                // Best fit: smallest cluster able to hold the remainder, else
                // the largest remaining.
                let candidate = clusters
                    .iter()
                    .enumerate()
                    .filter(|(_, (_, len))| *len >= need)
                    .min_by_key(|(_, (_, len))| *len)
                    .map(|(i, _)| i)
                    .or_else(|| {
                        clusters
                            .iter()
                            .enumerate()
                            .max_by_key(|(_, (_, len))| *len)
                            .map(|(i, _)| i)
                    });
                // Out of free memory: the rest of the range stays unplanned.
                let Some(idx) = candidate else { break };
                let (start, len) = clusters[idx];
                // Keep huge faults serviceable: align the sub-region base.
                let base = start.align_up(PageSize::Huge2M);
                let usable = len.saturating_sub(base - start);
                if usable < PageSize::Huge2M.bytes() {
                    clusters.swap_remove(idx);
                    continue;
                }
                let take = usable.min(need);
                let va = range.start() + covered;
                entries.push((covered, MapOffset::between(va, base)));
                covered += take;
                // Consume the front of the cluster.
                let consumed = (base - start) + take;
                if consumed >= len {
                    clusters.swap_remove(idx);
                } else {
                    clusters[idx] = (start + consumed, len - consumed);
                }
            }
            entries.sort_by_key(|&(rel, _)| rel);
        }
        Self { plan }
    }
}

impl PlacementPolicy for IdealPaging {
    fn name(&self) -> &'static str {
        "ideal"
    }

    fn on_fault(&mut self, ctx: &mut FaultCtx<'_>) -> Placement {
        let Some(entries) = self.plan.get(&ctx.vma.range().start().raw()) else {
            return Placement::Default;
        };
        let rel = ctx.va - ctx.vma.range().start();
        // The sub-placement covering this relative offset: last entry whose
        // start is <= rel.
        let entry = entries.iter().take_while(|&&(r, _)| r <= rel).last();
        let Some(&(_, offset)) = entry else {
            return Placement::Default;
        };
        match offset.try_apply(ctx.va) {
            Some(pa) if pa.is_aligned(ctx.size) => Placement::Target(pa.page_number()),
            _ => Placement::Default,
        }
    }

    fn on_target_busy(&mut self, _ctx: &mut FaultCtx<'_>, _busy: contig_types::Pfn) -> Placement {
        // The oracle does not adapt: competition invalidates the plan and
        // the fault falls through to the default allocator.
        Placement::Default
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use contig_buddy::MachineConfig;
    use contig_mm::{contiguous_mappings, System, SystemConfig, VmaKind};
    use contig_types::VirtAddr;

    #[test]
    fn plans_single_run_on_fresh_machine() {
        let mut sys = System::new(SystemConfig::new(MachineConfig::single_node_mib(64)));
        let pid = sys.spawn();
        let range = VirtRange::new(VirtAddr::new(0x40_0000), 16 << 20);
        let vma = sys.aspace_mut(pid).map_vma(range, VmaKind::Anon);
        let mut ideal = IdealPaging::plan(sys.machine(), &[range]);
        assert_eq!(ideal.plan[&range.start().raw()].len(), 1, "one sub-region");
        sys.populate_vma(&mut ideal, pid, vma).unwrap();
        assert_eq!(contiguous_mappings(sys.aspace(pid).page_table()).len(), 1);
    }

    #[test]
    fn best_fit_picks_tightest_cluster() {
        let mut sys = System::new(SystemConfig::new(MachineConfig::single_node_mib(64)));
        // Carve the 64 MiB into clusters of 8 / 16 / 36 MiB (roughly) by
        // pinning two 4 MiB blocks.
        sys.machine_mut().alloc_specific(contig_types::Pfn::new(2048), 10).unwrap();
        sys.machine_mut().alloc_specific(contig_types::Pfn::new(7168), 10).unwrap();
        // Clusters now: [0,8M), [9M..28M) = 16M at frames 3072..7168, rest.
        let range = VirtRange::new(VirtAddr::new(0x40_0000), 8 << 20);
        let ideal = IdealPaging::plan(sys.machine(), &[range]);
        let (_, off) = ideal.plan[&range.start().raw()][0];
        let base = off.apply(range.start());
        assert_eq!(base, PhysAddr::new(0), "the 8 MiB cluster fits exactly");
    }

    #[test]
    fn multiple_vmas_planned_disjointly() {
        let mut sys = System::new(SystemConfig::new(MachineConfig::single_node_mib(64)));
        let a = VirtRange::new(VirtAddr::new(0x40_0000), 8 << 20);
        let b = VirtRange::new(VirtAddr::new(0x4000_0000), 8 << 20);
        let pid = sys.spawn();
        let va = sys.aspace_mut(pid).map_vma(a, VmaKind::Anon);
        let vb = sys.aspace_mut(pid).map_vma(b, VmaKind::Anon);
        let mut ideal = IdealPaging::plan(sys.machine(), &[a, b]);
        sys.populate_vma(&mut ideal, pid, va).unwrap();
        sys.populate_vma(&mut ideal, pid, vb).unwrap();
        let maps = contiguous_mappings(sys.aspace(pid).page_table());
        assert_eq!(maps.len(), 2);
        assert!(maps.iter().all(|m| m.len() == 8 << 20));
    }
}
