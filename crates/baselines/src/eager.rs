//! Eager paging (RMM's allocation scheme, Karakostas et al. ISCA'15):
//! pre-allocate the *entire* VMA from the largest buddy blocks available at
//! the first touch.
//!
//! Eager paging maximizes contiguity on a fresh machine but (i) depends on
//! large *aligned* blocks, so external fragmentation degrades it sharply
//! (paper Fig. 1b, Fig. 8), (ii) inflates fault tail latency by zeroing whole
//! VMAs in one fault (Table V), and (iii) bloats memory for applications
//! that never touch their whole reservation (Table VI). It is typically run
//! on a kernel with a raised `MAX_ORDER` so the buddy allocator can keep
//! blocks larger than 4 MiB (see [`contig_buddy::MachineConfig::top_order`]).

use contig_mm::{FaultCtx, FaultKind, Placement, PlacementPolicy, Pte, PteFlags};
use contig_types::{PageSize, VirtAddr};

/// The eager pre-allocation policy.
///
/// # Examples
///
/// ```
/// use contig_baselines::EagerPaging;
/// use contig_buddy::MachineConfig;
/// use contig_mm::{System, SystemConfig, VmaKind};
/// use contig_types::{VirtAddr, VirtRange};
///
/// let mut config = MachineConfig::single_node_mib(64);
/// config.top_order = 13; // eager paging raises MAX_ORDER
/// let mut sys = System::new(SystemConfig::new(config));
/// let pid = sys.spawn();
/// let vma = sys
///     .aspace_mut(pid)
///     .map_vma(VirtRange::new(VirtAddr::new(0x40_0000), 16 << 20), VmaKind::Anon);
/// let mut eager = EagerPaging::new();
/// // One touch populates the whole VMA.
/// sys.touch(&mut eager, pid, VirtAddr::new(0x40_0000))?;
/// assert_eq!(sys.aspace(pid).mapped_bytes(), 16 << 20);
/// # Ok::<(), contig_types::FaultError>(())
/// ```
#[derive(Clone, Debug, Default)]
pub struct EagerPaging;

impl EagerPaging {
    /// A fresh eager-paging policy.
    pub fn new() -> Self {
        Self
    }

    /// Maps `[block_pa, block_pa + bytes)` onto `[va, va + bytes)` using huge
    /// leaves wherever both sides are 2 MiB aligned at the head of a 2 MiB
    /// ownership unit, splitting the block's *allocation* down to leaf
    /// granularity (Linux `split_page()`) so the pages can be freed
    /// individually when the process exits.
    fn map_block(
        ctx: &mut FaultCtx<'_>,
        va: VirtAddr,
        block_pfn: contig_types::Pfn,
        block_order: u32,
        bytes: u64,
    ) {
        // First carve the allocation into huge-page (or smaller) ownership
        // units; 4 KiB-leaf stretches are split further below.
        ctx.machine.split_allocated(block_pfn, block_order.min(PageSize::Huge2M.order()));
        let mut off = 0u64;
        while off < bytes {
            let cur_va = va + off;
            let cur_pfn = block_pfn.add(off >> contig_types::BASE_PAGE_SHIFT);
            // Ownership units start at offsets from the block head: a zone
            // need not start on the 2 MiB grid, so neither need its blocks,
            // and a 2 MiB-aligned frame may sit inside a unit.
            let unit_head = (off >> contig_types::BASE_PAGE_SHIFT)
                .is_multiple_of(1 << block_order.min(PageSize::Huge2M.order()));
            let huge_ok = cur_va.is_aligned(PageSize::Huge2M)
                && cur_pfn.is_aligned(9)
                && unit_head
                && bytes - off >= PageSize::Huge2M.bytes()
                && block_order >= PageSize::Huge2M.order();
            let size = if huge_ok { PageSize::Huge2M } else { PageSize::Base4K };
            if size == PageSize::Base4K && unit_head {
                // Entering a 4 KiB-leaf stretch: split its ownership unit.
                ctx.machine.split_allocated(cur_pfn, 0);
            }
            ctx.page_table.map(cur_va, Pte::new(cur_pfn, PteFlags::WRITE), size);
            off += size.bytes();
        }
    }
}

impl PlacementPolicy for EagerPaging {
    fn name(&self) -> &'static str {
        "eager"
    }

    fn on_fault(&mut self, ctx: &mut FaultCtx<'_>) -> Placement {
        if ctx.kind != FaultKind::Anon {
            return Placement::Default;
        }
        let range = ctx.vma.range();
        let top_order = ctx
            .machine
            .iter_zones()
            .map(|z| z.config().top_order)
            .max()
            .expect("machine has zones");
        let mut va = range.start();
        let mut mapped_any = false;
        while va < range.end() {
            if ctx.page_table.translate(va).is_ok() {
                va += PageSize::Base4K.bytes();
                continue;
            }
            let remaining_pages = (range.end() - va) >> contig_types::BASE_PAGE_SHIFT;
            let mut order = remaining_pages.ilog2().min(top_order);
            let block = loop {
                match ctx.machine.alloc(order) {
                    Ok(block) => break Some(block),
                    Err(_) if order > 0 => order -= 1,
                    Err(_) => break None,
                }
            };
            // Out of memory: the population stays partial.
            let Some(block) = block else { break };
            let bytes = (1u64 << order) * PageSize::Base4K.bytes();
            Self::map_block(ctx, va, block, order, bytes);
            ctx.extra_zeroed_pages += 1 << order;
            mapped_any = true;
            va += bytes;
        }
        // The faulting page itself must be mapped for the Handled contract;
        // if memory ran out before reaching it, defer to the default path.
        if mapped_any && ctx.page_table.translate(ctx.va).is_ok() {
            // Do not double-charge the faulting page's zeroing.
            ctx.extra_zeroed_pages = ctx.extra_zeroed_pages.saturating_sub(
                ctx.page_table
                    .translate(ctx.va)
                    .map(|t| t.size.base_pages())
                    .unwrap_or(0),
            );
            Placement::Handled
        } else {
            Placement::Default
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use contig_buddy::MachineConfig;
    use contig_mm::{contiguous_mappings, System, SystemConfig, VmaKind};
    use contig_types::VirtRange;

    fn eager_system(mib: u64, top_order: u32) -> System {
        let mut mc = MachineConfig::single_node_mib(mib);
        mc.top_order = top_order;
        System::new(SystemConfig::new(mc))
    }

    #[test]
    fn first_touch_populates_whole_vma() {
        let mut sys = eager_system(128, 13);
        let pid = sys.spawn();
        let vma = sys
            .aspace_mut(pid)
            .map_vma(VirtRange::new(VirtAddr::new(0x40_0000), 32 << 20), VmaKind::Anon);
        let mut eager = EagerPaging::new();
        sys.touch(&mut eager, pid, VirtAddr::new(0x41_0000)).unwrap();
        assert_eq!(sys.aspace(pid).mapped_bytes(), 32 << 20);
        let _ = vma;
        // With a raised MAX_ORDER on a fresh machine, one 32 MiB block
        // suffices: a single contiguous mapping.
        let maps = contiguous_mappings(sys.aspace(pid).page_table());
        assert_eq!(maps.len(), 1);
        assert_eq!(maps[0].len(), 32 << 20);
    }

    #[test]
    fn eager_charges_bulk_zeroing_to_the_fault() {
        let mut sys = eager_system(64, 13);
        let pid = sys.spawn();
        sys.aspace_mut(pid)
            .map_vma(VirtRange::new(VirtAddr::new(0x40_0000), 16 << 20), VmaKind::Anon);
        let mut eager = EagerPaging::new();
        sys.touch(&mut eager, pid, VirtAddr::new(0x40_0000)).unwrap();
        let stats = sys.aspace(pid).stats();
        assert_eq!(stats.total_faults(), 1, "eager paging collapses faults");
        // Latency ≈ zeroing 16 MiB = 4096 pages, far beyond one huge page.
        assert!(stats.total_fault_ns > 2048 * 1000);
    }

    #[test]
    fn fragmentation_splinters_eager_allocations() {
        let mut sys = eager_system(128, 13);
        let hog = contig_buddy::Hog::occupy(sys.machine_mut(), 0.5, 11);
        let pid = sys.spawn();
        sys.aspace_mut(pid)
            .map_vma(VirtRange::new(VirtAddr::new(0x40_0000), 32 << 20), VmaKind::Anon);
        let mut eager = EagerPaging::new();
        sys.touch(&mut eager, pid, VirtAddr::new(0x40_0000)).unwrap();
        assert_eq!(sys.aspace(pid).mapped_bytes(), 32 << 20);
        let maps = contiguous_mappings(sys.aspace(pid).page_table());
        assert!(
            maps.len() >= 3,
            "hogged memory forces eager into multiple aligned blocks, got {}",
            maps.len()
        );
        drop(hog);
    }

    #[test]
    fn partial_population_when_memory_short() {
        let mut sys = eager_system(8, 13);
        let pid = sys.spawn();
        sys.aspace_mut(pid)
            .map_vma(VirtRange::new(VirtAddr::new(0x40_0000), 16 << 20), VmaKind::Anon);
        let mut eager = EagerPaging::new();
        // 8 MiB machine cannot back a 16 MiB VMA: the fault itself is fine
        // (the VMA start gets memory) but population is partial.
        sys.touch(&mut eager, pid, VirtAddr::new(0x40_0000)).unwrap();
        let mapped = sys.aspace(pid).mapped_bytes();
        assert!(mapped > 0 && mapped <= 8 << 20, "{mapped}");
    }

    #[test]
    fn exit_after_eager_population_frees_everything() {
        // Eager maps big blocks as page-size leaves; exit frees per leaf, so
        // the allocation must have been split to leaf granularity.
        let mut sys = eager_system(128, 15);
        let pid = sys.spawn();
        // Unaligned VMA start forces a mix of 4 KiB and huge leaves.
        sys.aspace_mut(pid)
            .map_vma(VirtRange::new(VirtAddr::new(0x40_1000), (32 << 20) + 0x3000), VmaKind::Anon);
        let mut eager = EagerPaging::new();
        sys.touch(&mut eager, pid, VirtAddr::new(0x40_1000)).unwrap();
        sys.exit(pid);
        assert_eq!(sys.machine().free_frames(), sys.machine().total_frames());
        sys.machine().verify_integrity();
    }

    #[test]
    fn blocks_of_an_unaligned_zone_are_split_from_their_head() {
        // Node 1 starts at 3 MiB, so its blocks sit 1 MiB off the 2 MiB
        // grid: the 2 MiB-aligned frames inside them are tails, not heads.
        // With 5 MiB on node 1 and a VMA 1 MiB off the grid, the order-10
        // block's aligned frame also lines up with an aligned address, in
        // the middle of an ownership unit: no huge leaf may start there.
        for (nodes, start, len) in [([3, 3], 0x40_0000, 5 << 20), ([3, 5], 0x50_0000, 7 << 20)] {
            let mut mc = MachineConfig::with_node_mib(&nodes);
            mc.top_order = 15;
            let mut sys = System::new(SystemConfig::new(mc));
            let pid = sys.spawn();
            sys.aspace_mut(pid).map_vma(VirtRange::new(VirtAddr::new(start), len), VmaKind::Anon);
            let mut eager = EagerPaging::new();
            sys.touch(&mut eager, pid, VirtAddr::new(start)).unwrap();
            assert_eq!(sys.aspace(pid).mapped_bytes(), len);
            sys.exit(pid);
            assert_eq!(sys.machine().free_frames(), sys.machine().total_frames());
            sys.machine().verify_integrity();
        }
    }

    #[test]
    fn second_fault_in_populated_vma_never_reruns() {
        let mut sys = eager_system(64, 13);
        let pid = sys.spawn();
        sys.aspace_mut(pid)
            .map_vma(VirtRange::new(VirtAddr::new(0x40_0000), 8 << 20), VmaKind::Anon);
        let mut eager = EagerPaging::new();
        sys.touch(&mut eager, pid, VirtAddr::new(0x40_0000)).unwrap();
        let out = sys.touch(&mut eager, pid, VirtAddr::new(0x70_0000)).unwrap();
        assert!(out.already_mapped);
        assert_eq!(sys.aspace(pid).stats().total_faults(), 1);
    }
}
