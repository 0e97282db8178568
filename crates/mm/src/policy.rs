//! The placement-policy interface between the fault path and allocation
//! strategies (default, CA paging, and the baselines).

use contig_buddy::Machine;
use contig_types::{PageSize, Pfn, VirtAddr};

use crate::page_table::PageTable;
use crate::stats::FaultStats;
use crate::system::{Pid, System};
use crate::vma::Vma;

/// The classes of page fault the simulator services (paper §III-C,
/// "Supported faults").
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub enum FaultKind {
    /// First touch of an anonymous page.
    Anon,
    /// Write fault breaking a copy-on-write share.
    Cow,
    /// Fault on a file-backed VMA served through the page cache.
    FileRead,
}

/// A placement decision returned by a [`PlacementPolicy`].
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Placement {
    /// Claim precisely this frame (the fault driver calls
    /// [`contig_buddy::Machine::alloc_specific`]).
    Target(Pfn),
    /// Fall back to the default buddy allocation.
    Default,
    /// The policy fully serviced the fault itself (used by eager paging,
    /// which populates the entire VMA on first touch).
    Handled,
}

/// Everything a policy may inspect and mutate while deciding a placement.
///
/// The context borrows the machine, the faulting VMA, and the process page
/// table for the duration of one fault.
#[derive(Debug)]
pub struct FaultCtx<'a> {
    /// Physical memory.
    pub machine: &'a mut Machine,
    /// The VMA containing the fault (holds the CA offset metadata).
    pub vma: &'a mut Vma,
    /// The faulting process page table.
    pub page_table: &'a mut PageTable,
    /// Fault virtual address, aligned down to `size`.
    pub va: VirtAddr,
    /// Page size being allocated.
    pub size: PageSize,
    /// Fault class.
    pub kind: FaultKind,
    /// The faulting process's NUMA home node, when pinned — placement
    /// policies prefer this zone's contiguity map before spilling.
    pub home: Option<usize>,
    /// Per-address-space fault statistics.
    pub stats: &'a mut FaultStats,
    /// Base pages the policy zeroed *beyond* the faulting page (eager paging
    /// populates whole VMAs); charged to this fault's latency.
    pub extra_zeroed_pages: u64,
}

/// A physical-page placement strategy driven by the demand-paging fault path.
///
/// The fault driver calls [`PlacementPolicy::on_fault`] once per fault, then
/// loops through [`PlacementPolicy::on_target_busy`] while targeted
/// allocations fail, and finally reports the mapped frame through
/// [`PlacementPolicy::post_map`]. A policy that drags a daemon along runs it
/// in [`PlacementPolicy::tick`], which whoever drives the faults calls
/// between batches of them.
///
/// Policies are `Send` so systems and virtual machines holding them can move
/// between experiment threads.
pub trait PlacementPolicy: Send {
    /// Short name used in reports ("THP", "CA", "eager", ...).
    fn name(&self) -> &'static str;

    /// Chooses a placement for the fault described by `ctx`.
    fn on_fault(&mut self, ctx: &mut FaultCtx<'_>) -> Placement;

    /// Called when a [`Placement::Target`] frame turned out busy; return a
    /// new placement. The default falls back to the buddy allocator.
    fn on_target_busy(&mut self, ctx: &mut FaultCtx<'_>, busy: Pfn) -> Placement {
        let _ = (ctx, busy);
        Placement::Default
    }

    /// Called after the fault is mapped onto `mapped` (not called for
    /// [`Placement::Handled`]). Policies use this for contiguity-bit marking
    /// and statistics.
    fn post_map(&mut self, ctx: &mut FaultCtx<'_>, mapped: Pfn) {
        let _ = (ctx, mapped);
    }

    /// Whether the policy wants every fault at base-page granularity even
    /// when THP is enabled system-wide (Ingens services faults with 4 KiB
    /// pages and promotes asynchronously).
    fn prefers_base_pages(&self) -> bool {
        false
    }

    /// Background work between batches of faults over `pids`: a
    /// defragmentation epoch, a promotion pass. The default does nothing.
    fn tick(&mut self, sys: &mut System, pids: &[Pid]) {
        let _ = (sys, pids);
    }

    /// Base pages [`PlacementPolicy::tick`] has migrated so far.
    fn pages_migrated(&self) -> u64 {
        0
    }

    /// TLB shootdowns [`PlacementPolicy::tick`] has issued so far.
    fn shootdowns(&self) -> u64 {
        0
    }
}

/// The kernel-default policy: transparent huge pages with buddy placement —
/// the paper's "default paging–THP" comparison point.
///
/// # Examples
///
/// ```
/// use contig_mm::{DefaultThpPolicy, PlacementPolicy};
/// assert_eq!(DefaultThpPolicy.name(), "THP");
/// ```
#[derive(Clone, Copy, Debug, Default)]
pub struct DefaultThpPolicy;

impl PlacementPolicy for DefaultThpPolicy {
    fn name(&self) -> &'static str {
        "THP"
    }

    fn on_fault(&mut self, _ctx: &mut FaultCtx<'_>) -> Placement {
        Placement::Default
    }
}

/// A 4 KiB-only policy (THP disabled): the paper's "4K" configurations.
#[derive(Clone, Copy, Debug, Default)]
pub struct BasePagesPolicy;

impl PlacementPolicy for BasePagesPolicy {
    fn name(&self) -> &'static str {
        "4K"
    }

    fn on_fault(&mut self, _ctx: &mut FaultCtx<'_>) -> Placement {
        Placement::Default
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn default_policy_always_defers_to_buddy() {
        // `on_fault` must not require ctx state for the default policies;
        // exercised end-to-end in the system tests.
        assert_eq!(DefaultThpPolicy.name(), "THP");
        assert_eq!(BasePagesPolicy.name(), "4K");
    }

    #[test]
    fn placement_equality() {
        assert_eq!(Placement::Default, Placement::Default);
        assert_ne!(Placement::Target(Pfn::new(1)), Placement::Target(Pfn::new(2)));
    }
}
