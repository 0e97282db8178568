//! Policy selection: every allocation strategy the paper compares, the
//! system-configuration tweaks each one requires, and the one place a kind
//! becomes a live [`PlacementPolicy`].

use contig_baselines::{EagerPaging, IdealPaging, IngensPolicy, RangerDaemon};
use contig_buddy::{Machine, MachineConfig};
use contig_core::{CaConfig, CaPaging};
use contig_mm::{
    BasePagesPolicy, CacheAllocMode, DefaultThpPolicy, FaultCtx, Pid, Placement, PlacementPolicy,
    System, SystemConfig,
};
use contig_types::{Pfn, VirtRange};

use crate::env::Env;

/// The allocation strategies of §VI-A (plus the 4 KiB baseline of §VI-B).
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub enum PolicyKind {
    /// THP disabled: 4 KiB demand paging.
    FourK,
    /// Default transparent huge pages.
    Thp,
    /// Ingens-style asynchronous promotion.
    Ingens,
    /// Contiguity-aware paging (the paper's contribution).
    Ca,
    /// Eager whole-VMA pre-allocation with raised `MAX_ORDER`.
    Eager,
    /// THP plus the Translation Ranger defragmentation daemon.
    Ranger,
    /// The offline best-fit oracle.
    Ideal,
    /// CA paging with contiguity reservations (paper §III-D extension).
    CaReserve,
    /// CA paging plus the ranger daemon mopping up residual fragmentation
    /// (the combination §VI-C calls "mutually assisted").
    CaRanger,
}

impl PolicyKind {
    /// All software policies compared in Fig. 7.
    pub const FIG7: [PolicyKind; 6] = [
        PolicyKind::Thp,
        PolicyKind::Ingens,
        PolicyKind::Ca,
        PolicyKind::Eager,
        PolicyKind::Ranger,
        PolicyKind::Ideal,
    ];

    /// Display name matching the paper's legends.
    pub fn name(&self) -> &'static str {
        match self {
            PolicyKind::FourK => "4K",
            PolicyKind::Thp => "THP",
            PolicyKind::Ingens => "Ingens",
            PolicyKind::Ca => "CA",
            PolicyKind::Eager => "eager",
            PolicyKind::Ranger => "ranger",
            PolicyKind::Ideal => "ideal",
            PolicyKind::CaReserve => "CA+resv",
            PolicyKind::CaRanger => "CA+ranger",
        }
    }

    /// Builds the [`SystemConfig`] this policy requires on the given machine:
    /// eager paging raises the buddy `MAX_ORDER`; CA paging sorts the
    /// top-order list and allocates the page cache contiguously; the 4 KiB
    /// baseline disables THP.
    pub fn system_config(&self, mut machine: MachineConfig) -> SystemConfig {
        match self {
            PolicyKind::Eager => {
                machine.top_order = 15; // blocks up to 128 MiB
                SystemConfig::new(machine)
            }
            PolicyKind::Ca | PolicyKind::CaReserve | PolicyKind::CaRanger => {
                machine.sorted_top_list = true;
                SystemConfig {
                    cache_mode: CacheAllocMode::CaContiguous,
                    ..SystemConfig::new(machine)
                }
            }
            PolicyKind::FourK => SystemConfig { thp: false, ..SystemConfig::new(machine) },
            _ => SystemConfig::new(machine),
        }
    }

    /// The kind's live policy, its daemon included: ranger's epochs and
    /// Ingens's promotions run in [`PlacementPolicy::tick`]. The ideal oracle
    /// is planned against `plan`, the machine and VMAs as they stand before
    /// the first fault.
    ///
    /// # Panics
    ///
    /// Panics for [`PolicyKind::Ideal`] without a plan.
    pub(crate) fn policy(
        self,
        env: &Env,
        plan: Option<(&Machine, &[VirtRange])>,
    ) -> Box<dyn PlacementPolicy> {
        let ranger = || RangerDaemon::new(ranger_budget(env));
        match self {
            PolicyKind::FourK => Box::new(BasePagesPolicy),
            PolicyKind::Thp => Box::new(DefaultThpPolicy),
            PolicyKind::Ingens => Box::new(IngensPolicy::new()),
            PolicyKind::Ca => Box::new(CaPaging::new()),
            PolicyKind::Eager => Box::new(EagerPaging::new()),
            PolicyKind::Ranger => Box::new(WithRanger(DefaultThpPolicy, ranger())),
            PolicyKind::Ideal => {
                let (machine, vmas) = plan.expect("ideal paging needs a machine and VMAs to plan");
                Box::new(IdealPaging::plan(machine, vmas))
            }
            PolicyKind::CaReserve => {
                Box::new(CaPaging::with_config(CaConfig { reserve: true, ..Default::default() }))
            }
            PolicyKind::CaRanger => Box::new(WithRanger(CaPaging::new(), ranger())),
        }
    }
}

/// Ranger's migration budget per epoch, scaled with the environment so its
/// relative progress rate matches across scales. The budget is deliberately
/// below the fault stream's allocation rate per daemon tick, so contiguity
/// arrives late (Fig. 1c) and converges only after the allocation phase.
fn ranger_budget(env: &Env) -> u64 {
    ((1u64 << 30) / env.scale.0 / 4096).max(512) * 2
}

/// A fault-path policy with the Translation Ranger daemon beside it: faults
/// go to the policy, ticks to the daemon's epochs.
struct WithRanger<P>(P, RangerDaemon);

impl<P: PlacementPolicy> PlacementPolicy for WithRanger<P> {
    fn name(&self) -> &'static str {
        self.0.name()
    }

    fn on_fault(&mut self, ctx: &mut FaultCtx<'_>) -> Placement {
        self.0.on_fault(ctx)
    }

    fn on_target_busy(&mut self, ctx: &mut FaultCtx<'_>, busy: Pfn) -> Placement {
        self.0.on_target_busy(ctx, busy)
    }

    fn post_map(&mut self, ctx: &mut FaultCtx<'_>, mapped: Pfn) {
        self.0.post_map(ctx, mapped)
    }

    fn prefers_base_pages(&self) -> bool {
        self.0.prefers_base_pages()
    }

    fn tick(&mut self, sys: &mut System, pids: &[Pid]) {
        self.1.epoch(sys, pids)
    }

    fn pages_migrated(&self) -> u64 {
        self.1.stats().pages_migrated
    }

    fn shootdowns(&self) -> u64 {
        self.1.stats().shootdowns
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn config_tweaks_follow_policy() {
        let base = MachineConfig::single_node_mib(64);
        let eager = PolicyKind::Eager.system_config(base.clone());
        assert_eq!(eager.machine.top_order, 15);
        let ca = PolicyKind::Ca.system_config(base.clone());
        assert!(ca.machine.sorted_top_list);
        assert_eq!(ca.cache_mode, CacheAllocMode::CaContiguous);
        let fourk = PolicyKind::FourK.system_config(base.clone());
        assert!(!fourk.thp);
        let thp = PolicyKind::Thp.system_config(base);
        assert!(thp.thp);
        assert_eq!(thp.machine.top_order, contig_buddy::DEFAULT_TOP_ORDER);
    }
}
