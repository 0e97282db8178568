//! Policy selection: every allocation strategy the paper compares, plus the
//! system-configuration tweaks each one requires.

use contig_baselines::{EagerPaging, IdealPaging, IngensPolicy, RangerDaemon};
use contig_buddy::MachineConfig;
use contig_core::CaPaging;
use contig_mm::{
    BasePagesPolicy, CacheAllocMode, DefaultThpPolicy, Pid, PlacementPolicy, System, SystemConfig,
};
use contig_types::VirtRange;

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
}

/// A live policy instance plus whatever daemon it drags along.
pub(crate) enum PolicyRuntime {
    /// Plain fault-path policies.
    Thp(DefaultThpPolicy),
    /// THP disabled.
    FourK(BasePagesPolicy),
    /// CA paging.
    Ca(CaPaging),
    /// Eager pre-allocation.
    Eager(EagerPaging),
    /// Ingens: the policy object is also the promotion daemon.
    Ingens(IngensPolicy),
    /// THP faults plus the ranger daemon.
    Ranger(DefaultThpPolicy, RangerDaemon),
    /// The offline plan (built lazily at install time).
    Ideal(Option<IdealPaging>),
    /// CA paging with reservations.
    CaReserve(CaPaging),
    /// CA paging plus the ranger daemon.
    CaRanger(CaPaging, RangerDaemon),
}

impl std::fmt::Debug for PolicyRuntime {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "PolicyRuntime({})", self.kind().name())
    }
}

impl PolicyRuntime {
    /// Instantiates the runtime for a policy kind. The ranger budget is in
    /// base pages per epoch.
    pub(crate) fn new(kind: PolicyKind, ranger_budget: u64) -> Self {
        match kind {
            PolicyKind::FourK => PolicyRuntime::FourK(BasePagesPolicy),
            PolicyKind::Thp => PolicyRuntime::Thp(DefaultThpPolicy),
            PolicyKind::Ingens => PolicyRuntime::Ingens(IngensPolicy::new()),
            PolicyKind::Ca => PolicyRuntime::Ca(CaPaging::new()),
            PolicyKind::Eager => PolicyRuntime::Eager(EagerPaging::new()),
            PolicyKind::Ranger => {
                PolicyRuntime::Ranger(DefaultThpPolicy, RangerDaemon::new(ranger_budget))
            }
            PolicyKind::Ideal => PolicyRuntime::Ideal(None),
            PolicyKind::CaReserve => PolicyRuntime::CaReserve(CaPaging::with_config(
                contig_core::CaConfig { reserve: true, ..Default::default() },
            )),
            PolicyKind::CaRanger => {
                PolicyRuntime::CaRanger(CaPaging::new(), RangerDaemon::new(ranger_budget))
            }
        }
    }

    /// The kind this runtime was built for.
    pub(crate) fn kind(&self) -> PolicyKind {
        match self {
            PolicyRuntime::Thp(_) => PolicyKind::Thp,
            PolicyRuntime::FourK(_) => PolicyKind::FourK,
            PolicyRuntime::Ca(_) => PolicyKind::Ca,
            PolicyRuntime::Eager(_) => PolicyKind::Eager,
            PolicyRuntime::Ingens(_) => PolicyKind::Ingens,
            PolicyRuntime::Ranger(..) => PolicyKind::Ranger,
            PolicyRuntime::Ideal(_) => PolicyKind::Ideal,
            PolicyRuntime::CaReserve(_) => PolicyKind::CaReserve,
            PolicyRuntime::CaRanger(..) => PolicyKind::CaRanger,
        }
    }

    /// Prepares the ideal plan against the current machine state. Must be
    /// called (for [`PolicyKind::Ideal`] only) after fragmentation is applied
    /// and before the first fault.
    pub(crate) fn plan_ideal(&mut self, sys: &System, vmas: &[VirtRange]) {
        if let PolicyRuntime::Ideal(slot) = self {
            *slot = Some(IdealPaging::plan(sys.machine(), vmas));
        }
    }

    /// The placement policy to hand to the fault driver.
    ///
    /// # Panics
    ///
    /// Panics if an ideal runtime is used before [`PolicyRuntime::plan_ideal`].
    pub(crate) fn policy_mut(&mut self) -> &mut dyn PlacementPolicy {
        match self {
            PolicyRuntime::Thp(p) => p,
            PolicyRuntime::FourK(p) => p,
            PolicyRuntime::Ca(p) => p,
            PolicyRuntime::Eager(p) => p,
            PolicyRuntime::Ingens(p) => p,
            PolicyRuntime::Ranger(p, _) => p,
            PolicyRuntime::Ideal(p) => p.as_mut().expect("ideal paging used before planning"),
            PolicyRuntime::CaReserve(p) => p,
            PolicyRuntime::CaRanger(p, _) => p,
        }
    }

    /// Runs one daemon tick (ranger epoch / Ingens promotion pass); no-op
    /// for plain policies.
    pub(crate) fn tick(&mut self, sys: &mut System, pids: &[Pid]) {
        match self {
            PolicyRuntime::Ranger(_, daemon) | PolicyRuntime::CaRanger(_, daemon) => {
                daemon.epoch(sys, pids)
            }
            PolicyRuntime::Ingens(ingens) => {
                for &pid in pids {
                    ingens.promote(sys, pid);
                }
            }
            _ => {}
        }
    }

    /// Pages migrated by daemons so far (ranger migrations + Ingens
    /// promotions), for the software-overhead model of Fig. 11.
    pub(crate) fn pages_migrated(&self) -> u64 {
        match self {
            PolicyRuntime::Ranger(_, daemon) | PolicyRuntime::CaRanger(_, daemon) => {
                daemon.stats().pages_migrated
            }
            PolicyRuntime::Ingens(ingens) => ingens.stats().pages_migrated,
            _ => 0,
        }
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

    #[test]
    fn runtime_kind_roundtrip() {
        for kind in [
            PolicyKind::FourK,
            PolicyKind::Thp,
            PolicyKind::Ingens,
            PolicyKind::Ca,
            PolicyKind::Eager,
            PolicyKind::Ranger,
            PolicyKind::Ideal,
            PolicyKind::CaReserve,
            PolicyKind::CaRanger,
        ] {
            assert_eq!(PolicyRuntime::new(kind, 1024).kind(), kind);
        }
    }

    #[test]
    #[should_panic(expected = "before planning")]
    fn unplanned_ideal_panics() {
        let mut rt = PolicyRuntime::new(PolicyKind::Ideal, 1024);
        let _ = rt.policy_mut();
    }
}
