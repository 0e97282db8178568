//! Experiment environments: the evaluation machine and TLB scaled by the
//! same factor as the workload footprints, preserving the paper's
//! footprint-to-memory and footprint-to-TLB-reach ratios.

use contig_buddy::MachineConfig;
use contig_tlb::{TlbConfig, WalkCostModel};
use contig_workloads::Scale;

/// The evaluation platform of Table II, scaled.
#[derive(Clone, Copy, Debug)]
pub struct Env {
    /// Footprint/machine/TLB scale divisor.
    pub scale: Scale,
}

impl Env {
    /// The default environment (scale 1/64: 256 GiB machine → 4 GiB model).
    pub fn new(scale: Scale) -> Self {
        Self { scale }
    }

    /// A small environment for fast tests.
    pub fn tiny() -> Self {
        Self { scale: Scale::tiny() }
    }

    /// Total machine memory in MiB after scaling (paper: 256 GiB).
    pub fn machine_mib(&self) -> u64 {
        (256 << 10) / self.scale.0
    }

    /// The native machine: two NUMA nodes of 128 GiB each (scaled), or a
    /// single node when `numa` is off (the paper disables NUMA for the
    /// fragmentation studies).
    pub(crate) fn native_machine(&self, numa: bool) -> MachineConfig {
        let mib = self.machine_mib();
        if numa {
            MachineConfig::with_node_mib(&[mib / 2, mib / 2])
        } else {
            MachineConfig::single_node_mib(mib)
        }
    }

    /// Guest machine for virtualized runs: the full scaled 256 GiB, two
    /// virtual nodes (the VM of Table II is 2-socket).
    pub fn guest_machine(&self) -> MachineConfig {
        self.native_machine(true)
    }

    /// Host machine backing the VM: guest memory plus 25 % headroom.
    pub fn host_machine(&self) -> MachineConfig {
        let mib = self.machine_mib() * 5 / 4;
        MachineConfig::with_node_mib(&[mib / 2, mib / 2])
    }

    /// Broadwell TLB geometry scaled by the same factor.
    pub fn tlb(&self) -> TlbConfig {
        TlbConfig::broadwell_scaled(self.scale.0 as usize)
    }

    /// The walk cost model (unscaled: latencies are per-walk, not per-byte).
    pub fn walk_cost(&self) -> WalkCostModel {
        WalkCostModel::default()
    }
}

impl Default for Env {
    fn default() -> Self {
        Self::new(Scale::default())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn default_env_is_4gib_two_nodes() {
        let e = Env::default();
        assert_eq!(e.machine_mib(), 4096);
        let m = e.native_machine(true);
        assert_eq!(m.node_frames.len(), 2);
        assert_eq!(m.node_frames[0], 2048 * 256);
    }

    #[test]
    fn numa_off_is_single_node() {
        let m = Env::default().native_machine(false);
        assert_eq!(m.node_frames.len(), 1);
    }

    #[test]
    fn host_has_headroom_over_guest() {
        let e = Env::default();
        let guest: u64 = e.guest_machine().node_frames.iter().sum();
        let host: u64 = e.host_machine().node_frames.iter().sum();
        assert!(host > guest);
    }

    #[test]
    fn tlb_scales_with_env() {
        let e = Env::default();
        let t = e.tlb();
        assert_eq!(t.l2.entries, 1536 / 64 * 6 / 6);
        assert!(t.l1_4k.entries >= t.l1_4k.ways);
    }
}
