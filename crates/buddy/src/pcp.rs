//! Linux-style per-CPU page-frame caches (pcp lists).
//!
//! The kernel front-ends every zone's buddy free lists with per-CPU lists of
//! order-0 frames (`struct per_cpu_pages`): order-0 allocations pop from the
//! local CPU's LIFO list, which is batch-refilled from the buddy heap
//! (`rmqueue_bulk`) when empty and batch-drained back when it grows past a
//! high watermark. The paper's §III kernel patches have to work *around* this
//! layer — a frame sitting on a pcp list looks allocated to the buddy heap,
//! so CA paging's targeted allocation must drain conflicting pcp frames
//! before it can claim a block. This module reproduces both behaviours.
//!
//! Accounting model: a pcp-resident frame is still *available* — it counts
//! as free in [`crate::Zone::free_frames`] and answers `true` to
//! [`crate::Zone::is_free`] — but it is carved out of the buddy block
//! structure (its frame-table state is an allocated order-0 block), exactly
//! like the kernel, where pcp frames are invisible to `free_area[]`.

use contig_types::Pfn;

/// Tunables of a zone's per-CPU frame-cache layer.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct PcpConfig {
    /// Number of simulated CPUs (one LIFO list each). Must be at least 1.
    pub cpus: usize,
    /// Frames moved per batch refill from (and drain to) the buddy heap,
    /// Linux's `pcp->batch`. Must be at least 1.
    pub batch: u64,
    /// High watermark: a free that grows the local list past this many
    /// frames triggers a batch drain, Linux's `pcp->high`. Must be at least
    /// `batch`.
    pub high: u64,
}

impl Default for PcpConfig {
    /// One CPU, batch 8, high watermark 32 — scaled-down kernel defaults.
    fn default() -> Self {
        Self { cpus: 1, batch: 8, high: 32 }
    }
}

impl PcpConfig {
    /// Default batch/high tunables over `cpus` simulated CPUs.
    pub fn with_cpus(cpus: usize) -> Self {
        Self { cpus, ..Self::default() }
    }
}

contig_types::wire_counters! {
    /// Event counters of one zone's pcp layer.
    #[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
    pub struct PcpCounters {
        /// Order-0 allocations served by popping a pcp list.
        pub hits: u64,
        /// Batch refills pulled from the buddy free lists.
        pub refills: u64,
        /// Frames moved by those refills.
        pub refilled_frames: u64,
        /// Batch drains back to the buddy heap (watermark, OOM fallback, or
        /// explicit [`crate::Zone::drain_pcp`]).
        pub drains: u64,
        /// Frames moved by those drains.
        pub drained_frames: u64,
        /// Frames evicted from pcp lists because a targeted (CA paging)
        /// allocation claimed the block containing them — the paper-§III
        /// conflict between pcp caching and contiguity-aware placement.
        pub targeted_evictions: u64,
    }
}

contig_types::wire_struct! {
    /// Plain-data image of a zone's pcp layer, carried by
    /// [`crate::ZoneSnapshot`]. Lists are captured bottom (coldest) to top (next
    /// frame to pop), so a restored zone pops the same frames in the same order.
    #[derive(Clone, Debug, PartialEq, Eq)]
    pub struct PcpSnapshot {
        /// Number of simulated CPUs.
        pub cpus: u64,
        /// Refill/drain batch size.
        pub batch: u64,
        /// Drain high watermark.
        pub high: u64,
        /// The CPU selected at capture time.
        pub current_cpu: u64,
        /// Per-CPU lists in stack order (index 0 is the coldest frame).
        pub lists: Vec<Vec<u64>>,
        /// Event counters at capture time.
        pub counters: PcpCounters,
    }
}

/// Live pcp state owned by a [`crate::Zone`].
#[derive(Clone, Debug)]
pub(crate) struct PcpState {
    pub(crate) config: PcpConfig,
    /// CPU whose list serves allocations and receives frees.
    pub(crate) current_cpu: usize,
    /// Per-CPU LIFO stacks; the back of each `Vec` is the hottest frame.
    /// Membership is the pcp-resident bit of the frame's table entry.
    pub(crate) lists: Vec<Vec<Pfn>>,
    pub(crate) counters: PcpCounters,
}

impl PcpState {
    /// Fresh, empty pcp state.
    ///
    /// # Panics
    ///
    /// Panics on a zero CPU count, a zero batch, or a watermark below the
    /// batch size.
    pub(crate) fn new(config: PcpConfig) -> Self {
        assert!(config.cpus >= 1, "pcp needs at least one cpu");
        assert!(config.batch >= 1, "pcp batch must be at least 1");
        assert!(config.high >= config.batch, "pcp high watermark below batch size");
        Self {
            config,
            current_cpu: 0,
            lists: vec![Vec::new(); config.cpus],
            counters: PcpCounters::default(),
        }
    }

    /// Frames currently held across every CPU list.
    pub(crate) fn frames(&self) -> u64 {
        self.lists.iter().map(|l| l.len() as u64).sum()
    }

    /// Captures the layer as plain data.
    pub(crate) fn snapshot(&self) -> PcpSnapshot {
        PcpSnapshot {
            cpus: self.config.cpus as u64,
            batch: self.config.batch,
            high: self.config.high,
            current_cpu: self.current_cpu as u64,
            lists: self
                .lists
                .iter()
                .map(|list| list.iter().map(|p| p.raw()).collect())
                .collect(),
            counters: self.counters,
        }
    }

    /// Rebuilds the layer from a snapshot; the zone re-marks the listed
    /// frames resident in its frame table.
    ///
    /// # Panics
    ///
    /// Panics if the snapshot is internally inconsistent (list count versus
    /// CPU count, or an out-of-range current CPU).
    pub(crate) fn from_snapshot(snap: &PcpSnapshot) -> Self {
        let config =
            PcpConfig { cpus: snap.cpus as usize, batch: snap.batch, high: snap.high };
        let mut state = Self::new(config);
        assert_eq!(snap.lists.len(), config.cpus, "pcp snapshot list count != cpu count");
        assert!((snap.current_cpu as usize) < config.cpus, "pcp current cpu out of range");
        state.current_cpu = snap.current_cpu as usize;
        for (cpu, list) in snap.lists.iter().enumerate() {
            state.lists[cpu] = list.iter().map(|&raw| Pfn::new(raw)).collect();
        }
        state.counters = snap.counters;
        state
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn snapshot_round_trip_preserves_stack_order() {
        let mut state = PcpState::new(PcpConfig::with_cpus(2));
        state.current_cpu = 1;
        for raw in [5u64, 9, 2] {
            state.lists[1].push(Pfn::new(raw));
        }
        state.counters.hits = 7;
        let restored = PcpState::from_snapshot(&state.snapshot());
        assert_eq!(restored.lists, state.lists);
        assert_eq!(restored.current_cpu, 1);
        assert_eq!(restored.counters, state.counters);
        assert!(restored.lists[1].contains(&Pfn::new(9)));
        assert_eq!(restored.frames(), 3);
    }

    #[test]
    #[should_panic(expected = "high watermark below batch")]
    fn watermark_below_batch_rejected() {
        PcpState::new(PcpConfig { cpus: 1, batch: 16, high: 8 });
    }
}
