//! Fault accounting and the page-fault latency model.

use core::fmt;

use contig_types::PageSize;

/// Fixed fault-entry/exit cost (trap, VMA lookup, PTE install).
pub(crate) const BASE_NS: u64 = 1_500;
/// Cost to zero one 4 KiB page; reclaim, compaction, poison healing and
/// promotion charge it per page they touch or copy.
pub(crate) const ZERO_PAGE_NS: u64 = 1_000;
/// Cost of one contiguity-map placement decision.
pub(crate) const PLACEMENT_NS: u64 = 400;

/// The page-fault latency model, calibrated to paper Table V: the latency
/// of a fault that zeroed `pages` base pages and ran `placements` placement
/// decisions.
///
/// The dominant cost of a large allocation is zeroing it (eager paging's
/// 99th-percentile latency is ~150× THP's because it zeroes whole VMAs). A
/// 2 MiB THP fault lands near the paper's ~515 us 99th percentile: 512
/// pages * 1000 ns ≈ 512 us.
pub(crate) fn fault_ns(pages: u64, placements: u64) -> u64 {
    BASE_NS + pages * ZERO_PAGE_NS + placements * PLACEMENT_NS
}

/// Per-address-space fault statistics.
///
/// # Examples
///
/// ```
/// use contig_mm::FaultStats;
/// let stats = FaultStats::default();
/// assert_eq!(stats.total_faults(), 0);
/// assert_eq!(stats.percentile_latency_ns(0.99), 0);
/// ```
#[derive(Clone, Debug, Default)]
pub struct FaultStats {
    /// 4 KiB faults serviced.
    pub faults_4k: u64,
    /// 2 MiB faults serviced.
    pub faults_2m: u64,
    /// Copy-on-write faults serviced (also counted in the size counters).
    pub cow_faults: u64,
    /// Huge faults that fell back to 4 KiB for lack of memory.
    pub thp_fallbacks: u64,
    /// Targeted allocations that succeeded (CA hits).
    pub ca_target_hits: u64,
    /// Targeted allocations that failed and were re-placed or defaulted.
    pub ca_target_misses: u64,
    /// Placement decisions (contiguity-map searches) performed.
    pub placements: u64,
    /// Simulated nanoseconds spent in fault handlers.
    pub total_fault_ns: u64,
    latencies_ns: Vec<u64>,
    record_latencies: bool,
}

impl FaultStats {
    /// Statistics that additionally record every fault latency so
    /// percentiles can be computed (Table V).
    pub(crate) fn recording() -> Self {
        Self { record_latencies: true, ..Self::default() }
    }

    /// Total faults of both sizes.
    pub fn total_faults(&self) -> u64 {
        self.faults_4k + self.faults_2m
    }

    /// Records one serviced fault.
    pub(crate) fn record_fault(&mut self, size: PageSize, latency_ns: u64) {
        match size {
            PageSize::Base4K => self.faults_4k += 1,
            PageSize::Huge2M => self.faults_2m += 1,
        }
        self.total_fault_ns += latency_ns;
        if self.record_latencies {
            self.latencies_ns.push(latency_ns);
        }
    }

    /// The `q`-quantile fault latency (0 when nothing was recorded).
    ///
    /// # Panics
    ///
    /// Panics if `q` is outside `[0, 1]`.
    pub fn percentile_latency_ns(&self, q: f64) -> u64 {
        assert!((0.0..=1.0).contains(&q), "quantile {q} out of range");
        if self.latencies_ns.is_empty() {
            return 0;
        }
        let mut sorted = self.latencies_ns.clone();
        sorted.sort_unstable();
        let rank = ((sorted.len() - 1) as f64 * q).round() as usize;
        sorted[rank]
    }

    /// Mean fault latency in nanoseconds.
    pub fn mean_latency_ns(&self) -> u64 {
        self.total_fault_ns.checked_div(self.total_faults()).unwrap_or(0)
    }

    /// Whether individual fault latencies are being recorded.
    pub(crate) fn is_recording(&self) -> bool {
        self.record_latencies
    }

    /// The recorded per-fault latencies in service order (empty unless
    /// recording) — snapshot source for crash-consistency checkpoints.
    pub(crate) fn recorded_latencies(&self) -> &[u64] {
        &self.latencies_ns
    }

    /// Rebuilds statistics from snapshot parts. `counters` holds the public
    /// counters in declaration order: `faults_4k, faults_2m, cow_faults,
    /// thp_fallbacks, ca_target_hits, ca_target_misses, placements,
    /// total_fault_ns`.
    pub(crate) fn restore(counters: [u64; 8], latencies_ns: Vec<u64>, record_latencies: bool) -> Self {
        Self {
            faults_4k: counters[0],
            faults_2m: counters[1],
            cow_faults: counters[2],
            thp_fallbacks: counters[3],
            ca_target_hits: counters[4],
            ca_target_misses: counters[5],
            placements: counters[6],
            total_fault_ns: counters[7],
            latencies_ns,
            record_latencies,
        }
    }
}

impl fmt::Display for FaultStats {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "{} faults ({} huge, {} base, {} cow), {} fallbacks, {} placements, mean {} ns",
            self.total_faults(),
            self.faults_2m,
            self.faults_4k,
            self.cow_faults,
            self.thp_fallbacks,
            self.placements,
            self.mean_latency_ns()
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn latency_model_scales_with_pages() {
        let base = fault_ns(1, 0);
        let huge = fault_ns(512, 0);
        assert!(huge > base * 100, "{huge} vs {base}");
        assert_eq!(fault_ns(0, 2) - fault_ns(0, 0), 2 * PLACEMENT_NS);
    }

    #[test]
    fn percentiles_from_recorded_latencies() {
        let mut s = FaultStats::recording();
        for i in 1..=100u64 {
            s.record_fault(PageSize::Base4K, i * 10);
        }
        assert_eq!(s.percentile_latency_ns(0.0), 10);
        assert_eq!(s.percentile_latency_ns(1.0), 1000);
        let p99 = s.percentile_latency_ns(0.99);
        assert!((980..=1000).contains(&p99), "{p99}");
        assert_eq!(s.mean_latency_ns(), 505);
    }

    #[test]
    fn non_recording_stats_report_zero_percentiles() {
        let mut s = FaultStats::default();
        s.record_fault(PageSize::Huge2M, 999);
        assert_eq!(s.percentile_latency_ns(0.99), 0);
        assert_eq!(s.faults_2m, 1);
        assert_eq!(s.total_fault_ns, 999);
    }

    #[test]
    #[should_panic(expected = "out of range")]
    fn invalid_quantile_panics() {
        FaultStats::default().percentile_latency_ns(1.5);
    }

    #[test]
    fn display_summarizes_counters() {
        let mut s = FaultStats::default();
        s.record_fault(PageSize::Base4K, 100);
        let text = s.to_string();
        assert!(text.contains("1 faults"));
    }
}
