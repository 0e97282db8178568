//! Unsafe-load (USL) estimation — Table VII's security-cost analysis.
//!
//! Loads executed during speculative windows can leak through cache side
//! channels until the speculation resolves. The paper compares the USLs
//! SpOT introduces (loads in flight during a predicted translation's
//! verification walk) with the USLs branch prediction already creates
//! (Spectre), using two linear estimates:
//!
//! - `Spectre USL = #branches × branch-resolution cycles × loads/cycle`
//! - `SpOT USL   = #DTLB misses × page-walk cycles × loads/cycle`

/// Inputs to the USL estimate, normally produced by a simulation run.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct UslInputs {
    /// Total instructions (memory references / load fraction in our sim).
    pub instructions: f64,
    /// Branch instructions.
    pub branches: f64,
    /// Load instructions.
    pub loads: f64,
    /// Total execution cycles.
    pub cycles: f64,
    /// Last-level DTLB misses (walks).
    pub dtlb_misses: f64,
    /// Average page-walk latency in cycles.
    pub avg_walk_cycles: f64,
    /// Branch-resolution latency in cycles (paper: ~20).
    pub branch_resolution_cycles: f64,
}

/// The resulting estimate (all values as fractions of total instructions).
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct UslEstimate {
    /// Branches / instructions.
    pub branch_fraction: f64,
    /// DTLB misses / instructions.
    pub dtlb_miss_fraction: f64,
    /// Spectre USLs / instructions.
    pub spectre_usl_fraction: f64,
    /// SpOT USLs / instructions.
    pub spot_usl_fraction: f64,
}

impl UslEstimate {
    /// Computes the estimate from raw counters.
    ///
    /// # Panics
    ///
    /// Panics if `instructions` or `cycles` is non-positive.
    pub fn from_inputs(i: &UslInputs) -> Self {
        assert!(i.instructions > 0.0, "instruction count must be positive");
        assert!(i.cycles > 0.0, "cycle count must be positive");
        let loads_per_cycle = i.loads / i.cycles;
        let spectre = i.branches * i.branch_resolution_cycles * loads_per_cycle;
        let spot = i.dtlb_misses * i.avg_walk_cycles * loads_per_cycle;
        Self {
            branch_fraction: i.branches / i.instructions,
            dtlb_miss_fraction: i.dtlb_misses / i.instructions,
            spectre_usl_fraction: spectre / i.instructions,
            spot_usl_fraction: spot / i.instructions,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn paperish_inputs() -> UslInputs {
        // Shaped after Table VII's geomean: 5.87 % branches, 0.25 % misses,
        // 81-cycle walks, 20-cycle branch resolution.
        UslInputs {
            instructions: 1e9,
            branches: 5.87e7,
            loads: 3.3e8,
            cycles: 2.4e9,
            dtlb_misses: 2.5e6,
            avg_walk_cycles: 81.0,
            branch_resolution_cycles: 20.0,
        }
    }

    #[test]
    fn fractions_match_hand_computation() {
        let e = UslEstimate::from_inputs(&paperish_inputs());
        assert!((e.branch_fraction - 0.0587).abs() < 1e-6);
        assert!((e.dtlb_miss_fraction - 0.0025).abs() < 1e-9);
        let lpc = 3.3e8 / 2.4e9;
        assert!((e.spectre_usl_fraction - 5.87e7 * 20.0 * lpc / 1e9).abs() < 1e-9);
        assert!((e.spot_usl_fraction - 2.5e6 * 81.0 * lpc / 1e9).abs() < 1e-9);
    }

    #[test]
    fn paper_shape_spot_well_below_spectre() {
        let e = UslEstimate::from_inputs(&paperish_inputs());
        assert!(e.spot_usl_fraction < e.spectre_usl_fraction);
        assert!(
            e.spectre_usl_fraction / e.spot_usl_fraction > 3.0,
            "paper reports ~16.5% vs ~2.9%"
        );
    }

    #[test]
    fn heavy_missing_workload_can_flip_the_balance() {
        let mut i = paperish_inputs();
        i.dtlb_misses = 1e8; // 10% miss fraction
        let e = UslEstimate::from_inputs(&i);
        assert!(e.spot_usl_fraction >= e.spectre_usl_fraction);
    }

    #[test]
    #[should_panic(expected = "must be positive")]
    fn zero_instructions_rejected() {
        let mut i = paperish_inputs();
        i.instructions = 0.0;
        let _ = UslEstimate::from_inputs(&i);
    }
}
