//! Property-based tests of the metrics: coverage statistics, geometric
//! means, and the performance model.

use proptest::prelude::*;

use contig_metrics::{geomean, CoverageStats, PerfModel};
use contig_tlb::SimReport;
use contig_types::{ContigMapping, PhysAddr, VirtAddr};

fn mappings(lens: &[u64]) -> Vec<ContigMapping> {
    lens.iter()
        .enumerate()
        .map(|(i, &len)| {
            ContigMapping::new(
                VirtAddr::new((i as u64) << 40),
                PhysAddr::new((i as u64) << 34),
                len * 4096,
            )
        })
        .collect()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(128))]

    /// Coverage is monotone in k, bounded by 1, and reaches 1 with all
    /// mappings.
    #[test]
    fn coverage_monotone_and_bounded(lens in proptest::collection::vec(1u64..10_000, 1..200)) {
        let cov = CoverageStats::from_mappings(&mappings(&lens));
        let mut prev = 0.0;
        for k in 0..=lens.len() + 2 {
            let c = cov.top_k_coverage(k);
            prop_assert!(c >= prev - 1e-12);
            prop_assert!(c <= 1.0 + 1e-12);
            prev = c;
        }
        prop_assert!((cov.top_k_coverage(lens.len()) - 1.0).abs() < 1e-12);
    }

    /// `mappings_for_coverage(q)` is the *minimal* count: taking one fewer
    /// mapping always undershoots the goal.
    #[test]
    fn mappings_for_coverage_is_minimal(
        lens in proptest::collection::vec(1u64..10_000, 1..100),
        q in 0.01f64..1.0,
    ) {
        let cov = CoverageStats::from_mappings(&mappings(&lens));
        let n = cov.mappings_for_coverage(q);
        prop_assert!(n >= 1);
        prop_assert!(n <= lens.len());
        let goal = (cov.total_bytes() as f64 * q).ceil();
        let mut sorted = lens.clone();
        sorted.sort_unstable_by_key(|&l| std::cmp::Reverse(l));
        let covered: u64 = sorted.iter().take(n).map(|l| l * 4096).sum();
        prop_assert!(covered as f64 >= goal, "{covered} < {goal}");
        if n > 1 {
            let under: u64 = sorted.iter().take(n - 1).map(|l| l * 4096).sum();
            prop_assert!((under as f64) < goal, "not minimal: {under} already covers {goal}");
        }
    }

    /// min ≤ geomean ≤ max, and the geomean is scale-equivariant.
    #[test]
    fn geomean_bounds_and_scaling(values in proptest::collection::vec(0.001f64..1e6, 1..50)) {
        let g = geomean(&values).unwrap();
        let min = values.iter().cloned().fold(f64::INFINITY, f64::min);
        let max = values.iter().cloned().fold(0.0f64, f64::max);
        prop_assert!(g >= min * 0.999 && g <= max * 1.001, "{min} <= {g} <= {max}");
        let scaled: Vec<f64> = values.iter().map(|v| v * 3.0).collect();
        let gs = geomean(&scaled).unwrap();
        prop_assert!((gs / g - 3.0).abs() < 1e-9);
    }

    /// The perf model: a scheme that hides everything reports zero overhead,
    /// and overhead is monotone in the number of exposed misses.
    #[test]
    fn perfmodel_monotone_in_exposed(
        accesses in 1_000u64..1_000_000,
        walks in 1u64..1_000,
        cycles_per_walk in 10u64..200,
    ) {
        let model = PerfModel;
        let mut prev = -1.0;
        for exposed_fraction in [0u64, 25, 50, 75, 100] {
            let exposed = walks * exposed_fraction / 100;
            let report = SimReport {
                accesses,
                walks,
                walk_cycles: walks * cycles_per_walk,
                exposed,
                hidden: walks - exposed,
                ..Default::default()
            };
            let o = model.scheme_overhead(&report);
            prop_assert!(o >= prev);
            prev = o;
        }
        prop_assert!(prev > 0.0);
    }
}
