//! Property-based tests of Table I's two counts: vRMM ranges and vHC anchor
//! entries, both taken largest first up to the coverage goal by
//! [`CoverageStats::mappings_for_coverage`].

use proptest::prelude::*;

use contig_baselines::{anchor_distance_pages, anchor_entries};
use contig_metrics::CoverageStats;
use contig_types::{ContigMapping, PhysAddr, VirtAddr};

/// Table I's two counts at `coverage`: (ranges, anchor entries).
fn counts(mappings: &[ContigMapping], coverage: f64) -> (usize, usize) {
    let anchors = anchor_entries(mappings, anchor_distance_pages(mappings));
    (
        CoverageStats::from_mappings(mappings).mappings_for_coverage(coverage),
        CoverageStats::from_lens(anchors).mappings_for_coverage(coverage),
    )
}

fn arb_mappings() -> impl Strategy<Value = Vec<ContigMapping>> {
    proptest::collection::vec((0u64..1 << 20, 1u64..1 << 14), 1..40).prop_map(|specs| {
        let mut mappings = Vec::new();
        let mut va = 0x1_0000_0000u64;
        for (gap_pages, len_pages) in specs {
            va += gap_pages * 4096;
            mappings.push(ContigMapping::new(
                VirtAddr::new(va),
                PhysAddr::new(va / 2),
                len_pages * 4096,
            ));
            va += len_pages * 4096;
        }
        mappings
    })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// vHC never beats vRMM: anchors (plus ordinary head entries) always
    /// number at least as many as ranges for the same coverage goal —
    /// the structural fact behind Table I.
    #[test]
    fn anchors_never_beat_ranges(mappings in arb_mappings(), coverage in 0.1f64..1.0) {
        let (ranges, anchors) = counts(&mappings, coverage);
        prop_assert!(anchors >= ranges, "anchors {anchors} < ranges {ranges}");
    }

    /// Entry counts shrink monotonically as the coverage goal relaxes.
    #[test]
    fn coverage_goal_monotonicity(mappings in arb_mappings()) {
        let mut prev = (usize::MAX, usize::MAX);
        for q in [1.0, 0.99, 0.9, 0.5, 0.1] {
            let (r, a) = counts(&mappings, q);
            prop_assert!(r <= prev.0);
            prop_assert!(a <= prev.1);
            prev = (r, a);
        }
    }
}

#[test]
fn vhc_needs_far_more_entries_than_vrmm_on_unaligned_contiguity() {
    // The Table I shape: a few vast unaligned mappings.
    let maps: Vec<_> = (0..10u64)
        .map(|i| {
            let va = (i << 32) + (3 << 20);
            ContigMapping::new(VirtAddr::new(va), PhysAddr::new(va + 0x1_0000_0000), 1 << 30)
        })
        .collect();
    let (ranges, anchors) = counts(&maps, 0.99);
    assert_eq!(ranges, 10);
    assert!(anchors >= ranges * 4, "anchors {anchors} should dwarf ranges {ranges}");
}
