//! Contiguity coverage metrics: the paper's three headline numbers
//! (§VI-A) — footprint coverage of the 32 and 128 largest mappings, and the
//! number of mappings needed to cover 99 % of the footprint.

use contig_types::ContigMapping;

/// Coverage statistics of one set of contiguous mappings.
///
/// # Examples
///
/// ```
/// use contig_metrics::CoverageStats;
/// use contig_types::{ContigMapping, PhysAddr, VirtAddr};
///
/// let maps = vec![
///     ContigMapping::new(VirtAddr::new(0), PhysAddr::new(0x10_0000), 99 << 20),
///     ContigMapping::new(VirtAddr::new(1 << 30), PhysAddr::new(0x90_0000), 1 << 20),
/// ];
/// let c = CoverageStats::from_mappings(&maps);
/// assert_eq!(c.mappings_for_coverage(0.99), 1);
/// assert!((c.top_k_coverage(1) - 0.99).abs() < 1e-9);
/// ```
#[derive(Clone, Debug, PartialEq)]
pub struct CoverageStats {
    /// Mapping lengths in bytes, sorted descending.
    lens: Vec<u64>,
    total: u64,
}

impl CoverageStats {
    /// Computes the statistics from a mapping set.
    pub fn from_mappings(mappings: &[ContigMapping]) -> Self {
        Self::from_lens(mappings.iter().map(ContigMapping::len).collect())
    }

    /// Computes the statistics from the byte lengths of any set of entries
    /// that partitions a footprint: mappings, or vHC's anchor entries
    /// (Table I).
    pub fn from_lens(mut lens: Vec<u64>) -> Self {
        lens.sort_unstable_by_key(|&l| std::cmp::Reverse(l));
        let total = lens.iter().sum();
        Self { lens, total }
    }

    /// Total mapped bytes.
    pub fn total_bytes(&self) -> u64 {
        self.total
    }

    /// Bytes covered by the `k` largest mappings.
    pub fn top_k_bytes(&self, k: usize) -> u64 {
        self.lens.iter().take(k).sum()
    }

    /// Fraction of the footprint covered by the `k` largest mappings.
    pub fn top_k_coverage(&self, k: usize) -> f64 {
        fraction(self.top_k_bytes(k), self.total)
    }

    /// Smallest number of entries covering at least `coverage` of the
    /// footprint, largest first (0 for an empty footprint): the one coverage
    /// count, behind n99 and both of Table I's columns.
    ///
    /// # Panics
    ///
    /// Panics if `coverage` is outside `(0, 1]`.
    pub fn mappings_for_coverage(&self, coverage: f64) -> usize {
        assert!(coverage > 0.0 && coverage <= 1.0, "coverage {coverage} out of range");
        if self.total == 0 {
            return 0;
        }
        let goal = (self.total as f64 * coverage).ceil() as u64;
        let mut acc = 0u64;
        for (i, len) in self.lens.iter().enumerate() {
            acc += len;
            if acc >= goal {
                return i + 1;
            }
        }
        self.lens.len()
    }

    /// Length of the largest mapping.
    pub fn largest_bytes(&self) -> u64 {
        self.lens.first().copied().unwrap_or(0)
    }
}

/// `covered / total` as a coverage fraction; 0 for an empty footprint.
fn fraction(covered: u64, total: u64) -> f64 {
    if total == 0 {
        return 0.0;
    }
    covered as f64 / total as f64
}

/// A point in a contiguity timeline (Fig. 1c, Fig. 10): coverage sampled at
/// a simulated instant.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct TimelinePoint {
    /// Sample position (faults serviced, epochs run, or simulated ns —
    /// whatever the experiment sweeps).
    pub t: u64,
    /// Bytes covered by the 32 largest mappings at the sample.
    pub top32_bytes: u64,
    /// Footprint mapped so far, bytes.
    pub mapped_bytes: u64,
}

impl TimelinePoint {
    /// Top-32 coverage at the sample: [`CoverageStats::top_k_coverage`]`(32)`
    /// of the footprint it was taken from, by the same division.
    pub fn top32(&self) -> f64 {
        fraction(self.top32_bytes, self.mapped_bytes)
    }

    /// The trace event carrying this sample, for emission through a
    /// [`contig_trace::Tracer`].
    pub fn to_event(self) -> contig_trace::TraceEvent {
        contig_trace::TraceEvent::TimelinePoint {
            t: self.t,
            top32_bytes: self.top32_bytes,
            mapped_bytes: self.mapped_bytes,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use contig_types::{PhysAddr, VirtAddr};

    fn mapping(len: u64) -> ContigMapping {
        ContigMapping::new(VirtAddr::new(0x1000), PhysAddr::new(0x2000), len)
    }

    #[test]
    fn empty_footprint() {
        let c = CoverageStats::from_mappings(&[]);
        assert_eq!(c.total_bytes(), 0);
        assert_eq!(c.top_k_coverage(32), 0.0);
        assert_eq!(c.mappings_for_coverage(0.99), 0);
        assert_eq!(c.largest_bytes(), 0);
    }

    #[test]
    fn top_k_is_monotone_in_k() {
        let maps: Vec<_> = (1..=100u64).map(|i| mapping(i << 20)).collect();
        let c = CoverageStats::from_mappings(&maps);
        let mut prev = 0.0;
        for k in [1, 2, 4, 8, 32, 128] {
            let cov = c.top_k_coverage(k);
            assert!(cov >= prev);
            prev = cov;
        }
        assert!((c.top_k_coverage(1000) - 1.0).abs() < 1e-12);
    }

    #[test]
    fn mappings_for_coverage_counts_exactly() {
        // Four equal mappings: 99 % needs all four; 75 % needs three; 50 % two.
        let maps = vec![mapping(1 << 20); 4];
        let c = CoverageStats::from_mappings(&maps);
        assert_eq!(c.mappings_for_coverage(0.99), 4);
        assert_eq!(c.mappings_for_coverage(0.75), 3);
        assert_eq!(c.mappings_for_coverage(0.5), 2);
        assert_eq!(c.mappings_for_coverage(1.0), 4);
        // Largest first, whatever the input order: 98 + 1 + 1 MiB reach 98 %
        // with one entry and 99 % with two.
        let c = CoverageStats::from_lens(vec![1 << 20, 98 << 20, 1 << 20]);
        assert_eq!(c.mappings_for_coverage(0.98), 1);
        assert_eq!(c.mappings_for_coverage(0.99), 2);
        assert_eq!(c.mappings_for_coverage(1.0), 3);
    }

    #[test]
    fn skewed_distribution_favors_few_mappings() {
        let mut maps = vec![mapping(990 << 20)];
        maps.extend(std::iter::repeat_n(mapping(1 << 20), 10));
        let c = CoverageStats::from_mappings(&maps);
        assert_eq!(c.mappings_for_coverage(0.99), 1);
        assert_eq!(c.lens.len(), 11);
        assert_eq!(c.largest_bytes(), 990 << 20);
    }

    #[test]
    #[should_panic(expected = "out of range")]
    fn zero_coverage_rejected() {
        CoverageStats::from_mappings(&[]).mappings_for_coverage(0.0);
    }

    #[test]
    fn timeline_points_round_trip_through_jsonl() {
        let points = vec![
            TimelinePoint { t: 0, top32_bytes: 0, mapped_bytes: 0 },
            TimelinePoint { t: 100, top32_bytes: 4 << 20, mapped_bytes: 8 << 20 },
            TimelinePoint { t: 200, top32_bytes: 63 << 18, mapped_bytes: 16 << 20 },
            TimelinePoint { t: 300, top32_bytes: 32 << 20, mapped_bytes: 32 << 20 },
        ];
        let coverages: Vec<f64> = points.iter().map(TimelinePoint::top32).collect();
        assert_eq!(coverages, [0.0, 0.5, 0.984375, 1.0]);
        let session = contig_trace::TraceSession::ring(0);
        let tracer = session.tracer();
        for p in &points {
            tracer.emit(p.to_event());
        }
        let jsonl = contig_trace::export_jsonl(&session.records());
        let parsed = contig_trace::parse_jsonl(&jsonl).expect("exported trace must parse");
        let back: Vec<TimelinePoint> = parsed
            .iter()
            .filter_map(|r| match r.event {
                contig_trace::TraceEvent::TimelinePoint { t, top32_bytes, mapped_bytes } => {
                    Some(TimelinePoint { t, top32_bytes, mapped_bytes })
                }
                _ => None,
            })
            .collect();
        assert_eq!(back, points, "JSONL round-trip must preserve every sample exactly");
    }
}
