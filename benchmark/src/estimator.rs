//! The floor estimator and the percentile arithmetic every host-time number
//! goes through.
//!
//! The simulator is deterministic, so batch `i` does identical work in every
//! repetition and any difference between repetitions is the box, not the
//! program. Taking the per-batch minimum over repetitions removes most of
//! that noise; everything reported as host time is computed from that
//! floored series. All values are `u64` fixed-point in millionths
//! ("micro") of their unit so the result files stay integer-only.

/// Millionths per unit: the fixed-point scale of every reported value.
pub const MICRO: u128 = 1_000_000;

/// Fewest samples that must lie beyond a reported tail percentile.
pub const MIN_TAIL_SAMPLES: usize = 10;

/// Per-batch minimum over repetitions.
///
/// # Panics
///
/// Panics if there are no repetitions or they disagree on the batch count —
/// both are harness bugs, not data.
pub fn floor_series(reps: &[Vec<u64>]) -> Vec<u64> {
    let first = reps.first().expect("at least one repetition");
    assert!(
        reps.iter().all(|r| r.len() == first.len()),
        "repetitions disagree on batch count"
    );
    (0..first.len())
        .map(|i| reps.iter().map(|r| r[i]).min().expect("non-empty"))
        .collect()
}

/// Zero-based index of the `pct`-th percentile in a sorted series of `n`
/// samples (nearest-rank: the smallest value with at least `pct` % of the
/// samples at or below it).
pub fn percentile_index(n: usize, pct: usize) -> usize {
    assert!(
        n > 0 && pct <= 100,
        "percentile of an empty series or pct > 100"
    );
    (n * pct).div_ceil(100).max(1) - 1
}

/// How many samples lie strictly beyond the `pct`-th percentile's rank.
pub fn samples_beyond(n: usize, pct: usize) -> usize {
    n - 1 - percentile_index(n, pct)
}

/// The `pct`-th percentile of an unsorted series.
pub fn percentile(values: &[u64], pct: usize) -> u64 {
    let mut sorted = values.to_vec();
    sorted.sort_unstable();
    sorted[percentile_index(sorted.len(), pct)]
}

/// The median (lower middle for even counts, so it is always a sample).
pub fn median(values: &[u64]) -> u64 {
    percentile(values, 50)
}

/// `|a - b| / b` in parts per million, saturating; 0 when `b` is 0.
pub fn spread_ppm(a: u64, b: u64) -> u64 {
    if b == 0 {
        return 0;
    }
    u64::try_from(u128::from(a.abs_diff(b)) * MICRO / u128::from(b)).unwrap_or(u64::MAX)
}

/// Host-time figures of one timed series (`ns[i]` spent on `events[i]`).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct SeriesStats {
    /// Events per second of host time, in millionths.
    pub events_per_s: u64,
    /// Median over batches of nanoseconds per event, in millionths.
    pub p50_ns_per_event: u64,
    /// 95th percentile of the same series, in millionths.
    pub p95_ns_per_event: u64,
}

/// Throughput and per-batch percentiles of one series.
///
/// # Panics
///
/// Panics on mismatched lengths, an empty series, or a batch without events.
pub fn series_stats(ns: &[u64], events: &[u64]) -> SeriesStats {
    assert_eq!(ns.len(), events.len(), "one event count per batch");
    let total_ns: u128 = ns.iter().map(|&n| u128::from(n)).sum();
    let total_events: u128 = events.iter().map(|&e| u128::from(e)).sum();
    let per_event: Vec<u64> = ns
        .iter()
        .zip(events)
        .map(|(&n, &e)| {
            assert!(e > 0, "a batch without events");
            u64::try_from(u128::from(n) * MICRO / u128::from(e)).expect("ns/event fits u64")
        })
        .collect();
    SeriesStats {
        events_per_s: u64::try_from(total_events * 1_000_000_000 * MICRO / total_ns.max(1))
            .expect("events/s fits u64"),
        p50_ns_per_event: percentile(&per_event, 50),
        p95_ns_per_event: percentile(&per_event, 95),
    }
}

/// A floored value beside the median repetition's value.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct Estimate {
    /// Value computed from the per-batch floor over repetitions.
    pub floor: u64,
    /// Median over repetitions of the same figure computed per repetition.
    pub median: u64,
}

impl Estimate {
    /// An exact figure: no repetition noise to report.
    pub fn exact(value: u64) -> Self {
        Self {
            floor: value,
            median: value,
        }
    }
}

/// Floors the repetitions and pairs every figure with its median-repetition
/// counterpart. Returns `(events_per_s, p50, p95)`.
pub fn estimate(reps: &[Vec<u64>], events: &[u64]) -> [Estimate; 3] {
    let floor = series_stats(&floor_series(reps), events);
    let per_rep: Vec<SeriesStats> = reps.iter().map(|r| series_stats(r, events)).collect();
    let med = |f: fn(&SeriesStats) -> u64| median(&per_rep.iter().map(f).collect::<Vec<_>>());
    [
        Estimate {
            floor: floor.events_per_s,
            median: med(|s| s.events_per_s),
        },
        Estimate {
            floor: floor.p50_ns_per_event,
            median: med(|s| s.p50_ns_per_event),
        },
        Estimate {
            floor: floor.p95_ns_per_event,
            median: med(|s| s.p95_ns_per_event),
        },
    ]
}

/// Floor and median of a once-per-repetition duration (set-up time).
pub fn estimate_scalar(values: &[u64]) -> Estimate {
    Estimate {
        floor: *values.iter().min().expect("at least one repetition"),
        median: median(values),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn floor_takes_the_per_batch_minimum() {
        let reps = vec![vec![10, 50, 30], vec![12, 20, 35], vec![11, 25, 29]];
        assert_eq!(floor_series(&reps), vec![10, 20, 29]);
    }

    #[test]
    fn p95_of_200_batches_leaves_ten_beyond() {
        assert_eq!(percentile_index(200, 95), 189);
        assert_eq!(samples_beyond(200, 95), MIN_TAIL_SAMPLES);
        assert_eq!(samples_beyond(240, 95), 12);
        assert!(samples_beyond(199, 95) < MIN_TAIL_SAMPLES);
        assert_eq!(percentile_index(1, 95), 0);
        assert_eq!(percentile_index(200, 50), 99);
    }

    #[test]
    fn percentile_is_nearest_rank() {
        let v: Vec<u64> = (1..=200).rev().collect();
        assert_eq!(percentile(&v, 95), 190);
        assert_eq!(median(&v), 100);
        assert_eq!(percentile(&[7], 95), 7);
    }

    #[test]
    fn series_stats_are_fixed_point() {
        // 4 events in 2000 ns -> 2e6 events/s; 500 ns/event in every batch.
        let s = series_stats(&[1000, 1000], &[2, 2]);
        assert_eq!(s.events_per_s, 2_000_000 * 1_000_000);
        assert_eq!(s.p50_ns_per_event, 500 * 1_000_000);
        assert_eq!(s.p95_ns_per_event, 500 * 1_000_000);
    }

    #[test]
    fn estimate_reports_floor_and_median_repetition() {
        let events = [1, 1];
        let reps = vec![vec![100, 300], vec![200, 100], vec![400, 400]];
        let [eps, p50, _] = estimate(&reps, &events);
        // Floor series is [100, 100]: 2 events / 200 ns.
        assert_eq!(eps.floor, 10_000_000 * 1_000_000);
        // Per-repetition throughputs are 2/400, 2/300, 2/800 ns; the median is 2/400.
        assert_eq!(eps.median, 5_000_000 * 1_000_000);
        assert_eq!(spread_ppm(eps.median, eps.floor), 500_000);
        assert_eq!(p50.floor, 100 * 1_000_000);
    }

    #[test]
    fn spread_is_relative_to_the_floor() {
        assert_eq!(spread_ppm(110, 100), 100_000);
        assert_eq!(spread_ppm(90, 100), 100_000);
        assert_eq!(spread_ppm(5, 0), 0);
        assert_eq!(
            estimate_scalar(&[30, 10, 20]),
            Estimate {
                floor: 10,
                median: 20
            }
        );
    }
}
