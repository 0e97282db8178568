//! The metrics registry: named monotonic counters and log2-bucketed
//! histograms. Every emitted event auto-increments the counter named after
//! the event, so a registry is a complete census of a trace even when the
//! ring sink has dropped records.

use std::collections::BTreeMap;

/// Number of buckets in a [`Log2Histogram`]: bucket 0 holds value 0, bucket
/// `k` holds values with `floor(log2(v)) == k - 1`, i.e. `[2^(k-1), 2^k)`.
pub(crate) const LOG2_BUCKETS: usize = 65;

/// A fixed-size power-of-two histogram for simulated latencies and sizes.
///
/// Recording is branch-light (`leading_zeros` + two adds) and allocation
/// free; the whole histogram is a flat array so registries stay cheap to
/// clone and compare.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Log2Histogram {
    buckets: [u64; LOG2_BUCKETS],
    count: u64,
    sum: u64,
    max: u64,
}

impl Default for Log2Histogram {
    fn default() -> Self {
        Log2Histogram {
            buckets: [0; LOG2_BUCKETS],
            count: 0,
            sum: 0,
            max: 0,
        }
    }
}

impl Log2Histogram {
    /// An empty histogram.
    pub fn new() -> Self {
        Self::default()
    }

    /// Index of the bucket `value` falls into.
    pub(crate) fn bucket_of(value: u64) -> usize {
        if value == 0 {
            0
        } else {
            (64 - value.leading_zeros()) as usize
        }
    }

    /// Records one observation.
    pub fn observe(&mut self, value: u64) {
        self.buckets[Self::bucket_of(value)] += 1;
        self.count += 1;
        self.sum = self.sum.saturating_add(value);
        self.max = self.max.max(value);
    }

    /// Adds every observation of `other` to this histogram.
    pub(crate) fn merge(&mut self, other: &Log2Histogram) {
        for (mine, theirs) in self.buckets.iter_mut().zip(&other.buckets) {
            *mine += theirs;
        }
        self.count += other.count;
        self.sum = self.sum.saturating_add(other.sum);
        self.max = self.max.max(other.max);
    }

    /// Total number of observations.
    pub fn count(&self) -> u64 {
        self.count
    }

    /// Sum of all observations (saturating).
    pub fn sum(&self) -> u64 {
        self.sum
    }

    /// Largest observation, 0 if empty.
    pub fn max(&self) -> u64 {
        self.max
    }

    /// Mean observation, 0.0 if empty.
    pub fn mean(&self) -> f64 {
        if self.count == 0 {
            0.0
        } else {
            self.sum as f64 / self.count as f64
        }
    }

    /// Non-empty buckets as `(lower_bound, count)` pairs, ascending.
    pub fn nonzero(&self) -> Vec<(u64, u64)> {
        self.buckets
            .iter()
            .enumerate()
            .filter(|(_, &c)| c > 0)
            .map(|(i, &c)| (if i == 0 { 0 } else { 1u64 << (i - 1) }, c))
            .collect()
    }
}

/// A registry of named counters and histograms.
///
/// Names are dotted `subsystem.metric` strings, matching the event taxonomy
/// (`buddy.alloc`, `recovery.reclaim_pass`, …). Lookups borrow the name, so
/// steady-state updates never allocate: a `String` is built only the first
/// time a name appears.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct MetricsRegistry {
    counters: BTreeMap<String, u64>,
    histograms: BTreeMap<String, Log2Histogram>,
}

impl MetricsRegistry {
    /// An empty registry.
    pub fn new() -> Self {
        Self::default()
    }

    /// Adds `delta` to the counter `name`, creating it at 0 first.
    pub(crate) fn add(&mut self, name: &str, delta: u64) {
        if let Some(c) = self.counters.get_mut(name) {
            *c += delta;
        } else {
            self.counters.insert(name.to_owned(), delta);
        }
    }

    /// Records `value` into the histogram `name`, creating it first.
    pub fn observe(&mut self, name: &str, value: u64) {
        if let Some(h) = self.histograms.get_mut(name) {
            h.observe(value);
        } else {
            let mut h = Log2Histogram::new();
            h.observe(value);
            self.histograms.insert(name.to_owned(), h);
        }
    }

    /// Pre-registers the histogram `name` with zero samples (no-op if it
    /// exists). Histograms normally spring into existence on first observe,
    /// which makes "this stage never fired" invisible in reports;
    /// declaring lets them render as explicit zero rows.
    pub(crate) fn declare_histogram(&mut self, name: &str) {
        if !self.histograms.contains_key(name) {
            self.histograms.insert(name.to_owned(), Log2Histogram::new());
        }
    }

    /// Current value of the counter `name` (0 if never touched).
    pub fn counter(&self, name: &str) -> u64 {
        self.counters.get(name).copied().unwrap_or(0)
    }

    /// All counters, name-sorted.
    pub fn counters(&self) -> impl Iterator<Item = (&str, u64)> {
        self.counters.iter().map(|(k, &v)| (k.as_str(), v))
    }

    /// The histogram `name`, if any value was ever observed under it. Only
    /// tests look one up by name; reports iterate [`Self::histograms`].
    #[cfg(test)]
    pub(crate) fn histogram(&self, name: &str) -> Option<&Log2Histogram> {
        self.histograms.get(name)
    }

    /// All histograms, name-sorted.
    pub fn histograms(&self) -> impl Iterator<Item = (&str, &Log2Histogram)> {
        self.histograms.iter().map(|(k, v)| (k.as_str(), v))
    }

    /// Adds every observation of `hist` to the histogram `name`, creating it
    /// first.
    pub(crate) fn merge_histogram(&mut self, name: &str, hist: &Log2Histogram) {
        match self.histograms.get_mut(name) {
            Some(mine) => mine.merge(hist),
            None => {
                self.histograms.insert(name.to_owned(), hist.clone());
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn histogram_buckets_are_powers_of_two() {
        assert_eq!(Log2Histogram::bucket_of(0), 0);
        assert_eq!(Log2Histogram::bucket_of(1), 1);
        assert_eq!(Log2Histogram::bucket_of(2), 2);
        assert_eq!(Log2Histogram::bucket_of(3), 2);
        assert_eq!(Log2Histogram::bucket_of(4), 3);
        assert_eq!(Log2Histogram::bucket_of(1024), 11);
        assert_eq!(Log2Histogram::bucket_of(u64::MAX), 64);
        let mut h = Log2Histogram::new();
        h.observe(0);
        h.observe(3);
        h.observe(1500);
        assert_eq!(h.count(), 3);
        assert_eq!(h.sum(), 1503);
        assert_eq!(h.max(), 1500);
        assert_eq!(h.nonzero(), vec![(0, 1), (2, 1), (1024, 1)]);
    }

    #[test]
    fn registry_counts_and_observes() {
        let mut a = MetricsRegistry::new();
        a.add("buddy.alloc", 2);
        a.add("buddy.alloc", 3);
        a.observe("mm.fault_ns", 1500);
        a.observe("mm.fault_ns", 2500);
        assert_eq!(a.counter("buddy.alloc"), 5);
        assert_eq!(a.counter("missing"), 0);
        let h = a.histogram("mm.fault_ns").unwrap();
        assert_eq!(h.count(), 2);
        assert_eq!(h.sum(), 4000);
    }
}
