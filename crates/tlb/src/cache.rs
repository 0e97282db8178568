//! A generic set-associative cache with LRU replacement, used for every TLB
//! structure in the hierarchy.

use std::ops::Range;

/// One way of one set, packed to 16 bytes so a four-way set is one cache
/// line. `tick == 0` marks the way empty: the LRU clock is bumped before
/// every store, so an occupied way's tick is at least 1 and an empty way
/// sorts below every occupied one when a victim is chosen.
#[derive(Clone, Copy, Debug)]
struct Slot {
    key: u64,
    tick: u64,
}

const EMPTY: Slot = Slot { key: 0, tick: 0 };

impl Slot {
    #[inline]
    fn holds(&self, key: u64) -> bool {
        self.key == key && self.tick != 0
    }
}

/// A set-associative, LRU-replaced cache over opaque `u64` keys.
///
/// # Examples
///
/// ```
/// use contig_tlb::SetAssocCache;
///
/// let mut c = SetAssocCache::new(4, 2); // 4 entries, 2-way -> 2 sets
/// assert!(!c.access(10));
/// c.fill(10);
/// assert!(c.access(10));
/// ```
#[derive(Clone, Debug)]
pub struct SetAssocCache {
    sets: usize,
    ways: usize,
    /// `sets - 1` when `sets` is a power of two, and the set index is then
    /// `key & mask`; `None` for the scaled geometries whose set count is
    /// not one, which index by `key % sets`. Both name the same set.
    mask: Option<u64>,
    /// `sets * ways` slots, set by set.
    slots: Vec<Slot>,
    tick: u64,
    hits: u64,
    misses: u64,
}

impl SetAssocCache {
    /// A cache of `entries` total entries organized into `ways`-way sets.
    ///
    /// # Panics
    ///
    /// Panics if `entries` is not a positive multiple of `ways`.
    pub fn new(entries: usize, ways: usize) -> Self {
        assert!(ways > 0 && entries > 0, "cache must have entries");
        assert!(entries.is_multiple_of(ways), "{entries} entries not divisible into {ways} ways");
        let sets = entries / ways;
        let mask = sets.is_power_of_two().then(|| sets as u64 - 1);
        Self { sets, ways, mask, slots: vec![EMPTY; entries], tick: 0, hits: 0, misses: 0 }
    }

    /// The slot indices of `key`'s set.
    #[inline]
    fn set_of(&self, key: u64) -> Range<usize> {
        let set = match self.mask {
            Some(mask) => key & mask,
            None => key % self.sets as u64,
        };
        let base = set as usize * self.ways;
        base..base + self.ways
    }

    /// Looks up `key`, refreshing its recency on a hit.
    #[inline]
    pub fn access(&mut self, key: u64) -> bool {
        self.access_slot(key).is_some()
    }

    /// [`SetAssocCache::access`], naming the slot it hit so that the
    /// caller can [`SetAssocCache::hit_again`] it without a probe.
    #[inline]
    pub(crate) fn access_slot(&mut self, key: u64) -> Option<usize> {
        self.tick += 1;
        let set = self.set_of(key);
        match self.slots[set.clone()].iter().position(|s| s.holds(key)) {
            Some(way) => {
                let slot = set.start + way;
                self.slots[slot].tick = self.tick;
                self.hits += 1;
                Some(slot)
            }
            None => {
                self.misses += 1;
                None
            }
        }
    }

    /// Exactly what `n` more accesses of the key `slot` holds do: each
    /// bumps the clock and stamps the slot, so only the last stamp stays.
    #[inline]
    pub(crate) fn hit_again(&mut self, slot: usize, n: u64) {
        self.tick += n;
        self.slots[slot].tick = self.tick;
        self.hits += n;
    }

    /// Exactly what `n` more accesses of an absent key do.
    #[inline]
    pub(crate) fn miss_again(&mut self, n: u64) {
        self.tick += n;
        self.misses += n;
    }

    /// Whether `key` is cached, without touching recency or counters.
    pub fn peek(&self, key: u64) -> bool {
        self.slots[self.set_of(key)].iter().any(|s| s.holds(key))
    }

    /// Inserts `key`, evicting the LRU way of its set if needed. Inserting a
    /// present key refreshes it.
    // Out of line on purpose: whether LLVM inlines it into the three fills
    // of `MemorySim::walk` flips with unrelated edits to this crate (no LTO),
    // and inlined there it cost `translation_replay` 1–3 % of events/s.
    #[inline(never)]
    pub fn fill(&mut self, key: u64) {
        self.tick += 1;
        let set = self.set_of(key);
        let set = &mut self.slots[set];
        // Refresh when present; else the first empty way, else the LRU
        // victim (`min_by_key` breaks ties towards the lowest way).
        let way = set
            .iter()
            .position(|s| s.holds(key))
            .or_else(|| (0..set.len()).min_by_key(|&w| set[w].tick))
            .expect("set has ways");
        set[way] = Slot { key, tick: self.tick };
    }

    /// Drops every entry.
    pub fn flush(&mut self) {
        self.slots.fill(EMPTY);
    }

    /// `(hits, misses)` since construction.
    pub fn stats(&self) -> (u64, u64) {
        (self.hits, self.misses)
    }

    /// Captures the cache as plain data (geometry, every slot with its
    /// recency tick, and the counters) for a crash-consistency checkpoint.
    pub fn snapshot(&self) -> CacheSnapshot {
        CacheSnapshot {
            sets: self.sets as u64,
            ways: self.ways as u64,
            slots: self.slots.iter().map(|s| (s.tick != 0).then_some((s.key, s.tick))).collect(),
            tick: self.tick,
            hits: self.hits,
            misses: self.misses,
        }
    }

}

contig_types::wire_struct! {
    /// Plain-data image of a [`SetAssocCache`].
    #[derive(Clone, Debug, PartialEq, Eq)]
    pub struct CacheSnapshot {
        /// Number of sets.
        pub sets: u64,
        /// Associativity.
        pub ways: u64,
        /// Every slot: `(key, last-touch tick)` or empty.
        pub slots: Vec<Option<(u64, u64)>>,
        /// The LRU clock.
        pub tick: u64,
        /// Hits since construction.
        pub hits: u64,
        /// Misses since construction.
        pub misses: u64,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn lru_evicts_least_recent_within_set() {
        let mut c = SetAssocCache::new(2, 2);
        c.fill(1);
        c.fill(2);
        assert!(c.access(1)); // 1 now most recent
        c.fill(3); // evicts 2
        assert!(c.peek(1));
        assert!(!c.peek(2));
        assert!(c.peek(3));
    }

    #[test]
    fn sets_isolate_conflicts() {
        let mut c = SetAssocCache::new(4, 2); // sets: keys mod 2
        c.fill(0);
        c.fill(2);
        c.fill(4); // evicts 0 (set 0 LRU)
        assert!(!c.peek(0));
        assert!(c.peek(2));
        assert!(c.peek(4));
        c.fill(1); // set 1 untouched by the above
        assert!(c.peek(1));
    }

    #[test]
    fn refill_refreshes_instead_of_duplicating() {
        let mut c = SetAssocCache::new(2, 2);
        c.fill(7);
        c.fill(7);
        c.fill(8);
        assert!(c.peek(7));
        assert!(c.peek(8));
    }

    #[test]
    fn flush_drops_every_entry() {
        let mut c = SetAssocCache::new(8, 4);
        for k in 0..8 {
            c.fill(k);
        }
        c.flush();
        for k in 0..8 {
            assert!(!c.peek(k));
        }
    }

    #[test]
    fn stats_count_hits_and_misses() {
        let mut c = SetAssocCache::new(2, 1);
        c.access(5);
        c.fill(5);
        c.access(5);
        assert_eq!(c.stats(), (1, 1));
    }

    #[test]
    #[should_panic(expected = "not divisible")]
    fn bad_geometry_panics() {
        let _ = SetAssocCache::new(10, 4);
    }
}
