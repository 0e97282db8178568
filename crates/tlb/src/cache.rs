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
        Self::with_slots(entries / ways, ways, vec![EMPTY; entries])
    }

    fn with_slots(sets: usize, ways: usize, slots: Vec<Slot>) -> Self {
        let mask = sets.is_power_of_two().then(|| sets as u64 - 1);
        Self { sets, ways, mask, slots, tick: 0, hits: 0, misses: 0 }
    }

    /// A fully-associative cache of `entries` entries.
    pub fn fully_associative(entries: usize) -> Self {
        Self::new(entries, entries)
    }

    /// Number of sets.
    pub fn sets(&self) -> usize {
        self.sets
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

    /// Removes `key` if present (TLB shootdown), returning whether it was.
    pub fn invalidate(&mut self, key: u64) -> bool {
        let set = self.set_of(key);
        match self.slots[set].iter_mut().find(|s| s.holds(key)) {
            Some(slot) => {
                *slot = EMPTY;
                true
            }
            None => false,
        }
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

    /// Rebuilds a cache from a checkpoint: identical lookup/eviction
    /// behaviour from the captured state onward.
    ///
    /// # Errors
    ///
    /// Whatever `CacheSnapshot::validate` finds.
    pub fn from_snapshot(snap: &CacheSnapshot) -> Result<Self, String> {
        snap.validate()?;
        let slots = snap
            .slots
            .iter()
            .map(|slot| slot.map_or(EMPTY, |(key, tick)| Slot { key, tick }))
            .collect();
        Ok(Self {
            tick: snap.tick,
            hits: snap.hits,
            misses: snap.misses,
            ..Self::with_slots(snap.sets as usize, snap.ways as usize, slots)
        })
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
    } => CacheSnapshot::validate
}

impl CacheSnapshot {
    /// Checks that some cache can have produced this image, so that a
    /// decoded one restores without panicking.
    ///
    /// # Errors
    ///
    /// Describes the first inconsistency: no sets or no ways, a slot count
    /// that is not `sets * ways` (or a product that overflows), an occupied
    /// slot with tick 0 (which is how an empty way is stored), a tick above
    /// the clock, a key outside its own set, one tick stored twice (the
    /// clock is bumped before every store) or one key held twice.
    pub(crate) fn validate(&self) -> Result<(), String> {
        let sets = usize::try_from(self.sets).unwrap_or(0);
        let ways = usize::try_from(self.ways).unwrap_or(0);
        if sets == 0 || ways == 0 || sets.checked_mul(ways) != Some(self.slots.len()) {
            return Err(format!(
                "cache geometry {} sets x {} ways does not describe {} slots",
                self.sets,
                self.ways,
                self.slots.len()
            ));
        }
        let mut ticks = Vec::new();
        let mut keys = Vec::new();
        for (i, slot) in self.slots.iter().enumerate() {
            let Some((key, tick)) = *slot else { continue };
            if tick == 0 {
                return Err(format!("cache slot {i} is occupied with tick 0"));
            }
            if tick > self.tick {
                return Err(format!("cache slot {i} has tick {tick} above the clock {}", self.tick));
            }
            // `key & mask` and `key % sets` name the same set.
            if key % self.sets != (i / ways) as u64 {
                return Err(format!("cache slot {i} holds key {key} of set {}", key % self.sets));
            }
            ticks.push((tick, i));
            keys.push((key, i));
        }
        ticks.sort_unstable();
        if let Some(w) = ticks.windows(2).find(|w| w[0].0 == w[1].0) {
            return Err(format!("cache slots {} and {} share tick {}", w[0].1, w[1].1, w[0].0));
        }
        // Every key is in its own set by now, so a repeat is within one set.
        keys.sort_unstable();
        if let Some(w) = keys.windows(2).find(|w| w[0].0 == w[1].0) {
            return Err(format!("cache slots {} and {} both hold key {}", w[0].1, w[1].1, w[0].0));
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn lru_evicts_least_recent_within_set() {
        let mut c = SetAssocCache::fully_associative(2);
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
        let mut c = SetAssocCache::fully_associative(2);
        c.fill(7);
        c.fill(7);
        c.fill(8);
        assert!(c.peek(7));
        assert!(c.peek(8));
    }

    #[test]
    fn invalidate_and_flush() {
        let mut c = SetAssocCache::new(8, 4);
        for k in 0..8 {
            c.fill(k);
        }
        assert!(c.invalidate(3));
        assert!(!c.invalidate(3));
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
    fn from_snapshot_rejects_images_no_cache_produced() {
        let image = |sets, ways, slots: Vec<Option<(u64, u64)>>| CacheSnapshot {
            sets,
            ways,
            slots,
            tick: 9,
            hits: 0,
            misses: 0,
        };
        for (bad, why) in [
            (image(0, 0, vec![]), "0 sets x 0 ways"),
            (image(0, 4, vec![]), "0 sets x 4 ways"),
            (image(1, 0, vec![]), "1 sets x 0 ways"),
            (image(2, 2, vec![None; 3]), "does not describe 3 slots"),
            // 2^63 * 2 wraps to 0, the slot count.
            (image(1 << 63, 2, vec![]), "does not describe 0 slots"),
            (image(u64::MAX, u64::MAX, vec![None]), "does not describe 1 slots"),
            (image(1, 2, vec![Some((5, 1)), Some((7, 0))]), "slot 1 is occupied with tick 0"),
            (image(1, 2, vec![None, Some((7, 10))]), "slot 1 has tick 10 above the clock 9"),
            (image(1, 2, vec![Some((5, 4)), Some((7, 4))]), "slots 0 and 1 share tick 4"),
            (image(1, 2, vec![Some((5, 4)), Some((5, 6))]), "slots 0 and 1 both hold key 5"),
            (
                image(2, 2, vec![Some((4, 1)), None, Some((7, 2)), Some((7, 3))]),
                "slots 2 and 3 both hold key 7",
            ),
            // 5 is odd: set 1 by `key & 1` with two sets, set 2 by `% 3`.
            (image(2, 1, vec![Some((5, 1)), None]), "slot 0 holds key 5 of set 1"),
            (image(3, 1, vec![None, Some((5, 1)), None]), "slot 1 holds key 5 of set 2"),
        ] {
            let err = SetAssocCache::from_snapshot(&bad).unwrap_err();
            assert!(err.contains(why), "{err}");
        }
        let mut ok = SetAssocCache::from_snapshot(&image(1, 2, vec![Some((5, 1)), None])).unwrap();
        assert!(ok.access(5) && !ok.access(7));
    }

    #[test]
    #[should_panic(expected = "not divisible")]
    fn bad_geometry_panics() {
        let _ = SetAssocCache::new(10, 4);
    }
}
