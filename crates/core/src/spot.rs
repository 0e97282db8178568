//! SpOT: Speculative Offset-based Address Translation — the paper's hardware
//! contribution (§IV).
//!
//! SpOT sits on the last-level TLB miss path. A small PC-indexed prediction
//! table caches the `[offset, permissions]` of each memory instruction's most
//! recent walk. On a miss with a confident entry, the predicted translation
//! `spec_hPA = gVA − offset` is fed to the pipeline while the verification
//! walk runs in the background; correct predictions hide the whole walk,
//! mispredictions add a flush penalty. Confidence is a 2-bit saturating
//! counter per entry; fills are filtered by the CA-paging contiguity bit so
//! offsets without prediction potential never thrash the table.

use contig_tlb::{Access, MissHandler, MissHandling, WalkResult};
use contig_types::{MapOffset, PhysAddr, VirtAddr};

/// Geometry and behaviour of the prediction table.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct SpotConfig {
    /// Total prediction-table entries (paper: 32 in the emulation, §V), a
    /// multiple of the table's four ways.
    pub entries: usize,
    /// Only fill offsets whose walk carried the contiguity bit in every
    /// dimension (the OS filtering optimisation, §IV-C).
    pub require_contig_bit: bool,
}

impl Default for SpotConfig {
    fn default() -> Self {
        Self { entries: 32, require_contig_bit: true }
    }
}

/// Associativity of the prediction table (paper: 4-way set associative).
const WAYS: usize = 4;

/// Saturating 2-bit counter bounds.
const CONF_MAX: u8 = 3;
const CONF_INIT: u8 = 1;
/// Confidence above which predictions are issued (paper: predict when the
/// 2-bit counter is `> 1`).
const PREDICT_THRESHOLD: u8 = 1;

#[derive(Clone, Copy, Debug)]
struct SpotEntry {
    pc: u64,
    offset: MapOffset,
    write_perm: bool,
    confidence: u8,
    last_used: u64,
}

/// Outcome counters of a SpOT run (Fig. 14's breakdown).
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct SpotStats {
    /// Misses predicted correctly.
    pub correct: u64,
    /// Misses predicted incorrectly (pipeline flush).
    pub mispredicted: u64,
    /// Misses with no prediction issued (no entry or low confidence).
    pub no_prediction: u64,
    /// Table fills performed.
    pub fills: u64,
    /// Fills suppressed by the contiguity-bit filter.
    pub(crate) filtered_fills: u64,
}

impl SpotStats {
    /// Total last-level misses observed.
    pub fn total(&self) -> u64 {
        self.correct + self.mispredicted + self.no_prediction
    }

    /// Fraction of misses predicted correctly.
    pub fn correct_rate(&self) -> f64 {
        if self.total() == 0 {
            0.0
        } else {
            self.correct as f64 / self.total() as f64
        }
    }

    /// Fraction of misses mispredicted.
    pub fn mispredict_rate(&self) -> f64 {
        if self.total() == 0 {
            0.0
        } else {
            self.mispredicted as f64 / self.total() as f64
        }
    }
}

/// The SpOT prediction engine, attached to [`contig_tlb::MemorySim`] as a
/// [`MissHandler`].
///
/// # Examples
///
/// ```
/// use contig_core::{SpotConfig, SpotPredictor};
/// use contig_tlb::{Access, MissHandler, MissHandling, WalkResult};
/// use contig_types::{PageSize, PhysAddr, VirtAddr};
///
/// let mut spot = SpotPredictor::new(SpotConfig::default());
/// let walk = |va: u64| WalkResult {
///     pa: PhysAddr::new(va - 0x1000_0000), // one big contiguous mapping
///     size: PageSize::Base4K,
///     refs: 24,
///     contig: true,
///     write: true,
/// };
/// // First misses train the entry; later misses of the same instruction
/// // inside the mapping predict correctly.
/// for i in 0..4u64 {
///     let va = 0x1000_0000 + i * 0x1000_0;
///     spot.on_miss(Access::read(0x401000, VirtAddr::new(va)), &walk(va));
/// }
/// assert!(spot.stats().correct >= 1);
/// ```
#[derive(Clone, Debug)]
pub struct SpotPredictor {
    config: SpotConfig,
    sets: usize,
    slots: Vec<Option<SpotEntry>>,
    tick: u64,
    stats: SpotStats,
}

impl SpotPredictor {
    /// An empty prediction table.
    ///
    /// # Panics
    ///
    /// Panics if `entries` is not a positive multiple of the four ways.
    pub fn new(config: SpotConfig) -> Self {
        assert!(
            config.entries > 0 && config.entries.is_multiple_of(WAYS),
            "invalid prediction-table geometry {config:?}"
        );
        Self {
            config,
            sets: config.entries / WAYS,
            slots: vec![None; config.entries],
            tick: 0,
            stats: SpotStats::default(),
        }
    }

    /// Outcome counters.
    pub fn stats(&self) -> SpotStats {
        self.stats
    }

    fn set_range(&self, pc: u64) -> std::ops::Range<usize> {
        // Fibonacci-hash the PC before indexing: memory instructions of one
        // loop sit a few bytes apart, and a plain modulo would pile them all
        // into one set.
        let hashed = pc.wrapping_mul(0x9E37_79B9_7F4A_7C15) >> 32;
        let set = (hashed % self.sets as u64) as usize;
        set * WAYS..(set + 1) * WAYS
    }

    fn lookup(&mut self, pc: u64) -> Option<usize> {
        let range = self.set_range(pc);
        for i in range {
            if let Some(e) = &self.slots[i] {
                if e.pc == pc {
                    return Some(i);
                }
            }
        }
        None
    }

    /// Predicted host-physical address for `va` under entry `idx`.
    fn predict(&self, idx: usize, va: VirtAddr) -> Option<PhysAddr> {
        self.slots[idx].as_ref().and_then(|e| e.offset.try_apply(va))
    }

    /// Fill policy: an empty way, else the LRU way whose confidence reached
    /// zero. An entire set of confident entries rejects the fill.
    fn try_fill(&mut self, pc: u64, offset: MapOffset, write: bool) {
        let range = self.set_range(pc);
        let mut victim: Option<usize> = None;
        for i in range {
            match &self.slots[i] {
                None => {
                    victim = Some(i);
                    break;
                }
                Some(e) if e.confidence == 0 => {
                    if victim
                        .and_then(|v| self.slots[v].as_ref().map(|ve| e.last_used < ve.last_used))
                        .unwrap_or(true)
                    {
                        victim = Some(i);
                    }
                }
                Some(_) => {}
            }
        }
        if let Some(i) = victim {
            self.tick += 1;
            self.slots[i] = Some(SpotEntry {
                pc,
                offset,
                write_perm: write,
                confidence: CONF_INIT,
                last_used: self.tick,
            });
            self.stats.fills += 1;
        }
    }
}

impl MissHandler for SpotPredictor {
    fn on_miss(&mut self, access: Access, walk: &WalkResult) -> MissHandling {
        self.tick += 1;
        let actual = walk.pa;
        if let Some(idx) = self.lookup(access.pc) {
            let predicted = self.predict(idx, access.va);
            let entry = self.slots[idx].as_mut().expect("entry just found");
            entry.last_used = self.tick;
            let would_be_correct = predicted == Some(actual)
                && (!access.write || entry.write_perm == walk.write);
            let speculated = entry.confidence > PREDICT_THRESHOLD;
            // Confidence update happens at the end of every walk, whether or
            // not a prediction was issued (paper §IV-C).
            if would_be_correct {
                entry.confidence = (entry.confidence + 1).min(CONF_MAX);
            } else {
                entry.confidence = entry.confidence.saturating_sub(1);
                if entry.confidence == 0 {
                    // Replace the stale offset in place once confidence dies,
                    // subject to the fill filter.
                    if !self.config.require_contig_bit || walk.contig {
                        entry.offset = MapOffset::between(access.va, actual);
                        entry.write_perm = walk.write;
                        entry.confidence = CONF_INIT;
                    }
                }
            }
            if speculated {
                if would_be_correct {
                    self.stats.correct += 1;
                    return MissHandling::PredictedCorrect;
                }
                self.stats.mispredicted += 1;
                return MissHandling::Mispredicted;
            }
            self.stats.no_prediction += 1;
            return MissHandling::Exposed;
        }
        // No entry: never a prediction; fill subject to the contiguity filter.
        self.stats.no_prediction += 1;
        if self.config.require_contig_bit && !walk.contig {
            self.stats.filtered_fills += 1;
        } else {
            self.try_fill(access.pc, MapOffset::between(access.va, actual), walk.write);
        }
        MissHandling::Exposed
    }

    fn scheme_name(&self) -> &'static str {
        "SpOT"
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use contig_types::PageSize;

    fn walk_to(pa: u64, contig: bool) -> WalkResult {
        WalkResult {
            pa: PhysAddr::new(pa),
            size: PageSize::Base4K,
            refs: 24,
            contig,
            write: true,
        }
    }

    fn miss(spot: &mut SpotPredictor, pc: u64, va: u64, pa: u64, contig: bool) -> MissHandling {
        spot.on_miss(Access::read(pc, VirtAddr::new(va)), &walk_to(pa, contig))
    }

    #[test]
    fn trains_then_predicts_within_contiguous_mapping() {
        let mut spot = SpotPredictor::new(SpotConfig::default());
        const OFF: u64 = 0x5000_0000;
        // Miss 1: fill (conf=1). Miss 2: correct would-be (conf=2), no
        // speculation yet. Miss 3: conf=2 > 1 -> speculate, correct (conf=3).
        assert_eq!(miss(&mut spot, 7, OFF + 0x1000, 0x1000, true), MissHandling::Exposed);
        assert_eq!(miss(&mut spot, 7, OFF + 0x9000, 0x9000, true), MissHandling::Exposed);
        assert_eq!(
            miss(&mut spot, 7, OFF + 0x20_000, 0x20_000, true),
            MissHandling::PredictedCorrect
        );
        assert_eq!(spot.stats().correct, 1);
        assert_eq!(spot.stats().no_prediction, 2);
    }

    #[test]
    fn misprediction_costs_and_decays_confidence() {
        let mut spot = SpotPredictor::new(SpotConfig::default());
        const OFF: u64 = 0x5000_0000;
        miss(&mut spot, 7, OFF + 0x1000, 0x1000, true);
        miss(&mut spot, 7, OFF + 0x2000, 0x2000, true); // conf=2
        // Now the instruction strays to a different mapping.
        assert_eq!(
            miss(&mut spot, 7, 0x9000_0000, 0x123_000, true),
            MissHandling::Mispredicted
        );
        // conf back to 1: next miss is a no-prediction.
        assert_eq!(
            miss(&mut spot, 7, 0x9000_1000, 0x124_000, true),
            MissHandling::Exposed
        );
        assert_eq!(spot.stats().mispredicted, 1);
    }

    #[test]
    fn offset_replaced_only_at_zero_confidence() {
        let mut spot = SpotPredictor::new(SpotConfig::default());
        const OFF_A: u64 = 0x5000_0000;
        const OFF_B: u64 = 0x7000_0000;
        miss(&mut spot, 7, OFF_A + 0x1000, 0x1000, true); // fill A, conf=1
        // One wrong walk: conf 1 -> 0 -> replaced with B immediately.
        miss(&mut spot, 7, OFF_B + 0x2000, 0x2000, true);
        // Entry now holds offset B with conf=1; a B-consistent miss bumps it.
        miss(&mut spot, 7, OFF_B + 0x3000, 0x3000, true);
        assert_eq!(
            miss(&mut spot, 7, OFF_B + 0x9000, 0x9000, true),
            MissHandling::PredictedCorrect
        );
    }

    #[test]
    fn contig_filter_blocks_fills() {
        let mut spot = SpotPredictor::new(SpotConfig::default());
        for i in 0..4 {
            miss(&mut spot, 7, 0x5000_0000 + i * 0x1000, i * 0x1000, false);
        }
        assert_eq!(spot.stats().fills, 0);
        assert_eq!(spot.stats().filtered_fills, 4, "every miss's fill attempt is filtered");
        assert_eq!(spot.stats().no_prediction, 4);
        // Disabling the filter restores fills.
        let mut open = SpotPredictor::new(SpotConfig { require_contig_bit: false, ..SpotConfig::default() });
        miss(&mut open, 7, 0x5000_0000, 0, false);
        assert_eq!(open.stats().fills, 1);
    }

    #[test]
    fn confident_set_rejects_new_fills() {
        // 1 set of 4 ways: confident resident entries cannot be evicted.
        let mut spot = SpotPredictor::new(SpotConfig { entries: 4, ..SpotConfig::default() });
        const OFF: u64 = 0x5000_0000;
        for pc in 1..=4 {
            miss(&mut spot, pc, OFF + 0x1000, 0x1000, true);
            miss(&mut spot, pc, OFF + 0x2000, 0x2000, true); // conf=2
        }
        // A fifth PC maps to the same (only) set; its fill must be rejected.
        miss(&mut spot, 5, 0x9000_0000, 0x1000, true);
        assert_eq!(spot.stats().fills, 4);
        // The resident entries still predict.
        assert_eq!(
            miss(&mut spot, 1, OFF + 0x9000, 0x9000, true),
            MissHandling::PredictedCorrect
        );
    }

    #[test]
    fn distinct_pcs_track_distinct_offsets() {
        let mut spot = SpotPredictor::new(SpotConfig::default());
        const OFF_A: u64 = 0x5000_0000;
        const OFF_B: u64 = 0x9000_0000;
        for i in 1..4u64 {
            miss(&mut spot, 100, OFF_A + i * 0x1000, i * 0x1000, true);
            miss(&mut spot, 200, OFF_B + i * 0x2000, i * 0x2000, true);
        }
        assert_eq!(spot.stats().correct, 2, "both instructions reached confidence");
        assert_eq!(spot.stats().mispredicted, 0);
    }

    #[test]
    fn stats_rates() {
        let mut spot = SpotPredictor::new(SpotConfig::default());
        const OFF: u64 = 0x5000_0000;
        for i in 1..=10u64 {
            miss(&mut spot, 7, OFF + i * 0x1000, i * 0x1000, true);
        }
        let s = spot.stats();
        assert_eq!(s.total(), 10);
        assert!(s.correct_rate() > 0.7);
        assert_eq!(s.mispredict_rate(), 0.0);
    }

    #[test]
    #[should_panic(expected = "invalid prediction-table geometry")]
    fn bad_geometry_panics() {
        let _ = SpotPredictor::new(SpotConfig { entries: 10, ..SpotConfig::default() });
    }
}
