//! Deterministic, seedable fault injection for allocator robustness tests.
//!
//! Real kernels are hardened against allocation failure by code review and
//! `should_fail()`-style fault injection (`CONFIG_FAIL_PAGE_ALLOC`). This
//! module is the simulator's equivalent: a [`FailPolicy`] can be installed on
//! a buddy zone (or a whole machine) and decides, per allocation attempt,
//! whether to inject an artificial failure *before* the allocator looks at
//! its free lists. The higher layers — the `contig-mm` fault driver and the
//! `contig-virt` nested-fault path — must then recover (reclaim, compact,
//! retry, degrade) or surface a typed error; they may never panic and never
//! corrupt allocator state.
//!
//! All modes are deterministic: [`FailMode::Probability`] draws from a
//! splitmix64 stream seeded explicitly, so a test that injects "1 % of
//! allocations" fails the exact same attempts on every run.
//!
//! # Examples
//!
//! ```
//! use contig_types::{FailMode, FailPolicy};
//!
//! // Fail every third allocation attempt, regardless of order.
//! let mut policy = FailPolicy::new(FailMode::EveryNth { n: 3 });
//! let hits: Vec<bool> = (0..6).map(|_| policy.should_fail(0)).collect();
//! assert_eq!(hits, [false, false, true, false, false, true]);
//! assert_eq!(policy.injected(), 2);
//!
//! // Probabilistic injection is reproducible for a fixed seed.
//! let run = |seed| {
//!     let mut p = FailPolicy::new(FailMode::Probability { rate_ppm: 100_000, seed });
//!     (0..100).map(|_| p.should_fail(0)).collect::<Vec<_>>()
//! };
//! assert_eq!(run(7), run(7));
//! ```

crate::wire_tagged! {
    "kind":
    /// When a [`FailPolicy`] injects an allocation failure.
    #[derive(Clone, Copy, Debug, PartialEq, Eq)]
    pub enum FailMode {
        /// Never inject (the default; zero overhead on the hot path).
        "never" Never,
        /// Fail exactly the `n`-th attempt (1-based), once, then disarm.
        "nth" Nth {
            /// Attempt number to fail, counting from 1.
            n: u64,
        },
        /// Fail every `n`-th attempt (the 3rd, 6th, 9th, … for `n = 3`).
        "every_nth" EveryNth {
            /// Injection period; must be non-zero.
            n: u64,
        },
        /// Fail every attempt whose buddy order is at least `min_order` — models
        /// the realistic regime where high-order allocations fail first while
        /// base pages still succeed.
        "min_order" MinOrder {
            /// Smallest order that fails.
            min_order: u32,
        },
        /// Fail each attempt independently with probability `rate_ppm / 1e6`,
        /// drawn from a splitmix64 stream seeded with `seed`. Parts-per-million
        /// keeps the type `Eq`/`Hash`-friendly (no floats).
        "probability" Probability {
            /// Failure probability in parts per million (1 % = 10_000 ppm).
            rate_ppm: u32,
            /// Seed of the deterministic random stream.
            seed: u64,
        },
    }
}

crate::wire_struct! {
    /// Deterministic allocation-failure injector.
    ///
    /// Installed on a buddy zone, it is consulted once per allocation attempt
    /// (targeted or not) and bumps its counters either way, so tests can assert
    /// exact attempt/injection totals under a fixed seed.
    #[derive(Clone, Debug, PartialEq, Eq)]
    pub struct FailPolicy {
        mode: FailMode,
        /// Allocation attempts observed (including injected failures).
        attempts: u64,
        /// Failures injected so far.
        injected: u64,
        /// splitmix64 state for [`FailMode::Probability`].
        rng_state: u64,
    }
}

impl Default for FailPolicy {
    fn default() -> Self {
        Self::new(FailMode::Never)
    }
}

/// One step of the splitmix64 generator (public-domain; Vigna 2015). Chosen
/// over a heavier PRNG because injection decisions need nothing more than a
/// uniform 64-bit stream and the constants are easy to audit. Public because
/// every deterministic consumer in the workspace (recovery back-off jitter,
/// the torture-op generator in `contig-check`) draws from the same stream
/// shape so seeds compose predictably.
pub fn splitmix64(state: &mut u64) -> u64 {
    *state = state.wrapping_add(0x9E37_79B9_7F4A_7C15);
    let mut z = *state;
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

impl FailPolicy {
    /// A policy injecting per `mode`.
    pub fn new(mode: FailMode) -> Self {
        let rng_state = match mode {
            FailMode::Probability { seed, .. } => seed,
            _ => 0,
        };
        Self { mode, attempts: 0, injected: 0, rng_state }
    }

    /// Shorthand: never inject.
    pub fn never() -> Self {
        Self::new(FailMode::Never)
    }

    /// The mode in force.
    pub fn mode(&self) -> FailMode {
        self.mode
    }

    /// Whether this policy can ever inject (false only for [`FailMode::Never`]
    /// and an already-fired [`FailMode::Nth`]).
    pub fn is_armed(&self) -> bool {
        match self.mode {
            FailMode::Never => false,
            FailMode::Nth { .. } => self.injected == 0,
            _ => true,
        }
    }

    /// Allocation attempts observed so far.
    pub fn attempts(&self) -> u64 {
        self.attempts
    }

    /// Failures injected so far.
    pub fn injected(&self) -> u64 {
        self.injected
    }

    /// The internal splitmix64 state (0 unless [`FailMode::Probability`]).
    /// Exposed so a snapshot can capture the injector mid-stream.
    pub fn rng_state(&self) -> u64 {
        self.rng_state
    }

    /// Rebuilds a policy captured by a snapshot: the counters and RNG state
    /// resume exactly where [`FailPolicy::rng_state`] and friends left off,
    /// so a restored run injects the same failures the original would have.
    pub fn restore(mode: FailMode, attempts: u64, injected: u64, rng_state: u64) -> Self {
        Self { mode, attempts, injected, rng_state }
    }

    /// Records one allocation attempt of the given buddy `order` and decides
    /// whether to inject a failure for it.
    pub fn should_fail(&mut self, order: u32) -> bool {
        self.attempts += 1;
        let fail = match self.mode {
            FailMode::Never => false,
            FailMode::Nth { n } => self.injected == 0 && self.attempts == n,
            FailMode::EveryNth { n } => n != 0 && self.attempts.is_multiple_of(n),
            FailMode::MinOrder { min_order } => order >= min_order,
            FailMode::Probability { rate_ppm, .. } => {
                // Draw even at 0 ppm so attempt streams stay aligned when a
                // test sweeps rates under one seed.
                let draw = splitmix64(&mut self.rng_state) % 1_000_000;
                draw < u64::from(rate_ppm)
            }
        };
        if fail {
            self.injected += 1;
        }
        fail
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn never_mode_is_disarmed_and_free() {
        let mut p = FailPolicy::never();
        assert!(!p.is_armed());
        for _ in 0..100 {
            assert!(!p.should_fail(9));
        }
        assert_eq!(p.attempts(), 100);
        assert_eq!(p.injected(), 0);
    }

    #[test]
    fn nth_fires_once_then_disarms() {
        let mut p = FailPolicy::new(FailMode::Nth { n: 3 });
        assert!(p.is_armed());
        let fired: Vec<bool> = (0..6).map(|_| p.should_fail(0)).collect();
        assert_eq!(fired, [false, false, true, false, false, false]);
        assert_eq!(p.injected(), 1);
        assert!(!p.is_armed());
    }

    #[test]
    fn every_nth_is_periodic() {
        let mut p = FailPolicy::new(FailMode::EveryNth { n: 4 });
        let injected = (0..16).filter(|_| p.should_fail(0)).count();
        assert_eq!(injected, 4);
        assert_eq!(p.attempts(), 16);
    }

    #[test]
    fn min_order_spares_base_pages() {
        let mut p = FailPolicy::new(FailMode::MinOrder { min_order: 9 });
        assert!(!p.should_fail(0));
        assert!(p.should_fail(9));
        assert!(p.should_fail(10));
        assert_eq!(p.injected(), 2);
    }

    #[test]
    fn probability_is_deterministic_and_calibrated() {
        let run = |seed: u64| -> Vec<bool> {
            let mut p = FailPolicy::new(FailMode::Probability { rate_ppm: 100_000, seed });
            (0..10_000).map(|_| p.should_fail(0)).collect()
        };
        assert_eq!(run(42), run(42), "same seed, same injections");
        assert_ne!(run(42), run(43), "different seeds diverge");
        // 10 % nominal rate: accept a generous band around 1000/10000.
        let hits = run(42).iter().filter(|&&b| b).count();
        assert!((700..=1300).contains(&hits), "rate badly calibrated: {hits}/10000");
    }

    #[test]
    fn zero_rate_probability_never_fires() {
        let mut p = FailPolicy::new(FailMode::Probability { rate_ppm: 0, seed: 1 });
        assert!((0..1000).all(|_| !p.should_fail(10)));
    }
}
