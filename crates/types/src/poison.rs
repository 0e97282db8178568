//! Deterministic, seedable memory-failure (hwpoison) injection.
//!
//! Real kernels field uncorrectable ECC errors through the memory-failure
//! path (`CONFIG_MEMORY_FAILURE`): the frame is quarantined, mapped users are
//! healed by migration or killed with `SIGBUS`, and `soft_offline_page()`
//! proactively drains suspect frames. This module is the simulator's strike
//! generator: a [`PoisonPolicy`] decides, per consultation, whether a poison
//! event fires *now*, and supplies the deterministic random stream used to
//! pick the victim frame. The higher layers (buddy quarantine in
//! `contig-buddy`, migrate-and-heal in `contig-mm`, guest-MCE resolution in
//! `contig-virt`) own what happens to the stricken frame.
//!
//! All modes are deterministic: [`PoisonMode::Probability`] draws from the
//! same splitmix64 stream shape as [`crate::FailPolicy`], so a seeded poison
//! storm strikes the exact same frames on every run — the property the
//! torture harness and the snapshot codec rely on.
//!
//! # Examples
//!
//! ```
//! use contig_types::{PoisonMode, PoisonPolicy};
//!
//! // Strike on every fourth consultation.
//! let mut p = PoisonPolicy::new(PoisonMode::EveryNth { n: 4 });
//! let hits: Vec<bool> = (0..8).map(|_| p.should_poison()).collect();
//! assert_eq!(hits, [false, false, false, true, false, false, false, true]);
//! assert_eq!(p.events(), 2);
//!
//! // Victim selection is part of the same deterministic stream.
//! let mut a = PoisonPolicy::new(PoisonMode::Probability { rate_ppm: 250_000, seed: 9 });
//! let mut b = PoisonPolicy::new(PoisonMode::Probability { rate_ppm: 250_000, seed: 9 });
//! for _ in 0..64 {
//!     assert_eq!(a.should_poison(), b.should_poison());
//!     assert_eq!(a.draw_index(1024), b.draw_index(1024));
//! }
//! ```

use crate::fail::splitmix64;
use crate::page::Pfn;

crate::wire_tagged! {
    "kind":
    /// When a [`PoisonPolicy`] fires a memory-failure event.
    #[derive(Clone, Copy, Debug, PartialEq, Eq)]
    pub enum PoisonMode {
        /// Never strike (the default; zero overhead on the hot path).
        "never" Never,
        /// Strike exactly the `n`-th consultation (1-based), once, then disarm.
        "nth" Nth {
            /// Consultation number to strike on, counting from 1.
            n: u64,
        },
        /// Strike every `n`-th consultation (the 4th, 8th, … for `n = 4`).
        "every_nth" EveryNth {
            /// Strike period; must be non-zero.
            n: u64,
        },
        /// Strike a fixed frame on the `n`-th consultation, once — the targeted
        /// form ("this DIMM address is failing") used by directed tests.
        "address" Address {
            /// The frame the strike hits.
            pfn: Pfn,
            /// Consultation number to strike on, counting from 1.
            n: u64,
        },
        /// Strike each consultation independently with probability
        /// `rate_ppm / 1e6`, drawn from a splitmix64 stream seeded with `seed`.
        /// Parts-per-million keeps the type `Eq`/`Hash`-friendly (no floats).
        "probability" Probability {
            /// Strike probability in parts per million (1 % = 10_000 ppm).
            rate_ppm: u32,
            /// Seed of the deterministic random stream.
            seed: u64,
        },
    }
}

crate::wire_struct! {
    /// Deterministic memory-failure strike generator.
    ///
    /// Consulted at well-defined points (the torture runner's op boundary, a
    /// VM's `poison_tick`), it decides whether a poison event fires and draws
    /// victim indices from its stream, bumping counters either way so tests can
    /// assert exact strike totals under a fixed seed.
    #[derive(Clone, Debug, PartialEq, Eq)]
    pub struct PoisonPolicy {
        mode: PoisonMode,
        /// Consultations observed (including ones that did not strike).
        checks: u64,
        /// Strikes fired so far.
        events: u64,
        /// splitmix64 state for [`PoisonMode::Probability`] and victim draws.
        rng_state: u64,
    }
}

impl Default for PoisonPolicy {
    fn default() -> Self {
        Self::new(PoisonMode::Never)
    }
}

impl PoisonPolicy {
    /// A policy striking per `mode`.
    pub fn new(mode: PoisonMode) -> Self {
        let rng_state = match mode {
            PoisonMode::Probability { seed, .. } => seed,
            _ => 0,
        };
        Self { mode, checks: 0, events: 0, rng_state }
    }

    /// Shorthand: never strike.
    pub fn never() -> Self {
        Self::new(PoisonMode::Never)
    }

    /// The mode in force.
    pub fn mode(&self) -> PoisonMode {
        self.mode
    }

    /// Whether this policy can ever strike (false for [`PoisonMode::Never`]
    /// and already-fired one-shot modes).
    pub fn is_armed(&self) -> bool {
        match self.mode {
            PoisonMode::Never => false,
            PoisonMode::Nth { .. } | PoisonMode::Address { .. } => self.events == 0,
            _ => true,
        }
    }

    /// Consultations observed so far.
    pub fn checks(&self) -> u64 {
        self.checks
    }

    /// Strikes fired so far.
    pub fn events(&self) -> u64 {
        self.events
    }

    /// The internal splitmix64 state. Exposed so a snapshot can capture the
    /// injector mid-stream.
    pub fn rng_state(&self) -> u64 {
        self.rng_state
    }

    /// The fixed victim frame, for [`PoisonMode::Address`]; `None` for every
    /// other mode (the caller draws a victim with
    /// [`PoisonPolicy::draw_index`] instead).
    pub fn target(&self) -> Option<Pfn> {
        match self.mode {
            PoisonMode::Address { pfn, .. } => Some(pfn),
            _ => None,
        }
    }

    /// Rebuilds a policy captured by a snapshot: counters and RNG state
    /// resume exactly where they left off, so a restored run strikes the
    /// same frames the original would have.
    pub fn restore(mode: PoisonMode, checks: u64, events: u64, rng_state: u64) -> Self {
        Self { mode, checks, events, rng_state }
    }

    /// Records one consultation and decides whether a poison event fires.
    pub fn should_poison(&mut self) -> bool {
        self.checks += 1;
        let strike = match self.mode {
            PoisonMode::Never => false,
            PoisonMode::Nth { n } | PoisonMode::Address { n, .. } => {
                self.events == 0 && self.checks == n
            }
            PoisonMode::EveryNth { n } => n != 0 && self.checks.is_multiple_of(n),
            PoisonMode::Probability { rate_ppm, .. } => {
                // Draw even at 0 ppm so strike streams stay aligned when a
                // test sweeps rates under one seed.
                let draw = splitmix64(&mut self.rng_state) % 1_000_000;
                draw < u64::from(rate_ppm)
            }
        };
        if strike {
            self.events += 1;
        }
        strike
    }

    /// Draws a uniform index in `[0, bound)` from the policy's stream —
    /// victim-frame selection for strikes without a fixed address. Returns 0
    /// for `bound == 0`.
    pub fn draw_index(&mut self, bound: u64) -> u64 {
        if bound == 0 {
            return 0;
        }
        splitmix64(&mut self.rng_state) % bound
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn never_mode_is_disarmed_and_free() {
        let mut p = PoisonPolicy::never();
        assert!(!p.is_armed());
        for _ in 0..100 {
            assert!(!p.should_poison());
        }
        assert_eq!(p.checks(), 100);
        assert_eq!(p.events(), 0);
    }

    #[test]
    fn nth_fires_once_then_disarms() {
        let mut p = PoisonPolicy::new(PoisonMode::Nth { n: 2 });
        assert!(p.is_armed());
        let fired: Vec<bool> = (0..5).map(|_| p.should_poison()).collect();
        assert_eq!(fired, [false, true, false, false, false]);
        assert!(!p.is_armed());
    }

    #[test]
    fn address_mode_names_its_victim() {
        let mut p = PoisonPolicy::new(PoisonMode::Address { pfn: Pfn::new(77), n: 1 });
        assert_eq!(p.target(), Some(Pfn::new(77)));
        assert!(p.should_poison());
        assert!(!p.should_poison(), "address strikes are one-shot");
    }

    #[test]
    fn probability_is_deterministic() {
        let run = |seed: u64| -> Vec<(bool, u64)> {
            let mut p = PoisonPolicy::new(PoisonMode::Probability { rate_ppm: 50_000, seed });
            (0..4096).map(|_| (p.should_poison(), p.draw_index(512))).collect()
        };
        assert_eq!(run(3), run(3), "same seed, same storm");
        assert_ne!(run(3), run(4), "different seeds diverge");
    }

    #[test]
    fn restore_resumes_mid_stream() {
        let mut p = PoisonPolicy::new(PoisonMode::Probability { rate_ppm: 200_000, seed: 11 });
        for _ in 0..100 {
            p.should_poison();
        }
        let mut resumed =
            PoisonPolicy::restore(p.mode(), p.checks(), p.events(), p.rng_state());
        for _ in 0..100 {
            assert_eq!(p.should_poison(), resumed.should_poison());
        }
    }

    #[test]
    fn draw_index_handles_zero_bound() {
        let mut p = PoisonPolicy::new(PoisonMode::EveryNth { n: 1 });
        assert_eq!(p.draw_index(0), 0);
    }
}
