//! Deterministic, seedable fault injection: one [`Injector`] for allocation
//! failures, memory failures and a lossy migration wire.
//!
//! Real kernels are hardened by `should_fail()`-style injection
//! (`CONFIG_FAIL_PAGE_ALLOC`), field uncorrectable ECC errors through the
//! memory-failure path (`CONFIG_MEMORY_FAILURE`), and stream live migration
//! over networks that drop, corrupt, delay and sever. The simulator models
//! each with the same machine: an [`Injector`] is consulted at well-defined
//! points — a buddy zone's allocation attempt, the torture runner's op
//! boundary or a VM's `poison_tick`, one transport frame — and its mode's
//! decision rule returns a verdict. It counts every consultation and every
//! injection, and draws from a splitmix64 stream seeded by the mode, so a
//! seeded run injects at exactly the same points every time; a snapshot
//! captures the counters and the stream with [`Injector::restore`]'s four
//! arguments. What a verdict *does* — fail the allocation, quarantine the
//! frame, drop the packet — belongs to the layer that consulted it.
//!
//! The modes are [`FailMode`] (verdict `bool`, given the buddy order),
//! [`PoisonMode`] (verdict `bool`; [`PoisonMode::Address`] names its victim,
//! other strikes draw one with [`Injector::draw_index`]) and
//! [`TransportMode`] (verdict [`TransportFault`]). Rates are parts per
//! million, which keeps the modes `Eq` without floats. A probabilistic mode
//! draws on every consultation, even at 0 ppm, so streams stay aligned when a
//! test sweeps rates under one seed.
//!
//! # Examples
//!
//! ```
//! use contig_types::{FailMode, FailPolicy, TransportFault, TransportMode, TransportPolicy};
//!
//! // Fail every third allocation attempt, regardless of order.
//! let mut fail = FailPolicy::new(FailMode::EveryNth { n: 3 });
//! let hits: Vec<bool> = (0..6).map(|_| fail.decide(0)).collect();
//! assert_eq!(hits, [false, false, true, false, false, true]);
//! assert_eq!((fail.attempts(), fail.injected()), (6, 2));
//!
//! // Sever the migration channel on exactly the third frame, once.
//! let kill = TransportMode::FaultNth { n: 3, kind: TransportFault::Disconnect };
//! let mut wire = TransportPolicy::new(kill);
//! let frames: Vec<TransportFault> = (0..4).map(|_| wire.decide(())).collect();
//! assert_eq!(frames[2], TransportFault::Disconnect);
//! assert_eq!(frames[3], TransportFault::Deliver, "one-shot: disarms after firing");
//! ```

use crate::json::{Dec, Enc, Sink, Wire};
use crate::page::Pfn;

/// One step of the splitmix64 generator (public-domain; Vigna 2015). Chosen
/// over a heavier PRNG because injection decisions need nothing more than a
/// uniform 64-bit stream and the constants are easy to audit. Public because
/// every deterministic consumer in the workspace (backoff jitter, the
/// torture-op generator in `contig-check`) draws from the same stream shape
/// so seeds compose predictably.
pub fn splitmix64(state: &mut u64) -> u64 {
    *state = state.wrapping_add(0x9E37_79B9_7F4A_7C15);
    let mut z = *state;
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// Jittered exponential backoff, in ns: `base_ns << min(k, max_shift)`
/// capped at `cap_ns`, plus a jitter uniform in `[0, half of that]` drawn
/// from `rng`, so competing retries do not run in lockstep. OOM recovery,
/// the maintenance daemon and live migration each keep their own seed and
/// exponent cap.
pub fn jittered_backoff(base_ns: u64, cap_ns: u64, k: u64, max_shift: u64, rng: &mut u64) -> u64 {
    let exp = base_ns.saturating_mul(1u64 << k.min(max_shift)).min(cap_ns);
    exp + splitmix64(rng) % (exp / 2 + 1)
}

/// A decision rule: when an [`Injector`] injects, and what it returns.
pub trait Mode: Copy {
    /// What the consulting layer says about each consultation (the buddy
    /// order for allocation failures; nothing for the others).
    type Input;
    /// What one consultation returns.
    type Verdict: Copy;
    /// The wire names of an injector's members: the mode, the consultation
    /// counter, the injection counter and the stream state.
    const FIELDS: &'static [&'static str; 4];

    /// The seed of the mode's random stream; 0 for modes without one.
    fn seed(&self) -> u64;

    /// Whether the mode can still inject after `injected` injections: never
    /// for the `Never`-like mode, once for a one-shot mode.
    fn armed(&self, injected: u64) -> bool;

    /// The verdict on consultation number `attempt` (counting from 1), after
    /// `injected` earlier injections, drawing from `rng` as the mode needs.
    fn rule(self, input: Self::Input, attempt: u64, injected: u64, rng: &mut u64) -> Self::Verdict;

    /// Whether a verdict is an injection.
    fn injects(verdict: Self::Verdict) -> bool;
}

/// Consultation `attempt` is the one-shot `n`-th, not yet fired.
#[inline]
fn nth(n: u64, attempt: u64, injected: u64) -> bool {
    injected == 0 && attempt == n
}

/// Consultation `attempt` is a multiple of the non-zero period `n`.
#[inline]
fn every_nth(n: u64, attempt: u64) -> bool {
    n != 0 && attempt.is_multiple_of(n)
}

/// One uniform draw in `[0, 1e6)`, to compare with ppm rates.
#[inline]
fn draw_ppm(rng: &mut u64) -> u64 {
    splitmix64(rng) % 1_000_000
}

/// Deterministic injector: a [`Mode`]'s decision rule plus what it has seen.
///
/// Every consultation bumps `attempts` and every injection `injected`,
/// whatever the mode, so tests can assert exact totals under a fixed seed.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Injector<M> {
    mode: M,
    attempts: u64,
    injected: u64,
    rng_state: u64,
}

/// Allocation-failure injector, installed on buddy zones.
pub type FailPolicy = Injector<FailMode>;
/// Memory-failure strike generator, consulted by `poison_tick`.
pub type PoisonPolicy = Injector<PoisonMode>;
/// Lossy-wire generator behind the loopback migration transport.
pub type TransportPolicy = Injector<TransportMode>;

impl<M: Mode> Injector<M> {
    /// An injector at the start of `mode`'s stream.
    pub fn new(mode: M) -> Self {
        Self::restore(mode, 0, 0, mode.seed())
    }

    /// Rebuilds an injector a snapshot captured: the counters and the stream
    /// resume where they left off, so a restored run injects what the
    /// original would have.
    pub fn restore(mode: M, attempts: u64, injected: u64, rng_state: u64) -> Self {
        Self { mode, attempts, injected, rng_state }
    }

    /// The mode in force.
    pub fn mode(&self) -> M {
        self.mode
    }

    /// Whether this injector can still inject.
    pub fn is_armed(&self) -> bool {
        self.mode.armed(self.injected)
    }

    /// Consultations so far.
    pub fn attempts(&self) -> u64 {
        self.attempts
    }

    /// Injections so far.
    pub fn injected(&self) -> u64 {
        self.injected
    }

    /// Records one consultation and returns the mode's verdict on it.
    #[inline]
    pub fn decide(&mut self, input: M::Input) -> M::Verdict {
        self.attempts += 1;
        let verdict = self.mode.rule(input, self.attempts, self.injected, &mut self.rng_state);
        if M::injects(verdict) {
            self.injected += 1;
        }
        verdict
    }

    /// Draws a uniform index in `[0, bound)` from the stream — a victim
    /// frame, a corruption offset. Returns 0, without drawing, for
    /// `bound == 0`.
    pub fn draw_index(&mut self, bound: u64) -> u64 {
        if bound == 0 {
            return 0;
        }
        splitmix64(&mut self.rng_state) % bound
    }
}

impl<M: Mode + Default> Default for Injector<M> {
    fn default() -> Self {
        Self::new(M::default())
    }
}

/// An object of the four members [`Mode::FIELDS`] names, in that order.
impl<M: Mode + Wire> Wire for Injector<M> {
    fn enc<S: Sink>(&self, e: &mut Enc<S>) {
        let [mode, attempts, injected, rng_state] = *M::FIELDS;
        e.obj(|e| {
            self.mode.enc(e.key(mode));
            self.attempts.enc(e.key(attempts));
            self.injected.enc(e.key(injected));
            self.rng_state.enc(e.key(rng_state));
        });
    }

    fn dec(d: &mut Dec<'_>) -> Result<Self, String> {
        let mut members = d.obj(M::FIELDS)?;
        let value = Self::restore(
            members.next(M::dec)?,
            members.next(u64::dec)?,
            members.next(u64::dec)?,
            members.next(u64::dec)?,
        );
        members.end().map(|()| value)
    }
}

crate::wire_tagged! {
    "kind":
    /// When a [`FailPolicy`] fails an allocation attempt, given its buddy
    /// order. The zone consults it before looking at its free lists; the
    /// fault driver above must then recover or surface a typed error.
    #[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
    pub enum FailMode {
        /// Never inject (the default; one inlined test on the hot path).
        #[default]
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
        /// Fail every attempt whose buddy order is at least `min_order` — the
        /// regime where high-order allocations fail first while base pages
        /// still succeed.
        "min_order" MinOrder {
            /// Smallest order that fails.
            min_order: u32,
        },
        /// Fail each attempt independently with probability `rate_ppm / 1e6`.
        "probability" Probability {
            /// Failure probability in parts per million (1 % = 10_000 ppm).
            rate_ppm: u32,
            /// Seed of the deterministic random stream.
            seed: u64,
        },
    }
}

impl Mode for FailMode {
    type Input = u32;
    type Verdict = bool;
    const FIELDS: &'static [&'static str; 4] = &["mode", "attempts", "injected", "rng_state"];

    fn seed(&self) -> u64 {
        match *self {
            FailMode::Probability { seed, .. } => seed,
            _ => 0,
        }
    }

    fn armed(&self, injected: u64) -> bool {
        match self {
            FailMode::Never => false,
            FailMode::Nth { .. } => injected == 0,
            _ => true,
        }
    }

    #[inline]
    fn rule(self, order: u32, attempt: u64, injected: u64, rng: &mut u64) -> bool {
        match self {
            FailMode::Never => false,
            FailMode::Nth { n } => nth(n, attempt, injected),
            FailMode::EveryNth { n } => every_nth(n, attempt),
            FailMode::MinOrder { min_order } => order >= min_order,
            FailMode::Probability { rate_ppm, .. } => draw_ppm(rng) < u64::from(rate_ppm),
        }
    }

    fn injects(verdict: bool) -> bool {
        verdict
    }
}

crate::wire_tagged! {
    "kind":
    /// When a [`PoisonPolicy`] strikes. A strike without a fixed address
    /// draws its victim with `Injector::draw_index`.
    #[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
    pub enum PoisonMode {
        /// Never strike (the default).
        #[default]
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
        /// `rate_ppm / 1e6`.
        "probability" Probability {
            /// Strike probability in parts per million (1 % = 10_000 ppm).
            rate_ppm: u32,
            /// Seed of the deterministic random stream.
            seed: u64,
        },
    }
}

impl PoisonMode {
    /// The fixed victim of [`PoisonMode::Address`]; `None` for every other
    /// mode, whose strikes draw one.
    pub fn target(&self) -> Option<Pfn> {
        match *self {
            PoisonMode::Address { pfn, .. } => Some(pfn),
            _ => None,
        }
    }
}

impl Mode for PoisonMode {
    type Input = ();
    type Verdict = bool;
    const FIELDS: &'static [&'static str; 4] = &["mode", "checks", "events", "rng_state"];

    fn seed(&self) -> u64 {
        match *self {
            PoisonMode::Probability { seed, .. } => seed,
            _ => 0,
        }
    }

    fn armed(&self, injected: u64) -> bool {
        match self {
            PoisonMode::Never => false,
            PoisonMode::Nth { .. } | PoisonMode::Address { .. } => injected == 0,
            _ => true,
        }
    }

    fn rule(self, (): (), attempt: u64, injected: u64, rng: &mut u64) -> bool {
        match self {
            PoisonMode::Never => false,
            PoisonMode::Nth { n } | PoisonMode::Address { n, .. } => nth(n, attempt, injected),
            PoisonMode::EveryNth { n } => every_nth(n, attempt),
            PoisonMode::Probability { rate_ppm, .. } => draw_ppm(rng) < u64::from(rate_ppm),
        }
    }

    fn injects(verdict: bool) -> bool {
        verdict
    }
}

/// A [`TransportPolicy`]'s verdict on one migration frame.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum TransportFault {
    /// Deliver the frame unharmed at base latency.
    Deliver,
    /// Discard the frame silently.
    Drop,
    /// Deliver the frame with a flipped bit (caught by the frame digest).
    Corrupt,
    /// Deliver the frame after an extra `ns` of delay.
    Stall {
        /// Injected delay, on top of the transport's base latency.
        ns: u64,
    },
    /// Close the channel; every later send fails until reconnect.
    Disconnect,
}

/// Ceiling on an injected stall, per event: 2 ms of simulated time.
///
/// Large enough that a storm of stalls blows a phase timeout (the condition
/// the abort/resume machinery exists for), small enough that a single stall
/// never does.
pub(crate) const MAX_STALL_NS: u64 = 2_000_000;

/// When a [`TransportPolicy`] injects faults.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub enum TransportMode {
    /// Never inject (the default; the wire is perfect).
    #[default]
    Reliable,
    /// Return `kind` for exactly the `n`-th frame (1-based), once, then
    /// disarm — the targeted form used by directed tests ("kill the channel
    /// mid-round-2").
    FaultNth {
        /// Frame number to fault, counting from 1.
        n: u64,
        /// What happens to that frame.
        kind: TransportFault,
    },
    /// Fault each frame independently. The rates partition one draw per
    /// frame in a fixed order — drop, corrupt, stall, disconnect — and a
    /// stall draws its length (1 to `MAX_STALL_NS`) from the same stream.
    Lossy {
        /// Probability a frame is dropped, in ppm.
        drop_ppm: u32,
        /// Probability a frame is corrupted, in ppm.
        corrupt_ppm: u32,
        /// Probability a frame is stalled, in ppm.
        stall_ppm: u32,
        /// Probability the channel disconnects, in ppm.
        disconnect_ppm: u32,
        /// Seed of the deterministic random stream.
        seed: u64,
    },
}

impl TransportMode {
    /// A storm profile: one aggregate fault rate split across the four kinds
    /// the way the torture harness arms it — mostly drops (4/10) and
    /// corruption (3/10), some stalls (2/10), rare disconnects (1/10).
    pub fn storm(rate_ppm: u32, seed: u64) -> Self {
        TransportMode::Lossy {
            drop_ppm: rate_ppm / 10 * 4,
            corrupt_ppm: rate_ppm / 10 * 3,
            stall_ppm: rate_ppm / 10 * 2,
            disconnect_ppm: rate_ppm / 10,
            seed,
        }
    }
}

impl Mode for TransportMode {
    type Input = ();
    type Verdict = TransportFault;
    const FIELDS: &'static [&'static str; 4] = &["mode", "frames", "faults", "rng_state"];

    fn seed(&self) -> u64 {
        match *self {
            TransportMode::Lossy { seed, .. } => seed,
            _ => 0,
        }
    }

    fn armed(&self, injected: u64) -> bool {
        match self {
            TransportMode::Reliable => false,
            TransportMode::FaultNth { .. } => injected == 0,
            TransportMode::Lossy { .. } => true,
        }
    }

    fn rule(self, (): (), attempt: u64, injected: u64, rng: &mut u64) -> TransportFault {
        match self {
            TransportMode::Reliable => TransportFault::Deliver,
            TransportMode::FaultNth { n, kind } if nth(n, attempt, injected) => kind,
            TransportMode::FaultNth { .. } => TransportFault::Deliver,
            TransportMode::Lossy { drop_ppm, corrupt_ppm, stall_ppm, disconnect_ppm, .. } => {
                let draw = draw_ppm(rng);
                let drop_end = u64::from(drop_ppm);
                let corrupt_end = drop_end + u64::from(corrupt_ppm);
                let stall_end = corrupt_end + u64::from(stall_ppm);
                if draw < drop_end {
                    TransportFault::Drop
                } else if draw < corrupt_end {
                    TransportFault::Corrupt
                } else if draw < stall_end {
                    TransportFault::Stall { ns: 1 + splitmix64(rng) % MAX_STALL_NS }
                } else if draw < stall_end + u64::from(disconnect_ppm) {
                    TransportFault::Disconnect
                } else {
                    TransportFault::Deliver
                }
            }
        }
    }

    fn injects(verdict: TransportFault) -> bool {
        verdict != TransportFault::Deliver
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn never_modes_are_disarmed_but_count() {
        let (mut fail, mut wire) = (FailPolicy::default(), TransportPolicy::default());
        assert!(!fail.is_armed() && !wire.is_armed());
        for _ in 0..100 {
            assert!(!fail.decide(9));
            assert_eq!(wire.decide(()), TransportFault::Deliver);
        }
        assert_eq!((fail.attempts(), wire.injected()), (100, 0));
        let mut poison = PoisonPolicy::default();
        assert!(!poison.is_armed());
        assert_eq!(poison.draw_index(0), 0);
        assert_eq!(poison, PoisonPolicy::default(), "a zero bound draws nothing");
    }

    #[test]
    fn one_shot_modes_fire_once_then_disarm() {
        let mut fail = FailPolicy::new(FailMode::Nth { n: 3 });
        let mut poison = PoisonPolicy::new(PoisonMode::Address { pfn: Pfn::new(77), n: 3 });
        let kill = TransportMode::FaultNth { n: 3, kind: TransportFault::Drop };
        let mut wire = TransportPolicy::new(kill);
        assert!(fail.is_armed() && poison.is_armed() && wire.is_armed());
        assert_eq!(poison.mode().target(), Some(Pfn::new(77)));
        for i in 1..=6 {
            assert_eq!(fail.decide(0), i == 3);
            assert_eq!(poison.decide(()), i == 3);
            assert_eq!(wire.decide(()) == TransportFault::Drop, i == 3);
        }
        assert!(!fail.is_armed() && !poison.is_armed() && !wire.is_armed());
    }

    #[test]
    fn min_order_spares_base_pages() {
        let mut p = FailPolicy::new(FailMode::MinOrder { min_order: 9 });
        assert_eq!([0, 9, 10].map(|order| p.decide(order)), [false, true, true]);
        assert_eq!(p.injected(), 2);
    }

    #[test]
    fn probability_is_calibrated_and_seed_sensitive() {
        let run = |seed: u64| -> Vec<bool> {
            let mut p = FailPolicy::new(FailMode::Probability { rate_ppm: 100_000, seed });
            (0..10_000).map(|_| p.decide(0)).collect()
        };
        assert_ne!(run(42), run(43), "different seeds diverge");
        // 10 % nominal rate: accept a generous band around 1000/10000.
        let hits = run(42).iter().filter(|&&b| b).count();
        assert!((700..=1300).contains(&hits), "rate badly calibrated: {hits}/10000");
    }

    #[test]
    fn lossy_hits_every_fault_kind_at_high_rate() {
        let mut p = TransportPolicy::new(TransportMode::Lossy {
            drop_ppm: 200_000,
            corrupt_ppm: 200_000,
            stall_ppm: 200_000,
            disconnect_ppm: 200_000,
            seed: 9,
        });
        let mut saw = [false; 4];
        for _ in 0..4096 {
            match p.decide(()) {
                TransportFault::Drop => saw[0] = true,
                TransportFault::Corrupt => saw[1] = true,
                TransportFault::Stall { ns } => {
                    assert!((1..=MAX_STALL_NS).contains(&ns));
                    saw[2] = true;
                }
                TransportFault::Disconnect => saw[3] = true,
                TransportFault::Deliver => {}
            }
        }
        assert_eq!(saw, [true; 4]);
    }

    #[test]
    fn backoff_doubles_up_to_its_caps_and_jitters_by_at_most_half() {
        let mut rng = 5;
        for (k, exp) in [(0, 100), (1, 200), (3, 800), (4, 1_000), (40, 1_000)] {
            let ns = jittered_backoff(100, 1_000, k, 20, &mut rng);
            assert!((exp..=exp + exp / 2).contains(&ns), "k {k}: {ns}");
        }
        // The shift cap binds before the time cap here.
        let ns = jittered_backoff(1, u64::MAX, 40, 16, &mut rng);
        assert!((1 << 16..=(1 << 16) + (1 << 15)).contains(&ns), "{ns}");
    }
}
