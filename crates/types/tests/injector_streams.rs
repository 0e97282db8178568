//! The three injectors' decision streams, pinned as literals.
//!
//! Snapshots, torture repros and every seeded pressure test replay these
//! streams, so a changed verdict, a skipped draw or a miscounted attempt
//! moves results far from here. Each literal was recorded from the
//! injectors as they were before they shared one implementation; the other
//! tests compare one run with another run of the same code and would not
//! notice.

use contig_types::{
    FailMode, FailPolicy, Pfn, PoisonMode, PoisonPolicy, TransportFault, TransportMode,
    TransportPolicy,
};

/// The attempts `FailMode::Probability { rate_ppm: 100_000, seed: 7 }` fails
/// among its first 64.
const FAIL_HITS: [usize; 7] = [8, 14, 24, 45, 48, 56, 62];

/// `(strike, draw_index(512))` for the first 32 consultations of
/// `PoisonMode::Probability { rate_ppm: 250_000, seed: 9 }`.
#[rustfmt::skip]
const POISON_PAIRS: [(bool, u64); 32] = [
    (true, 98), (true, 96), (false, 510), (false, 317), (true, 371), (false, 153),
    (false, 380), (false, 121), (false, 244), (true, 458), (false, 165), (false, 298),
    (false, 221), (false, 470), (false, 83), (false, 156), (false, 494), (false, 372),
    (false, 294), (false, 53), (false, 478), (false, 270), (false, 292), (false, 28),
    (false, 417), (false, 347), (false, 307), (false, 479), (false, 284), (false, 282),
    (false, 477), (false, 355),
];

/// The frames `TransportMode::storm(200_000, 3)` faults among its first 64,
/// with their verdicts; every other frame is delivered.
const STORM_FAULTS: [(usize, TransportFault); 10] = [
    (0, TransportFault::Corrupt),
    (1, TransportFault::Corrupt),
    (22, TransportFault::Stall { ns: 846_418 }),
    (25, TransportFault::Corrupt),
    (26, TransportFault::Drop),
    (31, TransportFault::Drop),
    (46, TransportFault::Stall { ns: 677_949 }),
    (49, TransportFault::Stall { ns: 1_958_114 }),
    (50, TransportFault::Disconnect),
    (56, TransportFault::Drop),
];

fn fail_verdicts() -> Vec<bool> {
    (0..64).map(|i| FAIL_HITS.contains(&i)).collect()
}

fn storm_verdicts() -> Vec<TransportFault> {
    (0..64)
        .map(|i| STORM_FAULTS.iter().find(|f| f.0 == i).map_or(TransportFault::Deliver, |f| f.1))
        .collect()
}

#[test]
fn probability_fail_stream_is_pinned() {
    let mode = FailMode::Probability { rate_ppm: 100_000, seed: 7 };
    let mut p = FailPolicy::new(mode);
    let got: Vec<bool> = (0..64).map(|_| p.decide(0)).collect();
    assert_eq!(got, fail_verdicts());
    assert_eq!(p, FailPolicy::restore(mode, 64, 7, 0x8dde_6e5f_d29f_0547));
}

#[test]
fn probability_poison_stream_is_pinned() {
    let mode = PoisonMode::Probability { rate_ppm: 250_000, seed: 9 };
    let mut p = PoisonPolicy::new(mode);
    let got: Vec<(bool, u64)> = (0..32).map(|_| (p.decide(()), p.draw_index(512))).collect();
    assert_eq!(got, POISON_PAIRS);
    assert_eq!(p, PoisonPolicy::restore(mode, 32, 4, 0x8dde_6e5f_d29f_0549));
}

#[test]
fn storm_transport_stream_is_pinned() {
    let mode = TransportMode::storm(200_000, 3);
    let mut p = TransportPolicy::new(mode);
    let got: Vec<TransportFault> = (0..64).map(|_| p.decide(())).collect();
    assert_eq!(got, storm_verdicts());
    assert_eq!(p, TransportPolicy::restore(mode, 64, 10, 0x6884_db8c_507e_7982));
}

#[test]
fn restored_injectors_resume_mid_stream() {
    let fail = FailMode::Probability { rate_ppm: 100_000, seed: 7 };
    let mut p = FailPolicy::restore(fail, 32, 3, 0xc6ef_372f_e94f_82a7);
    let got: Vec<bool> = (32..64).map(|_| p.decide(0)).collect();
    assert_eq!(got, fail_verdicts()[32..]);

    let poison = PoisonMode::Probability { rate_ppm: 250_000, seed: 9 };
    let mut p = PoisonPolicy::restore(poison, 16, 4, 0xc6ef_372f_e94f_82a9);
    let got: Vec<(bool, u64)> = (16..32).map(|_| (p.decide(()), p.draw_index(512))).collect();
    assert_eq!(got, POISON_PAIRS[16..]);

    let storm = TransportMode::storm(200_000, 3);
    let mut p = TransportPolicy::restore(storm, 32, 6, 0x6526_b0e9_6899_feb8);
    let got: Vec<TransportFault> = (32..64).map(|_| p.decide(())).collect();
    assert_eq!(got, storm_verdicts()[32..]);
}

#[test]
fn never_modes_count_and_zero_rates_still_draw() {
    let mut p = FailPolicy::new(FailMode::Never);
    assert!((0..10).all(|_| !p.decide(10)));
    assert_eq!(p, FailPolicy::restore(FailMode::Never, 10, 0, 0));

    // A zero rate draws exactly as often as any other rate under the seed.
    let zero = FailMode::Probability { rate_ppm: 0, seed: 7 };
    let mut p = FailPolicy::new(zero);
    assert!((0..64).all(|_| !p.decide(10)));
    assert_eq!(p, FailPolicy::restore(zero, 64, 0, 0x8dde_6e5f_d29f_0547));

    let zero = PoisonMode::Probability { rate_ppm: 0, seed: 9 };
    let mut p = PoisonPolicy::new(zero);
    assert!((0..32).all(|_| !p.decide(())));
    assert_eq!(p, PoisonPolicy::restore(zero, 32, 0, 0xc6ef_372f_e94f_82a9));

    let zero = TransportMode::storm(0, 3);
    let mut p = TransportPolicy::new(zero);
    assert!((0..64).all(|_| p.decide(()) == TransportFault::Deliver));
    assert_eq!(p, TransportPolicy::restore(zero, 64, 0, 0x8dde_6e5f_d29f_0543));
}

#[test]
fn counted_modes_after_ten_calls() {
    let fired = |v: &[bool]| v.iter().enumerate().filter(|p| *p.1).map(|p| p.0).collect::<Vec<_>>();

    let nth = FailMode::Nth { n: 3 };
    let mut p = FailPolicy::new(nth);
    assert_eq!(fired(&(0..10).map(|_| p.decide(0)).collect::<Vec<_>>()), [2]);
    assert_eq!(p, FailPolicy::restore(nth, 10, 1, 0));

    let every = FailMode::EveryNth { n: 4 };
    let mut p = FailPolicy::new(every);
    assert_eq!(fired(&(0..10).map(|_| p.decide(0)).collect::<Vec<_>>()), [3, 7]);
    assert_eq!(p, FailPolicy::restore(every, 10, 2, 0));

    let min = FailMode::MinOrder { min_order: 9 };
    let mut p = FailPolicy::new(min);
    assert_eq!(fired(&(0..10).map(|order| p.decide(order)).collect::<Vec<_>>()), [9]);
    assert_eq!(p, FailPolicy::restore(min, 10, 1, 0));

    let every = PoisonMode::EveryNth { n: 4 };
    let mut p = PoisonPolicy::new(every);
    assert_eq!(fired(&(0..10).map(|_| p.decide(())).collect::<Vec<_>>()), [3, 7]);
    assert_eq!(p, PoisonPolicy::restore(every, 10, 2, 0));

    let address = PoisonMode::Address { pfn: Pfn::new(77), n: 2 };
    let mut p = PoisonPolicy::new(address);
    assert_eq!(fired(&(0..10).map(|_| p.decide(())).collect::<Vec<_>>()), [1]);
    assert_eq!(p, PoisonPolicy::restore(address, 10, 1, 0));

    let kill = TransportMode::FaultNth { n: 3, kind: TransportFault::Disconnect };
    let mut p = TransportPolicy::new(kill);
    let got: Vec<TransportFault> = (0..10).map(|_| p.decide(())).collect();
    let mut want = [TransportFault::Deliver; 10];
    want[2] = TransportFault::Disconnect;
    assert_eq!(got, want);
    assert_eq!(p, TransportPolicy::restore(kill, 10, 1, 0));
}
