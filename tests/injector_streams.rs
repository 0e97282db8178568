//! The three injectors' decision streams, pinned in `tests/pins.ledger`.
//!
//! Snapshots, torture repros and every seeded pressure test replay these
//! streams, so a changed verdict, a skipped draw or a miscounted attempt
//! moves results far from here. Each `injector_streams.*` ledger value was
//! recorded from the injectors as they were before they shared one
//! implementation (PR 28); the other tests compare one run with another run
//! of the same code and would not notice.

use std::fmt::Debug;

use contig_types::{
    FailMode, FailPolicy, Pfn, PoisonMode, PoisonPolicy, TransportFault, TransportMode,
    TransportPolicy,
};

mod pins;
use pins::{hex, Ledger};

/// Member `name` of an injector's `Debug` text: the stream state has no
/// accessor of its own.
fn member(p: &impl Debug, name: &str) -> u64 {
    let text = format!("{p:?}");
    let at = text.find(&format!("{name}: ")).unwrap_or_else(|| panic!("no {name} in {text}"));
    let tail = &text[at + name.len() + 2..];
    tail[..tail.find([',', ' ']).unwrap_or(tail.len())].parse().expect(name)
}

/// `Injector::restore`'s last three arguments: consultations, injections
/// and the stream state.
fn state(p: &impl Debug) -> String {
    let [a, i, s] = ["attempts", "injected", "rng_state"].map(|m| member(p, m));
    format!("{a} {i} {}", hex(s))
}

/// The indices of the injections in a run of verdicts.
fn fired(verdicts: &[bool]) -> String {
    let hits: Vec<String> =
        verdicts.iter().enumerate().filter(|v| *v.1).map(|v| v.0.to_string()).collect();
    hits.join(" ")
}

#[test]
fn probability_fail_stream_is_pinned() {
    let mut ledger = Ledger::open("probability_fail_stream_is_pinned");
    let mut p = FailPolicy::new(FailMode::Probability { rate_ppm: 100_000, seed: 7 });
    let got: Vec<bool> = (0..64).map(|_| p.decide(0)).collect();
    ledger.pin("fired", fired(&got));
    ledger.pin("state", state(&p));
    ledger.finish();
}

#[test]
fn probability_poison_stream_is_pinned() {
    let mut ledger = Ledger::open("probability_poison_stream_is_pinned");
    let mut p = PoisonPolicy::new(PoisonMode::Probability { rate_ppm: 250_000, seed: 9 });
    let (strikes, draws): (Vec<bool>, Vec<String>) =
        (0..32).map(|_| (p.decide(()), p.draw_index(512).to_string())).unzip();
    ledger.pin("fired", fired(&strikes));
    ledger.pin("draws", draws.join(" "));
    ledger.pin("state", state(&p));
    ledger.finish();
}

#[test]
fn storm_transport_stream_is_pinned() {
    let mut ledger = Ledger::open("storm_transport_stream_is_pinned");
    let mut p = TransportPolicy::new(TransportMode::storm(200_000, 3));
    let faults: Vec<(usize, TransportFault)> = (0..64)
        .map(|i| (i, p.decide(())))
        .filter(|f| f.1 != TransportFault::Deliver)
        .collect();
    ledger.pin("faults", format_args!("{faults:?}"));
    ledger.pin("state", state(&p));
    ledger.finish();
}

#[test]
fn restored_injectors_resume_mid_stream() {
    let mut ledger = Ledger::open("restored_injectors_resume_mid_stream");
    let fail = FailMode::Probability { rate_ppm: 100_000, seed: 7 };
    let mut p = FailPolicy::new(fail);
    for _ in 0..32 {
        p.decide(0);
    }
    ledger.pin("fail.after_32", state(&p));
    let mut q = FailPolicy::restore(fail, p.attempts(), p.injected(), member(&p, "rng_state"));
    assert!((32..64).all(|_| q.decide(0) == p.decide(0)));

    let poison = PoisonMode::Probability { rate_ppm: 250_000, seed: 9 };
    let mut p = PoisonPolicy::new(poison);
    for _ in 0..16 {
        p.decide(());
        p.draw_index(512);
    }
    ledger.pin("poison.after_16", state(&p));
    let mut q = PoisonPolicy::restore(poison, p.attempts(), p.injected(), member(&p, "rng_state"));
    assert!((16..32)
        .all(|_| (q.decide(()), q.draw_index(512)) == (p.decide(()), p.draw_index(512))));

    let storm = TransportMode::storm(200_000, 3);
    let mut p = TransportPolicy::new(storm);
    for _ in 0..32 {
        p.decide(());
    }
    ledger.pin("storm.after_32", state(&p));
    let (attempts, injected) = (p.attempts(), p.injected());
    let mut q = TransportPolicy::restore(storm, attempts, injected, member(&p, "rng_state"));
    assert!((32..64).all(|_| q.decide(()) == p.decide(())));
    ledger.finish();
}

#[test]
fn never_modes_count_and_zero_rates_still_draw() {
    let mut ledger = Ledger::open("never_modes_count_and_zero_rates_still_draw");
    let mut p = FailPolicy::new(FailMode::Never);
    assert!((0..10).all(|_| !p.decide(10)));
    ledger.pin("never.state", state(&p));

    // A zero rate draws exactly as often as any other rate under the seed,
    // so its stream state matches the non-zero rate's.
    let mut p = FailPolicy::new(FailMode::Probability { rate_ppm: 0, seed: 7 });
    assert!((0..64).all(|_| !p.decide(10)));
    ledger.pin("fail_zero.state", state(&p));

    let mut p = PoisonPolicy::new(PoisonMode::Probability { rate_ppm: 0, seed: 9 });
    assert!((0..32).all(|_| !p.decide(())));
    ledger.pin("poison_zero.state", state(&p));

    let mut p = TransportPolicy::new(TransportMode::storm(0, 3));
    assert!((0..64).all(|_| p.decide(()) == TransportFault::Deliver));
    ledger.pin("storm_zero.state", state(&p));
    ledger.finish();
}

#[test]
fn counted_modes_after_ten_calls() {
    let mut ledger = Ledger::open("counted_modes_after_ten_calls");
    let fail_modes = [
        ("fail_nth", FailMode::Nth { n: 3 }),
        ("fail_every_4th", FailMode::EveryNth { n: 4 }),
        ("fail_min_order_9", FailMode::MinOrder { min_order: 9 }),
    ];
    for (key, mode) in fail_modes {
        let mut p = FailPolicy::new(mode);
        let got: Vec<bool> = (0..10).map(|order| p.decide(order)).collect();
        ledger.pin(&format!("{key}.fired"), fired(&got));
        ledger.pin(&format!("{key}.state"), state(&p));
    }
    let poison_modes = [
        ("poison_every_4th", PoisonMode::EveryNth { n: 4 }),
        ("poison_address", PoisonMode::Address { pfn: Pfn::new(77), n: 2 }),
    ];
    for (key, mode) in poison_modes {
        let mut p = PoisonPolicy::new(mode);
        let got: Vec<bool> = (0..10).map(|_| p.decide(())).collect();
        ledger.pin(&format!("{key}.fired"), fired(&got));
        ledger.pin(&format!("{key}.state"), state(&p));
    }
    let kill = TransportMode::FaultNth { n: 3, kind: TransportFault::Disconnect };
    let mut p = TransportPolicy::new(kill);
    let got: Vec<TransportFault> = (0..10).map(|_| p.decide(())).collect();
    ledger.pin("transport_nth.verdicts", format_args!("{got:?}"));
    ledger.pin("transport_nth.state", state(&p));
    ledger.finish();
}
