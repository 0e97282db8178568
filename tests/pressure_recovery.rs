//! Memory-pressure resilience acceptance tests: the hog workload runs under
//! deterministic, seeded allocation-failure injection at several rates. The
//! system must never panic, surface only typed errors, keep every
//! cross-layer invariant (post-run `audit()` is clean), and produce exactly
//! the same recovery-stage counters on every run with the same seed.

use contig::prelude::*;
use contig_mm::RecoveryStats;
use contig_trace::{parse_jsonl, RecoveryStage, TraceEvent, TraceSession};
use contig_types::{FailMode, FailPolicy, FaultError};

const MACHINE_MIB: u64 = 32;
const HOG_FRACTION: f64 = 0.5;
const HOG_SEED: u64 = 11;
const FILE_BASE: u64 = 0x9000_0000;
const FILE_LEN: u64 = 4 << 20;
const ANON_BASE: u64 = 0x40_0000;
const ANON_LEN: u64 = 16 << 20;

/// Everything a pressure run produces, for exact cross-run comparison.
///
/// The traced counters come from the [`contig_trace`] metrics registry; they
/// are part of the outcome so the `assert_eq!(out, pressure_run(..))` re-run
/// checks also prove the *trace* is bit-identical under a fixed seed.
#[derive(Debug, PartialEq, Eq)]
struct RunOutcome {
    recovery: RecoveryStats,
    ooms_surfaced: u64,
    injected: u64,
    attempts: u64,
    mapped_bytes: u64,
    traced_injections: u64,
    traced_attempts: u64,
    trace_events: u64,
}

/// Drives the hog workload — a memory hog pins half the machine, then one
/// process streams a 4 MiB file through the page cache and demand-faults a
/// 16 MiB anonymous VMA — with `policy` injecting allocation failures. The
/// demand exactly equals the remaining memory only after reclaim evicts the
/// page cache, so the recovery path must run even without injection.
///
/// Any error other than [`FaultError::OutOfMemory`] panics the test: under
/// pressure the system may refuse memory, but only with the typed error.
fn pressure_run(policy: FailPolicy) -> RunOutcome {
    let mut sys = System::new(SystemConfig::new(MachineConfig::single_node_mib(MACHINE_MIB)));
    // Trace the whole run through a ring big enough to never drop.
    let session = TraceSession::ring(1 << 20);
    sys.set_tracer(session.tracer());
    let _hog = Hog::occupy(sys.machine_mut(), HOG_FRACTION, HOG_SEED);
    let pid = sys.spawn();
    let file = sys.page_cache_mut().create_file();
    sys.aspace_mut(pid).map_vma(
        VirtRange::new(VirtAddr::new(FILE_BASE), FILE_LEN),
        VmaKind::File { file, start_page: 0 },
    );
    sys.aspace_mut(pid)
        .map_vma(VirtRange::new(VirtAddr::new(ANON_BASE), ANON_LEN), VmaKind::Anon);
    sys.set_fail_policy(policy);

    let mut thp = DefaultThpPolicy;
    let mut ooms_surfaced = 0u64;

    // Stream the file: every page read through the cache (readahead windows
    // shrink under injected pressure before an OOM may surface).
    for i in 0..FILE_LEN / 4096 {
        match sys.touch(&mut thp, pid, VirtAddr::new(FILE_BASE + i * 4096)) {
            Ok(_) => {}
            Err(FaultError::OutOfMemory { .. }) => ooms_surfaced += 1,
            Err(other) => panic!("untyped failure escaped the fault path: {other:?}"),
        }
    }
    // Demand-fault the anonymous VMA; a hard OOM skips one base page and
    // keeps going, as a resilient workload would.
    let mut va = VirtAddr::new(ANON_BASE);
    let end = VirtAddr::new(ANON_BASE + ANON_LEN);
    while va < end {
        match sys.touch(&mut thp, pid, va) {
            Ok(out) => va = va.align_down(out.size) + out.size.bytes(),
            Err(FaultError::OutOfMemory { .. }) => {
                ooms_surfaced += 1;
                va += 4096u64;
            }
            Err(other) => panic!("untyped failure escaped the fault path: {other:?}"),
        }
    }

    // The cross-layer auditor must find a perfectly consistent system no
    // matter what the injector did.
    let report = sys.audit();
    assert!(report.is_clean(), "audit after pressure run:\n{report}");
    sys.machine().verify_integrity();

    let recovery = *sys.recovery_stats();
    verify_trace(&session, &recovery, &sys);

    let metrics = session.metrics();
    RunOutcome {
        recovery,
        ooms_surfaced,
        injected: sys.machine().injected_failures(),
        attempts: sys.machine().fail_attempts(),
        mapped_bytes: sys.aspace(pid).mapped_bytes(),
        traced_injections: metrics.counter("inject.failure"),
        traced_attempts: metrics.counter("fail.attempts"),
        trace_events: session.records().len() as u64,
    }
}

/// The trace must be a faithful ledger: per-stage recovery event counts in
/// the exported JSONL exactly equal the [`RecoveryStats`] totals, and the
/// traced injection/attempt counters mirror the buddy allocator's own.
fn verify_trace(session: &TraceSession, recovery: &RecoveryStats, sys: &System) {
    if !session.tracer().is_enabled() {
        return; // probes compiled out: nothing to cross-check
    }
    assert_eq!(session.dropped(), 0, "ring must be large enough for the whole run");
    let jsonl = contig_trace::export_jsonl(&session.records());
    let parsed = parse_jsonl(&jsonl).expect("exported trace must parse back");
    assert_eq!(parsed, session.records(), "JSONL round-trip must be lossless");

    let stage_count = |stage: RecoveryStage| {
        parsed
            .iter()
            .filter(|r| matches!(r.event, TraceEvent::Recovery { stage: s, .. } if s == stage))
            .count() as u64
    };
    assert_eq!(stage_count(RecoveryStage::OomEvent), recovery.oom_events);
    assert_eq!(stage_count(RecoveryStage::ReclaimPass), recovery.reclaim_passes);
    assert_eq!(stage_count(RecoveryStage::CompactionPass), recovery.compaction_passes);
    assert_eq!(stage_count(RecoveryStage::Retry), recovery.retries);
    assert_eq!(stage_count(RecoveryStage::OrderBackoff), recovery.order_backoffs);
    assert_eq!(stage_count(RecoveryStage::ReadaheadShrink), recovery.readahead_shrinks);
    assert_eq!(stage_count(RecoveryStage::RecoveredFault), recovery.recovered_faults);
    assert_eq!(stage_count(RecoveryStage::HardOom), recovery.hard_ooms);

    // Stage payloads aggregate to the stats totals too.
    let stage_sum = |stage: RecoveryStage, f: fn(u64, u64, u64) -> u64| {
        parsed
            .iter()
            .filter_map(|r| match r.event {
                TraceEvent::Recovery { stage: s, amount, extra, latency_ns } if s == stage => {
                    Some(f(amount, extra, latency_ns))
                }
                _ => None,
            })
            .sum::<u64>()
    };
    assert_eq!(
        stage_sum(RecoveryStage::ReclaimPass, |amount, _, _| amount),
        recovery.reclaimed_pages
    );
    assert_eq!(
        stage_sum(RecoveryStage::ReclaimPass, |_, _, ns| ns),
        recovery.reclaim_ns
    );
    assert_eq!(
        stage_sum(RecoveryStage::CompactionPass, |amount, _, _| amount),
        recovery.migrated_blocks
    );
    assert_eq!(
        stage_sum(RecoveryStage::CompactionPass, |_, extra, _| extra),
        recovery.migrated_frames
    );
    assert_eq!(
        stage_sum(RecoveryStage::CompactionPass, |_, _, ns| ns),
        recovery.compaction_ns
    );

    let metrics = session.metrics();
    assert_eq!(metrics.counter("inject.failure"), sys.machine().injected_failures());
    // The registry is a whole-run ledger while `set_fail_policy` installs a
    // policy whose counters start at zero, so the traced attempt count also
    // covers the consultations made before the injector was armed (the hog's
    // allocations here). It can therefore only exceed the policy's figure.
    assert!(
        metrics.counter("fail.attempts") >= sys.machine().fail_attempts(),
        "traced {} vs policy {}",
        metrics.counter("fail.attempts"),
        sys.machine().fail_attempts()
    );
    let injection_events = session
        .records()
        .iter()
        .filter(|r| matches!(r.event, TraceEvent::InjectedFailure { .. }))
        .count() as u64;
    assert_eq!(injection_events, sys.machine().injected_failures());
}

#[test]
fn one_percent_injection_is_fully_absorbed() {
    let policy = FailPolicy::new(FailMode::Probability { rate_ppm: 10_000, seed: 42 });
    let out = pressure_run(policy.clone());
    assert!(out.injected > 0, "1 % of {} attempts must inject", out.attempts);
    assert!(
        out.recovery.oom_events > 0,
        "injected failures must reach the recovery path"
    );
    // Sparse failures are recovered transparently: retries and fallbacks,
    // but the workload itself never sees an OOM.
    assert_eq!(out.ooms_surfaced, 0, "{out:?}");
    assert_eq!(out.recovery.hard_ooms, 0, "{out:?}");
    assert!(out.recovery.retries + out.recovery.order_backoffs > 0, "{out:?}");
    // Reclaim may have unmapped streamed file pages, but the anonymous
    // working set must be complete.
    assert!(out.mapped_bytes >= ANON_LEN, "{out:?}");
    // Exact stage counters under a fixed seed: run twice, compare all.
    assert_eq!(out, pressure_run(policy));
}

#[test]
fn ten_percent_injection_stays_typed_and_consistent() {
    let policy = FailPolicy::new(FailMode::Probability { rate_ppm: 100_000, seed: 7 });
    let out = pressure_run(policy.clone());
    assert!(out.injected > out.attempts / 20, "10 % rate must bite: {out:?}");
    assert!(out.recovery.oom_events > 0);
    assert!(out.recovery.retries > 0, "{out:?}");
    assert!(
        out.recovery.reclaim_passes + out.recovery.compaction_passes > 0,
        "recovery stages must have run: {out:?}"
    );
    assert_eq!(out, pressure_run(policy));
}

#[test]
fn every_nth_injection_has_exact_deterministic_counters() {
    let policy = FailPolicy::new(FailMode::EveryNth { n: 5 });
    let out = pressure_run(policy.clone());
    assert_eq!(out.injected, out.attempts / 5, "EveryNth is exact by construction");
    assert!(out.recovery.oom_events > 0);
    assert_eq!(out, pressure_run(policy));
}

#[test]
fn high_order_failures_degrade_to_base_pages() {
    // Only huge allocations fail: the regime where fragmentation kills
    // high-order allocations first. Every fault must still complete via
    // order back-off; nothing may surface to the workload.
    let out = pressure_run(FailPolicy::new(FailMode::MinOrder { min_order: 9 }));
    assert!(out.recovery.order_backoffs > 0, "{out:?}");
    assert_eq!(out.ooms_surfaced, 0, "{out:?}");
    assert_eq!(out.recovery.hard_ooms, 0, "{out:?}");
    assert!(out.mapped_bytes >= ANON_LEN, "{out:?}");
}
