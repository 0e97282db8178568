//! The experiment harness's outputs at test scale, pinned in
//! `tests/pins.ledger`.
//!
//! `paper_claims` checks the paper's inequalities, and CI's `all` diff checks
//! the printed tables at 1/64 scale. These pin the exact numbers every runner
//! returns at `Env::tiny()` (Fig. 1b and Fig. 10 at 1/256, where top-32
//! coverage no longer saturates), so a change to the harness that moves one
//! placement, daemon tick, timeline sample or replayed access fails here in
//! seconds. The `harness_pins.*` ledger values were recorded before the
//! harness's per-kind dispatch and its copied set-up were merged into one
//! path each (PR 30). Floats are pinned by their bits, and rows with private
//! fields or many members by their `Debug` text.

use contig_metrics::TimelinePoint;
use contig_sim::contiguity::{self, ContiguityRun};
use contig_sim::{bloat, fragmentation, latency, overhead, translation, Env, PolicyKind};
use contig_workloads::{Scale, Workload};

mod pins;
use pins::{hex, Ledger};

fn env() -> Env {
    Env::tiny()
}

/// FNV-1a-64 over every timeline sample's three counters.
fn timeline_fnv(timeline: &[TimelinePoint]) -> u64 {
    let mut h = 0xcbf2_9ce4_8422_2325u64;
    for p in timeline {
        for word in [p.t, p.top32_bytes, p.mapped_bytes] {
            for byte in word.to_le_bytes() {
                h = (h ^ u64::from(byte)).wrapping_mul(0x0100_0000_01b3);
            }
        }
    }
    h
}

/// Pins one contiguity run under `key`: top-32 and top-128 coverage bits,
/// mappings for 99 %, pages migrated, timeline length and its FNV.
fn pin_run(ledger: &mut Ledger, key: &str, run: &ContiguityRun) {
    let m = &run.metrics;
    ledger.pin(&format!("{key}.top32"), hex(m.top32.to_bits()));
    ledger.pin(&format!("{key}.top128"), hex(m.top128.to_bits()));
    ledger.pin(&format!("{key}.n99"), m.n99);
    ledger.pin(&format!("{key}.pages_migrated"), run.pages_migrated);
    ledger.pin(&format!("{key}.samples"), run.timeline.len());
    ledger.pin(&format!("{key}.timeline_fnv"), hex(timeline_fnv(&run.timeline)));
}

#[test]
fn run_native_is_pinned_for_every_kind() {
    use PolicyKind::*;
    let mut ledger = Ledger::open("run_native_is_pinned_for_every_kind");
    let kinds = [FourK, Thp, Ingens, Ca, Eager, Ranger, Ideal, CaReserve, CaRanger];
    for w in [Workload::PageRank, Workload::XsBench] {
        for kind in kinds {
            let run = contiguity::run_native(&env(), w, kind, 0.0, 1);
            pin_run(&mut ledger, &format!("{w:?}.{kind:?}"), &run);
        }
    }
    // Under hog pressure (Fig. 8, and the extension's CA+ranger row).
    for kind in [Ca, Eager, Ideal, CaRanger] {
        let run = contiguity::run_native(&env(), Workload::XsBench, kind, 0.5, 5);
        pin_run(&mut ledger, &format!("hog50.{kind:?}"), &run);
    }
    ledger.finish();
}

/// Pins each float of `values` by its bits, under `key.<index>`.
fn pin_bits(ledger: &mut Ledger, key: &str, values: &[f64]) {
    for (i, v) in values.iter().enumerate() {
        ledger.pin(&format!("{key}.{i}"), hex(v.to_bits()));
    }
}

#[test]
fn consecutive_and_multiprogrammed_runs_are_pinned() {
    let mut ledger = Ledger::open("consecutive_and_multiprogrammed_runs_are_pinned");
    let env = Env::new(Scale(256));
    for kind in [PolicyKind::Thp, PolicyKind::Ca, PolicyKind::Eager] {
        let got = contiguity::run_consecutive(&env, Workload::PageRank, kind, 3);
        pin_bits(&mut ledger, &format!("consecutive.{kind:?}"), &got);
    }
    let multiprogrammed = [
        (PolicyKind::Thp, 0.0),
        (PolicyKind::Ranger, 0.0),
        (PolicyKind::Ca, 0.3),
        (PolicyKind::CaReserve, 0.3),
    ];
    for (kind, pressure) in multiprogrammed {
        let got = contiguity::run_multiprogrammed(&env, Workload::Svm, kind, pressure);
        pin_bits(&mut ledger, &format!("multiprogrammed.{kind:?}"), &got);
    }
    ledger.finish();
}

#[test]
fn latency_bloat_and_overhead_rows_are_pinned() {
    let mut ledger = Ledger::open("latency_bloat_and_overhead_rows_are_pinned");
    let w = Workload::HashJoin;
    for kind in [PolicyKind::Thp, PolicyKind::Ca, PolicyKind::Eager] {
        let row = latency::run_latency(&env(), w, kind);
        ledger.pin(&format!("latency.{kind:?}"), format_args!("{row:?}"));
    }
    use PolicyKind::{Ca, Eager, FourK, Ingens, Thp};
    for kind in [FourK, Thp, Ca, Ingens, Eager] {
        let row = bloat::run_bloat(&env(), w, kind);
        ledger.pin(&format!("bloat.{kind:?}.bytes"), row.bloat_bytes);
        ledger.pin(&format!("bloat.{kind:?}.fraction"), hex(row.bloat_fraction.to_bits()));
    }
    let kinds = [PolicyKind::Thp, PolicyKind::Ca, PolicyKind::Eager, PolicyKind::Ranger];
    let mut rows: Vec<_> = kinds.iter().map(|&k| overhead::run_overhead(&env(), w, k)).collect();
    overhead::normalize_rows(&mut rows);
    for (kind, row) in kinds.iter().zip(&rows) {
        ledger.pin(&format!("overhead.{kind:?}"), hex(row.normalized.to_bits()));
    }
    ledger.finish();
}

#[test]
fn fragmentation_histograms_are_pinned() {
    let mut ledger = Ledger::open("fragmentation_histograms_are_pinned");
    let batch = [Workload::Svm, Workload::PageRank, Workload::Svm];
    for kind in [PolicyKind::Thp, PolicyKind::Ca] {
        let got = fragmentation::run_fragmentation(&env(), kind, &batch);
        ledger.pin(&format!("{kind:?}"), format_args!("{got:?}"));
    }
    ledger.finish();
}

#[test]
fn virtualized_runs_and_table_one_are_pinned() {
    let mut ledger = Ledger::open("virtualized_runs_and_table_one_are_pinned");
    for kind in [PolicyKind::Thp, PolicyKind::Ca] {
        let run = contiguity::run_virtualized(&env(), Workload::PageRank, kind);
        pin_run(&mut ledger, &format!("virtualized.{kind:?}"), &run);
    }
    for w in [Workload::PageRank, Workload::XsBench] {
        let row = translation::table_one_row(&env(), w);
        ledger.pin(&format!("table_one.{w:?}"), format_args!("{row:?}"));
    }
    ledger.finish();
}

#[test]
fn translation_runs_are_pinned_for_every_config() {
    let mut ledger = Ledger::open("translation_runs_are_pinned_for_every_config");
    // Fig. 13's columns, in its order.
    let keys =
        ["Native4K", "NativeThp", "Virt4K", "VirtThp", "Spot", "Vrmm", "Vhc", "DirectSegments"];
    let row = translation::fig13_row(&env(), Workload::PageRank, 100_000, 3);
    for (key, run) in keys.into_iter().zip(row) {
        ledger.pin(&format!("{key}.report"), format_args!("{:?}", run.report));
        ledger.pin(&format!("{key}.overhead"), hex(run.overhead.to_bits()));
        ledger.pin(&format!("{key}.spot"), format_args!("{:?}", run.spot));
    }
    ledger.finish();
}
