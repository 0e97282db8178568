//! The paper's headline claims, checked end-to-end at test scale through the
//! experiment harness (the bench binaries rerun the same claims at full
//! scale).

use contig_sim::{bloat, contiguity, latency, overhead, translation, Env, PolicyKind};
use contig_workloads::Workload;

fn env() -> Env {
    Env::tiny()
}

/// §VI-A: "CA paging generates contiguity comparable to that of eager paging
/// and improved compared to translation ranger ... orders of magnitude less
/// than default paging."
#[test]
fn claim_ca_contiguity_without_pressure() {
    let w = Workload::PageRank;
    let thp = contiguity::run_native(&env(), w, PolicyKind::Thp, 0.0, 1).metrics;
    let ca = contiguity::run_native(&env(), w, PolicyKind::Ca, 0.0, 1).metrics;
    assert!(ca.n99 * 2 <= thp.n99, "CA {} vs THP {}", ca.n99, thp.n99);
    assert!(ca.top32 > 0.95);
    // On the anonymous-only XSBench, the offline planner bounds CA tightly
    // (PageRank's page-cache half places itself outside the plan).
    let w = Workload::XsBench;
    let ca = contiguity::run_native(&env(), w, PolicyKind::Ca, 0.0, 1).metrics;
    let ideal = contiguity::run_native(&env(), w, PolicyKind::Ideal, 0.0, 1).metrics;
    assert!(ideal.n99 <= ca.n99 + 4, "ideal {} vs CA {}", ideal.n99, ca.n99);
}

/// §VI-A: "CA paging is fairly robust, outperforming eager paging [under
/// fragmentation] ... always follows Ideal paging."
#[test]
fn claim_ca_robust_under_fragmentation() {
    let w = Workload::XsBench;
    let ca = contiguity::run_native(&env(), w, PolicyKind::Ca, 0.5, 5).metrics;
    let eager = contiguity::run_native(&env(), w, PolicyKind::Eager, 0.5, 5).metrics;
    let ideal = contiguity::run_native(&env(), w, PolicyKind::Ideal, 0.5, 5).metrics;
    assert!(
        ca.n99 <= eager.n99,
        "CA ({}) must need no more mappings than eager ({}) under pressure",
        ca.n99,
        eager.n99
    );
    assert!(ca.n99 <= ideal.n99 * 2, "CA follows ideal: {} vs {}", ca.n99, ideal.n99);
}

/// §VI-B headline: SpOT reduces nested-paging overhead by an order of
/// magnitude (~16.5 % → ~0.9 % in the paper).
#[test]
fn claim_spot_slashes_nested_overhead() {
    let w = Workload::XsBench;
    let [.., base, spot, _, _, _] = translation::fig13_row(&env(), w, 600_000, 2);
    assert!(
        spot.overhead < base.overhead / 5.0,
        "SpOT {:.4} vs THP+THP {:.4}",
        spot.overhead,
        base.overhead
    );
    assert!(spot.spot.correct_rate() > 0.9);
}

/// §II / §VI-B: nested paging magnifies translation overhead versus native.
#[test]
fn claim_virtualization_magnifies_overhead() {
    let w = Workload::PageRank;
    let [_, native, _, virt, ..] = translation::fig13_row(&env(), w, 400_000, 3);
    assert!(virt.overhead > native.overhead * 2.0);
    // And every nested walk issues more references than a native one.
    assert!(virt.report.walk_refs / virt.report.walks.max(1) >= 15);
    assert!(native.report.walk_refs / native.report.walks.max(1) <= 4);
}

/// §VI-B: vRMM with CA paging reduces overhead below SpOT (at complex
/// hardware cost); DS eliminates it.
#[test]
fn claim_comparator_ordering() {
    let w = Workload::HashJoin;
    let [.., spot, vrmm, _, ds] = translation::fig13_row(&env(), w, 400_000, 4);
    assert!(vrmm.overhead <= spot.overhead + 1e-9);
    assert!(ds.overhead < 1e-9);
}

/// Table V: CA keeps demand paging (identical fault counts to THP); eager
/// collapses faults and blows up tail latency.
#[test]
fn claim_fault_latency_table() {
    let w = Workload::PageRank;
    let thp = latency::run_latency(&env(), w, PolicyKind::Thp);
    let ca = latency::run_latency(&env(), w, PolicyKind::Ca);
    let eager = latency::run_latency(&env(), w, PolicyKind::Eager);
    assert_eq!(thp.faults, ca.faults);
    assert!(eager.faults < thp.faults);
    assert!(eager.p99_us > ca.p99_us * 5);
}

/// Table VI: CA does not change page-size decisions, so its bloat matches
/// THP's; eager's reservation-backed bloat dwarfs both.
#[test]
fn claim_bloat_table() {
    // hashjoin has the paper's largest allocator reservation (47.5 %).
    let w = Workload::HashJoin;
    let thp = bloat::run_bloat(&env(), w, PolicyKind::Thp);
    let ca = bloat::run_bloat(&env(), w, PolicyKind::Ca);
    let eager = bloat::run_bloat(&env(), w, PolicyKind::Eager);
    let ratio = ca.bloat_bytes as f64 / thp.bloat_bytes.max(1) as f64;
    assert!((0.3..=3.0).contains(&ratio), "CA ~ THP bloat, ratio {ratio}");
    assert!(eager.bloat_bytes > 4 * thp.bloat_bytes);
}

/// Fig. 11: CA and eager add no software overhead; ranger pays for
/// migrations.
#[test]
fn claim_software_overhead() {
    let w = Workload::HashJoin;
    let mut rows = vec![
        overhead::run_overhead(&env(), w, PolicyKind::Thp),
        overhead::run_overhead(&env(), w, PolicyKind::Ca),
        overhead::run_overhead(&env(), w, PolicyKind::Ranger),
    ];
    overhead::normalize_rows(&mut rows);
    let ca = rows[1].normalized;
    let ranger = rows[2].normalized;
    assert!((0.95..1.05).contains(&ca), "CA {ca}");
    assert!(ranger > 1.004, "ranger must pay visibly, got {ranger}");
}

/// Table VII: SpOT's unsafe-load exposure stays below Spectre's.
#[test]
fn claim_usl_estimate() {
    let run = translation::spot_run(&env(), Workload::XsBench, 400_000, 6);
    let usl = translation::usl_estimate(&env(), Workload::XsBench, &run.report);
    assert!(usl.spot_usl_fraction < usl.spectre_usl_fraction);
}

/// Extension (§I): "THP+THP overhead grows ~1.6× with the fifth level ...
/// while SpOT stays at ~0 %" (EXPERIMENTS.md). The bar is growth by more
/// than a quarter, and "~0 %" is below half a percent, which prints as 0 at
/// whole-percent precision.
#[test]
fn claim_five_level_paging_grows_walks_spot_hides() {
    let [thp_4, thp_5, spot_4, spot_5] =
        translation::five_level_row(&env(), Workload::XsBench, 400_000, 7);
    assert!(thp_5 > thp_4 * 1.25, "THP+THP 5-level {thp_5:.4} vs 4-level {thp_4:.4}");
    assert!(spot_4 < 0.005 && spot_5 < 0.005, "SpOT {spot_4:.4} / {spot_5:.4}");
}

/// Extension (§VII): "a hypervisor-maintained 1D shadow table cuts the
/// exposed walk overhead ~5× versus nested paging ... SpOT applied to the
/// shadow's gVA→hPA offsets removes the rest" (EXPERIMENTS.md). The bar is
/// a 3× cut, and SpOT leaves less than the shadow table alone and ~0 %.
#[test]
fn claim_shadow_paging_cuts_walks_spot_removes_the_rest() {
    let ([nested, shadow, shadow_spot], sync_traps) =
        translation::shadow_row(&env(), Workload::XsBench, 400_000, 8);
    assert!(shadow < nested / 3.0, "shadow {shadow:.4} vs nested {nested:.4}");
    assert!(shadow_spot < shadow && shadow_spot < 0.005, "shadow+SpOT {shadow_spot:.4}");
    assert!(sync_traps > 0, "every shadow entry is installed by a trap");
}
