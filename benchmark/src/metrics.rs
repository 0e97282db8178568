//! Every metric the benchmark reports: name, unit, direction, and — for the
//! end-to-end ones — the bound by which it may worsen before a change
//! counts as a regression. `BENCHMARK.json` and the README table are
//! checked against these tables.

use crate::workloads::Counts;

#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Better {
    Higher,
    Lower,
}

impl Better {
    pub fn as_str(self) -> &'static str {
        match self {
            Better::Higher => "higher",
            Better::Lower => "lower",
        }
    }
}

/// Where a per-layer value comes from.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Source {
    /// Floored host nanoseconds per call from the `layer_probes` pass.
    Probe,
    /// Exact count from the public stats structs of the end-to-end run.
    Count,
    /// Host time measured on the workload itself (traced pass, or the
    /// per-arm floors of `translation_replay`).
    Host,
}

pub struct MetricDef {
    pub name: &'static str,
    pub unit: &'static str,
    pub better: Better,
    pub source: Source,
}

pub struct EndToEndDef {
    pub name: &'static str,
    pub unit: &'static str,
    pub better: Better,
    /// Share of A's value, in ppm, by which B may be worse before `compare`
    /// calls it a regression. 0 means "must not move" (`failed_ppm`).
    pub bound_ppm: u64,
    /// The bound `BENCHMARK.json` declares to its driver. Wider than
    /// `bound_ppm`: the driver compares medians of runs spread over an hour
    /// and over seeds, and refuses a benchmark whose own quartile spread
    /// exceeds the bound; on a shared 2-core box whole runs differ by ±8 %
    /// (see the README), which no estimator inside one run can remove.
    pub manifest_bound_ppm: u64,
}

/// The end-to-end metrics, reported for every workload.
pub const END_TO_END: [EndToEndDef; 6] = [
    EndToEndDef {
        name: "events_per_s",
        unit: "1/s",
        better: Better::Higher,
        bound_ppm: 100_000,
        manifest_bound_ppm: 200_000,
    },
    EndToEndDef {
        name: "batch_p50_ns_per_event",
        unit: "ns",
        better: Better::Lower,
        bound_ppm: 100_000,
        manifest_bound_ppm: 200_000,
    },
    EndToEndDef {
        name: "batch_p95_ns_per_event",
        unit: "ns",
        better: Better::Lower,
        bound_ppm: 150_000,
        manifest_bound_ppm: 250_000,
    },
    EndToEndDef {
        name: "setup_s",
        unit: "s",
        better: Better::Lower,
        bound_ppm: 250_000,
        manifest_bound_ppm: 250_000,
    },
    EndToEndDef {
        name: "peak_rss_mib",
        unit: "MiB",
        better: Better::Lower,
        bound_ppm: 100_000,
        manifest_bound_ppm: 100_000,
    },
    EndToEndDef {
        name: "failed_ppm",
        unit: "ppm",
        better: Better::Lower,
        bound_ppm: 0,
        manifest_bound_ppm: 0,
    },
];

/// `setup_s` may also worsen by this much in absolute terms (50 ms) before
/// `compare` flags it: a 25 % move of a 20 ms set-up is noise.
pub const SETUP_SLACK_MICRO: u64 = 50_000;

const fn probe(name: &'static str) -> MetricDef {
    MetricDef {
        name,
        unit: "ns",
        better: Better::Lower,
        source: Source::Probe,
    }
}

const fn count(name: &'static str, unit: &'static str, better: Better) -> MetricDef {
    MetricDef {
        name,
        unit,
        better,
        source: Source::Count,
    }
}

const fn host(name: &'static str, unit: &'static str, better: Better) -> MetricDef {
    MetricDef {
        name,
        unit,
        better,
        source: Source::Host,
    }
}

const LOWER: Better = Better::Lower;
const HIGHER: Better = Better::Higher;

/// The per-layer metrics, layer by layer (the layers are the crates).
pub const PER_LAYER: [MetricDef; 98] = [
    // buddy
    probe("buddy.alloc_o0_ns"),
    probe("buddy.alloc_o9_ns"),
    probe("buddy.free_o0_ns"),
    probe("buddy.free_o9_ns"),
    probe("buddy.alloc_specific_o0_ns"),
    probe("buddy.alloc_specific_o9_ns"),
    probe("buddy.pcp_alloc_ns"),
    probe("buddy.alloc_bulk_frame_ns"),
    probe("buddy.next_fit_ns"),
    probe("buddy.contig_map_update_ns"),
    probe("buddy.verify_integrity_frame_ns"),
    probe("buddy.snapshot_frame_ns"),
    count("buddy.allocs_per_kevent", "1/kevent", LOWER),
    count("buddy.targeted_allocs_per_kevent", "1/kevent", LOWER),
    count("buddy.frees_per_kevent", "1/kevent", LOWER),
    count("buddy.splits_per_kevent", "1/kevent", LOWER),
    count("buddy.coalesces_per_kevent", "1/kevent", LOWER),
    count("buddy.pcp_refills_per_kevent", "1/kevent", LOWER),
    count("buddy.pcp_evictions_per_kevent", "1/kevent", LOWER),
    count("buddy.pcp_hit_ppm", "ppm", HIGHER),
    count("buddy.targeted_miss_ppm", "ppm", LOWER),
    // mm
    probe("mm.pt_map_ns"),
    probe("mm.pt_translate_ns"),
    probe("mm.pt_unmap_ns"),
    probe("mm.pt_iter_mapping_ns"),
    probe("mm.fault_4k_ns"),
    probe("mm.fault_2m_ns"),
    probe("mm.touch_present_ns"),
    probe("mm.cow_break_ns"),
    probe("mm.fork_page_ns"),
    probe("mm.exit_page_ns"),
    probe("mm.readahead_page_ns"),
    probe("mm.daemon_tick_ns"),
    probe("mm.snapshot_page_ns"),
    probe("mm.restore_page_ns"),
    probe("mm.audit_frame_ns"),
    host("mm.touch_busy_ppm", "ppm", LOWER),
    host("mm.cow_busy_ppm", "ppm", LOWER),
    host("mm.fork_busy_ppm", "ppm", LOWER),
    host("mm.exit_busy_ppm", "ppm", LOWER),
    host("mm.readahead_busy_ppm", "ppm", LOWER),
    count("mm.faults_4k_per_kevent", "1/kevent", LOWER),
    count("mm.faults_2m_per_kevent", "1/kevent", LOWER),
    count("mm.cow_faults_per_kevent", "1/kevent", LOWER),
    count("mm.thp_fallbacks_per_kevent", "1/kevent", LOWER),
    count("mm.oom_events_per_kevent", "1/kevent", LOWER),
    count("mm.recovery_retries_per_kevent", "1/kevent", LOWER),
    count("mm.daemon_moves_per_kevent", "1/kevent", LOWER),
    count("mm.sim_ns_per_fault", "sim-ns", LOWER),
    // core
    probe("core.ca_fault_4k_ns"),
    probe("core.spot_on_miss_ns"),
    count("core.ca_placements_per_kevent", "1/kevent", LOWER),
    count("core.ca_target_hit_ppm", "ppm", HIGHER),
    count("core.spot_correct_ppm", "ppm", HIGHER),
    count("core.spot_fills_per_kevent", "1/kevent", LOWER),
    // virt
    probe("virt.boot_mib_ns"),
    probe("virt.touch_nested_ns"),
    probe("virt.touch_backed_ns"),
    probe("virt.translate_2d_ns"),
    probe("virt.two_d_mappings_page_ns"),
    probe("virt.migrate_page_ns"),
    host("virt.boot_busy_ppm", "ppm", LOWER),
    host("virt.touch_busy_ppm", "ppm", LOWER),
    host("virt.profile_busy_ppm", "ppm", LOWER),
    host("virt.exit_busy_ppm", "ppm", LOWER),
    count("virt.host_faults_per_kevent", "1/kevent", LOWER),
    count("virt.top32_coverage_ppm", "ppm", HIGHER),
    count("virt.migrations_per_kevent", "1/kevent", LOWER),
    // tlb / baselines / workloads
    probe("tlb.step_hit_ns"),
    probe("tlb.step_miss_ns"),
    host("tlb.arm_none_ns_per_access", "ns", LOWER),
    host("tlb.arm_spot_ns_per_access", "ns", LOWER),
    host("tlb.arm_vrmm_ns_per_access", "ns", LOWER),
    host("tlb.arm_flush_ns_per_access", "ns", LOWER),
    probe("baselines.vrmm_miss_ns"),
    probe("workloads.tracegen_ns"),
    count("tlb.l1_hit_ppm", "ppm", HIGHER),
    count("tlb.l2_hit_ppm", "ppm", HIGHER),
    count("tlb.walks_per_kevent", "1/kevent", LOWER),
    count("tlb.walk_refs_per_kevent", "1/kevent", LOWER),
    count("tlb.walk_cycles_per_kevent", "sim-cyc/kevent", LOWER),
    count("tlb.hidden_ppm", "ppm", HIGHER),
    // check / audit / fleet / engine / trace / the benchmark itself
    probe("check.encode_vm_byte_ns"),
    probe("check.decode_vm_byte_ns"),
    probe("check.digest_vm_page_ns"),
    host("check.generate_ops_busy_ppm", "ppm", LOWER),
    host("check.run_ops_busy_ppm", "ppm", LOWER),
    count("check.audits_per_kevent", "1/kevent", LOWER),
    count("check.sweeps_per_kevent", "1/kevent", LOWER),
    count("check.crash_checks_per_kevent", "1/kevent", LOWER),
    probe("audit.audit_vm_frame_ns"),
    probe("fleet.step_ns"),
    probe("fleet.tenant_write_ns"),
    count("fleet.ops_per_kevent", "1/kevent", LOWER),
    count("fleet.pressure_events_per_kevent", "1/kevent", LOWER),
    MetricDef {
        name: "engine.speedup_milli",
        unit: "milli",
        better: HIGHER,
        source: Source::Probe,
    },
    MetricDef {
        name: "trace.probe_overhead_ppm",
        unit: "ppm",
        better: LOWER,
        source: Source::Probe,
    },
    host("bench.span_overhead_ppm", "ppm", LOWER),
];

/// Names are limited to `[A-Za-z0-9_.-]`, start with a letter or digit and
/// stay within 64 characters (the benchmark contract's charset).
#[cfg(test)]
pub fn valid_name(name: &str) -> bool {
    !name.is_empty()
        && name.len() <= 64
        && name.as_bytes()[0].is_ascii_alphanumeric()
        && name
            .bytes()
            .all(|b| b.is_ascii_alphanumeric() || matches!(b, b'_' | b'.' | b'-'))
}

/// `x` per thousand events, in millionths.
fn per_kevent(x: u64, events: u64) -> u64 {
    ratio(x, events, 1_000)
}

/// `num / den` in ppm, in millionths; 0 when the denominator is 0.
pub fn ppm(num: u64, den: u64) -> u64 {
    ratio(num, den, 1_000_000)
}

fn ratio(num: u64, den: u64, scale: u128) -> u64 {
    if den == 0 {
        return 0;
    }
    u64::try_from(u128::from(num) * scale * crate::estimator::MICRO / u128::from(den))
        .expect("count ratio fits u64")
}

/// The exact-count per-layer metrics of one workload run, as
/// `(name, millionths)`, in [`PER_LAYER`] order.
pub fn count_metrics(c: &Counts, events: u64) -> Vec<(&'static str, u64)> {
    vec![
        ("buddy.allocs_per_kevent", per_kevent(c.allocs, events)),
        (
            "buddy.targeted_allocs_per_kevent",
            per_kevent(c.targeted_allocs, events),
        ),
        ("buddy.frees_per_kevent", per_kevent(c.frees, events)),
        ("buddy.splits_per_kevent", per_kevent(c.splits, events)),
        (
            "buddy.coalesces_per_kevent",
            per_kevent(c.coalesces, events),
        ),
        (
            "buddy.pcp_refills_per_kevent",
            per_kevent(c.pcp_refills, events),
        ),
        (
            "buddy.pcp_evictions_per_kevent",
            per_kevent(c.pcp_evictions, events),
        ),
        ("buddy.pcp_hit_ppm", ppm(c.pcp_hits, c.allocs)),
        (
            "buddy.targeted_miss_ppm",
            ppm(c.targeted_misses, c.targeted_allocs + c.targeted_misses),
        ),
        ("mm.faults_4k_per_kevent", per_kevent(c.faults_4k, events)),
        ("mm.faults_2m_per_kevent", per_kevent(c.faults_2m, events)),
        ("mm.cow_faults_per_kevent", per_kevent(c.cow_faults, events)),
        (
            "mm.thp_fallbacks_per_kevent",
            per_kevent(c.thp_fallbacks, events),
        ),
        ("mm.oom_events_per_kevent", per_kevent(c.oom_events, events)),
        (
            "mm.recovery_retries_per_kevent",
            per_kevent(c.recovery_retries, events),
        ),
        (
            "mm.daemon_moves_per_kevent",
            per_kevent(c.daemon_moves, events),
        ),
        (
            "mm.sim_ns_per_fault",
            ratio(c.sim_fault_ns, c.faults_4k + c.faults_2m, 1),
        ),
        (
            "core.ca_placements_per_kevent",
            per_kevent(c.ca_placements, events),
        ),
        (
            "core.ca_target_hit_ppm",
            ppm(c.ca_target_hits, c.ca_target_hits + c.ca_target_misses),
        ),
        ("core.spot_correct_ppm", ppm(c.spot_correct, c.spot_total)),
        (
            "core.spot_fills_per_kevent",
            per_kevent(c.spot_fills, events),
        ),
        (
            "virt.host_faults_per_kevent",
            per_kevent(c.host_faults, events),
        ),
        (
            "virt.top32_coverage_ppm",
            ratio(c.top32_coverage_ppm_sum, c.coverage_samples, 1),
        ),
        (
            "virt.migrations_per_kevent",
            per_kevent(c.migrations, events),
        ),
        ("tlb.l1_hit_ppm", ppm(c.l1_hits, c.accesses)),
        ("tlb.l2_hit_ppm", ppm(c.l2_hits, c.accesses)),
        ("tlb.walks_per_kevent", per_kevent(c.walks, events)),
        ("tlb.walk_refs_per_kevent", per_kevent(c.walk_refs, events)),
        (
            "tlb.walk_cycles_per_kevent",
            per_kevent(c.walk_cycles, events),
        ),
        ("tlb.hidden_ppm", ppm(c.hidden, c.walks)),
        ("check.audits_per_kevent", per_kevent(c.audits, events)),
        ("check.sweeps_per_kevent", per_kevent(c.sweeps, events)),
        (
            "check.crash_checks_per_kevent",
            per_kevent(c.crash_checks, events),
        ),
        ("fleet.ops_per_kevent", per_kevent(c.fleet_ops, events)),
        (
            "fleet.pressure_events_per_kevent",
            per_kevent(c.pressure_events, events),
        ),
    ]
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::HashSet;

    #[test]
    fn names_are_unique_and_in_charset() {
        let mut seen = HashSet::new();
        let names = END_TO_END
            .iter()
            .map(|m| m.name)
            .chain(PER_LAYER.iter().map(|m| m.name));
        for name in names.chain(crate::workloads::ALL.iter().map(|w| w.name)) {
            assert!(valid_name(name), "{name} is outside [A-Za-z0-9_.-]");
            assert!(seen.insert(name), "{name} is used twice");
        }
        for w in &crate::workloads::ALL {
            assert!(
                w.why.len() <= 200 && !w.why.contains('\n'),
                "{}: why is one line of at most 200 characters",
                w.name
            );
        }
        for bad in ["", ".x", "a b", "a/b", "naïve", &"x".repeat(65)] {
            assert!(!valid_name(bad), "{bad:?} must be refused");
        }
    }

    #[test]
    fn every_count_metric_is_declared_as_a_count() {
        let declared: Vec<&str> = PER_LAYER
            .iter()
            .filter(|m| m.source == Source::Count)
            .map(|m| m.name)
            .collect();
        let produced: Vec<&str> = count_metrics(&Counts::default(), 1)
            .iter()
            .map(|(n, _)| *n)
            .collect();
        assert_eq!(declared, produced);
    }

    #[test]
    fn ratios_are_fixed_point_and_total() {
        assert_eq!(per_kevent(5, 1000), 5_000_000);
        assert_eq!(ppm(1, 4), 250_000 * 1_000_000);
        assert_eq!(ppm(1, 0), 0);
    }
}
