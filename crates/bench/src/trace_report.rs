//! `trace-report` — BadgerTrap-style observability report for the whole
//! fault/allocation path.
//!
//! Runs the pressured hog workload ([`pressured_hog`]: hog pins half the
//! machine, a file streams through the page cache, CA paging demand-faults
//! an anonymous VMA under seeded allocation-failure injection), then a TLB
//! simulation replays the mapped footprint, with every subsystem probe
//! feeding one
//! [`contig_trace::TraceSession`]. Renders the per-subsystem event and
//! metric summary, writes the raw trace as JSONL (plus a chrome://tracing
//! view), and self-validates: the command exits non-zero when the trace is
//! empty or does not parse back losslessly.
//!
//! Flags: `--out PATH` (JSONL, default `trace.jsonl`) and `--chrome PATH`
//! (chrome trace JSON, default `trace_chrome.json`). The machine has
//! [`MACHINE_MIB`] MiB.

use std::process::ExitCode;

use contig_buddy::{Hog, MachineConfig, PcpConfig};
use contig_core::CaPaging;
use contig_metrics::TextTable;
use contig_mm::{Pid, System, SystemConfig, VmaKind};
use contig_tlb::{Access, MemorySim, NoScheme, TlbConfig, WalkCostModel};
use contig_trace::{
    declare_canonical_metrics, export_chrome, export_jsonl, parse_jsonl, validate_metric_names,
    TraceSession, Tracer,
};
use contig_types::{FailMode, FailPolicy, FaultError, VirtAddr, VirtRange};
use contig_virt::NativeBackend;

use crate::cli::{parse, unknown, write_artifact, UsageError};

const FILE_BASE: u64 = 0x9000_0000;
const ANON_BASE: u64 = 0x40_0000;
/// Size of the traced machine.
const MACHINE_MIB: u64 = 32;

/// The command's flag synopsis.
pub const FLAGS: &str = "[--out PATH] [--chrome PATH]";

struct Args {
    out: String,
    chrome: String,
}

fn parse_args(argv: &[String]) -> Result<Args, UsageError> {
    let defaults =
        Args { out: "trace.jsonl".to_string(), chrome: "trace_chrome.json".to_string() };
    parse(argv, defaults, |args, flag, values| {
        match flag {
            "--out" => args.out = values.text(flag)?,
            "--chrome" => args.chrome = values.text(flag)?,
            _ => return unknown(flag),
        }
        Ok(())
    })
}

/// The pressured hog workload `trace-report` and `obs-report` both drive on
/// a `mib` MiB machine, built to light up every stage of the fault path: a
/// hog pins half the machine, so OOM recovery fires; a file VMA streams
/// order-0 faults through the page cache and the pcp caches; a CA-paged
/// anonymous VMA demand-faults under `EveryNth(50)` allocation-failure
/// injection. Each touch runs on the next of four simulated CPUs and either
/// maps or fails with a typed OOM. Returns the system, the process, its
/// anonymous range and the number of touches.
pub(crate) fn pressured_hog(
    mib: u64,
    tracer: &Tracer,
    ca: &mut CaPaging,
) -> (System, Pid, VirtRange, u64) {
    let mut sys = System::new(SystemConfig::new(MachineConfig::single_node_mib(mib)));
    sys.set_tracer(tracer.clone());
    sys.enable_pcp(PcpConfig { cpus: 4, batch: 16, high: 64 });
    let _hog = Hog::occupy(sys.machine_mut(), 0.5, 11);
    sys.set_fail_policy(FailPolicy::new(FailMode::EveryNth { n: 50 }));
    let pid = sys.spawn();
    let file = sys.page_cache_mut().create_file();
    let stream = VirtRange::new(VirtAddr::new(FILE_BASE), (mib << 20) / 8);
    let anon = VirtRange::new(VirtAddr::new(ANON_BASE), (mib << 20) / 2);
    sys.aspace_mut(pid).map_vma(stream, VmaKind::File { file, start_page: 0 });
    sys.aspace_mut(pid).map_vma(anon, VmaKind::Anon);
    let mut touches = 0;
    for va in page_addrs(stream).chain(page_addrs(anon)) {
        sys.set_cpu((touches % 4) as usize);
        mapped_or_oom(sys.touch(ca, pid, va));
        touches += 1;
    }
    (sys, pid, anon, touches)
}

/// Accepts a fault that mapped or failed with a typed OOM; anything else
/// escaped the fault path untyped.
pub(crate) fn mapped_or_oom<T>(result: Result<T, FaultError>) {
    match result {
        Ok(_) | Err(FaultError::OutOfMemory { .. }) => {}
        Err(other) => panic!("untyped failure escaped the fault path: {other:?}"),
    }
}

/// The address of each 4 KiB page of `range`.
fn page_addrs(range: VirtRange) -> impl Iterator<Item = VirtAddr> {
    range.iter_pages().map(|page| VirtAddr::new(page.byte_offset()))
}

/// Drives the traced workload, then replays its anonymous footprint through
/// the TLB model; returns the mapped bytes.
fn run_workload(session: &TraceSession) -> u64 {
    let mut ca = CaPaging::new();
    ca.set_tracer(session.tracer());
    let (sys, pid, anon, _) = pressured_hog(MACHINE_MIB, &session.tracer(), &mut ca);

    // A strided scan that produces both TLB hits and last-level misses with
    // page walks.
    let mut sim = MemorySim::new(TlbConfig::broadwell(), WalkCostModel::default());
    sim.set_tracer(session.tracer());
    let table = sys.aspace(pid).page_table();
    let backend = NativeBackend::new(table);
    let accesses =
        page_addrs(anon).filter(|&va| table.translate(va).is_ok()).map(|va| Access::read(1, va));
    sim.run(&backend, &mut NoScheme, accesses);

    // The post-run audit reports through the same trace session.
    let report = sys.audit();
    assert!(report.is_clean(), "audit after trace_report workload:\n{report}");
    sys.aspace(pid).mapped_bytes()
}

/// Runs the command; exits 1 when the trace is empty, carries an unknown
/// metric name, or does not survive the JSONL round trip.
pub fn run(argv: &[String]) -> Result<ExitCode, UsageError> {
    let args = parse_args(argv)?;
    let session = TraceSession::ring(1 << 20);
    let mapped = run_workload(&session);

    let records = session.records();
    let mut metrics = session.metrics();

    // A typo in a probe name must fail the report, not silently render as
    // one more row: every `span.*` metric has to come from the canonical
    // taxonomy.
    let offenders = validate_metric_names(&metrics);
    if !offenders.is_empty() {
        eprintln!("trace_report: unknown span metric names: {}", offenders.join(", "));
        return Ok(ExitCode::FAILURE);
    }
    // Declare the whole canon so stages that never fired render as explicit
    // zero rows instead of vanishing from the tables.
    declare_canonical_metrics(&mut metrics);

    println!("== trace_report — fault/allocation path observability ==");
    println!(
        "workload: {} MiB machine, hog + file stream + CA-paged anon VMA ({} MiB mapped), \
         injection EveryNth(50), TLB replay\n",
        MACHINE_MIB,
        mapped >> 20
    );

    // Per-subsystem event summary: one row per event/counter name.
    let mut events = TextTable::new(&["subsystem", "counter", "count"]);
    for (name, value) in metrics.counters() {
        let subsystem = name.split('.').next().unwrap_or("?");
        events.row(&[subsystem.to_string(), name.to_string(), value.to_string()]);
    }
    println!("{}", events.render());

    let mut hists = TextTable::new(&["histogram", "samples", "mean", "max"]);
    for (name, h) in metrics.histograms() {
        hists.row(&[
            name.to_string(),
            h.count().to_string(),
            format!("{:.1}", h.mean()),
            h.max().to_string(),
        ]);
    }
    if !hists.is_empty() {
        println!("{}", hists.render());
    }
    println!(
        "{} events recorded ({} dropped), simulated span {} ns",
        records.len(),
        session.dropped(),
        records.last().map_or(0, |r| r.ts_ns)
    );

    // Export, then self-validate: the JSONL on disk must be non-empty and
    // parse back to exactly the records we hold.
    let jsonl = export_jsonl(&records);
    let chrome = export_chrome(&records);
    if !write_artifact(&args.out, &jsonl) || !write_artifact(&args.chrome, chrome) {
        return Ok(ExitCode::FAILURE);
    }
    if records.is_empty() || jsonl.trim().is_empty() {
        eprintln!("trace_report: empty trace — probes are not wired");
        return Ok(ExitCode::FAILURE);
    }
    match parse_jsonl(&jsonl) {
        Ok(parsed) if parsed == records => {
            println!("trace written to {} ({} lines, validated) and {}",
                args.out, records.len(), args.chrome);
        }
        Ok(_) => {
            eprintln!("trace_report: JSONL round-trip diverged from the recorded events");
            return Ok(ExitCode::FAILURE);
        }
        Err(e) => {
            eprintln!("trace_report: exported trace does not parse: {e}");
            return Ok(ExitCode::FAILURE);
        }
    }
    Ok(ExitCode::SUCCESS)
}
