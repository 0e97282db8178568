//! `report` — what one traced run counted and where its simulated time went.
//!
//! Runs one traced session: the pressured hog workload ([`pressured_hog`]),
//! a COW fork whose write storm is seeded by `--seed`, a TLB replay of the
//! mapped anonymous footprint and the audit, every probe feeding one
//! [`TraceSession`]. [`render`] prints its counters by subsystem, its
//! histograms, the per-stage span table and the [`TOP`] stages by
//! self-time; `torture` prints its run through the same function. The
//! session is written as JSONL (`--out`), as a chrome://tracing view
//! (`--chrome`) and as collapsed stacks (`--folded`), and the command exits
//! 1 when a `span.*` metric name is not canonical, the trace is empty, the
//! span stack is empty or unbalanced, an artifact cannot be written, or the
//! JSONL file read back from disk does not parse to the recorded events.
//!
//! `--inject-panic` runs the flight-recorder self-test instead: [`TASKS`]
//! copies of the workload on the parallel engine, the last of which panics
//! on purpose; its flight ring must come back non-empty and decodable, and
//! is written to `--flight`.

use std::process::ExitCode;

use contig_buddy::{Hog, MachineConfig, PcpConfig};
use contig_core::CaPaging;
use contig_engine::{run_seeded, PoolConfig};
use contig_metrics::TextTable;
use contig_mm::{Pid, System, SystemConfig, VmaId, VmaKind};
use contig_tlb::{Access, MemorySim, NoScheme, TlbConfig, WalkCostModel};
use contig_trace::{
    declare_canonical_metrics, export_chrome, export_jsonl, parse_jsonl, validate_metric_names,
    MetricsRegistry, Record, SpanStack, TraceSession, Tracer,
};
use contig_types::{splitmix64, FailMode, FailPolicy, FaultError, VirtAddr, VirtRange};
use contig_virt::NativeBackend;

use crate::cli::{parse, unknown, write_artifact, UsageError};

/// The command's flag synopsis.
pub const FLAGS: &str =
    "[--seed N] [--out PATH] [--chrome PATH] [--folded PATH] [--inject-panic] [--flight PATH]";

const FILE_BASE: u64 = 0x9000_0000;
const ANON_BASE: u64 = 0x40_0000;
/// Size of the traced machine.
const MACHINE_MIB: u64 = 32;
/// Writes the forked child makes to the shared anonymous VMA.
const STORM: u64 = 128;
/// Copies of the workload the flight-recorder self-test runs.
const TASKS: usize = 8;
/// Stages the hottest-by-self-time list shows.
const TOP: usize = 5;

struct Args {
    seed: u64,
    out: String,
    chrome: String,
    folded: String,
    inject_panic: bool,
    flight: String,
}

fn parse_args(argv: &[String]) -> Result<Args, UsageError> {
    let defaults = Args {
        seed: 1,
        out: "trace.jsonl".to_string(),
        chrome: "trace_chrome.json".to_string(),
        folded: "trace_folded.txt".to_string(),
        inject_panic: false,
        flight: "flight_min.jsonl".to_string(),
    };
    parse(argv, defaults, |args, flag, values| {
        match flag {
            "--seed" => args.seed = values.num(flag)?,
            "--out" => args.out = values.text(flag)?,
            "--chrome" => args.chrome = values.text(flag)?,
            "--folded" => args.folded = values.text(flag)?,
            "--inject-panic" => args.inject_panic = true,
            "--flight" => args.flight = values.text(flag)?,
            _ => return unknown(flag),
        }
        Ok(())
    })
}

/// The pressured hog workload, built to light up every stage of the fault
/// path: a hog pins half the machine, so OOM recovery fires; a file VMA
/// streams order-0 faults through the page cache and the pcp caches; a
/// CA-paged anonymous VMA demand-faults under `EveryNth(50)`
/// allocation-failure injection. Each touch runs on the next of four
/// simulated CPUs and either maps or fails with a typed OOM. Returns the
/// system, the process and its anonymous range.
fn pressured_hog(tracer: &Tracer, ca: &mut CaPaging) -> (System, Pid, VirtRange) {
    let mut sys = System::new(SystemConfig::new(MachineConfig::single_node_mib(MACHINE_MIB)));
    sys.set_tracer(tracer.clone());
    sys.enable_pcp(PcpConfig { cpus: 4, batch: 16, high: 64 });
    let _hog = Hog::occupy(sys.machine_mut(), 0.5, 11);
    sys.set_fail_policy(FailPolicy::new(FailMode::EveryNth { n: 50 }));
    let pid = sys.spawn();
    let file = sys.page_cache_mut().create_file();
    let stream = VirtRange::new(VirtAddr::new(FILE_BASE), (MACHINE_MIB << 20) / 8);
    let anon = VirtRange::new(VirtAddr::new(ANON_BASE), (MACHINE_MIB << 20) / 2);
    sys.aspace_mut(pid).map_vma(stream, VmaKind::File { file, start_page: 0 });
    sys.aspace_mut(pid).map_vma(anon, VmaKind::Anon);
    for (i, va) in page_addrs(stream).chain(page_addrs(anon)).enumerate() {
        sys.set_cpu(i % 4);
        mapped_or_oom(sys.touch(ca, pid, va));
    }
    (sys, pid, anon)
}

/// Accepts a fault that mapped or failed with a typed OOM; anything else
/// escaped the fault path untyped.
fn mapped_or_oom<T>(result: Result<T, FaultError>) {
    match result {
        Ok(_) | Err(FaultError::OutOfMemory { .. }) => {}
        Err(other) => panic!("untyped failure escaped the fault path: {other:?}"),
    }
}

/// The address of each 4 KiB page of `range`.
fn page_addrs(range: VirtRange) -> impl Iterator<Item = VirtAddr> {
    range.iter_pages().map(|page| VirtAddr::new(page.byte_offset()))
}

/// The traced run, in order: [`pressured_hog`], a COW fork whose [`STORM`]
/// writes at `seed`-drawn pages break a slice of the shared anonymous
/// pages, a strided TLB replay of the parent's mapped anonymous pages (both
/// hits and walks), and the audit, which reports through the same tracer.
/// Returns the bytes the parent has mapped.
fn workload(seed: u64, tracer: &Tracer) -> u64 {
    let mut ca = CaPaging::new();
    ca.set_tracer(tracer.clone());
    let (mut sys, pid, anon) = pressured_hog(tracer, &mut ca);

    let child = sys.fork_vma(pid, VmaId(anon.start()));
    let mut rng = seed;
    for i in 0..STORM {
        sys.set_cpu((i % 4) as usize);
        let va = anon.start() + (splitmix64(&mut rng) % anon.pages()) * 4096;
        mapped_or_oom(sys.touch_write(&mut ca, child, va));
    }
    sys.exit(child);

    let mut sim = MemorySim::new(TlbConfig::broadwell(), WalkCostModel::default());
    sim.set_tracer(tracer.clone());
    let table = sys.aspace(pid).page_table();
    let accesses =
        page_addrs(anon).filter(|&va| table.translate(va).is_ok()).map(|va| Access::read(1, va));
    sim.run(&NativeBackend::new(table), &mut NoScheme, accesses);

    let audit = sys.audit();
    assert!(audit.is_clean(), "audit after the report workload:\n{audit}");
    sys.aspace(pid).mapped_bytes()
}

/// Why a traced session cannot be reported, if it cannot: a `span.*`
/// metric outside the canonical taxonomy (a typo'd probe would otherwise
/// render as one more row), no events, or no spans or an unbalanced stack.
fn check(records: &[Record], metrics: &MetricsRegistry, spans: &SpanStack) -> Result<(), String> {
    let offenders = validate_metric_names(metrics);
    if !offenders.is_empty() {
        return Err(format!("unknown span metric names: {}", offenders.join(", ")));
    }
    if records.is_empty() {
        return Err("empty trace: the probes are not wired".into());
    }
    if spans.enters() == 0 || !spans.is_balanced() {
        return Err(format!(
            "span stack is empty or unbalanced ({} enters, {} exits)",
            spans.enters(),
            spans.exits()
        ));
    }
    Ok(())
}

/// Prints what a run counted and where its simulated time went: counters
/// grouped by subsystem (name-sorted, so each subsystem's rows are
/// adjacent), histograms, the per-stage span table (count, self and total
/// simulated ns) and the [`TOP`] stages by self-time. Every table `report`
/// and `torture` print comes from here.
pub fn render(metrics: &MetricsRegistry, spans: &SpanStack) {
    let mut counters = TextTable::new(&["subsystem", "counter", "count"]);
    for (name, value) in metrics.counters() {
        let subsystem = name.split('.').next().unwrap_or("?");
        counters.row(&[subsystem.to_string(), name.to_string(), value.to_string()]);
    }
    let mut histograms = TextTable::new(&["histogram", "samples", "mean", "max"]);
    for (name, h) in metrics.histograms() {
        histograms.row(&[
            name.to_string(),
            h.count().to_string(),
            format!("{:.1}", h.mean()),
            h.max().to_string(),
        ]);
    }
    let by_stage = spans.by_stage();
    let mut stages = TextTable::new(&["stage", "count", "self_ns", "total_ns"]);
    for (name, cell) in &by_stage {
        stages.row(&[
            name.to_string(),
            cell.count.to_string(),
            cell.self_ns.to_string(),
            cell.total_ns.to_string(),
        ]);
    }
    for table in [counters, histograms] {
        if !table.is_empty() {
            println!("{}", table.render());
        }
    }
    println!("per-stage profile ({} spans, max depth {}):", spans.enters(), spans.max_depth());
    println!("{}", stages.render());
    let mut hottest: Vec<(&str, u64)> =
        by_stage.iter().map(|(name, cell)| (*name, cell.self_ns)).collect();
    hottest.sort_by(|a, b| b.1.cmp(&a.1).then(a.0.cmp(b.0)));
    println!("top {} stages by self-time:", TOP.min(hottest.len()));
    for (rank, (name, self_ns)) in hottest.iter().take(TOP).enumerate() {
        println!("  {}. {name}  {self_ns} ns", rank + 1);
    }
    println!();
}

/// The traced session, its tables and its artifacts; `Err` says why the
/// command exits 1.
fn report(args: &Args) -> Result<(), String> {
    let session = TraceSession::ring(1 << 20);
    let mapped = workload(args.seed, &session.tracer());
    let records = session.records();
    let spans = session.spans();
    let mut metrics = session.metrics();
    check(&records, &metrics, &spans)?;
    // Stages that never fired render as explicit zero rows.
    declare_canonical_metrics(&mut metrics);

    println!(
        "== report == seed {}: {MACHINE_MIB} MiB machine, hog + file stream + CA-paged anon VMA \
         ({} MiB mapped), injection EveryNth(50), COW fork write storm, TLB replay, audit\n",
        args.seed,
        mapped >> 20
    );
    render(&metrics, &spans);
    println!(
        "{} events recorded ({} dropped), simulated span {} ns, span stack balanced",
        records.len(),
        session.dropped(),
        records.last().map_or(0, |r| r.ts_ns)
    );

    let folded = spans.export_collapsed();
    write_artifact(&args.out, export_jsonl(&records))?;
    write_artifact(&args.chrome, export_chrome(&records))?;
    write_artifact(&args.folded, &folded)?;
    // "Validated" is a claim about the file: read it back once every
    // artifact is written, so a later one written over it is caught.
    let on_disk = std::fs::read_to_string(&args.out).map_err(|e| e.to_string());
    match on_disk.and_then(|text| parse_jsonl(&text).map_err(|e| e.to_string())) {
        Ok(parsed) if parsed == records => {}
        Ok(_) => return Err(format!("{} does not hold the recorded events", args.out)),
        Err(e) => return Err(format!("{} does not parse back: {e}", args.out)),
    }
    println!(
        "trace written to {} ({} lines, validated) and {}",
        args.out,
        records.len(),
        args.chrome
    );
    println!(
        "collapsed stacks: {} paths written to {} (feed to inferno-flamegraph)",
        folded.lines().count(),
        args.folded
    );
    Ok(())
}

/// Flight-recorder self-test: panic one engine task on purpose and demand
/// a decodable dump from its final moments.
fn inject_panic(args: &Args) -> Result<(), String> {
    println!("== report — flight-recorder self-test == seed {}", args.seed);
    let victim = TASKS - 1;
    // The panic is the point — keep its backtrace out of the logs.
    let prev_hook = std::panic::take_hook();
    std::panic::set_hook(Box::new(|_| {}));
    let reports = run_seeded(PoolConfig::new(2), args.seed, TASKS, move |ctx| {
        let mapped = workload(ctx.seed, &ctx.trace.tracer());
        assert!(ctx.index != victim, "injected panic: task {victim} fails, {mapped} bytes mapped");
    });
    std::panic::set_hook(prev_hook);
    let victim_report = &reports[victim];
    assert!(victim_report.ok().is_none(), "victim task was supposed to panic");
    let dump = victim_report.flight_jsonl.as_deref().unwrap_or_default();
    if dump.is_empty() {
        return Err("the panicking task carried no flight dump".into());
    }
    let records = parse_jsonl(dump).map_err(|e| format!("flight dump does not parse: {e}"))?;
    write_artifact(&args.flight, dump)?;
    println!(
        "flight recorder captured {} events from the panicking task -> {}",
        records.len(),
        args.flight
    );
    let clean = reports.iter().enumerate().filter(|(i, r)| *i != victim && r.ok().is_some());
    println!("{} sibling tasks completed unharmed", clean.count());
    Ok(())
}

/// Runs the session (or, with `--inject-panic`, the self-test); exits 1
/// when a check fails.
pub fn run(argv: &[String]) -> Result<ExitCode, UsageError> {
    let args = parse_args(argv)?;
    let verdict = if args.inject_panic { inject_panic(&args) } else { report(&args) };
    Ok(match verdict {
        Ok(()) => ExitCode::SUCCESS,
        Err(why) => {
            eprintln!("report: {why}");
            ExitCode::FAILURE
        }
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use contig_trace::{stage, TraceEvent};

    #[test]
    fn check_names_each_reason_a_session_cannot_be_reported() {
        // The three checks a working build never trips from the command line.
        let session = TraceSession::ring(16);
        let tracer = session.tracer();
        drop(tracer.span(stage::FAULT));
        let (spans, mut metrics) = (session.spans(), session.metrics());
        assert_eq!(
            check(&session.records(), &metrics, &spans),
            Err("empty trace: the probes are not wired".into())
        );
        tracer.emit(TraceEvent::AuditReport { violations: 0 });
        let records = session.records();
        assert_eq!(check(&records, &metrics, &spans), Ok(()));

        let unbalanced = |spans: &SpanStack| check(&records, &session.metrics(), spans);
        assert_eq!(
            unbalanced(&SpanStack::new()),
            Err("span stack is empty or unbalanced (0 enters, 0 exits)".into())
        );
        let mut open = spans.clone();
        open.enter(stage::FAULT, 0);
        assert_eq!(
            unbalanced(&open),
            Err("span stack is empty or unbalanced (2 enters, 1 exits)".into())
        );

        metrics.observe("span.fualt.total_ns", 1);
        let err = check(&records, &metrics, &spans).expect_err("a misspelt stage");
        assert_eq!(err, "unknown span metric names: span.fualt.total_ns");
    }
}
