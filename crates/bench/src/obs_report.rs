//! `obs-report` — "where did the time go?" for the fault/allocation path.
//!
//! Three modes, all deterministic per seed:
//!
//! - **Engine profile** (default): runs [`TASKS`] fault workloads through
//!   the parallel experiment engine at 8 workers with per-task span
//!   profiling attached, then renders per-stage latency tables (count,
//!   self-time, total-time in simulated ns) and the [`TOP`] hottest stages
//!   by self-time. Writes the merged profile as a collapsed-stack file
//!   (`--folded PATH`, default `obs_folded.txt`) ready for
//!   `inferno-flamegraph` / `flamegraph.pl`.
//! - **Torture profile** (`--torture`): runs one seeded differential
//!   torture run (`--ops N`) with the always-on flight recorder attached
//!   and renders the same stage tables from its whole-run span profile. If
//!   the run fails, the flight recorder's last events are written to
//!   `--flight PATH` and the command exits non-zero.
//! - **Flight-recorder self-test** (`--inject-panic`): deliberately
//!   panics one engine task mid-workload; the engine's `catch_unwind`
//!   harvests that task's flight ring. The dump must be non-empty and
//!   decodable or the command exits non-zero — CI runs this to prove the
//!   post-mortem path works before anyone needs it.
//!
//! When no spans were recorded the command says so and exits non-zero
//! rather than printing a page of zeros.

use std::process::ExitCode;

use contig_check::{run_torture, TortureConfig};
use contig_core::CaPaging;
use contig_engine::{run_seeded, PoolConfig};
use contig_metrics::TextTable;
use contig_mm::VmaId;
use contig_trace::{parse_jsonl, SpanStack, Tracer};
use contig_types::splitmix64;

use crate::cli::{parse, unknown, write_artifact, UsageError};
use crate::trace_report::{mapped_or_oom, pressured_hog};

/// The command's flag synopsis.
pub const FLAGS: &str =
    "[--seed N] [--ops N] [--torture] [--inject-panic] [--folded PATH] [--flight PATH]";

/// Profiled fault workloads the engine profile and the self-test run.
const TASKS: usize = 8;
/// Stages the hottest-by-self-time list shows.
const TOP: usize = 5;

struct Args {
    seed: u64,
    ops: usize,
    torture: bool,
    inject_panic: bool,
    folded: String,
    flight: String,
}

fn parse_args(argv: &[String]) -> Result<Args, UsageError> {
    let defaults = Args {
        seed: 0x0B5_CAFE,
        ops: 500,
        torture: false,
        inject_panic: false,
        folded: "obs_folded.txt".to_string(),
        flight: "flight_min.jsonl".to_string(),
    };
    parse(argv, defaults, |args, flag, values| {
        match flag {
            "--seed" => args.seed = values.num(flag)?,
            "--ops" => args.ops = values.num(flag)?,
            "--torture" => args.torture = true,
            "--inject-panic" => args.inject_panic = true,
            "--folded" => args.folded = values.text(flag)?,
            "--flight" => args.flight = values.text(flag)?,
            _ => return unknown(flag),
        }
        Ok(())
    })
}

/// One profiled fault workload: the pressured hog workload on a 32–48 MiB
/// machine, then a COW fork whose write storm breaks a slice of the shared
/// anonymous pages. Returns the number of touches.
fn profile_task(seed: u64, tracer: &Tracer) -> u64 {
    let mut rng = seed;
    let mib = 32 + (splitmix64(&mut rng) % 3) * 8;
    let mut ca = CaPaging::new();
    let (mut sys, pid, anon, touches) = pressured_hog(mib, tracer, &mut ca);
    let child = sys.fork_vma(pid, VmaId(anon.start()));
    for i in 0..128u64 {
        sys.set_cpu((i % 4) as usize);
        let va = anon.start() + (splitmix64(&mut rng) % anon.pages()) * 4096;
        mapped_or_oom(sys.touch_write(&mut ca, child, va));
    }
    sys.exit(child);
    touches + 128
}

/// Renders the per-stage table: every stage that fired, with counts and
/// self/total simulated nanoseconds, plus the [`TOP`] hottest by self-time.
fn render_stages(spans: &SpanStack) {
    let by_stage = spans.by_stage();
    let mut table = TextTable::new(&["stage", "count", "self_ns", "total_ns"]);
    for (name, cell) in &by_stage {
        table.row(&[
            name.to_string(),
            cell.count.to_string(),
            cell.self_ns.to_string(),
            cell.total_ns.to_string(),
        ]);
    }
    println!("per-stage profile ({} spans, max depth {}):", spans.enters(), spans.max_depth());
    println!("{}", table.render());

    let mut hottest: Vec<(&str, u64)> =
        by_stage.iter().map(|(name, cell)| (*name, cell.self_ns)).collect();
    hottest.sort_by(|a, b| b.1.cmp(&a.1).then(a.0.cmp(b.0)));
    println!("top {} stages by self-time:", TOP.min(hottest.len()));
    for (rank, (name, self_ns)) in hottest.iter().take(TOP).enumerate() {
        println!("  {}. {name}  {self_ns} ns", rank + 1);
    }
    println!();
}

/// Writes the collapsed-stack file and reports where it went; `false` when
/// the path cannot be written.
fn write_folded(spans: &SpanStack, path: &str) -> bool {
    let folded = spans.export_collapsed();
    if !write_artifact(path, &folded) {
        return false;
    }
    println!(
        "collapsed stacks: {} paths written to {path} (feed to inferno-flamegraph)",
        folded.lines().count()
    );
    true
}

/// Engine-sweep profile: the default mode.
fn run_engine_profile(args: &Args) -> u8 {
    println!("== obs_report — engine profile == tasks={TASKS} seed={:#x}", args.seed);
    let reports = run_seeded(PoolConfig::new(8), args.seed, TASKS, |ctx| {
        let tracer = ctx.trace.tracer();
        profile_task(ctx.seed, &tracer)
    });
    let faults: u64 = reports.iter().map(|r| *r.ok().expect("profile task panicked")).sum();
    let mut spans = SpanStack::new();
    for r in &reports {
        spans.merge(&r.spans);
    }
    if spans.enters() == 0 {
        eprintln!("obs_report: no spans were recorded");
        return 1;
    }
    if !spans.is_balanced() {
        eprintln!("obs_report: span stack is unbalanced ({} enters, {} exits)",
            spans.enters(), spans.exits());
        return 1;
    }
    println!("{} tasks, {} driven faults\n", reports.len(), faults);
    render_stages(&spans);
    if write_folded(&spans, &args.folded) { 0 } else { 1 }
}

/// Torture profile: one seeded differential run under the flight recorder.
fn run_torture_profile(args: &Args) -> u8 {
    println!("== obs_report — torture profile == seed={:#x} ops={}", args.seed, args.ops);
    let report = run_torture(&TortureConfig::with_seed_and_ops(args.seed, args.ops));
    if report.spans.enters() == 0 {
        eprintln!("obs_report: no spans were recorded");
        return 1;
    }
    println!(
        "{} ops, {} touches, {} oom events, digest {:#018x}\n",
        report.ops_executed, report.touches, report.oom_events, report.final_digest
    );
    render_stages(&report.spans);
    if !write_folded(&report.spans, &args.folded) {
        return 1;
    }
    match &report.failure {
        None => {
            println!("torture run clean");
            0
        }
        Some(failure) => {
            eprintln!("torture FAIL at op {}: {failure:?}", failure.op_index());
            if report.flight_jsonl.is_empty() {
                eprintln!("flight recorder empty — no post-mortem context captured");
            } else if write_artifact(&args.flight, &report.flight_jsonl) {
                eprintln!(
                    "flight recorder: last {} events written to {}",
                    report.flight_jsonl.lines().count(),
                    args.flight
                );
            }
            1
        }
    }
}

/// Flight-recorder self-test: panic one engine task on purpose and demand
/// a decodable dump from its final moments.
fn run_inject_panic(args: &Args) -> u8 {
    println!("== obs_report — flight-recorder self-test == seed={:#x}", args.seed);
    let victim = TASKS - 1;
    // The panic is the point — keep its backtrace out of the logs.
    let prev_hook = std::panic::take_hook();
    std::panic::set_hook(Box::new(|_| {}));
    let reports = run_seeded(PoolConfig::new(2), args.seed, TASKS, move |ctx| {
        let tracer = ctx.trace.tracer();
        let faults = profile_task(ctx.seed, &tracer);
        assert!(
            ctx.index != victim,
            "injected panic: task {victim} fails after {faults} faults"
        );
        faults
    });
    std::panic::set_hook(prev_hook);
    let victim_report = &reports[victim];
    assert!(victim_report.ok().is_none(), "victim task was supposed to panic");
    let Some(dump) = &victim_report.flight_jsonl else {
        eprintln!("obs_report: panicking task carried no flight dump");
        return 1;
    };
    if dump.is_empty() {
        eprintln!("obs_report: flight dump is empty — no events were recorded");
        return 1;
    }
    let records = match parse_jsonl(dump) {
        Ok(records) => records,
        Err(e) => {
            eprintln!("obs_report: flight dump does not parse: {e}");
            return 1;
        }
    };
    if !write_artifact(&args.flight, dump) {
        return 1;
    }
    println!(
        "flight recorder captured {} events from the panicking task -> {}",
        records.len(),
        args.flight
    );
    let clean = reports.iter().enumerate().filter(|(i, r)| *i != victim && r.ok().is_some());
    println!("{} sibling tasks completed unharmed", clean.count());
    0
}

/// Runs the mode the flags select; the exit code is that mode's verdict.
pub fn run(argv: &[String]) -> Result<ExitCode, UsageError> {
    let args = parse_args(argv)?;
    let code = if args.inject_panic {
        run_inject_panic(&args)
    } else if args.torture {
        run_torture_profile(&args)
    } else {
        run_engine_profile(&args)
    };
    Ok(ExitCode::from(code))
}
