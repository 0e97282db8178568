//! `torture` — run or replay the differential torture harness.
//!
//! Two modes:
//!
//! - **Seeded run**: `contig-bench torture --seed 7 --ops 2000 [--no-faults]`
//!   generates the op stream from the seed and runs the full harness
//!   (oracle sweeps, cross-layer audits, crash-point recovery checks).
//! - **Replay**: `contig-bench torture --replay repro.jsonl` re-runs a repro
//!   file (as emitted by the minimizer or the `--emit` flag below),
//!   reproducing a failure deterministically from the artifact alone.
//!
//! Either way the run's counters and stage profile print through
//! [`render`], the tables `report` prints, followed by one line of harness
//! totals and digests. On failure the command minimizes the sequence with
//! ddmin, writes the shrunk repro to `--emit PATH` (default
//! `torture_min.jsonl`), prints the failure, and exits non-zero — which is
//! exactly what CI uploads when a torture job goes red.

use std::process::ExitCode;

use contig_check::{
    encode_repro, generate_ops, minimize, read_repro, run_ops, TortureConfig, TortureReport,
};

use crate::cli::{parse, unknown, write_artifact, UsageError};
use crate::report::render;

/// The command's flag synopsis.
pub const FLAGS: &str = "[--seed N] [--ops N] [--no-faults] [--poison] [--migrate] [--pcp] \
                         [--fleet] [--shards N] [--daemon] [--replay PATH] [--emit PATH]";

struct Args {
    cfg: TortureConfig,
    replay: Option<String>,
    emit: String,
}

fn parse_args(argv: &[String]) -> Result<Args, UsageError> {
    let defaults = Args {
        cfg: TortureConfig::with_seed_and_ops(1, 2_000),
        replay: None,
        emit: "torture_min.jsonl".to_string(),
    };
    let args = parse(argv, defaults, |Args { cfg, replay, emit }, flag, values| {
        match flag {
            "--seed" => cfg.seed = values.num(flag)?,
            "--ops" => cfg.ops = values.num(flag)?,
            "--no-faults" => cfg.faults = false,
            "--poison" => cfg.poison = true,
            "--migrate" => cfg.migrate = true,
            "--pcp" => cfg.pcp = true,
            "--fleet" => cfg.fleet = true,
            "--shards" => cfg.shards = values.num(flag)?,
            "--daemon" => cfg.daemon = true,
            "--replay" => *replay = Some(values.text(flag)?),
            "--emit" => *emit = values.text(flag)?,
            _ => return unknown(flag),
        }
        Ok(())
    })?;
    args.cfg.check().map_err(UsageError::Config)?;
    Ok(args)
}

/// Prints the run's counters and stage profile through the one renderer,
/// then one line of harness totals and digests.
fn print_report(report: &TortureReport) {
    render(&report.metrics, &report.spans);
    println!(
        "ops {}  touches {}  writes {}  maps {}  forks {}  exits {}  op errors {}  \
         oom events {}  sweeps {}  audits {}  crash checks {}  baselines {}  \
         final digest {:#018x}  fleet digest {:#018x}",
        report.ops_executed,
        report.touches,
        report.writes,
        report.maps,
        report.forks,
        report.exits,
        report.op_errors,
        report.oom_events,
        report.sweeps,
        report.audits,
        report.crash_checks,
        report.baselines,
        report.final_digest,
        report.fleet_digest
    );
}

/// Derives the flight-dump path from the repro path: `torture_min.jsonl`
/// → `flight_min.jsonl`, anything else gets a `flight_` prefix on the file
/// name.
fn flight_path_for(emit: &str) -> String {
    let path = std::path::Path::new(emit);
    let file = path.file_name().and_then(|f| f.to_str()).unwrap_or(emit);
    let flight = match file.strip_prefix("torture_") {
        Some(rest) => format!("flight_{rest}"),
        None => format!("flight_{file}"),
    };
    match path.parent() {
        Some(dir) if !dir.as_os_str().is_empty() => {
            dir.join(flight).to_string_lossy().into_owned()
        }
        _ => flight,
    }
}

/// Runs the command; the exit code is non-zero when the run found a failure
/// (1) or the repro file could not be read (2).
pub fn run(argv: &[String]) -> Result<ExitCode, UsageError> {
    let args = parse_args(argv)?;

    let (cfg, ops) = match &args.replay {
        Some(path) => {
            let (cfg, ops) = match read_repro(std::path::Path::new(path)) {
                Ok(parsed) => parsed,
                Err(e) => {
                    eprintln!("cannot replay {path}: {e}");
                    return Ok(ExitCode::from(2));
                }
            };
            println!("replaying {} ops from {path} (seed {})", ops.len(), cfg.seed);
            (cfg, ops)
        }
        None => {
            let cfg = args.cfg;
            println!(
                "torture run: seed {}  ops {}  faults {}  poison {}  migrate {}  pcp {}  \
                 fleet {}  shards {}  daemon {}",
                cfg.seed, cfg.ops, cfg.faults, cfg.poison, cfg.migrate, cfg.pcp, cfg.fleet,
                cfg.shards, cfg.daemon
            );
            let ops = generate_ops(&cfg);
            (cfg, ops)
        }
    };

    let report = run_ops(&cfg, &ops);
    print_report(&report);

    let Some(failure) = &report.failure else {
        println!("PASS: zero divergences, zero findings");
        return Ok(ExitCode::SUCCESS);
    };

    eprintln!("FAIL at op {}: {failure:?}", failure.op_index());
    // Flight recorder: the last trace records before the failure, straight
    // from the always-on ring. Written next to the repro so CI uploads both.
    if !report.flight_jsonl.is_empty() {
        let flight_path = flight_path_for(&args.emit);
        match write_artifact(&flight_path, &report.flight_jsonl) {
            Ok(()) => eprintln!(
                "flight recorder: last {} events written to {flight_path}",
                report.flight_jsonl.lines().count()
            ),
            Err(e) => eprintln!("{e}"),
        }
    }
    match minimize(&cfg, &ops) {
        Some(min) => {
            eprintln!(
                "minimized to {} ops in {} runs: {:?}",
                min.ops.len(),
                min.runs,
                min.failure
            );
            match write_artifact(&args.emit, encode_repro(&cfg, &min.ops)) {
                Ok(()) => eprintln!("repro written to {} — re-run with --replay", args.emit),
                Err(e) => eprintln!("{e}"),
            }
        }
        None => eprintln!("minimizer could not reproduce the failure (flaky environment?)"),
    }
    Ok(ExitCode::FAILURE)
}
