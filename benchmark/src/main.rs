//! Host-time benchmark of the `contig` simulator.
//!
//! ```text
//! contig-benchmark run (--all | --workload NAME) [--seed N] [--seconds S] [--trace [0|1]]
//!                      [--smoke] [--handicap-ppm N] [--out PATH] [--no-probes]
//! contig-benchmark probes [--smoke] [--out PATH]
//! contig-benchmark compare [--model-only] A.json B.json
//! contig-benchmark manifest
//! ```
//!
//! See `benchmark/README.md` for what every workload and metric means.

mod compare;
mod estimator;
mod harness;
mod metrics;
mod probes;
mod rec;
mod report;
mod workloads;

use std::path::PathBuf;
use std::process::{Command, ExitCode, Stdio};
use std::time::Duration;

use report::Document;
use workloads::Size;

const DEFAULT_SEED: u64 = 0x5EED_CAFE;

#[derive(Default)]
struct RunArgs {
    all: bool,
    workload: Option<String>,
    seed: Option<u64>,
    seconds: Option<u64>,
    trace: bool,
    smoke: bool,
    handicap_ppm: u64,
    out: Option<String>,
    no_probes: bool,
}

fn parse_u64(flag: &str, value: &str) -> Result<u64, String> {
    let parsed = match value.strip_prefix("0x") {
        Some(hex) => u64::from_str_radix(hex, 16),
        None => value.parse(),
    };
    parsed.map_err(|_| format!("{flag} needs a whole number, got {value:?}"))
}

fn parse_run(argv: &[String]) -> Result<RunArgs, String> {
    let mut args = RunArgs::default();
    let mut i = 0;
    while i < argv.len() {
        let flag = argv[i].as_str();
        let mut value = || -> Result<&String, String> {
            i += 1;
            argv.get(i).ok_or_else(|| format!("{flag} needs a value"))
        };
        match flag {
            "--all" => args.all = true,
            "--smoke" => args.smoke = true,
            "--no-probes" => args.no_probes = true,
            "--workload" => args.workload = Some(value()?.clone()),
            "--out" => args.out = Some(value()?.clone()),
            "--seed" => args.seed = Some(parse_u64(flag, value()?)?),
            "--seconds" => args.seconds = Some(parse_u64(flag, value()?)?),
            "--handicap-ppm" => args.handicap_ppm = parse_u64(flag, value()?)?,
            // `--trace` alone turns tracing on; the driver passes `--trace 0|1`.
            "--trace" => match argv.get(i + 1).map(String::as_str) {
                Some("0") => (args.trace, i) = (false, i + 1),
                Some("1") => (args.trace, i) = (true, i + 1),
                _ => args.trace = true,
            },
            other => return Err(format!("unknown flag {other:?}")),
        }
        i += 1;
    }
    if args.all == args.workload.is_some() {
        return Err("give exactly one of --all and --workload NAME".into());
    }
    Ok(args)
}

fn out_dir() -> Result<PathBuf, String> {
    let dir = PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("out");
    std::fs::create_dir_all(&dir).map_err(|e| format!("{}: {e}", dir.display()))?;
    Ok(dir)
}

fn nproc() -> u64 {
    std::thread::available_parallelism().map_or(1, |n| n.get() as u64)
}

fn size_of(smoke: bool) -> Size {
    if smoke {
        Size::Smoke
    } else {
        Size::Full
    }
}

/// Runs one workload in this process and returns its document.
fn run_one(args: &RunArgs, name: &str) -> Result<Document, String> {
    let spec = workloads::by_name(name).ok_or_else(|| {
        let names: Vec<&str> = workloads::ALL.iter().map(|w| w.name).collect();
        format!("unknown workload {name:?}; the workloads are {names:?}")
    })?;
    let seed = args.seed.unwrap_or(DEFAULT_SEED);
    let opts = harness::Options {
        seed,
        size: size_of(args.smoke),
        budget: args.seconds.map(Duration::from_secs),
        handicap_ppm: args.handicap_ppm,
    };
    let (result, probes) = if args.trace {
        let path = out_dir()?.join(format!("trace-{name}-{seed:#x}.jsonl"));
        let result = harness::trace(spec, &opts, &path)?;
        let probes = if args.no_probes {
            Vec::new()
        } else {
            probes::run(opts.size)
        };
        (result, probes)
    } else {
        (harness::measure(spec, &opts)?, Vec::new())
    };
    Ok(Document {
        seed,
        smoke: args.smoke,
        handicap_ppm: args.handicap_ppm,
        nproc: nproc(),
        workloads: vec![result],
        probes,
    })
}

/// Runs this executable again with `argv`, so every workload has a process
/// (and a `VmHWM`) of its own, and reads the document it writes.
fn child(argv: &[String], out: &std::path::Path) -> Result<Document, String> {
    let exe = std::env::current_exe().map_err(|e| format!("current_exe: {e}"))?;
    let status = Command::new(exe)
        .args(argv)
        .arg("--out")
        .arg(out)
        .stdout(Stdio::null())
        .status()
        .map_err(|e| format!("spawning {argv:?}: {e}"))?;
    if !status.success() {
        return Err(format!("{argv:?} exited with {status}"));
    }
    Document::read(&out.to_string_lossy())
}

fn run_all(args: &RunArgs) -> Result<Document, String> {
    let dir = out_dir()?;
    let mut common: Vec<String> = Vec::new();
    if let Some(seed) = args.seed {
        common.extend(["--seed".into(), seed.to_string()]);
    }
    if let Some(seconds) = args.seconds {
        common.extend(["--seconds".into(), seconds.to_string()]);
    }
    if args.smoke {
        common.push("--smoke".into());
    }
    let mut merged: Option<Document> = None;
    for spec in &workloads::ALL {
        eprintln!("running {} ...", spec.name);
        let mut argv: Vec<String> = vec!["run".into(), "--workload".into(), spec.name.into()];
        argv.extend(common.iter().cloned());
        argv.extend(["--handicap-ppm".into(), args.handicap_ppm.to_string()]);
        let mut doc = child(&argv, &dir.join(format!("{}.json", spec.name)))?;
        if args.trace {
            // The traced pass is a second process, so the measured pass's
            // numbers (and its peak RSS) carry no tracing cost.
            eprintln!("tracing {} ...", spec.name);
            argv.extend(["--trace".into(), "1".into(), "--no-probes".into()]);
            let traced = child(&argv, &dir.join(format!("{}-traced.json", spec.name)))?;
            let (measured, traced) = (&mut doc.workloads[0], &traced.workloads[0]);
            if (measured.model_digest, &measured.counts) != (traced.model_digest, &traced.counts) {
                return Err(format!(
                    "{}: the traced pass's model differs from the measured pass's",
                    spec.name
                ));
            }
            // Per-arm floors come from the measured pass's more repetitions.
            let arms = std::mem::replace(&mut measured.host_layer, traced.host_layer.clone());
            for arm in arms {
                match measured.host_layer.iter_mut().find(|v| v.name == arm.name) {
                    Some(v) => *v = arm,
                    None => measured.host_layer.push(arm),
                }
            }
        }
        match &mut merged {
            Some(m) => m.workloads.extend(doc.workloads),
            None => merged = Some(doc),
        }
    }
    let mut merged = merged.expect("at least one workload");
    if args.trace {
        eprintln!("running layer_probes ...");
        let mut argv: Vec<String> = vec!["probes".into()];
        if args.smoke {
            argv.push("--smoke".into());
        }
        merged.probes = child(&argv, &dir.join("layer_probes.json"))?.probes;
    }
    Ok(merged)
}

fn cmd_run(argv: &[String]) -> Result<ExitCode, String> {
    let args = parse_run(argv)?;
    let doc = match &args.workload {
        Some(name) => run_one(&args, name)?,
        None => run_all(&args)?,
    };
    if let Some(out) = &args.out {
        doc.write(out)?;
    }
    report::print(&doc);
    let correct = doc.workloads.iter().all(|w| w.correct());
    if args.workload.is_some() {
        println!(
            "{}",
            report::contract_line(&doc.workloads[0], &doc.probes, args.trace)
        );
    }
    Ok(if correct {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    })
}

fn cmd_probes(argv: &[String]) -> Result<ExitCode, String> {
    let mut smoke = false;
    let mut out = None;
    let mut it = argv.iter();
    while let Some(flag) = it.next() {
        match flag.as_str() {
            "--smoke" => smoke = true,
            "--out" => out = Some(it.next().ok_or("--out needs a value")?.clone()),
            other => return Err(format!("unknown flag {other:?}")),
        }
    }
    let doc = Document {
        seed: DEFAULT_SEED,
        smoke,
        nproc: nproc(),
        probes: probes::run(size_of(smoke)),
        ..Document::default()
    };
    if let Some(out) = &out {
        doc.write(out)?;
    }
    report::print(&doc);
    Ok(ExitCode::SUCCESS)
}

fn cmd_manifest(argv: &[String]) -> Result<ExitCode, String> {
    if !argv.is_empty() {
        return Err("manifest takes no arguments".into());
    }
    print!("{}", report::manifest());
    Ok(ExitCode::SUCCESS)
}

fn main() -> ExitCode {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let outcome = match argv.split_first() {
        Some((cmd, rest)) if cmd == "run" => cmd_run(rest),
        Some((cmd, rest)) if cmd == "probes" => cmd_probes(rest),
        Some((cmd, rest)) if cmd == "compare" => compare::run(rest),
        Some((cmd, rest)) if cmd == "manifest" => cmd_manifest(rest),
        _ => Err("usage: contig-benchmark (run | probes | compare | manifest) ...; see benchmark/README.md".into()),
    };
    match outcome {
        Ok(code) => code,
        Err(message) => {
            eprintln!("contig-benchmark: {message}");
            ExitCode::from(2)
        }
    }
}
