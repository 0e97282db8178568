//! `contig-bench <command> [flags]` — the one place the paper's numbers come
//! from.
//!
//! [`COMMANDS`] is the whole command line: one row per paper table or figure
//! (in paper order — `all` walks them), then the tools around the simulator
//! (`ablations`, `torture`, `report`). `DESIGN.md` §3 maps each experiment
//! to the modules implementing it; how fast the simulator itself runs is
//! `benchmark/`'s business, not this crate's.

mod ablations;
mod cli;
mod paper;
mod report;
mod torture;

use std::process::ExitCode;
use std::time::Instant;

use cli::{Options, UsageError};

/// What a command runs.
enum Run {
    /// A paper experiment: takes the shared [`Options`] and is part of `all`.
    Paper(fn(&Options)),
    /// A tool with flags and an exit code of its own.
    Tool(Tool),
}

type Tool = fn(&[String]) -> Result<ExitCode, UsageError>;

/// One row of the command table.
struct Command {
    name: &'static str,
    /// The paper table/figure an experiment regenerates; what a tool does.
    about: &'static str,
    /// Flag synopsis for the usage line.
    flags: &'static str,
    run: Run,
}

const fn paper(name: &'static str, about: &'static str, run: fn(&Options)) -> Command {
    Command { name, about, flags: Options::FLAGS, run: Run::Paper(run) }
}

const fn tool(name: &'static str, about: &'static str, flags: &'static str, run: Tool) -> Command {
    Command { name, about, flags, run: Run::Tool(run) }
}

/// Every command, experiments first and in paper order.
const COMMANDS: &[Command] = &[
    paper("fig01b", "Fig. 1b: PageRank coverage across consecutive runs", paper::fig01b::run),
    paper("fig01c", "Fig. 1c: XSBench coverage timeline, CA vs ranger", paper::fig01c::run),
    paper("table1", "Table I: vRMM ranges vs vHC anchor entries", paper::table1::run),
    paper("fig07", "Fig. 7: native contiguity, no memory pressure", paper::fig07::run),
    paper("fig08", "Fig. 8: contiguity under memory pressure", paper::fig08::run),
    paper("fig09", "Fig. 9: free-block size distribution", paper::fig09::run),
    paper("fig10", "Fig. 10: two concurrent SVM instances", paper::fig10::run),
    paper("fig11", "Fig. 11: software runtime overhead", paper::fig11::run),
    paper("table5", "Table V: page-fault count and tail latency", paper::table5::run),
    paper("table6", "Table VI: memory bloat", paper::table6::run),
    paper("fig12", "Fig. 12: virtualized 2D contiguity", paper::fig12::run),
    paper("fig13", "Fig. 13: address-translation overhead", paper::fig13::run),
    paper("fig14", "Fig. 14: SpOT prediction breakdown", paper::fig14::run),
    paper("table7", "Table VII: unsafe-load estimation", paper::table7::run),
    paper("ext_5level", "extension (§I): 5-level paging", paper::ext_5level::run),
    paper(
        "ext_combinations",
        "extension (§III-D, §VI-C): reservations, CA+ranger",
        paper::ext_combinations::run,
    ),
    paper("ext_shadow", "extension (§VII): shadow paging + SpOT", paper::ext_shadow::run),
    tool("all", "every experiment above, in that order", Options::FLAGS, all),
    tool("ablations", "quality impact of the DESIGN.md §2 design choices", "", ablations::run),
    tool("torture", "run or replay the differential torture harness", torture::FLAGS, torture::run),
    tool(
        "report",
        "traced hog workload: counters, histograms, stage profile; JSONL, chrome, folded",
        report::FLAGS,
        report::run,
    ),
    tool("help", "this list", "", help),
];

/// Runs every table/figure regenerator in sequence — the one-command
/// reproduction of the paper's evaluation section, and what
/// `EXPERIMENTS.md` is written from. Each command's wall time goes to
/// stderr, one line per command, so stdout stays the reproducible result.
fn all(argv: &[String]) -> Result<ExitCode, UsageError> {
    let opts = Options::parse(argv)?;
    for command in COMMANDS {
        if let Run::Paper(run) = command.run {
            println!("\n{}\n", "=".repeat(72));
            let started = Instant::now();
            run(&opts);
            eprintln!("{}: {:.1} s", command.name, started.elapsed().as_secs_f64());
        }
    }
    println!("\n{}", "=".repeat(72));
    println!("all experiments completed");
    Ok(ExitCode::SUCCESS)
}

fn help(argv: &[String]) -> Result<ExitCode, UsageError> {
    cli::no_flags(argv)?;
    println!("usage: contig-bench <command> [flags]\n\ncommands:");
    for c in COMMANDS {
        println!("  {:<17} {}", c.name, c.about);
    }
    println!("\nexperiments and `all` take {}", Options::FLAGS);
    Ok(ExitCode::SUCCESS)
}

/// Resolves `argv[0]` in the table and runs it on the rest. The error names
/// the command whose usage line applies, if one was recognised.
fn dispatch(argv: &[String]) -> Result<ExitCode, (Option<&'static Command>, UsageError)> {
    let (name, flags) = argv.split_first().ok_or((None, UsageError::NoCommand))?;
    let command = COMMANDS
        .iter()
        .find(|c| c.name == name)
        .ok_or_else(|| (None, UsageError::UnknownCommand(name.clone())))?;
    match command.run {
        Run::Paper(run) => Options::parse(flags).map(|opts| {
            run(&opts);
            ExitCode::SUCCESS
        }),
        Run::Tool(run) => run(flags),
    }
    .map_err(|e| (Some(command), e))
}

fn main() -> ExitCode {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    dispatch(&argv).unwrap_or_else(|(command, error)| {
        match command {
            Some(c) => eprintln!("{error}; usage: contig-bench {} {}", c.name, c.flags),
            None => {
                let names: Vec<&str> = COMMANDS.iter().map(|c| c.name).collect();
                eprintln!(
                    "{error}; usage: contig-bench <command> [flags], commands: {}",
                    names.join(" ")
                );
            }
        }
        ExitCode::from(2)
    })
}
