//! The command line as a user meets it: drives the built `contig-bench`
//! binary and checks the command table against the documents that cite it.

use std::path::{Path, PathBuf};
use std::process::{Command, Output};

/// The commands that are not paper experiments.
const TOOLS: [&str; 5] = ["all", "ablations", "torture", "report", "help"];

/// Runs `contig-bench <line>` with `dir` as its working directory.
fn bench_in(dir: &Path, line: &str) -> Output {
    Command::new(env!("CARGO_BIN_EXE_contig-bench"))
        .args(line.split_whitespace())
        .current_dir(dir)
        .output()
        .expect("contig-bench runs")
}

/// A fresh, empty directory for one test's artifacts.
fn scratch(name: &str) -> PathBuf {
    let dir = Path::new(env!("CARGO_TARGET_TMPDIR")).join(name);
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).expect("scratch dir");
    dir
}

fn stdout(out: &Output) -> String {
    String::from_utf8(out.stdout.clone()).expect("utf-8 stdout")
}

fn repo_file(name: &str) -> String {
    let path = Path::new(env!("CARGO_MANIFEST_DIR")).join("../..").join(name);
    std::fs::read_to_string(&path).unwrap_or_else(|e| panic!("{}: {e}", path.display()))
}

/// The modules under `src/paper`, sorted.
fn paper_modules() -> Vec<String> {
    let mut modules: Vec<String> =
        std::fs::read_dir(Path::new(env!("CARGO_MANIFEST_DIR")).join("src/paper"))
            .expect("src/paper")
            .map(|e| e.expect("dir entry").file_name().into_string().expect("utf-8 name"))
            .filter_map(|f| f.strip_suffix(".rs").map(String::from))
            .filter(|m| m != "mod")
            .collect();
    modules.sort();
    modules
}

/// The command names `help` lists, in order.
fn listed_commands() -> Vec<String> {
    let out = bench_in(Path::new(env!("CARGO_TARGET_TMPDIR")), "help");
    assert!(out.status.success());
    stdout(&out)
        .lines()
        .filter_map(|l| l.strip_prefix("  "))
        .map(|l| l.split_whitespace().next().expect("a name per row").to_string())
        .collect()
}

#[test]
fn bad_command_lines_print_one_usage_line_and_run_nothing() {
    let dir = scratch("bad");
    // (command line, what the message must name). Most of these ran for
    // minutes at the default scale when unknown flags were ignored.
    for (line, culprit) in [
        ("", "no command"),
        ("fig7", "fig7"),
        ("all --sclae 1024", "--sclae"),
        ("fig13 --accesses", "--accesses"),
        ("fig13 --accesses lots", "lots"),
        ("fig01b --runs -1", "-1"),
        ("all --scale 0", "--scale must be in 1..=2048, got 0"),
        ("fig08 --scale 4096", "--scale must be in 1..=2048, got 4096"),
        ("torture --ops 500 --posion --pcp", "--posion"),
        ("torture --emit", "--emit"),
        ("torture --shards four", "four"),
        ("report --output t.jsonl", "--output"),
        ("report --mib 32", "--mib"),
        ("report --inject_panic", "--inject_panic"),
        ("report --torture", "--torture"),
        ("report --ops 500", "--ops"),
        ("report --tasks 2", "--tasks"),
        ("report --top 3", "--top"),
        ("report --seed 0xb5", "0xb5"),
        ("report --flight", "--flight"),
        // Two artifacts on one path: the second would replace the first.
        ("report --chrome z.json --folded z.json", "--chrome and --folded both name z.json"),
        ("report --folded trace.jsonl", "--out and --folded both name trace.jsonl"),
        ("report --out ./t.json --chrome t.json", "--out and --chrome both name ./t.json"),
        ("ablations --quick", "--quick"),
        ("help me", "me"),
    ] {
        let out = bench_in(&dir, line);
        assert_eq!(out.status.code(), Some(2), "`{line}` must exit 2");
        assert!(out.stdout.is_empty(), "`{line}` printed to stdout");
        let err = String::from_utf8(out.stderr).expect("utf-8 stderr");
        assert_eq!(err.lines().count(), 1, "`{line}` must print one line, got:\n{err}");
        assert!(err.contains("usage: contig-bench") && err.contains(culprit), "`{line}`: {err}");
        assert_eq!(std::fs::read_dir(&dir).expect("scratch dir").count(), 0, "`{line}` ran");
    }
}

#[test]
fn help_lists_every_command_once_and_every_listed_command_resolves() {
    let listed = listed_commands();
    let mut expected = paper_modules();
    expected.extend(TOOLS.map(String::from));
    let mut sorted = listed.clone();
    sorted.sort();
    expected.sort();
    assert_eq!(sorted, expected, "help must name each src/paper module and each tool once");
    // A listed name the table lacked would be an unknown *command*.
    let dir = scratch("resolve");
    for name in &listed {
        let out = bench_in(&dir, &format!("{name} --no-such-flag"));
        let err = String::from_utf8(out.stderr).expect("utf-8 stderr");
        assert!(err.starts_with("unknown flag --no-such-flag"), "{name}: {err}");
    }
}

#[test]
fn all_follows_the_order_of_experiments_md() {
    // `all` walks the table's experiments in table order, which is the order
    // `help` prints them in, ahead of the tools. Each per-experiment heading
    // of EXPERIMENTS.md names its commands in backticks:
    // "### Fig. 1b — consecutive PageRank runs (`fig01b`)".
    let documented: Vec<String> = repo_file("EXPERIMENTS.md")
        .lines()
        .filter(|l| l.starts_with("### "))
        .flat_map(|l| l.split('`').skip(1).step_by(2).map(String::from).collect::<Vec<_>>())
        .collect();
    let listed = listed_commands();
    let experiments = &listed[..listed.len() - TOOLS.len()];
    assert_eq!(experiments, documented);
    assert_eq!(listed[experiments.len()], "all");
}

#[test]
fn every_command_design_md_cites_resolves() {
    let design = repo_file("DESIGN.md");
    let index = design
        .split("## 3. Per-experiment index")
        .nth(1)
        .and_then(|rest| rest.split("\n## ").next())
        .expect("DESIGN.md §3");
    // The Regenerator column cites commands as `contig-bench <name>`.
    let cited: Vec<&str> = index
        .split("`contig-bench ")
        .skip(1)
        .map(|rest| rest.split(['`', ' ']).next().expect("split yields one item"))
        .collect();
    let listed = listed_commands();
    assert!(cited.len() >= paper_modules().len(), "§3 cites only {cited:?}");
    for name in cited {
        assert!(listed.iter().any(|c| c == name), "DESIGN.md §3 cites `{name}`");
    }
}

#[test]
fn experiment_flags_take_effect() {
    let out = bench_in(&scratch("fig01b"), "fig01b --scale 1024 --accesses 20000 --runs 2");
    assert!(out.status.success() && out.stderr.is_empty());
    let text = stdout(&out);
    assert!(text.contains("scale 1/1024 (machine 256 MiB"), "{text}");
    let is_run_row =
        |l: &&str| l.split_whitespace().next().is_some_and(|t| t.parse::<u32>().is_ok());
    let rows = text.lines().filter(is_run_row).count();
    assert_eq!(rows, 2, "--runs 2 prints two run rows:\n{text}");
}

#[test]
fn torture_flags_take_effect() {
    let dir = scratch("torture");
    let out = bench_in(
        &dir,
        "torture --seed 7 --ops 40 --no-faults --poison --migrate --pcp --fleet --shards 2 \
         --daemon --emit fleet_min.jsonl",
    );
    let text = stdout(&out);
    assert!(
        text.starts_with(
            "torture run: seed 7  ops 40  faults false  poison true  migrate true  pcp true  \
             fleet true  shards 2  daemon true\n"
        ),
        "{text}"
    );
    assert!(out.status.success() && text.ends_with("PASS: zero divergences, zero findings\n"));
    assert!(!dir.join("fleet_min.jsonl").exists(), "a passing run emits no repro");
    // The mode counters print as rows of the one counter table, and the
    // stage profile follows it, as in `report`.
    for row in ["  poison.", "  fleet.", "  daemon."] {
        assert!(text.contains(row), "no {row} row:\n{text}");
    }
    assert!(text.contains("per-stage profile (") && text.contains("top 5 stages by self-time:"));
    assert!(text.contains("\nops 40  touches ") && text.contains("  fleet digest 0x"), "{text}");
    assert!(text.contains("  crash checks 0  baselines "), "{text}");

    let plain = stdout(&bench_in(&dir, "torture --ops 40"));
    assert!(plain.starts_with("torture run: seed 1  ops 40  faults true  poison false"), "{plain}");

    let out = bench_in(&dir, "torture --replay no_such_repro.jsonl");
    assert_eq!(out.status.code(), Some(2));
    let err = String::from_utf8(out.stderr).expect("utf-8 stderr");
    assert!(err.starts_with("cannot replay no_such_repro.jsonl"), "{err}");
}

#[test]
fn report_names_an_output_path_it_cannot_write_and_exits_1() {
    let dir = scratch("unwritable");
    for line in [
        "report --out missing/t.jsonl",
        "report --chrome missing/t.json",
        "report --folded missing/f.txt",
        "report --inject-panic --flight missing/fl.jsonl",
    ] {
        let out = bench_in(&dir, line);
        assert_eq!(out.status.code(), Some(1), "{line}");
        let err = String::from_utf8(out.stderr).expect("utf-8 stderr");
        let path = line.rsplit(' ').next().expect("a path");
        assert!(err.contains(&format!("cannot write {path}: ")), "{line}: {err}");
    }
}

#[test]
fn report_validates_the_trace_file_on_disk() {
    // Two spellings of one file pass the equal-path check. The chrome trace
    // is written after the JSONL, through the link and over it: the file no
    // longer holds the recorded events, whatever the command holds in memory.
    let dir = scratch("overwritten");
    std::os::unix::fs::symlink("x.json", dir.join("link.json")).expect("symlink");
    let out = bench_in(&dir, "report --out x.json --chrome link.json");
    assert_eq!(out.status.code(), Some(1));
    assert!(!stdout(&out).contains("validated"), "{}", stdout(&out));
    let err = String::from_utf8(out.stderr).expect("utf-8 stderr");
    assert!(err.starts_with("report: x.json does not parse back: "), "{err}");
}

#[test]
fn report_flags_take_effect() {
    let dir = scratch("reports");
    let out = bench_in(&dir, "report --seed 9 --out t.jsonl --chrome t.json --folded f.txt");
    let text = stdout(&out);
    assert!(out.status.success() && out.stderr.is_empty(), "{text}");
    assert!(text.starts_with("== report == seed 9: 32 MiB machine"), "{text}");
    // The verdicts of the checks a working build passes: canonical span
    // names (a unit test in `report.rs` feeds it a misspelt one), a
    // non-empty trace and a non-empty, balanced span stack.
    assert!(text.contains(" events recorded (") && text.contains("span stack balanced\n"));
    assert!(text.contains("per-stage profile (") && text.contains("top 5 stages by self-time:"));
    assert!(text.contains("trace written to t.jsonl (") && text.contains("and t.json\n"), "{text}");
    assert!(text.contains(" paths written to f.txt "), "{text}");
    let trace = std::fs::read_to_string(dir.join("t.jsonl")).expect("t.jsonl");
    assert!(trace.contains(r#""ev":"recovery.oom_event""#), "the hog drives OOM recovery");
    assert!(dir.join("t.json").exists() && dir.join("f.txt").exists());

    let out = bench_in(&dir, "report --inject-panic --flight fl.jsonl");
    let text = stdout(&out);
    assert!(out.status.success(), "{text}");
    assert!(text.starts_with("== report — flight-recorder self-test == seed 1\n"), "{text}");
    assert!(text.contains("-> fl.jsonl\n7 sibling tasks completed unharmed\n"), "{text}");
    assert!(std::fs::metadata(dir.join("fl.jsonl")).expect("fl.jsonl").len() > 0);
}
