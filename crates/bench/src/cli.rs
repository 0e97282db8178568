//! The one flag parser, the options the paper experiments share, and the
//! paper-versus-measured report formatting.
//!
//! Every command's flags go through [`parse`]: a flag the command does not
//! know, a flag missing its value, or a value that does not parse is a
//! [`UsageError`], reported by `main` as one usage line and exit code 2
//! before anything has run.
//!
//! Every paper experiment (see `DESIGN.md` §3 for the index) accepts:
//!
//! - `--scale N` — footprint/machine/TLB scale divisor, 1 to 2048 (default
//!   64; the library tests use 1024);
//! - `--accesses N` — trace length for translation experiments (default 2M);
//! - `--runs N` — repetitions where the figure sweeps runs (Fig. 1b).

use std::fmt;
use std::ops::RangeInclusive;
use std::str::FromStr;

use contig_check::ConfigError;
use contig_sim::Env;
use contig_workloads::Scale;

/// Why a command line was rejected.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum UsageError {
    /// No command was given.
    NoCommand,
    /// The first argument names no entry of the command table.
    UnknownCommand(String),
    /// The command does not take this flag.
    UnknownFlag(String),
    /// The flag was the last argument but takes a value.
    MissingValue(String),
    /// The flag's value does not parse as the number it expects.
    BadValue {
        /// The flag.
        flag: String,
        /// What followed it.
        value: String,
    },
    /// The flag's number is outside the range the command can run with.
    OutOfRange {
        /// The flag.
        flag: String,
        /// What followed it.
        value: u64,
        /// The values it accepts.
        range: RangeInclusive<u64>,
    },
    /// Two output flags name one file, so one artifact would overwrite the
    /// other.
    SamePath {
        /// The flag given first in the command's own order.
        first: &'static str,
        /// The other flag.
        second: &'static str,
        /// The path both name.
        path: String,
    },
    /// The flags describe a torture run no machine can be built for.
    Config(ConfigError),
}

impl fmt::Display for UsageError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Self::NoCommand => write!(f, "no command given"),
            Self::UnknownCommand(name) => write!(f, "unknown command {name}"),
            Self::UnknownFlag(flag) => write!(f, "unknown flag {flag}"),
            Self::MissingValue(flag) => write!(f, "{flag} needs a value"),
            Self::BadValue { flag, value } => write!(f, "{flag} expects a number, got {value}"),
            Self::OutOfRange { flag, value, range } => {
                write!(f, "{flag} must be in {range:?}, got {value}")
            }
            Self::SamePath { first, second, path } => {
                write!(f, "{first} and {second} both name {path}")
            }
            Self::Config(e) => write!(f, "{e}"),
        }
    }
}

/// The arguments after the flag being set; a flag that takes a value pulls
/// it from here.
pub struct Values<'a> {
    rest: std::slice::Iter<'a, String>,
}

impl Values<'_> {
    /// The value following `flag`.
    pub fn text(&mut self, flag: &str) -> Result<String, UsageError> {
        self.rest.next().cloned().ok_or_else(|| UsageError::MissingValue(flag.into()))
    }

    /// The value following `flag`, as a number.
    pub fn num<T: FromStr>(&mut self, flag: &str) -> Result<T, UsageError> {
        let value = self.text(flag)?;
        value.parse().map_err(|_| UsageError::BadValue { flag: flag.into(), value })
    }
}

/// Parses `argv` into `out`: every argument is handed to `set` as a flag,
/// which stores it (pulling its value, if it takes one, from [`Values`]) or
/// rejects it with [`unknown`].
pub fn parse<T>(
    argv: &[String],
    mut out: T,
    set: impl Fn(&mut T, &str, &mut Values) -> Result<(), UsageError>,
) -> Result<T, UsageError> {
    let mut values = Values { rest: argv.iter() };
    while let Some(flag) = values.rest.next() {
        set(&mut out, flag, &mut values)?;
    }
    Ok(out)
}

/// The rejection for a flag a command does not take.
pub fn unknown(flag: &str) -> Result<(), UsageError> {
    Err(UsageError::UnknownFlag(flag.into()))
}

/// Writes an artifact a command produces. A path it cannot write is named
/// with the OS error, which the command prints before it exits 1.
pub fn write_artifact(path: &str, contents: impl AsRef<[u8]>) -> Result<(), String> {
    std::fs::write(path, contents).map_err(|e| format!("cannot write {path}: {e}"))
}

/// Parses the flags of a command that takes none.
pub fn no_flags(argv: &[String]) -> Result<(), UsageError> {
    argv.first().map_or(Ok(()), |flag| unknown(flag))
}

/// Options shared by the paper experiments.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct Options {
    /// Scale divisor (`--scale`).
    pub scale: u64,
    /// Trace length for TLB simulations (`--accesses`).
    pub accesses: u64,
    /// Repetitions for multi-run figures (`--runs`).
    pub runs: usize,
}

impl Default for Options {
    fn default() -> Self {
        Self { scale: 64, accesses: 2_000_000, runs: 10 }
    }
}

impl Options {
    /// The flag synopsis of every paper experiment.
    pub const FLAGS: &'static str = "[--scale N] [--accesses N] [--runs N]";

    /// The scales every experiment can run at: 0 would divide by zero, and
    /// past 2048 the scaled machine is too small for fig08's workloads.
    const SCALES: RangeInclusive<u64> = 1..=2048;

    /// Parses an experiment's flags.
    pub fn parse(argv: &[String]) -> Result<Self, UsageError> {
        let opts = parse(argv, Self::default(), |opts, flag, values| {
            match flag {
                "--scale" => opts.scale = values.num(flag)?,
                "--accesses" => opts.accesses = values.num(flag)?,
                "--runs" => opts.runs = values.num(flag)?,
                _ => return unknown(flag),
            }
            Ok(())
        })?;
        // A run of no accesses or no repetitions has nothing to report: it
        // divides by zero (NaN cells, a panic in Table VII's USL estimate)
        // or prints an empty table.
        let checks = [
            ("--scale", opts.scale, Self::SCALES),
            ("--accesses", opts.accesses, 1..=u64::MAX),
            ("--runs", opts.runs as u64, 1..=u64::MAX),
        ];
        for (flag, value, range) in checks {
            if !range.contains(&value) {
                return Err(UsageError::OutOfRange { flag: flag.into(), value, range });
            }
        }
        Ok(opts)
    }

    /// The experiment environment for these options.
    pub fn env(&self) -> Env {
        Env::new(Scale(self.scale))
    }
}

/// Prints the standard experiment header.
pub fn header(what: &str, paper_ref: &str, opts: &Options) {
    println!("== {what} ==");
    println!("reproduces: {paper_ref}");
    println!(
        "scale 1/{} (machine {} MiB, TLB scaled to match)\n",
        opts.scale,
        opts.env().machine_mib()
    );
}

/// Formats a fraction as a percentage with one decimal.
pub fn pct(x: f64) -> String {
    format!("{:.1}%", x * 100.0)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn argv(line: &str) -> Vec<String> {
        line.split_whitespace().map(String::from).collect()
    }

    #[test]
    fn defaults_are_full_scale() {
        let o = Options::default();
        assert_eq!(o.scale, 64);
        assert_eq!(o.env().machine_mib(), 4096);
    }

    #[test]
    fn pct_formats() {
        assert_eq!(pct(0.165), "16.5%");
        assert_eq!(pct(0.0), "0.0%");
    }

    #[test]
    fn flags_parse_or_fail_with_a_typed_error() {
        assert_eq!(
            Options::parse(&argv("--scale 1024 --accesses 20000 --runs 2")),
            Ok(Options { scale: 1024, accesses: 20_000, runs: 2 })
        );
        // Not a silent run at the default scale.
        let error = |line| Options::parse(&argv(line)).expect_err(line);
        assert_eq!(error("--sclae 1024"), UsageError::UnknownFlag("--sclae".into()));
        assert_eq!(error("--runs 2 --scale"), UsageError::MissingValue("--scale".into()));
        assert_eq!(
            error("--runs -1"),
            UsageError::BadValue { flag: "--runs".into(), value: "-1".into() }
        );
        // Scales no run can use: 0 divided by zero, 4096 ran out of memory
        // in fig08, 1000000 panicked building the machine.
        for value in [0, 4096, 1_000_000] {
            assert_eq!(
                Options::parse(&argv(&format!("--scale {value}"))),
                Err(UsageError::OutOfRange { flag: "--scale".into(), value, range: 1..=2048 })
            );
        }
        // No accesses or no runs: NaN cells, a panic in table7, or an empty
        // fig01b table.
        for flag in ["--accesses", "--runs"] {
            assert_eq!(
                Options::parse(&argv(&format!("{flag} 0"))),
                Err(UsageError::OutOfRange { flag: flag.into(), value: 0, range: 1..=u64::MAX })
            );
            assert!(Options::parse(&argv(&format!("{flag} 1"))).is_ok(), "{flag} 1");
        }
        assert_eq!(Options::parse(&argv("--scale 2048")).map(|o| o.scale), Ok(2048));
        assert_eq!(Options::parse(&argv("--scale 1")).map(|o| o.scale), Ok(1));
    }
}
