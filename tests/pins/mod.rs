//! The pin ledger: `tests/pins.ledger` holds one `name value` line per
//! pinned quantity, and every pin test reads its expected values from it.
//!
//! A name is `<test file>.<test function>.<key>`, so each test owns the
//! section its function names. A test opens its section with
//! [`Ledger::open`], hands every quantity to [`Ledger::pin`] and ends with
//! [`Ledger::finish`], which fails once for the whole test. The failure
//! lists, as ledger text, every line to write (a value that differs or a
//! quantity the ledger lacks) and every line to delete (a line of the
//! section the test did not read, or a section no test function owns).
//! Updating the ledger after a deliberate model change is pasting those
//! lines; the diff of `tests/pins.ledger` is then the review of what moved.

use std::collections::BTreeSet;
use std::fmt::{Display, Write as _};

const LEDGER: &str = include_str!("../pins.ledger");

/// The test file this module is compiled into, e.g. `model_pins`.
const FILE: &str = env!("CARGO_CRATE_NAME");

/// `0x`-prefixed lower-case hex: how digests and float bits are pinned.
pub fn hex(v: u64) -> String {
    format!("{v:#x}")
}

/// Every `(name, value)` line of the ledger, comments and blanks skipped.
fn lines() -> impl Iterator<Item = (&'static str, &'static str)> {
    LEDGER.lines().map(str::trim).filter(|l| !l.is_empty() && !l.starts_with('#')).map(|l| {
        l.split_once(' ').unwrap_or_else(|| panic!("pins.ledger: `{l}` has no value"))
    })
}

/// Lines no test can read: those of this file whose test function does not
/// exist, and those naming a test file that does not exist.
fn orphans() -> Vec<String> {
    let path = |file: &str| format!("{}/tests/{file}.rs", env!("CARGO_MANIFEST_DIR"));
    let own = std::fs::read_to_string(path(FILE)).expect("a pin test reads its own source");
    lines()
        .filter(|(name, _)| {
            let mut parts = name.splitn(3, '.');
            let (file, test) = (parts.next().unwrap_or(""), parts.next().unwrap_or(""));
            if file == FILE {
                !own.contains(&format!("fn {test}()"))
            } else {
                !std::path::Path::new(&path(file)).exists()
            }
        })
        .map(|(name, value)| format!("{name} {value}"))
        .collect()
}

/// One test's section of the ledger and what the test has checked so far.
pub struct Ledger {
    section: String,
    read: BTreeSet<String>,
    write: Vec<String>,
}

impl Ledger {
    /// The section of test function `test` in the calling test file.
    pub fn open(test: &str) -> Self {
        Self { section: format!("{FILE}.{test}."), read: BTreeSet::new(), write: Vec::new() }
    }

    /// Checks the quantity `key` against its ledger line.
    pub fn pin(&mut self, key: &str, got: impl Display) {
        let name = format!("{}{key}", self.section);
        let got = got.to_string();
        let want = lines().find(|(n, _)| *n == name).map(|(_, v)| v);
        assert!(self.read.insert(name.clone()), "{name} is pinned twice");
        if want != Some(got.as_str()) {
            self.write.push(format!("{name} {got}"));
        }
    }

    /// Fails, once, if any pinned quantity differs from or is missing in the
    /// ledger, or if a ledger line goes unread.
    pub fn finish(self) {
        let mut delete: Vec<String> = lines()
            .filter(|(n, _)| n.starts_with(&self.section) && !self.read.contains(*n))
            .map(|(n, v)| format!("{n} {v}"))
            .collect();
        delete.extend(orphans());
        if self.write.is_empty() && delete.is_empty() {
            return;
        }
        let mut msg = format!("tests/pins.ledger is out of date for {}*\n", self.section);
        let write = ("write (replacing any line of that name)", &self.write);
        for (verb, block) in [write, ("delete", &delete)] {
            if !block.is_empty() {
                let _ = writeln!(msg, "{verb}:");
                for line in block {
                    let _ = writeln!(msg, "{line}");
                }
            }
        }
        panic!("{msg}");
    }
}
