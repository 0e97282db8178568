//! Trace exporters and the matching JSONL parser.
//!
//! Two formats are supported, both dependency-free:
//!
//! * **JSONL** — one flat JSON object per line, written through the
//!   workspace's canonical [`json`] encoder and read back by its parser, so
//!   it is integers, bools and tags only. Loss-less: a parsed file
//!   reconstructs the exact [`Record`] stream ([`parse_jsonl`] is the inverse
//!   of [`export_jsonl`]), and strict: a line with a missing, ill-typed,
//!   repeated or undeclared member is an error. This is the archival/CI
//!   format.
//! * **chrome://tracing** — a JSON array of Trace Event Format objects;
//!   span-like events (`mm.fault_exit`, `virt.nested_fault`,
//!   `recovery.*` with non-zero latency) become `"ph":"X"` duration slices
//!   on a per-dimension track, everything else becomes `"ph":"i"`
//!   instants. Lossy, write-only, but drag-and-droppable into
//!   `chrome://tracing` or Perfetto.

use crate::event::{Dim, Record, TraceEvent};
use contig_types::json::{self, Json};
use std::fmt::Write as _;

/// A malformed trace line: 1-based line number plus what went wrong.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct ParseError {
    /// 1-based line number of the offending line.
    pub line: usize,
    /// Human-readable description of the problem.
    pub(crate) message: String,
}

impl std::fmt::Display for ParseError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "trace line {}: {}", self.line, self.message)
    }
}

impl std::error::Error for ParseError {}

/// Members every record line starts with: `seq`, `ts_ns`, `dim`, `ev`.
const RECORD_MEMBERS: usize = 4;

/// Serializes one record as a single flat JSON object line (no trailing
/// newline): `seq`, `ts_ns`, `dim`, `ev`, then the event's payload members
/// in declaration order.
pub(crate) fn record_to_jsonl(rec: &Record) -> String {
    json::line(|e| {
        e.obj(|e| {
            e.key("seq").num(rec.seq);
            e.key("ts_ns").num(rec.ts_ns);
            e.key("dim").str(rec.dim.as_str());
            e.key("ev").str(rec.event.name());
            rec.event.write_fields(e);
        });
    })
}

/// Serializes a record stream as JSONL, one object per line, trailing
/// newline included when non-empty.
pub fn export_jsonl(records: &[Record]) -> String {
    let mut out = String::new();
    for rec in records {
        out.push_str(&record_to_jsonl(rec));
        out.push('\n');
    }
    out
}

fn parse_record(line: &str) -> Result<Record, String> {
    let obj = json::parse(line)?;
    let dim = obj.str_of("dim")?;
    let name = obj.str_of("ev")?;
    let (event, fields) = TraceEvent::read(name, &obj)?;
    // Every declared member was found by name, so a line of exactly that
    // many has no room for an undeclared or a repeated one.
    let members = RECORD_MEMBERS + fields;
    if !matches!(&obj, Json::Obj(m) if m.len() == members) {
        return Err(format!("`{name}` line must have exactly {members} members"));
    }
    Ok(Record {
        seq: obj.member("seq")?,
        ts_ns: obj.member("ts_ns")?,
        dim: Dim::from_tag(dim).ok_or_else(|| format!("unknown dim `{dim}`"))?,
        event,
    })
}

/// Parses a JSONL trace back into records — the exact inverse of
/// [`export_jsonl`]. Blank lines are skipped; any malformed line aborts
/// with a `ParseError` naming it.
pub fn parse_jsonl(text: &str) -> Result<Vec<Record>, ParseError> {
    let mut records = Vec::new();
    for (idx, line) in text.lines().enumerate() {
        if line.trim().is_empty() {
            continue;
        }
        let record = parse_record(line)
            .map_err(|message| ParseError { line: idx + 1, message })?;
        records.push(record);
    }
    Ok(records)
}

/// Track (tid) assignment for the chrome exporter: one per dimension.
fn tid_of(dim: Dim) -> u32 {
    match dim {
        Dim::None => 0,
        Dim::Guest => 1,
        Dim::Host => 2,
    }
}

/// Serializes a record stream in Chrome Trace Event Format (a JSON array).
///
/// Span-like events become `"ph":"X"` duration slices ending at the
/// record's timestamp; the rest become `"ph":"i"` instants. Timestamps are
/// microseconds as the format requires; sub-microsecond simulated latencies
/// keep their fractional part.
pub fn export_chrome(records: &[Record]) -> String {
    let mut out = String::from("[");
    for (i, rec) in records.iter().enumerate() {
        if i > 0 {
            out.push(',');
        }
        let name = rec.event.name();
        let cat = rec.event.subsystem();
        let tid = tid_of(rec.dim);
        match rec.event.span_ns() {
            Some(dur_ns) => {
                let start_ns = rec.ts_ns.saturating_sub(dur_ns);
                let _ = write!(
                    out,
                    "{{\"name\":\"{name}\",\"cat\":\"{cat}\",\"ph\":\"X\",\
                     \"ts\":{:?},\"dur\":{:?},\"pid\":1,\"tid\":{tid}}}",
                    start_ns as f64 / 1000.0,
                    dur_ns as f64 / 1000.0,
                );
            }
            None => {
                let _ = write!(
                    out,
                    "{{\"name\":\"{name}\",\"cat\":\"{cat}\",\"ph\":\"i\",\
                     \"s\":\"t\",\"ts\":{:?},\"pid\":1,\"tid\":{tid}}}",
                    rec.ts_ns as f64 / 1000.0,
                );
            }
        }
    }
    out.push(']');
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parse_errors_name_the_line() {
        let text = "{\"seq\":0,\"ts_ns\":0,\"dim\":\"-\",\"ev\":\"buddy.free\",\"pfn\":1,\"order\":0}\nnot json\n";
        let err = parse_jsonl(text).unwrap_err();
        assert_eq!(err.line, 2);
        let missing = "{\"seq\":0,\"ts_ns\":0,\"dim\":\"-\",\"ev\":\"buddy.free\",\"pfn\":1}";
        let err = parse_jsonl(missing).unwrap_err();
        assert!(err.message.contains("order"), "{err}");
        let unknown = "{\"seq\":0,\"ts_ns\":0,\"dim\":\"-\",\"ev\":\"nope.nope\"}";
        assert!(parse_jsonl(unknown).is_err());
    }

    #[test]
    fn chrome_export_emits_spans_and_instants() {
        // Every event kind the table declares, on rotating dimension tracks.
        let records: Vec<Record> = TraceEvent::samples()
            .into_iter()
            .enumerate()
            .map(|(i, event)| Record {
                seq: i as u64,
                ts_ns: 1000 + i as u64 * 500,
                dim: [Dim::None, Dim::Guest, Dim::Host][i % 3],
                event,
            })
            .collect();
        let text = export_chrome(&records);
        assert!(text.starts_with('[') && text.ends_with(']'));
        assert!(text.contains("\"ph\":\"X\""), "span events expected");
        assert!(text.contains("\"ph\":\"i\""), "instant events expected");
        assert!(text.contains("\"cat\":\"buddy\""));
        assert!(text.contains("\"tid\":2"), "host dimension track expected");
    }
}
