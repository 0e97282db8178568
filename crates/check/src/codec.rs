//! Versioned JSONL snapshot files.
//!
//! The plain-data snapshot types exported by `contig-buddy`, `contig-mm`,
//! `contig-virt`, `contig-fleet` and `contig-tlb` say themselves how they
//! cross the wire: each is wrapped where it is defined in one of
//! `contig_types`' table macros (`wire_struct!`, `wire_counters!`,
//! `wire_tagged!`), so its [`Wire`] impl — canonical single-line JSON out
//! through an [`Enc`](crate::json::Enc), pulled back member by member off a
//! [`Dec`](crate::json::Dec) — is expanded from the declaration and cannot
//! disagree with it. What is left here is what is about files: a VM image in
//! two lines,
//!
//! ```text
//! {"format":"contig-snapshot","version":8,"digest":<fnv1a64>}
//! {<payload>}
//! ```
//!
//! The header carries the format version — the decoder reads exactly the
//! version the encoder writes and names any other in its error; CI pins the
//! bytes against a committed golden file — and the digest of the payload
//! line, so corruption is detected before a restore is attempted. Nothing
//! may follow the payload line.
//!
//! Every member is written, and required on decode, once and in declaration
//! order (an unset `Option` is `null`), so the encoding is canonical and
//! [`crate::digest`] hashes the bytes as they are emitted. Reordering,
//! renaming, adding or removing a field of a wrapped type is therefore a
//! format change and needs a new [`SNAPSHOT_VERSION`].

use contig_mm::SystemSnapshot;
use contig_virt::VmSnapshot;

use crate::digest::fnv1a64;
use crate::json::{decode, line, parse, Wire};

/// Snapshot file format version: the one the encoder writes and the only
/// version read.
pub(crate) const SNAPSHOT_VERSION: i128 = 9;
/// `format` tag of snapshot files.
pub const SNAPSHOT_FORMAT: &str = "contig-snapshot";

/// Serializes a [`VmSnapshot`] to the two-line JSONL snapshot format
/// (versioned header with digest, then the payload).
pub fn encode_vm_file(snap: &VmSnapshot) -> String {
    let payload = line(|e| snap.enc(e));
    let header = line(|e| {
        e.obj(|e| {
            e.key("format").str(SNAPSHOT_FORMAT);
            e.key("version").num(SNAPSHOT_VERSION);
            e.key("digest").num(fnv1a64(payload.as_bytes()));
        });
    });
    format!("{header}\n{payload}\n")
}

/// Parses and validates a snapshot file produced by [`encode_vm_file`].
///
/// # Errors
///
/// Rejects missing headers, unknown format tags, any version but
/// `SNAPSHOT_VERSION`, digest mismatches (corruption), malformed payloads,
/// and anything but blank lines after the payload.
pub fn decode_vm_file(text: &str) -> Result<VmSnapshot, String> {
    let mut lines = text.lines().filter(|l| !l.trim().is_empty());
    let header_line = lines.next().ok_or("empty snapshot file")?;
    let payload_line = lines.next().ok_or("snapshot file has no payload line")?;
    if lines.next().is_some() {
        return Err("trailing data after payload line".into());
    }
    let header = parse(header_line).map_err(|e| format!("bad header: {e}"))?;
    match header.field("format")?.as_str() {
        Some(SNAPSHOT_FORMAT) => {}
        other => return Err(format!("not a snapshot file (format {other:?})")),
    }
    let version: i128 = header.member("version")?;
    if version != SNAPSHOT_VERSION {
        return Err(format!(
            "snapshot version {version} unsupported (decoder speaks {SNAPSHOT_VERSION})"
        ));
    }
    let want: u64 = header.member("digest")?;
    let got = fnv1a64(payload_line.as_bytes());
    if want != got {
        return Err(format!("digest mismatch: header {want:#x}, payload {got:#x}"));
    }
    decode(payload_line, "bad payload")
}

/// [`contig_virt::GuestStateCodec`] over the versioned JSON snapshot codec:
/// the guest OS crosses the migration wire as exactly the bytes a snapshot
/// export would produce, so the stop-and-copy state chunk needs no second
/// serialization format.
#[derive(Clone, Copy, Debug, Default)]
pub struct SnapshotGuestCodec;

impl contig_virt::GuestStateCodec for SnapshotGuestCodec {
    fn encode(&self, snap: &SystemSnapshot) -> Vec<u8> {
        line(|e| snap.enc(e)).into_bytes()
    }

    fn decode(&self, bytes: &[u8]) -> Result<SystemSnapshot, String> {
        let text =
            std::str::from_utf8(bytes).map_err(|e| format!("state chunk not UTF-8: {e}"))?;
        decode(text, "state chunk not JSON")
    }
}
