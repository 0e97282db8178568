//! Replayable failure files.
//!
//! A repro file is JSONL: a versioned header carrying the full
//! [`TortureConfig`], then one op per line. The format is what the minimizer
//! emits and what the `torture_replay` bench binary consumes, so a failure
//! found in CI can be re-run locally from the uploaded artifact alone.
//!
//! ```text
//! {"format":"contig-torture","version":1,"seed":7,...}
//! {"op":"map_anon","sel":3,"pages":17}
//! {"op":"touch","sel":0,"page":4}
//! ```

use crate::json::{decode, line, parse, Json, Wire};
use crate::torture::{TortureConfig, TortureOp};

/// Current repro file format version.
pub(crate) const REPRO_VERSION: i128 = 1;
/// `format` tag of repro files.
pub(crate) const REPRO_FORMAT: &str = "contig-torture";

/// Serializes a config and op sequence as a replayable JSONL repro file.
pub fn encode_repro(cfg: &TortureConfig, ops: &[TortureOp]) -> String {
    let mut out = line(|e| {
        e.obj(|e| {
            e.key("format").str(REPRO_FORMAT);
            e.key("version").num(REPRO_VERSION);
            cfg.seed.enc(e.key("seed"));
            ops.len().enc(e.key("ops"));
            cfg.guest_mib.enc(e.key("guest_mib"));
            cfg.host_mib.enc(e.key("host_mib"));
            cfg.faults.enc(e.key("faults"));
            cfg.sweep_interval.enc(e.key("sweep_interval"));
            cfg.audit_interval.enc(e.key("audit_interval"));
            cfg.snapshot_interval.enc(e.key("snapshot_interval"));
            cfg.crash_interval.enc(e.key("crash_interval"));
            cfg.inject_model_bug.enc(e.key("inject_model_bug"));
            cfg.poison.enc(e.key("poison"));
            cfg.migrate.enc(e.key("migrate"));
            cfg.pcp.enc(e.key("pcp"));
            cfg.fleet.enc(e.key("fleet"));
            cfg.shards.enc(e.key("shards"));
            cfg.daemon.enc(e.key("daemon"));
        });
    });
    out.push('\n');
    for op in ops {
        out.push_str(&line(|e| op.enc(e)));
        out.push('\n');
    }
    out
}

/// Parses a repro file back into its config and op sequence.
///
/// # Errors
///
/// Rejects unknown formats, newer versions, malformed lines, and a header
/// [`TortureConfig::check`] refuses.
pub fn decode_repro(text: &str) -> Result<(TortureConfig, Vec<TortureOp>), String> {
    let mut lines = text.lines().filter(|l| !l.trim().is_empty());
    let header_line = lines.next().ok_or("empty repro file")?;
    let header = parse(header_line).map_err(|e| format!("bad header: {e}"))?;
    match header.get("format").and_then(Json::as_str) {
        Some(REPRO_FORMAT) => {}
        other => return Err(format!("not a torture repro file (format {other:?})")),
    }
    let version = header
        .get("version")
        .and_then(Json::as_num)
        .ok_or("header has no version")?;
    if version != REPRO_VERSION {
        return Err(format!(
            "repro version {version} unsupported (decoder speaks {REPRO_VERSION})"
        ));
    }
    // A member the header lacks is one the file predates: each subsystem
    // added since version 1 defaults to off (`shards` to 0, the flat
    // machine), so old artifacts replay byte-identically; an absent crash
    // interval is none. A member the header has must be well-formed: a
    // malformed one defaulted would replay another run than it recorded.
    fn or_default<T: Wire + Default>(header: &Json, key: &str) -> Result<T, String> {
        match header.get(key) {
            None => Ok(T::default()),
            Some(_) => header.member(key),
        }
    }
    let mut cfg = TortureConfig {
        seed: header.member("seed")?,
        ops: header.member("ops")?,
        guest_mib: header.member("guest_mib")?,
        host_mib: header.member("host_mib")?,
        faults: header.member("faults")?,
        sweep_interval: header.member("sweep_interval")?,
        audit_interval: header.member("audit_interval")?,
        snapshot_interval: header.member("snapshot_interval")?,
        crash_interval: or_default(&header, "crash_interval")?,
        inject_model_bug: header.member("inject_model_bug")?,
        poison: or_default(&header, "poison")?,
        migrate: or_default(&header, "migrate")?,
        pcp: or_default(&header, "pcp")?,
        fleet: or_default(&header, "fleet")?,
        shards: or_default(&header, "shards")?,
        daemon: or_default(&header, "daemon")?,
    };
    cfg.check().map_err(|e| e.to_string())?;
    let mut ops = Vec::new();
    for op_line in lines {
        ops.push(decode(op_line, "bad op line")?);
    }
    if ops.len() != cfg.ops {
        return Err(format!("header promises {} ops, file has {}", cfg.ops, ops.len()));
    }
    // `cfg.ops` mirrors the op-line count; it only matters when regenerating
    // from the seed, and a repro file carries the explicit sequence instead.
    cfg.ops = ops.len();
    Ok((cfg, ops))
}

/// Reads a repro file from `path`.
///
/// # Errors
///
/// I/O failures and every validation failure of [`decode_repro`].
pub fn read_repro(path: &std::path::Path) -> Result<(TortureConfig, Vec<TortureOp>), String> {
    let text = std::fs::read_to_string(path).map_err(|e| format!("read {path:?}: {e}"))?;
    decode_repro(&text)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::torture::generate_ops;

    #[test]
    fn repro_round_trips_every_op_kind() {
        let cfg = TortureConfig { crash_interval: None, ..TortureConfig::default() };
        let ops = vec![
            TortureOp::MapAnon { sel: 1, pages: 2 },
            TortureOp::MapFile { sel: 3, pages: 4 },
            TortureOp::Touch { sel: 5, page: 6 },
            TortureOp::TouchWrite { sel: 7, page: 8 },
            TortureOp::Populate { sel: 9 },
            TortureOp::Fork { sel: 10 },
            TortureOp::ExitProc { sel: 11 },
            TortureOp::SetFaults { host: true, rate_ppm: 12, seed: 13 },
            TortureOp::ClearFaults,
            TortureOp::PoisonFrame { host: false, sel: 14 },
            TortureOp::SoftOffline { host: true, sel: 15 },
            TortureOp::SetPoison { host: false, rate_ppm: 16, seed: 17 },
            TortureOp::ClearPoison,
            TortureOp::Migrate { seed: 18 },
            TortureOp::SetTransport { rate_ppm: 19, seed: 20 },
            TortureOp::ClearTransport,
            TortureOp::FleetWrite { sel: 21, page: 22, tag: 23 },
            TortureOp::FleetRead { sel: 24, page: 25 },
            TortureOp::FleetDiscard { sel: 26, page: 27 },
            TortureOp::FleetStep,
            TortureOp::DaemonTick,
            TortureOp::SetDaemonPolicy { level: 28, budget: 29 },
        ];
        let text = encode_repro(&cfg, &ops);
        let (cfg2, ops2) = decode_repro(&text).unwrap();
        assert_eq!(cfg2, TortureConfig { ops: ops.len(), ..cfg });
        assert_eq!(ops2, ops);
    }

    #[test]
    fn generated_stream_round_trips() {
        let cfg = TortureConfig::with_seed_and_ops(11, 200);
        let ops = generate_ops(&cfg);
        let (_, ops2) = decode_repro(&encode_repro(&cfg, &ops)).unwrap();
        assert_eq!(ops2, ops);
    }

    #[test]
    fn shard_count_survives_the_repro_header() {
        // A minimized artifact from a sharded run must replay on the same
        // topology; headers written before the field existed default to 0
        // (flat), keeping old repro files replayable.
        let cfg = TortureConfig { shards: 4, ..TortureConfig::with_seed_and_ops(5, 50) };
        let ops = generate_ops(&cfg);
        let (cfg2, _) = decode_repro(&encode_repro(&cfg, &ops)).unwrap();
        assert_eq!(cfg2.shards, 4);
        let legacy = encode_repro(&TortureConfig::with_seed_and_ops(5, 50), &ops)
            .replace(",\"shards\":0", "");
        let (cfg3, _) = decode_repro(&legacy).expect("pre-shards header must decode");
        assert_eq!(cfg3.shards, 0);
    }

    #[test]
    fn daemon_arming_survives_the_repro_header() {
        // A minimized artifact from a daemon-armed run must replay with the
        // daemons armed (the `DaemonTick` ops in the stream are no-ops
        // otherwise); headers written before the field existed default to
        // off, keeping old repro files replayable.
        let cfg = TortureConfig { daemon: true, ..TortureConfig::with_seed_and_ops(5, 50) };
        let ops = generate_ops(&cfg);
        assert!(ops.contains(&TortureOp::DaemonTick), "band 14..=16 never rolled");
        let (cfg2, _) = decode_repro(&encode_repro(&cfg, &ops)).unwrap();
        assert!(cfg2.daemon);
        let legacy = encode_repro(&TortureConfig::with_seed_and_ops(5, 50), &ops)
            .replace(",\"daemon\":false", "");
        let (cfg3, _) = decode_repro(&legacy).expect("pre-daemon header must decode");
        assert!(!cfg3.daemon);
    }

    #[test]
    fn malformed_header_members_are_refused_not_defaulted() {
        // Only a member the header lacks defaults; one it carries in the
        // wrong type would replay a different run than the file recorded.
        let text = encode_repro(&TortureConfig::with_seed_and_ops(5, 0), &[]);
        for (member, bad, why) in [
            ("\"poison\":false", "\"poison\":7", "poison: not a bool"),
            ("\"shards\":0", "\"shards\":\"four\"", "shards: not a usize"),
            ("\"crash_interval\":101", "\"crash_interval\":-1", "crash_interval: not a usize"),
        ] {
            assert_eq!(decode_repro(&text.replace(member, bad)), Err(why.to_string()));
        }
    }

    #[test]
    fn rejects_foreign_and_future_files() {
        assert!(decode_repro("").is_err());
        assert!(decode_repro("{\"format\":\"something-else\",\"version\":1}").is_err());
        let cfg = TortureConfig::default();
        let future = encode_repro(&cfg, &[]).replace("\"version\":1", "\"version\":2");
        assert!(decode_repro(&future).is_err());
    }
}
