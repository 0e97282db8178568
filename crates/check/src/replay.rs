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

use crate::json::{parse, Json};
use crate::torture::{TortureConfig, TortureOp};

/// Current repro file format version.
pub const REPRO_VERSION: i128 = 1;
/// `format` tag of repro files.
pub const REPRO_FORMAT: &str = "contig-torture";

fn obj(members: Vec<(&str, Json)>) -> Json {
    Json::Obj(members.into_iter().map(|(k, v)| (k.to_string(), v)).collect())
}

fn op_to_json(op: &TortureOp) -> Json {
    match *op {
        TortureOp::MapAnon { sel, pages } => obj(vec![
            ("op", Json::Str("map_anon".into())),
            ("sel", Json::num(sel)),
            ("pages", Json::num(pages)),
        ]),
        TortureOp::MapFile { sel, pages } => obj(vec![
            ("op", Json::Str("map_file".into())),
            ("sel", Json::num(sel)),
            ("pages", Json::num(pages)),
        ]),
        TortureOp::Touch { sel, page } => obj(vec![
            ("op", Json::Str("touch".into())),
            ("sel", Json::num(sel)),
            ("page", Json::num(page)),
        ]),
        TortureOp::TouchWrite { sel, page } => obj(vec![
            ("op", Json::Str("touch_write".into())),
            ("sel", Json::num(sel)),
            ("page", Json::num(page)),
        ]),
        TortureOp::Populate { sel } => {
            obj(vec![("op", Json::Str("populate".into())), ("sel", Json::num(sel))])
        }
        TortureOp::Fork { sel } => {
            obj(vec![("op", Json::Str("fork".into())), ("sel", Json::num(sel))])
        }
        TortureOp::ExitProc { sel } => {
            obj(vec![("op", Json::Str("exit_proc".into())), ("sel", Json::num(sel))])
        }
        TortureOp::SetFaults { host, rate_ppm, seed } => obj(vec![
            ("op", Json::Str("set_faults".into())),
            ("host", Json::Bool(host)),
            ("rate_ppm", Json::num(rate_ppm)),
            ("seed", Json::num(seed)),
        ]),
        TortureOp::ClearFaults => obj(vec![("op", Json::Str("clear_faults".into()))]),
        TortureOp::PoisonFrame { host, sel } => obj(vec![
            ("op", Json::Str("poison_frame".into())),
            ("host", Json::Bool(host)),
            ("sel", Json::num(sel)),
        ]),
        TortureOp::SoftOffline { host, sel } => obj(vec![
            ("op", Json::Str("soft_offline".into())),
            ("host", Json::Bool(host)),
            ("sel", Json::num(sel)),
        ]),
        TortureOp::SetPoison { host, rate_ppm, seed } => obj(vec![
            ("op", Json::Str("set_poison".into())),
            ("host", Json::Bool(host)),
            ("rate_ppm", Json::num(rate_ppm)),
            ("seed", Json::num(seed)),
        ]),
        TortureOp::ClearPoison => obj(vec![("op", Json::Str("clear_poison".into()))]),
        TortureOp::Migrate { seed } => {
            obj(vec![("op", Json::Str("migrate".into())), ("seed", Json::num(seed))])
        }
        TortureOp::SetTransport { rate_ppm, seed } => obj(vec![
            ("op", Json::Str("set_transport".into())),
            ("rate_ppm", Json::num(rate_ppm)),
            ("seed", Json::num(seed)),
        ]),
        TortureOp::ClearTransport => obj(vec![("op", Json::Str("clear_transport".into()))]),
        TortureOp::FleetWrite { sel, page, tag } => obj(vec![
            ("op", Json::Str("fleet_write".into())),
            ("sel", Json::num(sel)),
            ("page", Json::num(page)),
            ("tag", Json::num(tag)),
        ]),
        TortureOp::FleetRead { sel, page } => obj(vec![
            ("op", Json::Str("fleet_read".into())),
            ("sel", Json::num(sel)),
            ("page", Json::num(page)),
        ]),
        TortureOp::FleetDiscard { sel, page } => obj(vec![
            ("op", Json::Str("fleet_discard".into())),
            ("sel", Json::num(sel)),
            ("page", Json::num(page)),
        ]),
        TortureOp::FleetStep => obj(vec![("op", Json::Str("fleet_step".into()))]),
        TortureOp::DaemonTick => obj(vec![("op", Json::Str("daemon_tick".into()))]),
        TortureOp::SetDaemonPolicy { level, budget } => obj(vec![
            ("op", Json::Str("set_daemon_policy".into())),
            ("level", Json::num(level)),
            ("budget", Json::num(budget)),
        ]),
    }
}

fn op_from_json(v: &Json) -> Result<TortureOp, String> {
    let name = v.str_of("op")?;
    Ok(match name {
        "map_anon" => TortureOp::MapAnon { sel: v.u64_of("sel")?, pages: v.u64_of("pages")? },
        "map_file" => TortureOp::MapFile { sel: v.u64_of("sel")?, pages: v.u64_of("pages")? },
        "touch" => TortureOp::Touch { sel: v.u64_of("sel")?, page: v.u64_of("page")? },
        "touch_write" => {
            TortureOp::TouchWrite { sel: v.u64_of("sel")?, page: v.u64_of("page")? }
        }
        "populate" => TortureOp::Populate { sel: v.u64_of("sel")? },
        "fork" => TortureOp::Fork { sel: v.u64_of("sel")? },
        "exit_proc" => TortureOp::ExitProc { sel: v.u64_of("sel")? },
        "set_faults" => TortureOp::SetFaults {
            host: v.bool_of("host")?,
            rate_ppm: v.u32_of("rate_ppm")?,
            seed: v.u64_of("seed")?,
        },
        "clear_faults" => TortureOp::ClearFaults,
        "poison_frame" => {
            TortureOp::PoisonFrame { host: v.bool_of("host")?, sel: v.u64_of("sel")? }
        }
        "soft_offline" => {
            TortureOp::SoftOffline { host: v.bool_of("host")?, sel: v.u64_of("sel")? }
        }
        "set_poison" => TortureOp::SetPoison {
            host: v.bool_of("host")?,
            rate_ppm: v.u32_of("rate_ppm")?,
            seed: v.u64_of("seed")?,
        },
        "clear_poison" => TortureOp::ClearPoison,
        "migrate" => TortureOp::Migrate { seed: v.u64_of("seed")? },
        "set_transport" => TortureOp::SetTransport {
            rate_ppm: v.u32_of("rate_ppm")?,
            seed: v.u64_of("seed")?,
        },
        "clear_transport" => TortureOp::ClearTransport,
        "fleet_write" => TortureOp::FleetWrite {
            sel: v.u64_of("sel")?,
            page: v.u64_of("page")?,
            tag: v.u64_of("tag")?,
        },
        "fleet_read" => TortureOp::FleetRead { sel: v.u64_of("sel")?, page: v.u64_of("page")? },
        "fleet_discard" => {
            TortureOp::FleetDiscard { sel: v.u64_of("sel")?, page: v.u64_of("page")? }
        }
        "fleet_step" => TortureOp::FleetStep,
        "daemon_tick" => TortureOp::DaemonTick,
        "set_daemon_policy" => TortureOp::SetDaemonPolicy {
            level: v.u64_of("level")?,
            budget: v.u64_of("budget")?,
        },
        other => return Err(format!("unknown op `{other}`")),
    })
}

/// Serializes a config and op sequence as a replayable JSONL repro file.
pub fn encode_repro(cfg: &TortureConfig, ops: &[TortureOp]) -> String {
    let header = obj(vec![
        ("format", Json::Str(REPRO_FORMAT.into())),
        ("version", Json::Num(REPRO_VERSION)),
        ("seed", Json::num(cfg.seed)),
        ("ops", Json::num(ops.len() as u64)),
        ("guest_mib", Json::num(cfg.guest_mib)),
        ("host_mib", Json::num(cfg.host_mib)),
        ("faults", Json::Bool(cfg.faults)),
        ("sweep_interval", Json::num(cfg.sweep_interval as u64)),
        ("audit_interval", Json::num(cfg.audit_interval as u64)),
        ("snapshot_interval", Json::num(cfg.snapshot_interval as u64)),
        (
            "crash_interval",
            match cfg.crash_interval {
                None => Json::Null,
                Some(n) => Json::num(n as u64),
            },
        ),
        ("inject_model_bug", Json::Bool(cfg.inject_model_bug)),
        ("poison", Json::Bool(cfg.poison)),
        ("migrate", Json::Bool(cfg.migrate)),
        ("pcp", Json::Bool(cfg.pcp)),
        ("fleet", Json::Bool(cfg.fleet)),
        ("shards", Json::num(cfg.shards as u64)),
        ("daemon", Json::Bool(cfg.daemon)),
    ]);
    let mut out = header.to_line();
    out.push('\n');
    for op in ops {
        out.push_str(&op_to_json(op).to_line());
        out.push('\n');
    }
    out
}

/// Parses a repro file back into its config and op sequence.
///
/// # Errors
///
/// Rejects unknown formats, newer versions, and malformed lines.
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
    let usize_field = |key: &str| -> Result<usize, String> {
        usize::try_from(header.u64_of(key)?).map_err(|_| format!("`{key}` out of range"))
    };
    let mut cfg = TortureConfig {
        seed: header.u64_of("seed")?,
        ops: usize_field("ops")?,
        guest_mib: header.u64_of("guest_mib")?,
        host_mib: header.u64_of("host_mib")?,
        faults: header.bool_of("faults")?,
        sweep_interval: usize_field("sweep_interval")?,
        audit_interval: usize_field("audit_interval")?,
        snapshot_interval: usize_field("snapshot_interval")?,
        crash_interval: match header.get("crash_interval") {
            Some(Json::Null) | None => None,
            Some(v) => Some(
                usize::try_from(v.as_u64().ok_or("crash_interval is not a u64")?)
                    .map_err(|_| "crash_interval out of range")?,
            ),
        },
        inject_model_bug: header.bool_of("inject_model_bug")?,
        // Absent in repro files written before the hwpoison subsystem:
        // default off so old artifacts replay byte-identically.
        poison: header.get("poison").and_then(Json::as_bool).unwrap_or(false),
        // Absent in repro files written before live migration: default off
        // so old artifacts replay byte-identically.
        migrate: header.get("migrate").and_then(Json::as_bool).unwrap_or(false),
        pcp: header.get("pcp").and_then(Json::as_bool).unwrap_or(false),
        // Absent in repro files written before the multi-tenant fleet:
        // default off so old artifacts replay byte-identically.
        fleet: header.get("fleet").and_then(Json::as_bool).unwrap_or(false),
        // Absent in repro files written before zone sharding: default 0
        // (single-zone) so old artifacts replay byte-identically.
        shards: header
            .get("shards")
            .and_then(Json::as_u64)
            .and_then(|n| usize::try_from(n).ok())
            .unwrap_or(0),
        // Absent in repro files written before the maintenance daemon:
        // default off so old artifacts replay byte-identically.
        daemon: header.get("daemon").and_then(Json::as_bool).unwrap_or(false),
    };
    let mut ops = Vec::new();
    for line in lines {
        let v = parse(line).map_err(|e| format!("bad op line: {e}"))?;
        ops.push(op_from_json(&v)?);
    }
    if ops.len() != cfg.ops {
        return Err(format!("header promises {} ops, file has {}", cfg.ops, ops.len()));
    }
    // `cfg.ops` mirrors the op-line count; it only matters when regenerating
    // from the seed, and a repro file carries the explicit sequence instead.
    cfg.ops = ops.len();
    Ok((cfg, ops))
}

/// Writes a repro file to `path`.
///
/// # Errors
///
/// Propagates I/O failures.
pub fn write_repro(
    path: &std::path::Path,
    cfg: &TortureConfig,
    ops: &[TortureOp],
) -> std::io::Result<()> {
    std::fs::write(path, encode_repro(cfg, ops))
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
    fn rejects_foreign_and_future_files() {
        assert!(decode_repro("").is_err());
        assert!(decode_repro("{\"format\":\"something-else\",\"version\":1}").is_err());
        let cfg = TortureConfig::default();
        let future = encode_repro(&cfg, &[]).replace("\"version\":1", "\"version\":2");
        assert!(decode_repro(&future).is_err());
    }
}
