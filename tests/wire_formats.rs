//! The two wire formats this repository defines — trace JSONL and the
//! snapshot file — pinned as bytes, and their decoders (with the two that
//! share their parser: the migration state chunk and the torture repro)
//! held to "a typed error or a value" on hostile input.
//!
//! The trace lines are what `export_jsonl` wrote before it was moved onto
//! the canonical `json` encoder, recorded from that build; only
//! `metrics.timeline_point` changed since (its float became the integer it
//! was computed from), and its new line is pinned beside the others.

use contig::check::{
    decode_repro, decode_vm_file, encode_repro, encode_vm_file, fnv1a64, generate_ops, json,
    Json, TortureConfig, SNAPSHOT_FORMAT,
};
use contig::prelude::*;
use contig::trace::{
    export_jsonl, parse_jsonl, DaemonStage, Dim, FaultClass, Record, RecoveryStage,
};
use contig::types::splitmix64;

fn records(events: Vec<TraceEvent>) -> Vec<Record> {
    events
        .into_iter()
        .enumerate()
        .map(|(i, event)| Record {
            seq: i as u64,
            ts_ns: 1000 + 500 * i as u64,
            dim: [Dim::None, Dim::Guest, Dim::Host][i % 3],
            event,
        })
        .collect()
}

#[test]
fn trace_lines_are_byte_identical_to_the_recorded_ones() {
    let recs = records(vec![
        TraceEvent::Alloc { order: 3, pfn: 512 },
        TraceEvent::InjectedFailure { order: 9, targeted: true },
        TraceEvent::FaultEnter { pid: 7, va: 0x40_0000, class: FaultClass::Cow },
        TraceEvent::Recovery {
            stage: RecoveryStage::OomEvent,
            amount: 9,
            extra: 0,
            latency_ns: 0,
        },
        TraceEvent::Daemon { stage: DaemonStage::CompactMove, amount: 4, extra: 512 },
        TraceEvent::NestedFault { gva: 0x1000, gpa: 0x8000, bytes: 4096, latency_ns: 1500 },
        TraceEvent::TlbMiss { va: u64::MAX, refs: u32::MAX, cycles: 48 },
        TraceEvent::MigrateRetry { seq: 14, attempt: 2, backoff_ns: 800 },
        TraceEvent::TimelinePoint { t: 5, top32_bytes: 917_504, mapped_bytes: 1 << 20 },
    ]);
    let want = r#"{"seq":0,"ts_ns":1000,"dim":"-","ev":"buddy.alloc","order":3,"pfn":512}
{"seq":1,"ts_ns":1500,"dim":"guest","ev":"inject.failure","order":9,"targeted":true}
{"seq":2,"ts_ns":2000,"dim":"host","ev":"mm.fault_enter","pid":7,"va":4194304,"class":"cow"}
{"seq":3,"ts_ns":2500,"dim":"-","ev":"recovery.oom_event","amount":9,"extra":0,"latency_ns":0}
{"seq":4,"ts_ns":3000,"dim":"guest","ev":"daemon.compact_move","amount":4,"extra":512}
{"seq":5,"ts_ns":3500,"dim":"host","ev":"virt.nested_fault","gva":4096,"gpa":32768,"bytes":4096,"latency_ns":1500}
{"seq":6,"ts_ns":4000,"dim":"-","ev":"tlb.miss","va":18446744073709551615,"refs":4294967295,"cycles":48}
{"seq":7,"ts_ns":4500,"dim":"guest","ev":"migrate.retry","chunk":14,"attempt":2,"backoff_ns":800}
{"seq":8,"ts_ns":5000,"dim":"host","ev":"metrics.timeline_point","t":5,"top32_bytes":917504,"mapped_bytes":1048576}
"#;
    assert_eq!(export_jsonl(&recs), want);
    assert_eq!(parse_jsonl(want).expect("the pinned lines parse"), recs);
}

#[test]
fn events_and_records_keep_their_size() {
    // The always-on flight ring stores them on the fault path.
    assert_eq!(std::mem::size_of::<TraceEvent>(), 40);
    assert_eq!(std::mem::size_of::<Record>(), 64);
}

#[test]
fn lines_the_exporter_cannot_write_are_refused_with_their_line_number() {
    let good = r#"{"seq":0,"ts_ns":0,"dim":"-","ev":"buddy.free","pfn":2,"order":0}"#;
    assert_eq!(parse_jsonl(good).map(|r| r.len()), Ok(1));
    // Each of these parsed (to a wrong or unexportable record) before
    // `parse_jsonl` was put on the canonical parser with a strict field decode.
    for (bad, why) in [
        (r#"{"seq":0,"ts_ns":0,"dim":"-","ev":"buddy.free","pfn":+2,"order":0}"#, "a sign"),
        (r#"{"seq":0,"ts_ns":0,"dim":"-","ev":"buddy.free","pfn":2,"order":0,}"#, "a comma"),
        (
            r#"{"seq":0,"ts_ns":0,"dim":"-","ev":"buddy.free","pfn":2,"pfn":3,"order":0}"#,
            "a repeated member",
        ),
        (
            r#"{"seq":0,"ts_ns":0,"dim":"-","ev":"buddy.free","pfn":2,"order":0,"extra":1}"#,
            "an undeclared member",
        ),
        (
            r#"{"seq":0,"ts_ns":0,"dim":"-","ev":"metrics.timeline_point","t":1,"top32_bytes":1e999,"mapped_bytes":4}"#,
            "a float",
        ),
        (r#"{"seq":0,"ts_ns":0,"dim":"-","ev":"buddy.free","pfn":2,"order":4294967296}"#, "u32"),
        (r#"{"seq":0,"ts_ns":0,"dim":"-","ev":"buddy.free","pfn":"2","order":0}"#, "a string"),
        (r#"{"seq":0,"ts_ns":0,"dim":"-","ev":"recovery.nope","amount":0,"extra":0}"#, "a stage"),
        (r#"[{"seq":0,"ts_ns":0,"dim":"-","ev":"buddy.free","pfn":2,"order":0}]"#, "an array"),
    ] {
        let err = parse_jsonl(&format!("{good}\n\n{bad}\n")).expect_err(why);
        assert_eq!(err.line, 3, "{why}: {err}");
    }
}

fn golden() -> String {
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/tests/golden/snapshot_v6.jsonl");
    std::fs::read_to_string(path).expect("tests/golden/snapshot_v6.jsonl is checked in")
}

/// A snapshot file around `payload`, with the header digest it needs.
fn snapshot_file(version: u64, payload: &str) -> String {
    let digest = fnv1a64(payload.as_bytes());
    format!(
        "{{\"format\":\"{SNAPSHOT_FORMAT}\",\"version\":{version},\"digest\":{digest}}}\n{payload}\n"
    )
}

#[test]
fn snapshot_decoder_reads_one_version_and_requires_every_member() {
    let golden = golden();
    let payload = golden.lines().nth(1).expect("payload line");
    assert_eq!(snapshot_file(6, payload), golden, "the header is spelled as the encoder has it");
    for version in [5, 7, 1, 0] {
        let err = decode_vm_file(&snapshot_file(version, payload)).unwrap_err();
        assert!(err.contains(&format!("version {version} unsupported")), "{err}");
    }
    // A member no older file had is no longer optional: cut it out of the
    // guest system and the file is refused by the member's name, not
    // restored with that subsystem silently reset.
    for member in ["daemon", "numa_stats", "poison_policy", "poison_stats"] {
        let Json::Obj(mut vm) = json::parse(payload).unwrap() else { panic!("payload object") };
        let Json::Obj(guest) = &mut vm[0].1 else { panic!("guest object") };
        let before = guest.len();
        guest.retain(|(key, _)| key != member);
        assert_eq!(guest.len(), before - 1, "{member} is a guest member");
        let err = decode_vm_file(&snapshot_file(6, &Json::Obj(vm).to_line())).unwrap_err();
        assert_eq!(err, format!("missing field `{member}`"));
    }
    for member in ["balloon", "sharing"] {
        let Json::Obj(mut vm) = json::parse(payload).unwrap() else { panic!("payload object") };
        vm.retain(|(key, _)| key != member);
        let err = decode_vm_file(&snapshot_file(6, &Json::Obj(vm).to_line())).unwrap_err();
        assert_eq!(err, format!("missing field `{member}`"));
    }
}

/// `cases` seeded one-byte mutants of `input`: a flipped bit, a deleted
/// byte, a doubled byte, a truncation, in turn.
fn mutants(input: &[u8], seed: u64, cases: usize) -> impl Iterator<Item = Vec<u8>> + '_ {
    let mut state = seed;
    (0..cases).map(move |case| {
        let draw = splitmix64(&mut state);
        let at = (draw % input.len() as u64) as usize;
        let mut out = input.to_vec();
        match case % 4 {
            0 => out[at] ^= 1 << ((draw >> 32) % 8),
            1 => drop(out.remove(at)),
            2 => out.insert(at, input[at]),
            _ => out.truncate(at),
        }
        out
    })
}

/// Three hundred of each kind of mutant, per input.
const CASES: usize = 1200;

/// A small two-dimensional system with every snapshot section in use.
fn small_vm() -> VirtualMachine {
    let mut vm = VirtualMachine::new(
        VmConfig::with_mib(16, 64),
        Box::new(DefaultThpPolicy),
        Box::new(DefaultThpPolicy),
    );
    let pid = vm.guest_mut().spawn();
    let anon = vm
        .guest_mut()
        .aspace_mut(pid)
        .map_vma(VirtRange::new(VirtAddr::new(0x4000_0000), 4 << 20), VmaKind::Anon);
    vm.populate_vma(pid, anon).expect("populate");
    let child = vm.guest_mut().fork_vma(pid, anon);
    vm.touch_write(child, VirtAddr::new(0x4000_0000)).expect("cow write");
    vm.guest_mut().enable_daemon(DaemonConfig::default());
    vm.guest_mut().daemon_tick();
    vm
}

// In each property below the decoder may answer `Err` or a value; a panic
// fails the test. A value must not be bigger than the bytes it came from:
// re-encoded canonically (less the final newline, which a file may lack) it
// is no longer than the input, so no count or length read from hostile input
// sized anything the input did not pay for.

#[test]
fn mutated_trace_lines_decode_or_are_refused() {
    let text = export_jsonl(&records(TraceEvent::samples()));
    let mut decoded = 0;
    for mutant in mutants(text.as_bytes(), 1, CASES) {
        let mutant = String::from_utf8_lossy(&mutant);
        if let Ok(records) = parse_jsonl(&mutant) {
            assert!(export_jsonl(&records).trim_end().len() <= mutant.len(), "{mutant}");
            decoded += 1;
        }
    }
    assert!(decoded > 0 && decoded < CASES, "{decoded} of {CASES} mutants decoded");
}

#[test]
fn mutated_snapshot_files_decode_or_are_refused() {
    let text = encode_vm_file(&small_vm().snapshot());
    let payload = text.lines().nth(1).expect("payload line");
    let mut decoded = 0;
    // The file as a whole: nearly every mutant trips the header or the
    // digest. Then the payload under a header that vouches for it, so the
    // mutant reaches the parser and the member decoders.
    let whole = mutants(text.as_bytes(), 2, CASES).map(|m| String::from_utf8_lossy(&m).into_owned());
    let vouched = mutants(payload.as_bytes(), 3, CASES)
        .map(|m| snapshot_file(6, &String::from_utf8_lossy(&m)));
    for mutant in whole.chain(vouched) {
        if let Ok(snap) = decode_vm_file(&mutant) {
            assert!(encode_vm_file(&snap).trim_end().len() <= mutant.len());
            decoded += 1;
        }
    }
    assert!(decoded > 0 && decoded < 2 * CASES, "{decoded} of {} mutants decoded", 2 * CASES);
}

#[test]
fn mutated_state_chunks_decode_or_are_refused() {
    let chunk = SnapshotGuestCodec.encode(&small_vm().guest().snapshot());
    let mut decoded = 0;
    for mutant in mutants(&chunk, 4, CASES) {
        if let Ok(snap) = SnapshotGuestCodec.decode(&mutant) {
            assert!(SnapshotGuestCodec.encode(&snap).len() <= mutant.len());
            decoded += 1;
        }
    }
    assert!(decoded > 0 && decoded < CASES, "{decoded} of {CASES} mutants decoded");
}

#[test]
fn mutated_torture_repros_decode_or_are_refused() {
    let cfg = TortureConfig {
        poison: true,
        migrate: true,
        pcp: true,
        fleet: true,
        daemon: true,
        shards: 2,
        ..TortureConfig::with_seed_and_ops(9, 120)
    };
    let text = encode_repro(&cfg, &generate_ops(&cfg));
    let mut decoded = 0;
    for mutant in mutants(text.as_bytes(), 5, CASES) {
        let mutant = String::from_utf8_lossy(&mutant);
        if let Ok((cfg, ops)) = decode_repro(&mutant) {
            // The header's op count is checked against the lines, not
            // trusted: a repro holds one op per line it actually has.
            assert_eq!(cfg.ops, ops.len());
            assert!(ops.len() < mutant.lines().count());
            decoded += 1;
        }
    }
    assert!(decoded > 0 && decoded < CASES, "{decoded} of {CASES} mutants decoded");
}
