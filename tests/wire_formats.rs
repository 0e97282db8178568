//! The two wire formats this repository defines — trace JSONL and the
//! snapshot file — pinned as bytes, and their decoders (with the two that
//! share their parser, the migration state chunk and the torture repro, and
//! the migration frame that carries the chunk) held to "a typed error or a
//! value" on hostile input.
//!
//! The trace lines are what `export_jsonl` wrote before it was moved onto
//! the canonical `json` encoder, recorded from that build; only
//! `metrics.timeline_point` changed since (its float became the integer it
//! was computed from), and its new line is pinned beside the others.

use contig::buddy::{
    MachineSnapshot, PcpCounters, PcpSnapshot, PoisonCounters, ZoneCounters, ZoneSnapshot,
};
use contig::check::json::Wire;
use contig::check::{
    decode_repro, decode_vm_file, encode_repro, encode_vm_file, fnv1a64, generate_ops, json,
    Json, TortureConfig, TortureOp, SNAPSHOT_FORMAT,
};
use contig::fleet::FleetStats;
use contig::mm::{
    CacheAllocMode, FaultStatsSnapshot, FileCacheSnapshot, PageCacheSnapshot,
    ProcessSnapshot, RecoveryStats, SystemSnapshot, VmaSnapshot,
};
use contig::prelude::*;
use contig::tlb::{CacheSnapshot, TlbSnapshot};
use contig::virt::{Delivery, TransportClosed};
use contig::trace::{
    export_jsonl, parse_jsonl, DaemonStage, Dim, FaultClass, Record, RecoveryStage,
};
use contig::types::{splitmix64, FailMode, FailPolicy};

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
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/tests/golden/snapshot_v9.jsonl");
    std::fs::read_to_string(path).expect("tests/golden/snapshot_v9.jsonl is checked in")
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
    assert_eq!(snapshot_file(9, payload), golden, "the header is spelled as the encoder has it");
    for version in [8, 10, 1, 0] {
        let err = decode_vm_file(&snapshot_file(version, payload)).unwrap_err();
        assert!(err.contains(&format!("version {version} unsupported")), "{err}");
    }
    // A member no older file had is no longer optional: cut it out of the
    // guest system and the file is refused by the member's name, not
    // restored with that subsystem silently reset.
    for member in ["daemon", "poison_policy", "poison_stats"] {
        let Json::Obj(mut vm) = json::parse(payload).unwrap() else { panic!("payload object") };
        let Json::Obj(guest) = &mut vm[0].1 else { panic!("guest object") };
        let before = guest.len();
        guest.retain(|(key, _)| key != member);
        assert_eq!(guest.len(), before - 1, "{member} is a guest member");
        let err = decode_vm_file(&snapshot_file(9, &Json::Obj(vm).to_line())).unwrap_err();
        assert_eq!(err, format!("guest: missing field `{member}`"));
    }
    // A daemon phase no daemon has is refused by number, not restored as the
    // epoch start, and the error is the path down to it.
    assert_eq!(payload.matches(r#""phase":0"#).count(), 2, "guest and host daemons at rest");
    let err = decode_vm_file(&snapshot_file(9, &payload.replace(r#""phase":0"#, r#""phase":7"#)));
    assert_eq!(err.unwrap_err(), "guest: daemon: phase: unknown daemon phase 7");
}

/// The reader takes an object's members in declaration order, once each, and
/// names the first that is not where the encoder puts it.
#[test]
fn decoders_refuse_members_out_of_their_declared_order() {
    let policy = |text: &str| json::decode::<DaemonConfig>(text, "not JSON");
    let want = DaemonConfig { epoch_budget: 1, aggressiveness: 2, repair_poison: true };
    assert_eq!(policy(r#"{"epoch_budget":1,"aggressiveness":2,"repair_poison":true}"#), Ok(want));
    assert_eq!(
        policy(" {\"epoch_budget\": 1, \"aggressiveness\": 2,\n\"repair_poison\": true} "),
        Ok(want)
    );
    for (text, why) in [
        (
            r#"{"aggressiveness":2,"epoch_budget":1,"repair_poison":true}"#,
            "field `epoch_budget` out of order",
        ),
        (
            r#"{"epoch_budget":1,"epoch_budget":1,"aggressiveness":2,"repair_poison":true}"#,
            "duplicate field `epoch_budget`",
        ),
        (
            r#"{"epoch_budget":1,"aggressiveness":2,"repair_poison":true,"epoch_budget":1}"#,
            "duplicate field `epoch_budget`",
        ),
        (
            r#"{"epoch_budget":1,"spare":0,"aggressiveness":2,"repair_poison":true}"#,
            "unknown field `spare`",
        ),
        (
            r#"{"epoch_budget":1,"aggressiveness":2,"repair_poison":true,"spare":0}"#,
            "unknown field `spare`",
        ),
        (r#"{"epoch_budget":1,"repair_poison":true}"#, "missing field `aggressiveness`"),
        (r#"{"epoch_budget":1,"aggressiveness":2}"#, "missing field `repair_poison`"),
        (
            r#"{"epoch_budget":-2,"aggressiveness":2,"repair_poison":true}"#,
            "epoch_budget: not a u64",
        ),
        ("[1,2,3]", "not an object"),
        (
            r#"{"epoch_budget":1,"aggressiveness":2,"repair_poison":true"#,
            "not JSON: expected ',' or '}' at byte 57",
        ),
    ] {
        assert_eq!(policy(text), Err(why.to_string()), "{text}");
    }
    let mode = |text: &str| json::decode::<FailMode>(text, "not JSON");
    assert_eq!(mode(r#"{"kind":"nth","n":7}"#), Ok(FailMode::Nth { n: 7 }));
    for (text, why) in [
        (r#"{"kind":"sometimes","n":7}"#, "unknown kind `sometimes`"),
        (r#"{"n":7}"#, "missing field `kind`"),
        (r#"{"n":7,"kind":"nth"}"#, "field `kind` out of order"),
        (r#"{"kind":"nth"}"#, "missing field `n`"),
        (r#"{"kind":"nth","n":7,"n":7}"#, "duplicate field `n`"),
        (r#"{"kind":"never","n":7}"#, "unknown field `n`"),
        (r#"{"kind":7}"#, "kind: not a string"),
    ] {
        assert_eq!(mode(text), Err(why.to_string()), "{text}");
    }
}

/// One one-byte mutant of `input`, placed by `draw`: a flipped bit, a deleted
/// byte, a doubled byte or a truncation, as `case` has it.
fn mutant(input: &[u8], draw: u64, case: usize) -> Vec<u8> {
    let at = (draw % input.len() as u64) as usize;
    let mut out = input.to_vec();
    match case % 4 {
        0 => out[at] ^= 1 << ((draw >> 32) % 8),
        1 => drop(out.remove(at)),
        2 => out.insert(at, input[at]),
        _ => out.truncate(at),
    }
    out
}

/// `cases` seeded mutants of `input`, each kind in turn.
fn mutants(input: &[u8], seed: u64, cases: usize) -> impl Iterator<Item = Vec<u8>> + '_ {
    let mut state = seed;
    (0..cases).map(move |case| mutant(input, splitmix64(&mut state), case))
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
        .map(|m| snapshot_file(9, &String::from_utf8_lossy(&m)));
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

/// A wire that hands over a mutant of one frame in four, under a trailing
/// digest recomputed to vouch for it: the digest check passes and the
/// receiver's length, kind and payload checks are what refuse it.
struct MutantWire {
    state: u64,
    mutated: usize,
}

impl Transport for MutantWire {
    fn send(&mut self, frame: &[u8]) -> Result<Delivery, TransportClosed> {
        let mut frame = frame.to_vec();
        let draw = splitmix64(&mut self.state);
        if draw.is_multiple_of(4) {
            self.mutated += 1;
            frame = mutant(&frame[..frame.len() - 8], draw >> 2, self.mutated);
            frame.extend_from_slice(&fnv1a64(&frame).to_le_bytes());
        }
        Ok(Delivery::Delivered { frame, delay_ns: 1_000, stalled: None })
    }
}

#[test]
fn mutated_migration_frames_are_refused_or_applied() {
    let (mut mutated, mut completed, mut rejected) = (0, 0, 0);
    let mut seed = 0;
    while mutated < CASES {
        seed += 1;
        let mut src = small_vm();
        let mut dst = MigrationTarget::new(
            VmConfig::with_mib(16, 64),
            Box::new(DefaultThpPolicy),
            Box::new(DefaultThpPolicy),
        );
        let mut session = MigrationSession::new(Tracer::disabled());
        let mut wire = MutantWire { state: seed, mutated: 0 };
        // A typed error or a cutover; a panic fails the test.
        let run = session.run(&mut src, &mut dst, &mut wire, &SnapshotGuestCodec, |_, _| {});
        completed += usize::from(run.is_ok());
        rejected += session.stats().chunks_rejected + session.stats().acks_lost;
        mutated += wire.mutated;
    }
    assert!(completed > 0 && completed < seed as usize, "{completed} of {seed} completed");
    assert!(rejected > 0, "no mutant reached the checks behind the digest");
}

/// A hand-made system image with every member the golden file leaves at its
/// default set to something else; `i` (0..5) picks the injection modes, the
/// daemon phase and the cache mode, so five of them spell every variant.
fn pinned_system(i: u64) -> SystemSnapshot {
    let fail = [
        FailMode::Never,
        FailMode::Nth { n: 7 },
        FailMode::EveryNth { n: 3 },
        FailMode::MinOrder { min_order: 9 },
        FailMode::Probability { rate_ppm: 25_000, seed: 0xfeed },
    ][i as usize];
    let poison = [
        PoisonMode::Never,
        PoisonMode::Nth { n: 5 },
        PoisonMode::EveryNth { n: 4 },
        PoisonMode::Address { pfn: Pfn::new(77), n: 2 },
        PoisonMode::Probability { rate_ppm: 1_000, seed: 0xbad },
    ][i as usize];
    let zone = ZoneSnapshot {
        config: ZoneConfig { base: Pfn::new(1024 * i), frames: 1024, top_order: 10, sorted_top_list: i == 1 },
        free_lists: vec![vec![1024 * i + 3], vec![], vec![1024 * i + 8, 1024 * i + 4]],
        allocated: vec![(1024 * i, 1), (1024 * i + 2, 0)],
        counters: ZoneCounters { allocs: 1, targeted_allocs: 2, targeted_misses: 3, frees: 4, splits: 5, coalesces: 6 },
        fail: FailPolicy::restore(fail, 10 + i, i, 0x1234 + i),
        contig_rover: (i != 1).then_some(1024 * i + 512),
        contig_updates: 9,
        pcp: i.is_multiple_of(2).then(|| PcpSnapshot {
            cpus: 2,
            batch: 4,
            high: 16,
            current_cpu: 1,
            lists: vec![vec![1024 * i + 2], vec![]],
            counters: PcpCounters { hits: 1, refills: 2, refilled_frames: 3, drains: 4, drained_frames: 5, targeted_evictions: 6 },
        }),
        badframes: vec![1024 * i + 2],
        poison: PoisonCounters { poisoned: 1, quarantined_free: 2, quarantined_pcp: 3, deferred: 4, quarantined_on_free: 5 },
    };
    SystemSnapshot {
        machine: MachineSnapshot { zones: vec![zone], reservations: vec![(1, 4096, 8192)], reservation_rover: 12288 },
        processes: vec![ProcessSnapshot {
            pid: 1,
            pt_levels: 4,
            vmas: vec![
                VmaSnapshot { start: 0x1000, len: 0x2000, file: None, offsets: vec![(0x1000, -4096), (0x2000, 1 << 70)], replacement_claimed: true },
                VmaSnapshot { start: 0x8000, len: 0x1000, file: Some((0, 3)), offsets: vec![], replacement_claimed: false },
            ],
            mappings: vec![(0x1000, 1024 * i, 3, false), (0x20_0000, 1024 * i + 512, 255, true)],
            stats: FaultStatsSnapshot { counters: [1, 2, 3, 4, 5, 6, 7, 8], latencies_ns: vec![1500, 2500], record_latencies: true },
            home: Some(i),
        }],
        page_cache: PageCacheSnapshot {
            mode: if i.is_multiple_of(2) { CacheAllocMode::CaContiguous } else { CacheAllocMode::Default },
            readahead_allocs: 2,
            files: vec![
                FileCacheSnapshot { pages: vec![(3, 1024 * i + 2)], offset: Some(-8192) },
                FileCacheSnapshot { pages: vec![], offset: None },
            ],
        },
        next_pid: 2,
        thp: i % 2 == 1,
        pt_levels: 5,
        record_latencies: true,
        shared: vec![(1024 * i, 2)],
        now_ns: 99,
        recovery_stats: RecoveryStats { oom_events: 1, compaction_ns: 15, ..RecoveryStats::default() },
        backoff_rng: 0xc0ffee,
        poison_policy: PoisonPolicy::restore(poison, 20 + i, i, 0x5678 + i),
        poison_stats: PoisonStats { strikes: 1, soft_offline_failed: 8, ..PoisonStats::default() },
        daemon: DaemonState {
            enabled: true,
            config: DaemonConfig { aggressiveness: 3, repair_poison: false, ..DaemonConfig::default() },
            phase: [DaemonPhase::Compact, DaemonPhase::Promote, DaemonPhase::Repair][(i % 3) as usize],
            stats: DaemonStats { ticks: 1, policy_updates: 11, compact_frames: 12, repair_frames: 13, ..DaemonStats::default() },
            ..DaemonState::default()
        },
    }
}

fn pinned_fleet() -> FleetSnapshot {
    FleetSnapshot {
        config: FleetConfig::new(2, 64, 16),
        hosts: vec![pinned_system(0), pinned_system(1)],
        sharing: vec![vec![(5, vec![(0, 7), (1, 9)])], vec![]],
        tenants: (0..3)
            .map(|t| TenantSnapshot {
                id: t,
                guest: pinned_system(2 + t),
                host_idx: t % 2,
                host_pid: 1 + t as u32,
                guest_pid: 1,
                balloon: vec![4, 5],
                tags: vec![(0, 42), (3, 43)],
            })
            .collect(),
        stats: FleetStats { balloon_inflates: 1, admits: 8, victim_kills: 13, ..FleetStats::default() },
        next_tenant: 3,
        rng: 0xf1ee7,
        ksm_cursor: 6,
    }
}

fn pinned_tlb() -> TlbSnapshot {
    let cache = |key: u64| CacheSnapshot {
        sets: 2,
        ways: 2,
        slots: vec![Some((key, 3)), None, None, Some((key + 1, 1))],
        tick: 3,
        hits: 4,
        misses: 5,
    };
    TlbSnapshot { l1_4k: cache(10), l1_2m: cache(20), l2: cache(30), counters: [9, 4, 3, 2] }
}

fn pinned_ops() -> Vec<TortureOp> {
    vec![
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
        TortureOp::SetDaemonPolicy { level: 28, budget: u64::MAX },
    ]
}

// What the hand-made values below encoded to before the encoders and tree
// readers were generated from the type definitions, recorded from that build:
// between them every member the golden file leaves at its default, every
// injection mode, daemon phase and cache mode, and every torture op.

/// `pinned_fleet()`; the pieces break where a host or guest system starts.
const PINNED_FLEET: &str = concat!(
    r#"{"config":{"hosts":2,"host_mib":64,"guest_mib":16,"seed":15855216},"hosts":["#,
    r#"{"machine":{"zones":[{"config":{"base":0,"frames":1024,"top_order":10,"sorted_top_list":false},"free_lists":[[3],[],[8,4]],"allocated":[[0,1],[2,0]],"counters":[1,2,3,4,5,6],"fail":{"mode":{"kind":"never"},"attempts":10,"injected":0,"rng_state":4660},"contig_rover":512,"contig_updates":9,"pcp":{"cpus":2,"batch":4,"high":16,"current_cpu":1,"lists":[[2],[]],"counters":[1,2,3,4,5,6]},"badframes":[2],"poison":[1,2,3,4,5]}],"reservations":[[1,4096,8192]],"reservation_rover":12288},"processes":[{"pid":1,"pt_levels":4,"vmas":[{"start":4096,"len":8192,"file":null,"offsets":[[4096,-4096],[8192,1180591620717411303424]],"replacement_claimed":true},{"start":32768,"len":4096,"file":[0,3],"offsets":[],"replacement_claimed":false}],"mappings":[[4096,0,3,false],[2097152,512,255,true]],"stats":{"counters":[1,2,3,4,5,6,7,8],"latencies_ns":[1500,2500],"record_latencies":true},"home":0}],"page_cache":{"mode":"ca_contiguous","readahead_allocs":2,"files":[{"pages":[[3,2]],"offset":-8192},{"pages":[],"offset":null}]},"next_pid":2,"thp":false,"pt_levels":5,"record_latencies":true,"shared":[[0,2]],"now_ns":99,"recovery_stats":[1,0,0,0,0,0,0,0,0,0,0,0,0,15],"backoff_rng":12648430,"poison_policy":{"mode":{"kind":"never"},"checks":20,"events":0,"rng_state":22136},"poison_stats":[1,0,0,0,0,0,0,8],"daemon":{"enabled":true,"config":{"epoch_budget":128,"aggressiveness":3,"repair_poison":false},"compact_node":0,"compact_cursor":0,"promote_pid":0,"promote_va":0,"repair_cursor":0,"budget_left":128,"phase":0,"backoff_rng":229556446,"backoff_until_ns":0,"yield_streak":0,"epoch":0,"stats":[1,0,0,0,0,0,0,0,0,0,11,12,13]}},"#,
    r#"{"machine":{"zones":[{"config":{"base":1024,"frames":1024,"top_order":10,"sorted_top_list":true},"free_lists":[[1027],[],[1032,1028]],"allocated":[[1024,1],[1026,0]],"counters":[1,2,3,4,5,6],"fail":{"mode":{"kind":"nth","n":7},"attempts":11,"injected":1,"rng_state":4661},"contig_rover":null,"contig_updates":9,"pcp":null,"badframes":[1026],"poison":[1,2,3,4,5]}],"reservations":[[1,4096,8192]],"reservation_rover":12288},"processes":[{"pid":1,"pt_levels":4,"vmas":[{"start":4096,"len":8192,"file":null,"offsets":[[4096,-4096],[8192,1180591620717411303424]],"replacement_claimed":true},{"start":32768,"len":4096,"file":[0,3],"offsets":[],"replacement_claimed":false}],"mappings":[[4096,1024,3,false],[2097152,1536,255,true]],"stats":{"counters":[1,2,3,4,5,6,7,8],"latencies_ns":[1500,2500],"record_latencies":true},"home":1}],"page_cache":{"mode":"default","readahead_allocs":2,"files":[{"pages":[[3,1026]],"offset":-8192},{"pages":[],"offset":null}]},"next_pid":2,"thp":true,"pt_levels":5,"record_latencies":true,"shared":[[1024,2]],"now_ns":99,"recovery_stats":[1,0,0,0,0,0,0,0,0,0,0,0,0,15],"backoff_rng":12648430,"poison_policy":{"mode":{"kind":"nth","n":5},"checks":21,"events":1,"rng_state":22137},"poison_stats":[1,0,0,0,0,0,0,8],"daemon":{"enabled":true,"config":{"epoch_budget":128,"aggressiveness":3,"repair_poison":false},"compact_node":0,"compact_cursor":0,"promote_pid":0,"promote_va":0,"repair_cursor":0,"budget_left":128,"phase":1,"backoff_rng":229556446,"backoff_until_ns":0,"yield_streak":0,"epoch":0,"stats":[1,0,0,0,0,0,0,0,0,0,11,12,13]}}],"sharing":[[[5,[[0,7],[1,9]]]],[]],"tenants":[{"id":0,"guest":"#,
    r#"{"machine":{"zones":[{"config":{"base":2048,"frames":1024,"top_order":10,"sorted_top_list":false},"free_lists":[[2051],[],[2056,2052]],"allocated":[[2048,1],[2050,0]],"counters":[1,2,3,4,5,6],"fail":{"mode":{"kind":"every_nth","n":3},"attempts":12,"injected":2,"rng_state":4662},"contig_rover":2560,"contig_updates":9,"pcp":{"cpus":2,"batch":4,"high":16,"current_cpu":1,"lists":[[2050],[]],"counters":[1,2,3,4,5,6]},"badframes":[2050],"poison":[1,2,3,4,5]}],"reservations":[[1,4096,8192]],"reservation_rover":12288},"processes":[{"pid":1,"pt_levels":4,"vmas":[{"start":4096,"len":8192,"file":null,"offsets":[[4096,-4096],[8192,1180591620717411303424]],"replacement_claimed":true},{"start":32768,"len":4096,"file":[0,3],"offsets":[],"replacement_claimed":false}],"mappings":[[4096,2048,3,false],[2097152,2560,255,true]],"stats":{"counters":[1,2,3,4,5,6,7,8],"latencies_ns":[1500,2500],"record_latencies":true},"home":2}],"page_cache":{"mode":"ca_contiguous","readahead_allocs":2,"files":[{"pages":[[3,2050]],"offset":-8192},{"pages":[],"offset":null}]},"next_pid":2,"thp":false,"pt_levels":5,"record_latencies":true,"shared":[[2048,2]],"now_ns":99,"recovery_stats":[1,0,0,0,0,0,0,0,0,0,0,0,0,15],"backoff_rng":12648430,"poison_policy":{"mode":{"kind":"every_nth","n":4},"checks":22,"events":2,"rng_state":22138},"poison_stats":[1,0,0,0,0,0,0,8],"daemon":{"enabled":true,"config":{"epoch_budget":128,"aggressiveness":3,"repair_poison":false},"compact_node":0,"compact_cursor":0,"promote_pid":0,"promote_va":0,"repair_cursor":0,"budget_left":128,"phase":2,"backoff_rng":229556446,"backoff_until_ns":0,"yield_streak":0,"epoch":0,"stats":[1,0,0,0,0,0,0,0,0,0,11,12,13]}},"host_idx":0,"host_pid":1,"guest_pid":1,"balloon":[4,5],"tags":[[0,42],[3,43]]},{"id":1,"guest":"#,
    r#"{"machine":{"zones":[{"config":{"base":3072,"frames":1024,"top_order":10,"sorted_top_list":false},"free_lists":[[3075],[],[3080,3076]],"allocated":[[3072,1],[3074,0]],"counters":[1,2,3,4,5,6],"fail":{"mode":{"kind":"min_order","min_order":9},"attempts":13,"injected":3,"rng_state":4663},"contig_rover":3584,"contig_updates":9,"pcp":null,"badframes":[3074],"poison":[1,2,3,4,5]}],"reservations":[[1,4096,8192]],"reservation_rover":12288},"processes":[{"pid":1,"pt_levels":4,"vmas":[{"start":4096,"len":8192,"file":null,"offsets":[[4096,-4096],[8192,1180591620717411303424]],"replacement_claimed":true},{"start":32768,"len":4096,"file":[0,3],"offsets":[],"replacement_claimed":false}],"mappings":[[4096,3072,3,false],[2097152,3584,255,true]],"stats":{"counters":[1,2,3,4,5,6,7,8],"latencies_ns":[1500,2500],"record_latencies":true},"home":3}],"page_cache":{"mode":"default","readahead_allocs":2,"files":[{"pages":[[3,3074]],"offset":-8192},{"pages":[],"offset":null}]},"next_pid":2,"thp":true,"pt_levels":5,"record_latencies":true,"shared":[[3072,2]],"now_ns":99,"recovery_stats":[1,0,0,0,0,0,0,0,0,0,0,0,0,15],"backoff_rng":12648430,"poison_policy":{"mode":{"kind":"address","pfn":77,"n":2},"checks":23,"events":3,"rng_state":22139},"poison_stats":[1,0,0,0,0,0,0,8],"daemon":{"enabled":true,"config":{"epoch_budget":128,"aggressiveness":3,"repair_poison":false},"compact_node":0,"compact_cursor":0,"promote_pid":0,"promote_va":0,"repair_cursor":0,"budget_left":128,"phase":0,"backoff_rng":229556446,"backoff_until_ns":0,"yield_streak":0,"epoch":0,"stats":[1,0,0,0,0,0,0,0,0,0,11,12,13]}},"host_idx":1,"host_pid":2,"guest_pid":1,"balloon":[4,5],"tags":[[0,42],[3,43]]},{"id":2,"guest":"#,
    r#"{"machine":{"zones":[{"config":{"base":4096,"frames":1024,"top_order":10,"sorted_top_list":false},"free_lists":[[4099],[],[4104,4100]],"allocated":[[4096,1],[4098,0]],"counters":[1,2,3,4,5,6],"fail":{"mode":{"kind":"probability","rate_ppm":25000,"seed":65261},"attempts":14,"injected":4,"rng_state":4664},"contig_rover":4608,"contig_updates":9,"pcp":{"cpus":2,"batch":4,"high":16,"current_cpu":1,"lists":[[4098],[]],"counters":[1,2,3,4,5,6]},"badframes":[4098],"poison":[1,2,3,4,5]}],"reservations":[[1,4096,8192]],"reservation_rover":12288},"processes":[{"pid":1,"pt_levels":4,"vmas":[{"start":4096,"len":8192,"file":null,"offsets":[[4096,-4096],[8192,1180591620717411303424]],"replacement_claimed":true},{"start":32768,"len":4096,"file":[0,3],"offsets":[],"replacement_claimed":false}],"mappings":[[4096,4096,3,false],[2097152,4608,255,true]],"stats":{"counters":[1,2,3,4,5,6,7,8],"latencies_ns":[1500,2500],"record_latencies":true},"home":4}],"page_cache":{"mode":"ca_contiguous","readahead_allocs":2,"files":[{"pages":[[3,4098]],"offset":-8192},{"pages":[],"offset":null}]},"next_pid":2,"thp":false,"pt_levels":5,"record_latencies":true,"shared":[[4096,2]],"now_ns":99,"recovery_stats":[1,0,0,0,0,0,0,0,0,0,0,0,0,15],"backoff_rng":12648430,"poison_policy":{"mode":{"kind":"probability","rate_ppm":1000,"seed":2989},"checks":24,"events":4,"rng_state":22140},"poison_stats":[1,0,0,0,0,0,0,8],"daemon":{"enabled":true,"config":{"epoch_budget":128,"aggressiveness":3,"repair_poison":false},"compact_node":0,"compact_cursor":0,"promote_pid":0,"promote_va":0,"repair_cursor":0,"budget_left":128,"phase":1,"backoff_rng":229556446,"backoff_until_ns":0,"yield_streak":0,"epoch":0,"stats":[1,0,0,0,0,0,0,0,0,0,11,12,13]}},"host_idx":0,"host_pid":3,"guest_pid":1,"balloon":[4,5],"tags":[[0,42],[3,43]]}],"stats":[1,0,0,0,0,0,0,8,0,0,0,0,13],"next_tenant":3,"rng":990951,"ksm_cursor":6}"#,
);

/// `pinned_tlb()`.
const PINNED_TLB: &str = r#"{"l1_4k":{"sets":2,"ways":2,"slots":[[10,3],null,null,[11,1]],"tick":3,"hits":4,"misses":5},"l1_2m":{"sets":2,"ways":2,"slots":[[20,3],null,null,[21,1]],"tick":3,"hits":4,"misses":5},"l2":{"sets":2,"ways":2,"slots":[[30,3],null,null,[31,1]],"tick":3,"hits":4,"misses":5},"counters":[9,4,3,2]}"#;

/// `pinned_ops()` under a seed-3 header with a crash interval.
const PINNED_REPRO: &str = concat!(
    r#"{"format":"contig-torture","version":1,"seed":3,"ops":22,"guest_mib":16,"host_mib":64,"faults":true,"sweep_interval":32,"audit_interval":128,"snapshot_interval":64,"crash_interval":40,"inject_model_bug":false,"poison":false,"migrate":false,"pcp":false,"fleet":false,"shards":0,"daemon":false}"#, "\n",
    r#"{"op":"map_anon","sel":1,"pages":2}"#, "\n",
    r#"{"op":"map_file","sel":3,"pages":4}"#, "\n",
    r#"{"op":"touch","sel":5,"page":6}"#, "\n",
    r#"{"op":"touch_write","sel":7,"page":8}"#, "\n",
    r#"{"op":"populate","sel":9}"#, "\n",
    r#"{"op":"fork","sel":10}"#, "\n",
    r#"{"op":"exit_proc","sel":11}"#, "\n",
    r#"{"op":"set_faults","host":true,"rate_ppm":12,"seed":13}"#, "\n",
    r#"{"op":"clear_faults"}"#, "\n",
    r#"{"op":"poison_frame","host":false,"sel":14}"#, "\n",
    r#"{"op":"soft_offline","host":true,"sel":15}"#, "\n",
    r#"{"op":"set_poison","host":false,"rate_ppm":16,"seed":17}"#, "\n",
    r#"{"op":"clear_poison"}"#, "\n",
    r#"{"op":"migrate","seed":18}"#, "\n",
    r#"{"op":"set_transport","rate_ppm":19,"seed":20}"#, "\n",
    r#"{"op":"clear_transport"}"#, "\n",
    r#"{"op":"fleet_write","sel":21,"page":22,"tag":23}"#, "\n",
    r#"{"op":"fleet_read","sel":24,"page":25}"#, "\n",
    r#"{"op":"fleet_discard","sel":26,"page":27}"#, "\n",
    r#"{"op":"fleet_step"}"#, "\n",
    r#"{"op":"daemon_tick"}"#, "\n",
    r#"{"op":"set_daemon_policy","level":28,"budget":18446744073709551615}"#, "\n",
);

#[test]
fn lines_the_golden_file_leaves_at_defaults_are_byte_identical_to_the_recorded_ones() {
    let fleet = pinned_fleet();
    assert_eq!(json::line(|e| fleet.enc(e)), PINNED_FLEET);
    assert_eq!(json::decode::<FleetSnapshot>(PINNED_FLEET, "fleet"), Ok(fleet));

    let tlb = pinned_tlb();
    assert_eq!(json::line(|e| tlb.enc(e)), PINNED_TLB);
    assert_eq!(json::decode::<TlbSnapshot>(PINNED_TLB, "tlb"), Ok(tlb));

    let cfg = TortureConfig { crash_interval: Some(40), ..TortureConfig::with_seed_and_ops(3, 22) };
    assert_eq!(encode_repro(&cfg, &pinned_ops()), PINNED_REPRO);
    assert_eq!(decode_repro(PINNED_REPRO), Ok((cfg, pinned_ops())));
}

/// A header whose machines cannot be built is refused by the member at
/// fault, before any op runs: each of these decoded, then panicked in
/// `run_ops` building a zone with no frames.
#[test]
fn repro_headers_no_machine_can_boot_are_refused() {
    for (from, to, why) in [
        (r#""guest_mib":16"#, r#""guest_mib":0"#, "guest_mib: a machine needs at least 1 MiB"),
        (r#""host_mib":64"#, r#""host_mib":0"#, "host_mib: a machine needs at least 1 MiB"),
        (
            r#""shards":0"#,
            r#""shards":9999"#,
            "shards: 9999 zones of at least 1 MiB do not fit 16 MiB",
        ),
    ] {
        let header = PINNED_REPRO.replacen(from, to, 1);
        assert_ne!(header, PINNED_REPRO, "{from} is in the pinned header");
        assert_eq!(decode_repro(&header), Err(why.to_string()));
    }
}
