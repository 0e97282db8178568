//! The event table against what it replaced: every declared event survives
//! the JSONL round trip, and the generated `name()` agrees with the match it
//! was expanded in place of.

use contig_trace::{
    export_jsonl, parse_jsonl, DaemonStage, Dim, Record, RecoveryStage, TraceEvent,
};

/// `TraceEvent::name` as it was hand-written before the table, verbatim.
fn name_before_the_table(event: &TraceEvent) -> &'static str {
    match event {
        TraceEvent::Alloc { .. } => "buddy.alloc",
        TraceEvent::AllocFailed { .. } => "buddy.alloc_failed",
        TraceEvent::TargetedAlloc { .. } => "buddy.targeted_alloc",
        TraceEvent::TargetedMiss { .. } => "buddy.targeted_miss",
        TraceEvent::Free { .. } => "buddy.free",
        TraceEvent::InjectedFailure { .. } => "inject.failure",
        TraceEvent::FaultEnter { .. } => "mm.fault_enter",
        TraceEvent::FaultExit { .. } => "mm.fault_exit",
        TraceEvent::FaultFailed { .. } => "mm.fault_failed",
        TraceEvent::CowBreak { .. } => "mm.cow_break",
        TraceEvent::Readahead { .. } => "mm.readahead",
        TraceEvent::ZoneFallback { .. } => "mm.zone_fallback",
        TraceEvent::Recovery { stage, .. } => match stage {
            RecoveryStage::OomEvent => "recovery.oom_event",
            RecoveryStage::ReclaimPass => "recovery.reclaim_pass",
            RecoveryStage::CompactionPass => "recovery.compaction_pass",
            RecoveryStage::Retry => "recovery.retry",
            RecoveryStage::OrderBackoff => "recovery.order_backoff",
            RecoveryStage::ReadaheadShrink => "recovery.readahead_shrink",
            RecoveryStage::RecoveredFault => "recovery.recovered_fault",
            RecoveryStage::HardOom => "recovery.hard_oom",
        },
        TraceEvent::Daemon { stage, .. } => match stage {
            DaemonStage::Tick => "daemon.tick",
            DaemonStage::Epoch => "daemon.epoch",
            DaemonStage::CompactMove => "daemon.compact_move",
            DaemonStage::Promote => "daemon.promote",
            DaemonStage::PromoteFail => "daemon.promote_fail",
            DaemonStage::Repair => "daemon.repair",
            DaemonStage::ShedPromote => "daemon.shed_promote",
            DaemonStage::ShedCompact => "daemon.shed_compact",
            DaemonStage::Backoff => "daemon.backoff",
            DaemonStage::Yield => "daemon.yield",
            DaemonStage::Policy => "daemon.policy",
        },
        TraceEvent::Placement { .. } => "ca.placement",
        TraceEvent::TargetBusy { .. } => "ca.target_busy",
        TraceEvent::ContigRun { .. } => "ca.contig_run",
        TraceEvent::NestedFault { .. } => "virt.nested_fault",
        TraceEvent::PoisonEvent { .. } => "poison.event",
        TraceEvent::PoisonQuarantine { .. } => "poison.quarantine",
        TraceEvent::PoisonHeal { .. } => "poison.heal",
        TraceEvent::PoisonHealFailed { .. } => "poison.heal_failed",
        TraceEvent::PoisonSigbus { .. } => "poison.sigbus",
        TraceEvent::PoisonSoftOffline { .. } => "poison.soft_offline",
        TraceEvent::PoisonGuestMce { .. } => "poison.guest_mce",
        TraceEvent::MigrateChunkSent { .. } => "migrate.chunk_sent",
        TraceEvent::MigrateChunkAcked { .. } => "migrate.chunk_acked",
        TraceEvent::MigrateChunkRejected { .. } => "migrate.chunk_rejected",
        TraceEvent::MigrateChunkDropped { .. } => "migrate.chunk_dropped",
        TraceEvent::MigrateAckLost { .. } => "migrate.ack_lost",
        TraceEvent::MigrateRetry { .. } => "migrate.retry",
        TraceEvent::MigrateStall { .. } => "migrate.stall",
        TraceEvent::MigrateRound { .. } => "migrate.round",
        TraceEvent::MigrateTimeout { .. } => "migrate.timeout",
        TraceEvent::MigrateDisconnect { .. } => "migrate.disconnect",
        TraceEvent::MigrateResume { .. } => "migrate.resume",
        TraceEvent::MigrateAbort { .. } => "migrate.abort",
        TraceEvent::MigrateCutover { .. } => "migrate.cutover",
        TraceEvent::BalloonInflate { .. } => "balloon.inflate",
        TraceEvent::BalloonDeflate { .. } => "balloon.deflate",
        TraceEvent::BalloonRetry { .. } => "balloon.retry",
        TraceEvent::BalloonUnbacked { .. } => "balloon.unbacked",
        TraceEvent::KsmMerge { .. } => "ksm.merge",
        TraceEvent::KsmUnmerge { .. } => "ksm.unmerge",
        TraceEvent::KsmScan { .. } => "ksm.scan",
        TraceEvent::FleetAdmit { .. } => "fleet.admit",
        TraceEvent::FleetPressure { .. } => "fleet.pressure",
        TraceEvent::FleetResolved { .. } => "fleet.resolved",
        TraceEvent::FleetEvacuate { .. } => "fleet.evacuate",
        TraceEvent::FleetEvacuateAbort { .. } => "fleet.evacuate_abort",
        TraceEvent::FleetVictimKill { .. } => "fleet.victim_kill",
        TraceEvent::TlbMiss { .. } => "tlb.miss",
        TraceEvent::AuditReport { .. } => "audit.report",
        TraceEvent::TimelinePoint { .. } => "metrics.timeline_point",
    }
}

#[test]
fn generated_names_are_the_hand_written_ones() {
    let samples = TraceEvent::samples();
    // 52 plain events, nine recovery stages, eleven daemon stages.
    assert_eq!(samples.len(), 52 + RecoveryStage::ALL.len() + DaemonStage::ALL.len());
    let mut names: Vec<&str> = samples.iter().map(TraceEvent::name).collect();
    for (event, name) in samples.iter().zip(&names) {
        assert_eq!(*name, name_before_the_table(event), "{event:?}");
    }
    names.sort_unstable();
    names.dedup();
    assert_eq!(names.len(), samples.len(), "one sample and one name per event kind");
}

#[test]
fn every_declared_event_round_trips_through_jsonl() {
    let records: Vec<Record> = TraceEvent::samples()
        .into_iter()
        .enumerate()
        .map(|(i, event)| Record {
            seq: i as u64,
            ts_ns: u64::MAX - i as u64,
            dim: [Dim::None, Dim::Guest, Dim::Host][i % 3],
            event,
        })
        .collect();
    let text = export_jsonl(&records);
    assert_eq!(text.lines().count(), records.len());
    assert_eq!(parse_jsonl(&text).expect("parse back"), records);
    // The exact inverse in the other direction too: what parses re-exports
    // to the same bytes.
    assert_eq!(export_jsonl(&parse_jsonl(&text).unwrap()), text);
}
