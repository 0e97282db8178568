//! Background contiguity maintenance: a deterministic khugepaged/kcompactd.
//!
//! The paper's Translation Ranger baseline relies on *delayed background
//! defragmentation*; until this module the repo only compacted synchronously
//! inside OOM recovery, so contiguity runs decayed monotonically under churn.
//! [`System::daemon_tick`] is the repo's khugepaged + kcompactd rolled into
//! one epoch-driven state machine:
//!
//! * **Budgeted compaction** — a cursor-resumable migrate scan
//!   ([`contig_buddy::FrameTable::allocated_blocks_from`]) walks each zone's
//!   allocated blocks and migrates movable ones (`rmap.rs`'s `move_block`,
//!   over one `FrameUsers` per tick) downward toward the lowest free block,
//!   assembling runs of the configured target order.
//! * **THP promotion** — fully-populated 2 MiB windows of base pages are
//!   collapsed onto a freshly allocated huge frame through `rmap.rs`'s
//!   `collapse` (khugepaged's, shared with Ingens), which refuses any window
//!   whose collapse could change what an address sees. A window with a
//!   missing page is left alone: the daemon never faults pages in.
//! * **Poison-run repair** — movable blocks trapped in the 2 MiB
//!   neighbourhood of a quarantined frame are migrated out, so the damage a
//!   poisoned frame does to unaligned contiguity stays confined to itself.
//!
//! The daemon is **never a thread**. A tick is a pure function of system
//! state plus the daemon's own seeded RNG, woven into torture/engine op
//! streams as a `DaemonTick` op, so 1-vs-N-worker digests stay bit-identical
//! and crash replay reproduces every daemon action exactly. All mid-epoch
//! state — scan cursors, budget remaining, the backoff RNG — lives in
//! [`DaemonState`] and rides the snapshot codec, so a restore continues the
//! interrupted epoch bit-identically.
//!
//! Robustness is the point: epochs are bounded by a work budget, aborted by
//! a watchdog when allocation vetoes pile up, and **shed gracefully** under
//! pressure — promotion work first (it *consumes* huge blocks), then
//! compaction, and below the hard floor the daemon yields entirely and arms
//! a jittered exponential backoff so it never races OOM recovery for the
//! last free frames. Every [`DaemonStats`] counter bump emits exactly one
//! `daemon.*` trace event beside it, so trace counts equal stats totals.

use std::collections::{BTreeMap, HashMap};

use contig_buddy::NodeId;
use contig_trace::{stage, DaemonStage, TraceEvent};
use contig_types::json::{Dec, Enc, Sink, Wire};
use contig_types::{jittered_backoff, PageSize, Pfn, VirtAddr};

use crate::rmap::{CollapseError, Dest, FrameUsers};
use crate::system::{Pid, System};

/// Frames in a 2 MiB huge page.
const HUGE_PAGES: u64 = 512;
/// Most blocks one repair unit migrates out of a poisoned neighbourhood.
const REPAIR_MOVES_PER_UNIT: u64 = 4;
/// Free-memory percentage below which promotion work is shed.
const SHED_PROMOTE_PCT: u64 = 15;
/// Free-memory percentage below which compaction is shed too.
const SHED_COMPACT_PCT: u64 = 8;
/// Free-memory percentage below which the daemon yields the whole epoch to
/// foreground recovery and backs off.
const YIELD_PCT: u64 = 4;
/// Quarantined frames machine-wide that count as a poison storm: the daemon
/// sheds promotion and focuses on repair.
const POISON_STORM_FRAMES: u64 = 64;
/// First yield's backoff delay, in ns; doubles per consecutive yield.
const BACKOFF_BASE_NS: u64 = 2_000;
/// Ceiling on the exponential term of one backoff delay.
const BACKOFF_CAP_NS: u64 = 500_000;
/// Seed of the deterministic jitter added to each backoff delay.
const BACKOFF_SEED: u64 = 0x0DAE_C0DE;
/// Allocation vetoes (injected failures on migration targets) one tick
/// tolerates before the watchdog aborts the epoch.
const WATCHDOG_VETOES: u64 = 8;

contig_types::wire_struct! {
    /// What a caller may tune about the background contiguity-maintenance
    /// daemon: how hard it works and whether it repairs poison damage. The
    /// pressure ladder, watchdog and backoff are constants of this module.
    ///
    /// All fields are plain integers/bools so the config rides the snapshot
    /// codec verbatim and the torture generator can draw arbitrary policies.
    #[derive(Clone, Copy, Debug, PartialEq, Eq)]
    pub struct DaemonConfig {
        /// Work units one epoch may spend across all its ticks. An epoch ends
        /// when the budget is exhausted or every phase's cursor wrapped.
        pub epoch_budget: u64,
        /// 0–3. Scales the per-tick work quantum and the compaction target
        /// order; 0 idles the daemon entirely (ticks still count).
        pub aggressiveness: u8,
        /// Run the poison-neighbourhood repair phase.
        pub repair_poison: bool,
    }
}

impl Default for DaemonConfig {
    fn default() -> Self {
        Self { epoch_budget: 128, aggressiveness: 2, repair_poison: true }
    }
}

impl DaemonConfig {
    /// The buddy order compaction assembles toward at this aggressiveness.
    pub(crate) fn target_order(&self) -> u32 {
        match self.aggressiveness {
            0 => 0,
            1 => 4,
            2 => 7,
            _ => PageSize::Huge2M.order(),
        }
    }

    /// Work units one tick may spend (bounded further by the epoch budget).
    pub(crate) fn tick_quantum(&self) -> u64 {
        match self.aggressiveness {
            0 => 0,
            1 => 8,
            2 => 16,
            _ => 32,
        }
    }
}

/// Which phase of the maintenance epoch the daemon's cursor is in.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub enum DaemonPhase {
    /// Budgeted background compaction (kcompactd).
    #[default]
    Compact = 0,
    /// THP promotion of fully-populated aligned runs (khugepaged).
    Promote = 1,
    /// Contiguity-run repair around poisoned frames.
    Repair = 2,
}

/// The phase's position in the epoch, as a number; a number no phase has is
/// refused, not read as the epoch start.
impl Wire for DaemonPhase {
    fn enc<S: Sink>(&self, e: &mut Enc<S>) {
        e.num(*self as u8);
    }
    fn dec(d: &mut Dec<'_>) -> Result<Self, String> {
        match u64::dec(d)? {
            0 => Ok(DaemonPhase::Compact),
            1 => Ok(DaemonPhase::Promote),
            2 => Ok(DaemonPhase::Repair),
            tag => Err(format!("unknown daemon phase {tag}")),
        }
    }
}

contig_types::wire_counters! {
    /// Monotonic counters of daemon work. Each counter in
    /// [`DaemonStats::as_named`] has exactly one `daemon.*` trace emission next
    /// to every bump, so per-kind trace counts equal these totals.
    #[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
    pub struct DaemonStats {
        /// Ticks that ran (excludes ticks skipped inside a backoff window).
        pub ticks: u64 = "daemon.tick",
        /// Maintenance epochs completed (budget exhausted or cursors wrapped).
        pub epochs: u64 = "daemon.epoch",
        /// Blocks migrated by background compaction.
        pub compact_moves: u64 = "daemon.compact_move",
        /// Fully-populated runs collapsed onto huge frames.
        pub promoted: u64 = "daemon.promote",
        /// Promotions that failed at commit (no huge block, or vetoed).
        pub promote_failed: u64 = "daemon.promote_fail",
        /// Blocks migrated out of poisoned neighbourhoods.
        pub repairs: u64 = "daemon.repair",
        /// Ticks that shed promotion work under pressure or poison storm.
        pub shed_promote: u64 = "daemon.shed_promote",
        /// Ticks that shed compaction work under deeper pressure.
        pub shed_compact: u64 = "daemon.shed_compact",
        /// Ticks skipped entirely inside a backoff window.
        pub backoff_skips: u64 = "daemon.backoff",
        /// Epochs aborted by the yield ladder or the veto watchdog.
        pub yields: u64 = "daemon.yield",
        /// Runtime policy swaps ([`System::set_daemon_config`]).
        pub policy_updates: u64 = "daemon.policy",
        /// Base frames moved by compaction (payload of `compact_moves` events;
        /// not a traced counter of its own).
        pub compact_frames: u64,
        /// Base frames moved by repair (payload of `repairs` events; not a
        /// traced counter of its own).
        pub repair_frames: u64,
    }
}

contig_types::wire_struct! {
    /// The daemon's complete persistent state: policy, mid-epoch cursors, the
    /// backoff RNG, and the counters.
    /// Everything here rides the snapshot codec (v6), so a snapshot taken
    /// between ticks of a half-finished epoch restores to a bit-identical
    /// continuation.
    #[derive(Clone, Debug, PartialEq, Eq)]
    pub struct DaemonState {
        /// Whether ticks do anything at all. Disabled is the default and is
        /// byte-identical to the pre-daemon system in snapshots and digests.
        pub enabled: bool,
        /// The policy in force.
        pub config: DaemonConfig,
        /// Compaction: node index the migrate scan is on.
        pub compact_node: u64,
        /// Compaction: next frame number the migrate scan will look at.
        pub compact_cursor: u64,
        /// Promotion: smallest process id not yet scanned this epoch.
        pub promote_pid: u64,
        /// Promotion: next 2 MiB window start within that process.
        pub promote_va: u64,
        /// Repair: index into the sorted quarantined-frame list.
        pub repair_cursor: u64,
        /// Work units left in the current epoch.
        pub budget_left: u64,
        /// Which phase the epoch cursor is in.
        pub phase: DaemonPhase,
        /// Seeded jitter source for yield backoff delays.
        pub backoff_rng: u64,
        /// Simulated time before which ticks are skipped (backoff window).
        pub backoff_until_ns: u64,
        /// Consecutive yields; scales the exponential backoff term.
        pub yield_streak: u64,
        /// Completed epochs (mirrors `stats.epochs`, kept for cursor logic).
        pub epoch: u64,
        /// The work counters.
        pub stats: DaemonStats,
    }
}

impl Default for DaemonState {
    fn default() -> Self {
        let config = DaemonConfig::default();
        Self {
            enabled: false,
            config,
            compact_node: 0,
            compact_cursor: 0,
            promote_pid: 0,
            promote_va: 0,
            repair_cursor: 0,
            budget_left: config.epoch_budget,
            phase: DaemonPhase::Compact,
            backoff_rng: BACKOFF_SEED,
            backoff_until_ns: 0,
            yield_streak: 0,
            epoch: 0,
            stats: DaemonStats::default(),
        }
    }
}

impl DaemonState {
    /// Resets every epoch cursor to the start of a fresh epoch (used on
    /// epoch completion and on watchdog/yield aborts).
    fn reset_epoch(&mut self) {
        self.compact_node = 0;
        self.compact_cursor = 0;
        self.promote_pid = 0;
        self.promote_va = 0;
        self.repair_cursor = 0;
        self.budget_left = self.config.epoch_budget;
        self.phase = DaemonPhase::Compact;
    }
}

/// Per-pid promotion-window cache a tick builds lazily: window start →
/// the number of base pages mapped in it.
type WindowCache = HashMap<Pid, BTreeMap<u64, u64>>;

impl System {
    /// The daemon state (cursors, policy, counters).
    pub fn daemon_state(&self) -> &DaemonState {
        &self.daemon
    }

    /// The daemon's work counters.
    pub fn daemon_stats(&self) -> &DaemonStats {
        &self.daemon.stats
    }

    /// Whether ticks currently do maintenance work.
    pub fn daemon_enabled(&self) -> bool {
        self.daemon.enabled
    }

    /// Enables the daemon under `config`, reseeding the backoff jitter
    /// source so two systems given the same config behave identically from
    /// here on. Counts as a policy update (one `daemon.policy` event).
    pub fn enable_daemon(&mut self, config: DaemonConfig) {
        self.daemon.enabled = true;
        self.set_daemon_config(config);
    }

    /// Swaps the daemon policy at runtime. The in-flight epoch is restarted
    /// under the new budget (cursors reset — a policy change re-scopes what
    /// an epoch even means), and the backoff RNG is reseeded.
    pub fn set_daemon_config(&mut self, config: DaemonConfig) {
        self.daemon.config = config;
        self.daemon.backoff_rng = BACKOFF_SEED;
        self.daemon.reset_epoch();
        self.daemon.stats.policy_updates += 1;
        self.trace_daemon(DaemonStage::Policy, u64::from(config.aggressiveness), config.epoch_budget);
    }

    /// Emits one `daemon.<stage>` event. Every traced [`DaemonStats`] bump
    /// has exactly one call next to it, so per-stage trace counts equal the
    /// stats totals — the same ledger contract `RecoveryStats` keeps.
    pub(crate) fn trace_daemon(&self, stage: DaemonStage, amount: u64, extra: u64) {
        self.tracer.emit(TraceEvent::Daemon { stage, amount, extra });
    }

    /// Runs one bounded, abortable epoch slice of background maintenance.
    /// Returns the work units spent (0 when disabled, idling, backing off,
    /// or yielding).
    ///
    /// Deterministic: the outcome is a pure function of system state and
    /// the daemon's seeded RNG. Never faults pages in, never changes any
    /// per-VA translation outcome (presence and writability are preserved
    /// exactly); it only re-arranges which physical frames back them.
    pub fn daemon_tick(&mut self) -> u64 {
        if !self.daemon.enabled {
            return 0;
        }
        let _tick_span = self.tracer.span(stage::DAEMON_TICK);
        let cfg = self.daemon.config;

        // Backoff window: skip the whole tick, visibly.
        if self.now_ns < self.daemon.backoff_until_ns {
            self.daemon.stats.backoff_skips += 1;
            let remaining = self.daemon.backoff_until_ns - self.now_ns;
            self.trace_daemon(DaemonStage::Backoff, remaining, self.daemon.backoff_until_ns);
            return 0;
        }

        self.daemon.stats.ticks += 1;
        self.trace_daemon(DaemonStage::Tick, self.daemon.budget_left, self.daemon.epoch);

        // Pressure ladder: yield below the hard floor, shed work above it.
        let total = self.machine.total_frames().max(1);
        let free_pct = self.machine.free_frames() * 100 / total;
        if free_pct < YIELD_PCT {
            self.daemon_yield(free_pct);
            return 0;
        }
        self.daemon.yield_streak = 0;
        let storm = self.machine.poisoned_frames() >= POISON_STORM_FRAMES;
        let shed_promote = free_pct < SHED_PROMOTE_PCT || storm;
        let shed_compact = free_pct < SHED_COMPACT_PCT;
        if shed_promote {
            self.daemon.stats.shed_promote += 1;
            self.trace_daemon(DaemonStage::ShedPromote, free_pct, u64::from(storm));
        }
        if shed_compact {
            self.daemon.stats.shed_compact += 1;
            self.trace_daemon(DaemonStage::ShedCompact, free_pct, 0);
        }

        let quantum = cfg.tick_quantum().min(self.daemon.budget_left);
        let mut spent = 0u64;
        let mut vetoes = 0u64;
        let mut epoch_done = false;
        // Tick-scratch state, built lazily on first use.
        let mut users: Option<FrameUsers> = None;
        let mut windows = WindowCache::new();
        let mut badlist: Option<Vec<Pfn>> = None;

        while spent < quantum {
            if vetoes >= WATCHDOG_VETOES {
                // Watchdog: something (injection, hostile fragmentation) is
                // vetoing every migration target; stop burning budget.
                self.daemon_yield(free_pct);
                return spent;
            }
            match self.daemon.phase {
                DaemonPhase::Compact if shed_compact || cfg.aggressiveness == 0 => {
                    self.daemon.phase = DaemonPhase::Promote;
                }
                DaemonPhase::Compact => {
                    let users = users.get_or_insert_with(|| self.frame_users());
                    spent += 1;
                    self.compact_step(users, &mut vetoes);
                }
                DaemonPhase::Promote if shed_promote || cfg.aggressiveness == 0 => {
                    self.daemon.phase = DaemonPhase::Repair;
                }
                DaemonPhase::Promote => {
                    spent += 1;
                    self.promote_step(&mut windows, &mut vetoes);
                }
                DaemonPhase::Repair if !cfg.repair_poison => {
                    epoch_done = true;
                    break;
                }
                DaemonPhase::Repair => {
                    let bad = badlist.get_or_insert_with(|| self.machine.badframes().collect());
                    if self.daemon.repair_cursor >= bad.len() as u64 {
                        epoch_done = true;
                        break;
                    }
                    let pfn = bad[self.daemon.repair_cursor as usize];
                    self.daemon.repair_cursor += 1;
                    let users = users.get_or_insert_with(|| self.frame_users());
                    spent += 1;
                    self.repair_step(pfn, users, &mut vetoes);
                }
            }
        }

        self.daemon.budget_left = self.daemon.budget_left.saturating_sub(spent);
        if epoch_done || self.daemon.budget_left == 0 {
            let used = cfg.epoch_budget - self.daemon.budget_left;
            self.daemon.epoch += 1;
            self.daemon.stats.epochs += 1;
            self.trace_daemon(DaemonStage::Epoch, used, self.daemon.epoch);
            if epoch_done {
                // Full maintenance pass: restart every scan from the top.
                self.daemon.reset_epoch();
            } else {
                // Budget exhausted mid-pass: refill, but keep the cursors —
                // the next epoch resumes the scan where this one stopped, so
                // zones larger than one budget still get covered end-to-end.
                self.daemon.budget_left = cfg.epoch_budget;
            }
        }
        spent
    }

    /// Aborts the in-flight epoch and arms a jittered exponential backoff —
    /// the daemon's answer to memory pressure and veto storms. One `yield`
    /// event per call.
    fn daemon_yield(&mut self, free_pct: u64) {
        self.daemon.stats.yields += 1;
        self.daemon.yield_streak += 1;
        self.daemon.reset_epoch();
        let (k, rng) = (self.daemon.yield_streak - 1, &mut self.daemon.backoff_rng);
        let ns = jittered_backoff(BACKOFF_BASE_NS, BACKOFF_CAP_NS, k, 16, rng);
        self.daemon.backoff_until_ns = self.now_ns + ns;
        self.trace_daemon(DaemonStage::Yield, free_pct, ns);
    }

    /// One compaction work unit: examine the next allocated block at or
    /// above the cursor and migrate it downward if movable.
    fn compact_step(&mut self, users: &mut FrameUsers, vetoes: &mut u64) {
        let nodes = self.machine.nodes() as u64;
        if self.daemon.compact_node >= nodes {
            self.daemon.compact_node = 0;
            self.daemon.compact_cursor = 0;
            self.daemon.phase = DaemonPhase::Promote;
            return;
        }
        let node = NodeId(self.daemon.compact_node as usize);
        // Compaction works *toward* the configured target order: once this
        // zone can already satisfy it, further migration is churn (and would
        // fight the repair phase for the same frames) — move on.
        if self.machine.zone(node).has_free_block(self.daemon.config.target_order()) {
            self.daemon.compact_node += 1;
            self.daemon.compact_cursor = 0;
            if self.daemon.compact_node >= nodes {
                self.daemon.compact_node = 0;
                self.daemon.phase = DaemonPhase::Promote;
            }
            return;
        }
        let next = self
            .machine
            .zone(node)
            .frame_table()
            .allocated_blocks_from(Pfn::new(self.daemon.compact_cursor), 1)
            .next();
        let Some((head, order)) = next else {
            // This node's scan wrapped: move to the next node (or phase).
            self.daemon.compact_node += 1;
            self.daemon.compact_cursor = 0;
            if self.daemon.compact_node >= nodes {
                self.daemon.compact_node = 0;
                self.daemon.phase = DaemonPhase::Promote;
            }
            return;
        };
        self.daemon.compact_cursor = head.raw() + (1u64 << order);
        let Some(dest) = self.machine.zone(node).lowest_free_block(order, head) else {
            return;
        };
        match self.move_block(head, order, Dest::At(dest), users) {
            Some(frames) => {
                self.daemon.stats.compact_moves += 1;
                self.daemon.stats.compact_frames += frames;
                self.trace_daemon(DaemonStage::CompactMove, frames, dest.raw());
            }
            None => *vetoes += 1,
        }
    }

    /// One promotion work unit: examine the next 2 MiB window of the pid/va
    /// cursor walk.
    fn promote_step(&mut self, windows: &mut WindowCache, vetoes: &mut u64) {
        // Cursor walk over every process's populated windows.
        let pids = self.pids();
        let Some(&pid) = pids.iter().find(|p| u64::from(p.0) >= self.daemon.promote_pid) else {
            self.daemon.promote_pid = 0;
            self.daemon.promote_va = 0;
            self.daemon.phase = DaemonPhase::Repair;
            return;
        };
        if u64::from(pid.0) > self.daemon.promote_pid {
            self.daemon.promote_va = 0;
        }
        self.daemon.promote_pid = u64::from(pid.0);
        let next = self.collect_windows(pid, windows).range(self.daemon.promote_va..).next();
        let Some((&w, &pages)) = next else {
            self.daemon.promote_pid = u64::from(pid.0) + 1;
            self.daemon.promote_va = 0;
            return;
        };
        self.daemon.promote_va = w + PageSize::Huge2M.bytes();
        if pages < HUGE_PAGES {
            return;
        }
        match self.collapse(pid, VirtAddr::new(w)) {
            Ok((block, _)) => {
                self.daemon.stats.promoted += 1;
                self.trace_daemon(DaemonStage::Promote, HUGE_PAGES, block.raw());
            }
            Err(CollapseError::NoHugeFrame) => {
                self.daemon.stats.promote_failed += 1;
                self.trace_daemon(DaemonStage::PromoteFail, HUGE_PAGES, w);
                *vetoes += 1;
            }
            Err(CollapseError::Refused) => {}
        }
    }

    /// The 2 MiB windows of `pid` holding base-page mappings, counted and
    /// cached for the tick: window start → base pages mapped in it.
    fn collect_windows<'a>(&self, pid: Pid, cache: &'a mut WindowCache) -> &'a BTreeMap<u64, u64> {
        cache.entry(pid).or_insert_with(|| {
            let mut windows = BTreeMap::new();
            if let Some(aspace) = self.processes.get(pid) {
                for m in aspace.page_table().iter_mappings() {
                    if m.size == PageSize::Base4K {
                        let w = m.va.raw() & !(PageSize::Huge2M.bytes() - 1);
                        *windows.entry(w).or_default() += 1;
                    }
                }
            }
            windows
        })
    }

    /// One repair work unit: migrate movable blocks out of the 2 MiB
    /// neighbourhood of one quarantined frame, so unaligned contiguity runs
    /// re-form around the hole instead of staying shattered by it.
    fn repair_step(&mut self, bad: Pfn, users: &mut FrameUsers, vetoes: &mut u64) {
        let Some(node) = self.machine.node_of(bad) else { return };
        let wstart = bad.raw() & !(HUGE_PAGES - 1);
        let wend = wstart + HUGE_PAGES;
        let blocks: Vec<(Pfn, u32)> = self
            .machine
            .zone(node)
            .frame_table()
            .allocated_blocks_from(Pfn::new(wstart), HUGE_PAGES)
            .take_while(|(h, _)| h.raw() < wend)
            .collect();
        let mut moved = 0u64;
        for (head, order) in blocks {
            if moved >= REPAIR_MOVES_PER_UNIT {
                break;
            }
            // Relocate out of the poisoned window: below it when possible,
            // above it otherwise — never back inside, so the move cannot
            // re-fragment the same neighbourhood.
            let zone = self.machine.zone(node);
            let Some(dest) = zone
                .lowest_free_block(order, Pfn::new(wstart))
                .or_else(|| zone.lowest_free_block_at_or_above(order, Pfn::new(wend)))
            else {
                break;
            };
            match self.move_block(head, order, Dest::At(dest), users) {
                Some(frames) => {
                    moved += 1;
                    self.daemon.stats.repairs += 1;
                    self.daemon.stats.repair_frames += frames;
                    self.trace_daemon(DaemonStage::Repair, frames, bad.raw());
                }
                None => *vetoes += 1,
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::policy::BasePagesPolicy;
    use crate::system::{System, SystemConfig};
    use crate::vma::VmaKind;
    use contig_buddy::MachineConfig;
    use contig_trace::TraceSession;
    use contig_types::VirtRange;

    fn system_mib(mib: u64) -> System {
        // Fault-path THP off: async daemon promotion is the only collapser
        // (the Ingens-style split the daemon exists to serve).
        let config = SystemConfig::new(MachineConfig::single_node_mib(mib));
        System::new(SystemConfig { thp: false, ..config })
    }

    /// Interleaved faults from two pids, one exits: fragmented free space.
    fn fragmented(sys: &mut System) -> Pid {
        let a = sys.spawn();
        let b = sys.spawn();
        for (pid, base) in [(a, 0x40_1000u64), (b, 0x100_1000u64)] {
            sys.aspace_mut(pid).map_vma(
                VirtRange::new(VirtAddr::new(base), 0x20_0000),
                VmaKind::Anon,
            );
        }
        let mut policy = BasePagesPolicy;
        for i in 0..512u64 {
            sys.touch(&mut policy, a, VirtAddr::new(0x40_1000 + i * 4096)).unwrap();
            sys.touch(&mut policy, b, VirtAddr::new(0x100_1000 + i * 4096)).unwrap();
        }
        sys.exit(b);
        a
    }

    fn run_epochs(sys: &mut System, ticks: usize) -> u64 {
        (0..ticks).map(|_| sys.daemon_tick()).sum()
    }

    #[test]
    fn disabled_daemon_is_a_strict_noop() {
        let mut sys = system_mib(4);
        let a = fragmented(&mut sys);
        let before = sys.aspace(a).page_table().iter_mappings().collect::<Vec<_>>();
        let now = sys.now_ns();
        assert_eq!(sys.daemon_tick(), 0);
        assert_eq!(sys.now_ns(), now);
        assert_eq!(sys.daemon_stats(), &DaemonStats::default());
        assert_eq!(before, sys.aspace(a).page_table().iter_mappings().collect::<Vec<_>>());
    }

    #[test]
    fn background_compaction_assembles_huge_blocks_and_stays_clean() {
        let mut sys = system_mib(4);
        let a = fragmented(&mut sys);
        let huge = PageSize::Huge2M.order();
        assert!(!sys.machine().has_free_block(huge), "not fragmented");
        let before: Vec<_> = (0..512u64)
            .map(|i| {
                let t = sys
                    .aspace(a)
                    .page_table()
                    .translate(VirtAddr::new(0x40_1000 + i * 4096))
                    .unwrap();
                t.flags
            })
            .collect();
        sys.enable_daemon(DaemonConfig { aggressiveness: 3, ..DaemonConfig::default() });
        let spent = run_epochs(&mut sys, 200);
        assert!(spent > 0);
        assert!(sys.machine().has_free_block(huge), "daemon never defragmented");
        let stats = *sys.daemon_stats();
        assert!(stats.compact_moves > 0, "{stats:?}");
        assert!(stats.epochs > 0, "{stats:?}");
        // Observational equivalence: every translation still present with
        // identical flags.
        for (i, flags) in before.iter().enumerate() {
            let t = sys
                .aspace(a)
                .page_table()
                .translate(VirtAddr::new(0x40_1000 + i as u64 * 4096))
                .unwrap();
            assert_eq!(t.flags, *flags);
        }
        assert!(sys.audit().is_clean(), "{}", sys.audit());
        sys.machine().verify_integrity();
    }

    #[test]
    fn promotion_collapses_aligned_runs_into_huge_pages() {
        let mut sys = system_mib(8);
        let pid = sys.spawn();
        sys.aspace_mut(pid)
            .map_vma(VirtRange::new(VirtAddr::new(0x40_0000), 4 << 20), VmaKind::Anon);
        let mut policy = BasePagesPolicy;
        for i in 0..1024u64 {
            sys.touch(&mut policy, pid, VirtAddr::new(0x40_0000 + i * 4096)).unwrap();
        }
        assert_eq!(sys.aspace(pid).page_table().mapped_huge_pages(), 0);
        sys.enable_daemon(DaemonConfig::default());
        run_epochs(&mut sys, 400);
        let stats = *sys.daemon_stats();
        assert_eq!(stats.promoted, 2, "both aligned windows collapse: {stats:?}");
        assert_eq!(sys.aspace(pid).page_table().mapped_huge_pages(), 2);
        assert_eq!(sys.aspace(pid).page_table().mapped_base_pages(), 0);
        for i in 0..1024u64 {
            let t = sys
                .aspace(pid)
                .page_table()
                .translate(VirtAddr::new(0x40_0000 + i * 4096))
                .unwrap();
            assert_eq!(t.size, PageSize::Huge2M);
        }
        assert!(sys.audit().is_clean(), "{}", sys.audit());
        sys.machine().verify_integrity();
    }

    #[test]
    fn a_window_missing_one_page_is_never_promoted() {
        let mut sys = system_mib(8);
        let pid = sys.spawn();
        sys.aspace_mut(pid)
            .map_vma(VirtRange::new(VirtAddr::new(0x40_0000), 2 << 20), VmaKind::Anon);
        let mut policy = BasePagesPolicy;
        for i in 0..512u64 {
            sys.touch(&mut policy, pid, VirtAddr::new(0x40_0000 + i * 4096)).unwrap();
        }
        // The full window would collapse; one hole makes it ineligible.
        let hole = VirtAddr::new(0x40_0000 + 300 * 4096);
        assert_eq!(sys.unmap_base_page(pid, hole).map(|(_, freed)| freed), Some(true));
        sys.enable_daemon(DaemonConfig::default());
        run_epochs(&mut sys, 50);
        assert_eq!(sys.daemon_stats().promoted, 0, "must never fault pages in");
        assert!(sys.aspace(pid).page_table().translate(hole).is_err());
        // Filling the hole makes the window collapsible on the next pass.
        sys.touch(&mut policy, pid, hole).unwrap();
        run_epochs(&mut sys, 50);
        assert_eq!(sys.daemon_stats().promoted, 1);
        assert!(sys.audit().is_clean(), "{}", sys.audit());
    }

    #[test]
    fn pressure_sheds_promotion_then_compaction_then_yields() {
        let mut sys = system_mib(4);
        let _a = fragmented(&mut sys);
        // Eat almost all remaining memory so free % drops under the ladder.
        let hog = sys.spawn();
        sys.aspace_mut(hog)
            .map_vma(VirtRange::new(VirtAddr::new(0x4000_0000), 4 << 20), VmaKind::Anon);
        let mut policy = BasePagesPolicy;
        let mut i = 0u64;
        while sys.machine().free_frames() * 100 / sys.machine().total_frames() >= 3 {
            if sys.touch(&mut policy, hog, VirtAddr::new(0x4000_0000 + i * 4096)).is_err() {
                break;
            }
            i += 1;
        }
        sys.enable_daemon(DaemonConfig::default());
        sys.daemon_tick();
        let stats = *sys.daemon_stats();
        assert_eq!(stats.yields, 1, "{stats:?}");
        assert!(sys.daemon_state().backoff_until_ns > sys.now_ns());
        // Ticks inside the backoff window are visible skips.
        sys.daemon_tick();
        assert_eq!(sys.daemon_stats().backoff_skips, 1);
        assert!(sys.audit().is_clean(), "{}", sys.audit());
    }

    #[test]
    fn stats_equal_trace_counts_one_to_one() {
        let mut sys = system_mib(4);
        let session = TraceSession::ring(1 << 16);
        sys.set_tracer(session.tracer());
        let _a = fragmented(&mut sys);
        sys.enable_daemon(DaemonConfig { aggressiveness: 3, ..DaemonConfig::default() });
        run_epochs(&mut sys, 100);
        let metrics = session.metrics();
        for (name, total) in sys.daemon_stats().as_named() {
            assert_eq!(metrics.counter(name), total, "counter {name}");
        }
        assert_eq!(session.dropped(), 0);
    }

    #[test]
    fn ticks_are_deterministic_across_identical_runs() {
        let run = || {
            let mut sys = system_mib(4);
            let _a = fragmented(&mut sys);
            sys.enable_daemon(DaemonConfig { aggressiveness: 3, ..DaemonConfig::default() });
            let spent = run_epochs(&mut sys, 64);
            (spent, *sys.daemon_stats(), sys.now_ns(), sys.daemon_state().clone())
        };
        assert_eq!(run(), run());
    }

    #[test]
    fn repair_clears_the_neighbourhood_of_a_poisoned_frame() {
        let mut sys = system_mib(8);
        let pid = sys.spawn();
        sys.aspace_mut(pid)
            .map_vma(VirtRange::new(VirtAddr::new(0x40_1000), 2 << 20), VmaKind::Anon);
        let mut policy = BasePagesPolicy;
        for i in 0..500u64 {
            sys.touch(&mut policy, pid, VirtAddr::new(0x40_1000 + i * 4096)).unwrap();
        }
        // Poison a *free* frame just past the populated run: it quarantines
        // in place, stranding the allocated neighbourhood around the hole.
        let top = sys
            .aspace(pid)
            .page_table()
            .iter_mappings()
            .map(|m| m.pte.pfn)
            .max()
            .unwrap();
        let _ = sys.memory_failure(top.add(1));
        assert!(sys.machine().poisoned_frames() > 0);
        sys.enable_daemon(DaemonConfig { aggressiveness: 1, ..DaemonConfig::default() });
        run_epochs(&mut sys, 400);
        let stats = *sys.daemon_stats();
        assert!(stats.repairs > 0, "no repair migrations ran: {stats:?}");
        assert!(sys.audit().is_clean(), "{}", sys.audit());
        sys.machine().verify_integrity();
    }
}
