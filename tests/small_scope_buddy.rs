//! Exhaustive small-scope check of one buddy zone against a naive model.
//!
//! Every op sequence up to a fixed length runs on a 32-frame zone with top
//! order 2, under both top-list disciplines (LIFO and address-sorted) and
//! with the per-CPU caches on and off. The model is one `free` and one
//! `poisoned` flag per frame and no buddy logic at all: which blocks exist,
//! how they split and merge, and which list holds them are the allocator's
//! business, and the model only says what any correct allocator must
//! answer. After every op the zone must agree with it on
//!
//! - where a returned block lies (aligned, inside the zone, free, healthy);
//! - whether an allocation may fail (only when no free, healthy aligned
//!   block of the order exists) and whether a targeted one succeeds (exactly
//!   when its block is free and healthy);
//! - every frame's free and poisoned state, and so the free count;
//! - the contiguity map's clusters (the maximal runs of fully free
//!   top-order blocks, pcp-resident frames excepted);
//! - and `verify_integrity` passes.
//!
//! An op that cannot change anything (freeing with nothing live, poisoning a
//! frame twice, draining empty caches) ends its branch: every continuation
//! of the unchanged state is enumerated from its parent already.
//!
//! The vendored `proptest` does not shrink, so this is where minimal
//! counterexamples come from: the first failure names the shortest op
//! sequence that breaks the zone.

use std::collections::HashMap;

use contig::buddy::{PcpConfig, PoisonDisposition, Zone, ZoneConfig};
use contig::types::Pfn;

const FRAMES: usize = 32;
const TOP: u32 = 2;

#[derive(Clone, Copy, Debug)]
enum Op {
    Alloc(u32),
    FreeNewest,
    FreeOldest,
    /// `alloc_specific` of the block of this order at this frame.
    Target(u64, u32),
    Poison(u64),
    Drain,
}

/// The two poisoned frames sit under two of the targets, so a target can
/// meet a poisoned frame, a quarantined one and a healthy one.
const OPS: [Op; 11] = [
    Op::Alloc(0),
    Op::Alloc(1),
    Op::Alloc(2),
    Op::FreeNewest,
    Op::FreeOldest,
    Op::Target(4, 2),
    Op::Target(16, 1),
    Op::Target(21, 0),
    Op::Poison(6),
    Op::Poison(21),
    Op::Drain,
];

#[derive(Clone)]
struct State {
    zone: Zone,
    free: [bool; FRAMES],
    poisoned: [bool; FRAMES],
    /// Blocks the sequence holds, oldest first.
    live: Vec<(Pfn, u32)>,
}

impl State {
    fn new(sorted: bool, pcp: bool) -> Self {
        let mut zone = Zone::new(ZoneConfig {
            base: Pfn::new(0),
            frames: FRAMES as u64,
            top_order: TOP,
            sorted_top_list: sorted,
        });
        if pcp {
            // A watermark this low drains within a few frees.
            zone.enable_pcp(PcpConfig { cpus: 1, batch: 2, high: 3 });
        }
        State { zone, free: [true; FRAMES], poisoned: [false; FRAMES], live: Vec::new() }
    }

    fn healthy(&self, head: u64, order: u32) -> bool {
        (head..head + (1 << order)).all(|f| self.free[f as usize] && !self.poisoned[f as usize])
    }

    fn poisoned_in(&self, head: u64, order: u32) -> bool {
        (head..head + (1 << order)).any(|f| self.poisoned[f as usize])
    }

    fn any_healthy(&self, order: u32) -> bool {
        (0..FRAMES as u64).step_by(1 << order).any(|h| self.healthy(h, order))
    }

    fn take(&mut self, head: u64, order: u32) {
        for f in head..head + (1 << order) {
            self.free[f as usize] = false;
        }
        self.live.push((Pfn::new(head), order));
    }

    fn release(&mut self, (head, order): (Pfn, u32)) {
        self.zone.free(head, order);
        for f in head.raw()..head.raw() + (1 << order) {
            self.free[f as usize] = !self.poisoned[f as usize];
        }
    }

    /// Applies `op` to the zone and the model, checking what the op
    /// returned; `false` when the op could change nothing.
    fn apply(&mut self, op: Op) -> bool {
        match op {
            Op::Alloc(order) => match self.zone.alloc(order) {
                Ok(head) => {
                    let h = head.raw();
                    assert!(h % (1 << order) == 0, "order-{order} block at {h} is unaligned");
                    assert!(h + (1 << order) <= FRAMES as u64, "block at {h} leaves the zone");
                    assert!(self.healthy(h, order), "order-{order} block at {h} was not free");
                    self.take(h, order);
                }
                Err(e) => {
                    assert!(!self.any_healthy(order), "alloc({order}) failed with room: {e:?}");
                }
            },
            Op::FreeNewest => match self.live.pop() {
                Some(block) => self.release(block),
                None => return false,
            },
            Op::FreeOldest => {
                if self.live.is_empty() {
                    return false;
                }
                let block = self.live.remove(0);
                self.release(block);
            }
            Op::Target(head, order) => {
                let want = self.healthy(head, order);
                let (parked, bad) = (self.zone.pcp_frames(), self.poisoned_in(head, order));
                let got = self.zone.alloc_specific(Pfn::new(head), order);
                assert_eq!(got.is_ok(), want, "alloc_specific({head}, {order}) gave {got:?}");
                // A poisoned target is refused before the caches are flushed.
                assert!(!bad || self.zone.pcp_frames() == parked, "pcp flushed for a bad target");
                if want {
                    self.take(head, order);
                }
            }
            Op::Poison(pfn) => {
                let p = pfn as usize;
                let parked = self.zone.pcp_contains(Pfn::new(pfn));
                let got = self.zone.poison(Pfn::new(pfn));
                let want = match (self.poisoned[p], self.free[p], parked) {
                    (true, _, _) => PoisonDisposition::AlreadyPoisoned,
                    (false, true, true) => PoisonDisposition::QuarantinedPcp,
                    (false, true, false) => PoisonDisposition::QuarantinedFree,
                    (false, false, _) => PoisonDisposition::Deferred,
                };
                assert_eq!(got, want, "poison({pfn})");
                if self.poisoned[p] {
                    return false;
                }
                self.poisoned[p] = true;
                self.free[p] = false;
            }
            Op::Drain => return self.zone.drain_pcp() > 0,
        }
        true
    }

    fn check(&self) {
        let zone = &self.zone;
        for f in 0..FRAMES {
            let pfn = Pfn::new(f as u64);
            assert_eq!(zone.is_free(pfn), self.free[f], "free state of frame {f}");
            assert_eq!(zone.is_poisoned(pfn), self.poisoned[f], "poisoned state of frame {f}");
        }
        let free = self.free.iter().filter(|&&f| f).count() as u64;
        assert_eq!(zone.free_frames(), free, "free count");
        // Maximal runs of top-order blocks whose every frame sits in the
        // buddy heap: free and not parked on a pcp list.
        let block = 1u64 << TOP;
        let mut runs: Vec<(u64, u64)> = Vec::new();
        for head in (0..FRAMES as u64).step_by(block as usize) {
            let in_heap = (head..head + block)
                .all(|f| self.free[f as usize] && !zone.pcp_contains(Pfn::new(f)));
            match runs.last_mut() {
                Some((start, len)) if in_heap && *start + *len == head => *len += block,
                _ if in_heap => runs.push((head, block)),
                _ => {}
            }
        }
        let map: Vec<(u64, u64)> =
            zone.contiguity_map().iter().map(|c| (c.start.raw(), c.frames)).collect();
        assert_eq!(map, runs, "contiguity map clusters");
        zone.verify_integrity();
    }
}

/// What decides everything a continuation can observe: the zone's lists in
/// their order, its allocated blocks, pcp lists, poisoned frames and rover,
/// and the blocks the sequence holds. Counters are left out; no op reads them.
type Key =
    (Vec<Vec<u64>>, Vec<(u64, u32)>, Option<Vec<Vec<u64>>>, Vec<u64>, Option<u64>, Vec<(Pfn, u32)>);

fn key(state: &State) -> Key {
    let snap = state.zone.snapshot();
    let pcp = snap.pcp.map(|p| p.lists);
    (snap.free_lists, snap.allocated, pcp, snap.badframes, snap.contig_rover, state.live.clone())
}

/// Runs every sequence of `OPS` up to `depth` ops from `state`, naming the
/// sequence on the first failure. A state already expanded with at least
/// `depth` ops to go is not expanded again: the checks after an op read only
/// the state and the op, so every continuation from it has run. Returns the
/// number of ops applied.
fn explore(state: &State, depth: usize, path: &mut Vec<Op>, seen: &mut HashMap<Key, usize>) -> u64 {
    if depth == 0 {
        return 0;
    }
    let left = seen.entry(key(state)).or_insert(0);
    if *left >= depth {
        return 0;
    }
    *left = depth;
    let mut ops = 0;
    for op in OPS {
        path.push(op);
        let mut next = state.clone();
        let applied = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            let changed = next.apply(op);
            if changed {
                next.check();
            }
            changed
        }))
        .unwrap_or_else(|e| {
            eprintln!("failing op sequence: {path:?}");
            std::panic::resume_unwind(e)
        });
        if applied {
            ops += 1 + explore(&next, depth - 1, path, seen);
        }
        path.pop();
    }
    ops
}

fn enumerate(sorted: bool, pcp: bool, depth: usize) {
    let start = State::new(sorted, pcp);
    start.check();
    let ops = explore(&start, depth, &mut Vec::new(), &mut HashMap::new());
    assert!(ops > 0);
}

// One test per configuration, so the four enumerations run in parallel.

#[test]
fn six_ops_lifo() {
    enumerate(false, false, 6);
}

#[test]
fn six_ops_lifo_pcp() {
    enumerate(false, true, 6);
}

#[test]
fn six_ops_sorted() {
    enumerate(true, false, 6);
}

#[test]
fn six_ops_sorted_pcp() {
    enumerate(true, true, 6);
}

/// One op deeper, every configuration; run in release
/// (`cargo test --release --test small_scope_buddy -- --ignored`).
#[test]
#[ignore]
fn seven_ops_every_configuration() {
    for sorted in [false, true] {
        for pcp in [false, true] {
            enumerate(sorted, pcp, 7);
        }
    }
}
