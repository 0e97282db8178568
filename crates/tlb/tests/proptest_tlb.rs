//! Property-based tests of the TLB structures against reference models.

use std::collections::VecDeque;

use proptest::prelude::*;

use contig_tlb::{
    Access, CacheSnapshot, MemorySim, MissHandler, MissHandling, SetAssocCache, TlbConfig,
    TlbGeometry, TlbHierarchy, TlbHit, TlbSnapshot, TranslationBackend, WalkResult,
};
use contig_trace::TraceSession;
use contig_types::{PageSize, PhysAddr, VirtAddr};

#[derive(Clone, Debug)]
enum CacheOp {
    Access(u64),
    Fill(u64),
}

fn cache_op(key_space: u64) -> impl Strategy<Value = CacheOp> {
    prop_oneof![
        (0..key_space).prop_map(CacheOp::Access),
        (0..key_space).prop_map(CacheOp::Fill),
    ]
}

/// Reference LRU for a fully-associative cache: a recency-ordered deque.
#[derive(Default)]
struct RefLru {
    entries: VecDeque<u64>, // front = LRU, back = MRU
    capacity: usize,
}

impl RefLru {
    fn access(&mut self, key: u64) -> bool {
        if let Some(pos) = self.entries.iter().position(|&k| k == key) {
            self.entries.remove(pos);
            self.entries.push_back(key);
            true
        } else {
            false
        }
    }

    fn fill(&mut self, key: u64) {
        if let Some(pos) = self.entries.iter().position(|&k| k == key) {
            self.entries.remove(pos);
        } else if self.entries.len() == self.capacity {
            self.entries.pop_front();
        }
        self.entries.push_back(key);
    }
}

/// The cache exactly as it was before its slots were packed and its set
/// index became a mask (PR 13): `Option`-tagged `(key, tick)` slots indexed
/// by `%`. The differential properties below hold the shipped cache to it,
/// return value by return value and slot by slot.
#[derive(Clone, Debug)]
struct OldCache {
    sets: usize,
    ways: usize,
    slots: Vec<Option<(u64, u64)>>,
    tick: u64,
    hits: u64,
    misses: u64,
}

impl OldCache {
    fn new(entries: usize, ways: usize) -> Self {
        Self { sets: entries / ways, ways, slots: vec![None; entries], tick: 0, hits: 0, misses: 0 }
    }

    fn set_of(&self, key: u64) -> usize {
        (key % self.sets as u64) as usize
    }

    fn access(&mut self, key: u64) -> bool {
        self.tick += 1;
        let base = self.set_of(key) * self.ways;
        for (k, touched) in self.slots[base..base + self.ways].iter_mut().flatten() {
            if *k == key {
                *touched = self.tick;
                self.hits += 1;
                return true;
            }
        }
        self.misses += 1;
        false
    }

    fn peek(&self, key: u64) -> bool {
        let base = self.set_of(key) * self.ways;
        self.slots[base..base + self.ways].iter().any(|s| s.map(|(k, _)| k == key).unwrap_or(false))
    }

    fn fill(&mut self, key: u64) {
        self.tick += 1;
        let base = self.set_of(key) * self.ways;
        for (k, touched) in self.slots[base..base + self.ways].iter_mut().flatten() {
            if *k == key {
                *touched = self.tick;
                return;
            }
        }
        let victim = (base..base + self.ways)
            .min_by_key(|&i| self.slots[i].map(|(_, t)| t).unwrap_or(0))
            .expect("set has ways");
        self.slots[victim] = Some((key, self.tick));
    }

    fn flush(&mut self) {
        self.slots.fill(None);
    }

    fn stats(&self) -> (u64, u64) {
        (self.hits, self.misses)
    }

    fn snapshot(&self) -> CacheSnapshot {
        CacheSnapshot {
            sets: self.sets as u64,
            ways: self.ways as u64,
            slots: self.slots.clone(),
            tick: self.tick,
            hits: self.hits,
            misses: self.misses,
        }
    }

}

/// The hierarchy as it was before PR 13, over [`OldCache`]: an L2 hit
/// recovers the matching size with a third probe (`peek`).
struct OldHierarchy {
    l1_4k: OldCache,
    l1_2m: OldCache,
    l2: OldCache,
    counters: [u64; 4],
}

fn old_l2_key(va: VirtAddr, size: PageSize) -> u64 {
    match size {
        PageSize::Base4K => (va.raw() >> 12) << 1,
        PageSize::Huge2M => ((va.raw() >> 21) << 1) | 1,
    }
}

impl OldHierarchy {
    fn new(config: TlbConfig) -> Self {
        let cache = |g: TlbGeometry| OldCache::new(g.entries, g.ways);
        Self {
            l1_4k: cache(config.l1_4k),
            l1_2m: cache(config.l1_2m),
            l2: cache(config.l2),
            counters: [0; 4],
        }
    }

    fn lookup(&mut self, va: VirtAddr) -> TlbHit {
        self.counters[0] += 1;
        if self.l1_2m.access(va.raw() >> 21) || self.l1_4k.access(va.raw() >> 12) {
            self.counters[1] += 1;
            return TlbHit::L1;
        }
        if self.l2.access(old_l2_key(va, PageSize::Huge2M))
            || self.l2.access(old_l2_key(va, PageSize::Base4K))
        {
            self.counters[2] += 1;
            if self.l2.peek(old_l2_key(va, PageSize::Huge2M)) {
                self.l1_2m.fill(va.raw() >> 21);
            } else {
                self.l1_4k.fill(va.raw() >> 12);
            }
            return TlbHit::L2;
        }
        self.counters[3] += 1;
        TlbHit::Miss
    }

    fn fill(&mut self, va: VirtAddr, size: PageSize) {
        match size {
            PageSize::Base4K => self.l1_4k.fill(va.raw() >> 12),
            PageSize::Huge2M => self.l1_2m.fill(va.raw() >> 21),
        }
        self.l2.fill(old_l2_key(va, size));
    }

    fn flush(&mut self) {
        self.l1_4k.flush();
        self.l1_2m.flush();
        self.l2.flush();
    }

    fn snapshot(&self) -> TlbSnapshot {
        TlbSnapshot {
            l1_4k: self.l1_4k.snapshot(),
            l1_2m: self.l1_2m.snapshot(),
            l2: self.l2.snapshot(),
            counters: self.counters,
        }
    }
}

/// One step of the differential cache property; `raw` becomes a key once
/// the generated geometry is known (see `key_for`).
#[derive(Clone, Debug)]
enum DiffOp {
    Access(u64),
    Fill(u64),
    Peek(u64),
    Flush,
}

fn diff_op() -> impl Strategy<Value = DiffOp> {
    prop_oneof![
        any::<u64>().prop_map(DiffOp::Access),
        any::<u64>().prop_map(DiffOp::Access),
        any::<u64>().prop_map(DiffOp::Fill),
        any::<u64>().prop_map(DiffOp::Fill),
        any::<u64>().prop_map(DiffOp::Fill),
        any::<u64>().prop_map(DiffOp::Peek),
        (any::<u64>(), 0u8..8)
            .prop_map(|(raw, n)| if n == 0 { DiffOp::Flush } else { DiffOp::Access(raw) }),
    ]
}

/// Mostly keys from a space three times the capacity, so sets conflict and
/// refills hit; one in eight keeps all 64 random bits, where a wrong mask
/// and a wrong `%` disagree.
fn key_for(raw: u64, capacity: usize) -> u64 {
    if raw.is_multiple_of(8) {
        raw
    } else {
        (raw >> 3) % (3 * capacity as u64 + 1)
    }
}

/// `(sets, ways)`: one set, one way, the power-of-two set counts of Broadwell
/// and its `Scale(64)` scaling, the non-power-of-two counts of
/// `broadwell_scaled(5)` (3 and 51), and anything else small.
fn geometry() -> impl Strategy<Value = (usize, usize)> {
    prop_oneof![
        Just((1, 1)),
        Just((1, 4)),
        Just((1, 6)),
        Just((7, 1)),
        Just((4, 6)),
        Just((16, 4)),
        Just((256, 6)),
        Just((3, 4)),
        Just((51, 6)),
        (1usize..40, 1usize..9),
    ]
}

#[derive(Clone, Debug)]
enum TlbOp {
    Lookup(u64),
    /// `n` lookups from `va` on, inside its 4 KiB page or (`true`) its
    /// 2 MiB region: see `run_va`.
    Run(u64, u64, bool),
    Fill(u64, bool),
    Flush,
}

/// Byte addresses inside 16 MiB: 4 096 base pages over 8 huge regions, so
/// both sizes alias, L1s thrash and the scaled L2s evict. Runs repeat one
/// page, the case the remembered L1 slot serves.
fn tlb_op() -> impl Strategy<Value = TlbOp> {
    let va = 0u64..16 << 20;
    prop_oneof![
        va.clone().prop_map(TlbOp::Lookup),
        va.clone().prop_map(TlbOp::Lookup),
        (va.clone(), 1u64..48, any::<bool>()).prop_map(|(va, n, huge)| TlbOp::Run(va, n, huge)),
        (va.clone(), 1u64..48, any::<bool>()).prop_map(|(va, n, huge)| TlbOp::Run(va, n, huge)),
        (va.clone(), any::<bool>()).prop_map(|(va, huge)| TlbOp::Fill(va, huge)),
        (va, any::<bool>()).prop_map(|(va, huge)| TlbOp::Fill(va, huge)),
        (0u64..16).prop_map(|n| match n {
            0 => TlbOp::Flush,
            _ => TlbOp::Lookup(n << 12),
        }),
    ]
}

/// The `k`-th address of a run from `va`: 72 bytes on each time inside its
/// 4 KiB page, or 1 400 bytes on inside its 2 MiB region (about three
/// lookups a page).
fn run_va(va: u64, k: u64, huge: bool) -> VirtAddr {
    let (span, stride) = if huge { (1u64 << 21, 1_400) } else { (1 << 12, 72) };
    VirtAddr::new((va & !(span - 1)) | ((va + k * stride) & (span - 1)))
}

/// Identity translation in which odd 2 MiB regions are one huge page and
/// even ones are 4 KiB pages, with a reference count that varies by page so
/// that walk cycles do too.
struct Mixed;

impl TranslationBackend for Mixed {
    fn walk(&self, va: VirtAddr) -> Option<WalkResult> {
        let huge = (va.raw() >> 21) & 1 == 1;
        let size = if huge { PageSize::Huge2M } else { PageSize::Base4K };
        Some(WalkResult {
            pa: PhysAddr::new(va.raw()),
            size,
            refs: 3 + (va.raw() >> 12) as u32 % 22,
            contig: false,
            write: true,
        })
    }
}

/// A scheme that records every miss it is handed and answers by page, so
/// that all four outcomes are tallied.
#[derive(Default)]
struct Recording(Vec<Access>);

impl MissHandler for Recording {
    fn on_miss(&mut self, access: Access, _walk: &WalkResult) -> MissHandling {
        self.0.push(access);
        match (access.va.raw() >> 12) % 4 {
            0 => MissHandling::Exposed,
            1 => MissHandling::Hidden,
            2 => MissHandling::PredictedCorrect,
            _ => MissHandling::Mispredicted,
        }
    }
}

/// A local trace as stretches `(move, target, count)`: move 0–3 stays on
/// the page, 4–5 steps to the next page, 6 to the next 2 MiB region and 7
/// jumps to `target`, inside 64 MiB; then `count` accesses land on the page.
fn stretch() -> impl Strategy<Value = (u8, u64, u64)> {
    (0u8..8, 0u64..64 << 20, 1u64..40)
}

fn local_trace(stretches: &[(u8, u64, u64)]) -> Vec<Access> {
    let mut trace = Vec::new();
    let mut va = 0u64;
    for &(step, target, count) in stretches {
        va = match step {
            0..=3 => va,
            4 | 5 => va + (1 << 12),
            6 => va + (1 << 21),
            _ => target,
        } % (64 << 20);
        for k in 0..count {
            let addr = VirtAddr::new((va & !0xfff) | ((va + k * 56) & 0xfff));
            let pc = 0x400 + 8 * (k % 3);
            trace.push(if k % 5 == 0 { Access::write(pc, addr) } else { Access::read(pc, addr) });
        }
    }
    trace
}

/// Replays `trace` through two simulators of one geometry, one calling
/// `run` per chunk and the other `step` per access, and requires them to
/// agree after every chunk: report, hierarchy counters, the whole snapshot
/// and the misses each scheme was handed. `cuts` end chunks, flushing both
/// before the next where they say so. With `traced`, each has a session,
/// and the two sessions' metrics and records must be equal too.
fn run_against_steps(config: TlbConfig, trace: &[Access], cuts: &[(usize, bool)], traced: bool) {
    let sessions = [TraceSession::ring(0), TraceSession::ring(0)];
    let mut sims = [(); 2].map(|()| MemorySim::new(config, Default::default()));
    if traced {
        for (sim, session) in sims.iter_mut().zip(&sessions) {
            sim.set_tracer(session.tracer());
        }
    }
    let mut seen = [Recording::default(), Recording::default()];
    let mut cuts = cuts.to_vec();
    cuts.push((trace.len(), false));
    cuts.sort_unstable();
    let mut start = 0;
    for (i, &(end, flush)) in cuts.iter().enumerate() {
        let chunk = &trace[start..end.clamp(start, trace.len())];
        start += chunk.len();
        let [batched, stepped] = &mut sims;
        batched.run(&Mixed, &mut seen[0], chunk.iter().copied());
        for &access in chunk {
            stepped.step(&Mixed, &mut seen[1], access);
        }
        assert_eq!(batched.report(), stepped.report(), "chunk {i}");
        assert_eq!(batched.tlb().stats(), stepped.tlb().stats(), "chunk {i}");
        assert_eq!(batched.tlb().snapshot(), stepped.tlb().snapshot(), "chunk {i}");
        assert_eq!(seen[0].0, seen[1].0, "chunk {i}");
        if flush {
            sims.iter_mut().for_each(MemorySim::flush_tlbs);
        }
    }
    let report = sims[0].report();
    assert_eq!(report.accesses, trace.len() as u64);
    if traced {
        let [batched, stepped] = sessions.each_ref().map(TraceSession::metrics);
        assert_eq!(batched.counter("tlb.access"), report.accesses);
        assert_eq!(batched.counter("tlb.l1_hit"), report.l1_hits);
        let cycles = batched.histograms().find(|&(name, _)| name == "tlb.walk_cycles");
        assert_eq!(cycles.map_or(0, |(_, h)| h.sum()), report.walk_cycles);
        assert_eq!(batched, stepped);
        assert_eq!(sessions[0].records(), sessions[1].records());
    }
}

fn tlb_config() -> impl Strategy<Value = TlbConfig> {
    let tiny = TlbConfig {
        l1_4k: TlbGeometry { entries: 2, ways: 2 },
        l1_2m: TlbGeometry { entries: 1, ways: 1 },
        l2: TlbGeometry { entries: 12, ways: 4 },
    };
    prop_oneof![
        Just(tiny),
        Just(TlbConfig::broadwell()),
        Just(TlbConfig::broadwell_scaled(5)),
        Just(TlbConfig::broadwell_scaled(64)),
        (1usize..2048).prop_map(TlbConfig::broadwell_scaled),
    ]
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(128))]

    /// A fully-associative SetAssocCache is observationally equal to the
    /// textbook LRU model.
    #[test]
    fn fully_associative_matches_reference_lru(
        capacity in 1usize..12,
        ops in proptest::collection::vec(cache_op(32), 1..300),
    ) {
        let mut cache = SetAssocCache::new(capacity, capacity);
        let mut reference = RefLru { capacity, ..Default::default() };
        for op in ops {
            match op {
                CacheOp::Access(k) => {
                    prop_assert_eq!(cache.access(k), reference.access(k), "access {}", k);
                }
                CacheOp::Fill(k) => {
                    cache.fill(k);
                    reference.fill(k);
                }
            }
        }
        for k in 0..32 {
            prop_assert_eq!(cache.peek(k), reference.entries.contains(&k), "final state {}", k);
        }
    }

    /// The packed, mask-indexed cache is the old `Option`-slot, `%`-indexed
    /// one: every return value, `stats()` and the whole `snapshot()` agree
    /// after every operation, through restores, on every geometry. A fill
    /// also never touches a slot outside its key's set.
    #[test]
    fn cache_matches_the_old_implementation(
        shape in geometry(),
        ops in proptest::collection::vec(diff_op(), 1..400),
    ) {
        let (sets, ways) = shape;
        let mut new = SetAssocCache::new(sets * ways, ways);
        let mut old = OldCache::new(sets * ways, ways);
        prop_assert_eq!(new.snapshot().sets, sets as u64);
        for (i, op) in ops.iter().enumerate() {
            match *op {
                DiffOp::Access(raw) => {
                    let k = key_for(raw, sets * ways);
                    prop_assert_eq!(new.access(k), old.access(k), "op {}: access {}", i, k);
                }
                DiffOp::Fill(raw) => {
                    let k = key_for(raw, sets * ways);
                    let before = new.snapshot().slots;
                    new.fill(k);
                    old.fill(k);
                    prop_assert!(new.peek(k), "op {}: fill {} did not install", i, k);
                    let base = (k % sets as u64) as usize * ways;
                    for (j, (b, a)) in before.iter().zip(new.snapshot().slots).enumerate() {
                        let inside = (base..base + ways).contains(&j);
                        prop_assert!(inside || *b == a, "op {}: fill {} wrote slot {}", i, k, j);
                    }
                }
                DiffOp::Peek(raw) => {
                    let k = key_for(raw, sets * ways);
                    prop_assert_eq!(new.peek(k), old.peek(k), "op {}: peek {}", i, k);
                }
                DiffOp::Flush => {
                    new.flush();
                    old.flush();
                }
            }
            prop_assert_eq!(new.stats(), old.stats(), "op {}: {:?}", i, op);
            prop_assert_eq!(new.snapshot(), old.snapshot(), "op {}: {:?}", i, op);
        }
    }

    /// The same for the hierarchy: the L2-hit refill that reuses the
    /// matching probe is the old one that probed a third time.
    #[test]
    fn hierarchy_matches_the_old_implementation(
        config in tlb_config(),
        ops in proptest::collection::vec(tlb_op(), 1..600),
    ) {
        let mut new = TlbHierarchy::new(config);
        let mut old = OldHierarchy::new(config);
        for (i, op) in ops.iter().enumerate() {
            match *op {
                TlbOp::Lookup(va) => {
                    let va = VirtAddr::new(va);
                    prop_assert_eq!(new.lookup(va), old.lookup(va), "op {}: lookup {}", i, va);
                }
                TlbOp::Run(va, n, huge) => {
                    for k in 0..n {
                        let va = run_va(va, k, huge);
                        prop_assert_eq!(new.lookup(va), old.lookup(va), "op {}: run {}", i, va);
                    }
                }
                TlbOp::Fill(va, huge) => {
                    let size = if huge { PageSize::Huge2M } else { PageSize::Base4K };
                    let va = VirtAddr::new(va).align_down(size);
                    new.fill(va, size);
                    old.fill(va, size);
                }
                TlbOp::Flush => {
                    new.flush();
                    old.flush();
                }
            }
            let snap = new.snapshot();
            prop_assert_eq!(&snap, &old.snapshot(), "op {}: {:?}", i, op);
            let [lookups, l1, l2, misses] = snap.counters;
            prop_assert_eq!(new.stats(), (lookups, l1, l2, misses));
        }
    }

    /// `run` batches a run of L1 hits on one page into one update; it must
    /// leave every counter, tick and slot, and every miss a scheme sees,
    /// as `step` per access does, across chunk ends and flushes.
    #[test]
    fn run_matches_per_access_steps(
        config in tlb_config(),
        stretches in proptest::collection::vec(stretch(), 1..40),
        cuts in proptest::collection::vec((0usize..1_600, any::<bool>()), 0..6),
    ) {
        run_against_steps(config, &local_trace(&stretches), &cuts, false);
    }

    /// The same with a trace session on each: batched hits add to the
    /// `tlb.access` and `tlb.l1_hit` counters once per run, and the
    /// sessions end equal.
    #[test]
    fn traced_run_matches_per_access_steps(
        config in tlb_config(),
        stretches in proptest::collection::vec(stretch(), 1..40),
        cuts in proptest::collection::vec((0usize..1_600, any::<bool>()), 0..6),
    ) {
        run_against_steps(config, &local_trace(&stretches), &cuts, true);
    }

    /// Hierarchy soundness: after a fill, a lookup of any address inside the
    /// filled page hits; a flush forgets everything.
    #[test]
    fn hierarchy_fill_then_hit(pages in proptest::collection::vec((0u64..1 << 20, any::<bool>()), 1..64)) {
        let mut tlb = TlbHierarchy::new(TlbConfig {
            l1_4k: TlbGeometry { entries: 4, ways: 4 },
            l1_2m: TlbGeometry { entries: 4, ways: 4 },
            l2: TlbGeometry { entries: 64, ways: 4 },
        });
        for &(page, huge) in &pages {
            let (va, size) = if huge {
                (VirtAddr::new((page % 512) << 21), PageSize::Huge2M)
            } else {
                (VirtAddr::new(page << 12), PageSize::Base4K)
            };
            tlb.fill(va, size);
            prop_assert_ne!(tlb.lookup(va + size.bytes() / 2), TlbHit::Miss);
        }
        tlb.flush();
        let (lookups_before, ..) = tlb.stats();
        for &(page, _) in pages.iter().take(8) {
            prop_assert_eq!(tlb.lookup(VirtAddr::new(page << 12)), TlbHit::Miss);
        }
        let (lookups_after, ..) = tlb.stats();
        prop_assert_eq!(lookups_after - lookups_before, pages.len().min(8) as u64);
    }
}
