//! The system page cache and file readahead allocations.
//!
//! CA paging serves readahead allocations of the page cache by "tracking an
//! Offset attribute per file (struct address_space)" (paper §III-C). Page
//! cache mappings tend to outlive processes; if they are scattered they
//! fragment the physical address space, so allocating them contiguously is
//! part of CA paging's fragmentation restraint (Fig. 9).

use std::collections::BTreeMap;
use std::ops::Range;

use contig_buddy::Machine;
use contig_types::json::{Dec, Enc, Sink, Wire};
use contig_types::{AllocError, MapOffset, PageSize, Pfn, VirtAddr};

/// Identifier of a cached file.
#[derive(Clone, Copy, Debug, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct FileId(pub u32);

/// Allocation discipline for readahead pages.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Default)]
pub enum CacheAllocMode {
    /// Kernel default: wherever the buddy free lists provide.
    #[default]
    Default,
    /// CA paging: track one [`MapOffset`] per file and steer readahead pages
    /// to physically consecutive frames via targeted allocation.
    CaContiguous,
}

impl Wire for CacheAllocMode {
    fn enc<S: Sink>(&self, e: &mut Enc<S>) {
        e.str(match self {
            CacheAllocMode::Default => "default",
            CacheAllocMode::CaContiguous => "ca_contiguous",
        });
    }
    fn dec(d: &mut Dec<'_>) -> Result<Self, String> {
        match d.str().ok().as_deref() {
            Some("default") => Ok(CacheAllocMode::Default),
            Some("ca_contiguous") => Ok(CacheAllocMode::CaContiguous),
            other => Err(format!("unknown cache mode {other:?}")),
        }
    }
}

/// Pages fetched around a file fault, like Linux's default readahead window
/// (128 KiB). The guest's file fault clamps it to the VMA and the index
/// space; the hypervisor backs the guest's window unclamped.
pub const READAHEAD_PAGES: u64 = 32;

#[derive(Clone, Debug, Default)]
struct CachedFile {
    /// file page index -> backing frame.
    pages: BTreeMap<u64, Pfn>,
    /// CA paging per-file offset, in the file's own "virtual" space where
    /// page `i` lives at byte `i * 4096`.
    offset: Option<MapOffset>,
    /// What the last completed readahead proved about `pages`; `None` after
    /// an eviction or a readahead that failed partway. Not part of the
    /// snapshot.
    full: Option<FullRun>,
}

/// A run of file page indices known to be cached, and how far past it the
/// cache is known to be empty.
#[derive(Clone, Debug)]
struct FullRun {
    /// Every index in here is cached.
    cached: Range<u64>,
    /// The first cached index at or past `cached.end`; `u64::MAX` when there
    /// is none (no window reaches that index).
    next_cached: u64,
}

/// The system-wide page cache.
///
/// File pages are owned by the cache, not by processes, and persist until
/// [`PageCache::evict_file`] — modelling how cache mappings outlive the
/// processes that created them.
///
/// # Examples
///
/// ```
/// use contig_buddy::{Machine, MachineConfig};
/// use contig_mm::{CacheAllocMode, PageCache};
///
/// let mut machine = Machine::new(MachineConfig::single_node_mib(32));
/// let mut cache = PageCache::new(CacheAllocMode::CaContiguous);
/// let file = cache.create_file();
/// cache.readahead(&mut machine, file, 0, 64)?;
/// // CA keeps the file physically contiguous:
/// let frames = cache.frames_of(file);
/// assert!(frames.windows(2).all(|w| w[1].raw() == w[0].raw() + 1));
/// # Ok::<(), contig_types::AllocError>(())
/// ```
#[derive(Clone, Debug)]
pub struct PageCache {
    files: Vec<CachedFile>,
    mode: CacheAllocMode,
    readahead_allocs: u64,
}

impl PageCache {
    /// An empty cache with the given allocation discipline.
    pub fn new(mode: CacheAllocMode) -> Self {
        Self { files: Vec::new(), mode, readahead_allocs: 0 }
    }

    /// Registers a new (empty) file.
    pub fn create_file(&mut self) -> FileId {
        self.files.push(CachedFile::default());
        FileId(self.files.len() as u32 - 1)
    }

    /// Number of files ever registered (ids `0..file_count()` are valid).
    pub fn file_count(&self) -> u32 {
        self.files.len() as u32
    }

    /// Number of cached pages of `file`.
    pub fn cached_pages(&self, file: FileId) -> u64 {
        self.files[file.0 as usize].pages.len() as u64
    }

    /// The frame backing file page `index`, if cached.
    pub fn lookup(&self, file: FileId, index: u64) -> Option<Pfn> {
        self.files[file.0 as usize].pages.get(&index).copied()
    }

    /// The cached `(file page index, frame)` pairs of `file` inside
    /// `[start, start + count)`, in index order — one ordered walk instead of
    /// one [`PageCache::lookup`] per index. The window's end saturates at
    /// `u64::MAX`, so a window never wraps around the index space.
    pub fn window(
        &self,
        file: FileId,
        start: u64,
        count: u64,
    ) -> impl Iterator<Item = (u64, Pfn)> + '_ {
        self.files[file.0 as usize]
            .pages
            .range(start..start.saturating_add(count))
            .map(|(&idx, &pfn)| (idx, pfn))
    }

    /// The runs of `[start, start + count)` (end saturating as in
    /// [`PageCache::window`]) that `file` does not cache, in index order,
    /// and the file's full run once they are filled. A window that starts
    /// at or after the remembered run's first index and ends at or before
    /// its next cached index is answered from the memo; any other takes one
    /// ordered walk, which reads on to the first cached index past the
    /// window. There is at most
    /// one run more than there are cached pages, whatever `count` is.
    fn gaps(&self, file: FileId, start: u64, count: u64) -> (Vec<Range<u64>>, FullRun) {
        let entry = &self.files[file.0 as usize];
        let end = start.saturating_add(count);
        if let Some(run) = &entry.full {
            if run.cached.start <= start && end <= run.next_cached {
                let from = start.max(run.cached.end);
                let gaps = Vec::from_iter((from < end).then_some(from..end));
                let cached = if start <= run.cached.end {
                    run.cached.start..end.max(run.cached.end)
                } else {
                    start..end
                };
                return (gaps, FullRun { cached, next_cached: run.next_cached });
            }
        }
        let mut gaps = Vec::new();
        let mut next = start;
        let mut next_cached = u64::MAX;
        for &index in entry.pages.range(start..).map(|(index, _)| index) {
            if index >= end {
                next_cached = index;
                break;
            }
            if index > next {
                gaps.push(next..index);
            }
            // Cannot overflow: `index` lies below the window's end.
            next = index + 1;
        }
        if next < end {
            gaps.push(next..end);
        }
        (gaps, FullRun { cached: start..end, next_cached })
    }

    /// The frames of `file` in file-page order.
    pub fn frames_of(&self, file: FileId) -> Vec<Pfn> {
        self.files[file.0 as usize].pages.values().copied().collect()
    }

    /// Iterates `(file page index, frame)` pairs of `file` in index order —
    /// the reverse-map source for reclaim, compaction, and the auditor.
    pub fn pages_of(&self, file: FileId) -> impl Iterator<Item = (u64, Pfn)> + '_ {
        self.files[file.0 as usize].pages.iter().map(|(&idx, &pfn)| (idx, pfn))
    }

    /// Retargets a cached page onto a different frame (compaction migrated
    /// its contents). The caller owns both frames' buddy bookkeeping. The
    /// set of cached indices stays the same, so the full run stays valid.
    pub(crate) fn relocate_page(&mut self, file: FileId, index: u64, new_pfn: Pfn) {
        let entry = self.files[file.0 as usize]
            .pages
            .get_mut(&index)
            .expect("relocating a page that is not cached");
        *entry = new_pfn;
    }

    /// Ensures file pages `[start, start + count)` are cached, allocating
    /// missing ones in index order according to the cache's discipline; the
    /// window is clamped to the index space as in [`PageCache::window`].
    /// Default-mode readahead batches the whole window through
    /// [`Machine::alloc_bulk`] — one zone pass instead of one scan per page;
    /// CA mode keeps the per-page targeted path (each page has its own
    /// designated frame). A readahead that completes remembers the window as
    /// the file's full run, so the next sequential fault's window finds its
    /// gap without a walk; one that fails forgets it.
    ///
    /// # Errors
    ///
    /// [`AllocError::OutOfMemory`] when physical memory is exhausted; pages
    /// allocated before the failure remain cached.
    pub fn readahead(
        &mut self,
        machine: &mut Machine,
        file: FileId,
        start: u64,
        count: u64,
    ) -> Result<(), AllocError> {
        let (gaps, filled) = self.gaps(file, start, count);
        self.files[file.0 as usize].full = None;
        if matches!(self.mode, CacheAllocMode::Default) {
            let (frames, err) = machine.alloc_bulk(gaps.iter().map(|g| g.end - g.start).sum());
            for (index, pfn) in gaps.into_iter().flatten().zip(frames) {
                self.readahead_allocs += 1;
                self.files[file.0 as usize].pages.insert(index, pfn);
            }
            if let Some(e) = err {
                return Err(e);
            }
        } else {
            for index in gaps.into_iter().flatten() {
                let pfn = self.alloc_contiguous(machine, file, index)?;
                self.readahead_allocs += 1;
                self.files[file.0 as usize].pages.insert(index, pfn);
            }
        }
        self.files[file.0 as usize].full = Some(filled);
        Ok(())
    }

    /// CA readahead: derive the target from the per-file offset; on a busy
    /// target or missing offset, run a placement decision over the
    /// contiguity map and record a fresh offset.
    fn alloc_contiguous(
        &mut self,
        machine: &mut Machine,
        file: FileId,
        index: u64,
    ) -> Result<Pfn, AllocError> {
        // Indices past 2^52 wrap the file's byte space. The offset is only a
        // placement hint and every target is checked free, so a wrapped
        // address costs at most a fresh placement decision.
        let file_va = VirtAddr::new(index.wrapping_mul(PageSize::Base4K.bytes()));
        let entry = &mut self.files[file.0 as usize];
        if let Some(off) = entry.offset {
            if let Some(target) = off.target_frame(file_va.page_number()) {
                if machine.alloc_page_at(target, PageSize::Base4K).is_ok() {
                    return Ok(target);
                }
            }
        }
        // Placement decision: steer the rest of the file to a free cluster.
        if let Some(cluster) = machine.next_fit_cluster(PageSize::Huge2M.bytes()) {
            let target = cluster.first_page();
            if machine.alloc_page_at(target, PageSize::Base4K).is_ok() {
                entry.offset =
                    Some(MapOffset::between(file_va, contig_types::PhysAddr::from(target)));
                return Ok(target);
            }
        }
        entry.offset = None;
        machine.alloc_page(PageSize::Base4K)
    }

    /// Evicts the cached pages of `file` whose index satisfies `pred`,
    /// returning their frames; the rest stay cached. Kernel reclaim under
    /// pressure behaves like this — it frees page ranges by LRU order, not
    /// whole files, leaving scattered long-lived remnants behind (the
    /// fragmentation driver of the paper's Fig. 1b).
    pub fn evict_pages_where(
        &mut self,
        machine: &mut Machine,
        file: FileId,
        pred: impl Fn(u64) -> bool,
    ) -> u64 {
        let entry = &mut self.files[file.0 as usize];
        entry.full = None;
        let victims: Vec<(u64, Pfn)> = entry
            .pages
            .iter()
            .filter(|(&idx, _)| pred(idx))
            .map(|(&idx, &pfn)| (idx, pfn))
            .collect();
        let count = victims.len() as u64;
        for (idx, pfn) in victims {
            entry.pages.remove(&idx);
            machine.free_page(pfn, PageSize::Base4K);
        }
        count
    }

    /// Drops every cached page of `file`, returning the frames to the
    /// machine.
    pub fn evict_file(&mut self, machine: &mut Machine, file: FileId) {
        let pages = std::mem::take(&mut self.files[file.0 as usize].pages);
        for (_, pfn) in pages {
            machine.free_page(pfn, PageSize::Base4K);
        }
        self.files[file.0 as usize].offset = None;
        self.files[file.0 as usize].full = None;
    }

    /// Captures the cache as plain data for a crash-consistency checkpoint.
    pub fn snapshot(&self) -> PageCacheSnapshot {
        PageCacheSnapshot {
            mode: self.mode,
            readahead_allocs: self.readahead_allocs,
            files: self
                .files
                .iter()
                .map(|f| FileCacheSnapshot {
                    pages: f.pages.iter().map(|(&idx, &pfn)| (idx, pfn.raw())).collect(),
                    offset: f.offset.map(|o| o.0),
                })
                .collect(),
        }
    }

    /// Rebuilds a cache from a checkpoint. The caller is responsible for the
    /// machine-side frame state (restored from the same snapshot).
    pub(crate) fn from_snapshot(snap: &PageCacheSnapshot) -> Self {
        Self {
            files: snap
                .files
                .iter()
                .map(|f| CachedFile {
                    pages: f.pages.iter().map(|&(idx, pfn)| (idx, Pfn::new(pfn))).collect(),
                    offset: f.offset.map(MapOffset),
                    full: None,
                })
                .collect(),
            mode: snap.mode,
            readahead_allocs: snap.readahead_allocs,
        }
    }
}

contig_types::wire_struct! {
    /// Plain-data image of one cached file.
    #[derive(Clone, Debug, PartialEq, Eq)]
    pub struct FileCacheSnapshot {
        /// `(file page index, raw frame number)` pairs in index order.
        pub pages: Vec<(u64, u64)>,
        /// The CA per-file offset, if one is recorded.
        pub offset: Option<i128>,
    }
}

contig_types::wire_struct! {
    /// Plain-data image of the whole page cache, for [`PageCache::snapshot`].
    #[derive(Clone, Debug, PartialEq, Eq)]
    pub struct PageCacheSnapshot {
        /// Allocation discipline in force.
        pub mode: CacheAllocMode,
        /// Monotonic readahead-allocation counter.
        pub readahead_allocs: u64,
        /// Per-file images, indexed by [`FileId`] value.
        pub files: Vec<FileCacheSnapshot>,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use contig_buddy::MachineConfig;
    use proptest::prelude::*;

    fn machine() -> Machine {
        Machine::new(MachineConfig::single_node_mib(32))
    }

    #[test]
    fn default_mode_caches_pages() {
        let mut m = machine();
        let mut cache = PageCache::new(CacheAllocMode::Default);
        let f = cache.create_file();
        cache.readahead(&mut m, f, 0, 16).unwrap();
        assert_eq!(cache.cached_pages(f), 16);
        assert_eq!(m.free_frames(), m.total_frames() - 16);
        // Repeated readahead is idempotent.
        cache.readahead(&mut m, f, 0, 16).unwrap();
        assert_eq!(cache.readahead_allocs, 16);
    }

    #[test]
    fn ca_mode_allocates_contiguously_across_calls() {
        let mut m = machine();
        let mut cache = PageCache::new(CacheAllocMode::CaContiguous);
        let f = cache.create_file();
        cache.readahead(&mut m, f, 0, 8).unwrap();
        cache.readahead(&mut m, f, 8, 8).unwrap();
        let frames = cache.frames_of(f);
        assert_eq!(frames.len(), 16);
        assert!(
            frames.windows(2).all(|w| w[1].raw() == w[0].raw() + 1),
            "file frames not consecutive: {frames:?}"
        );
    }

    #[test]
    fn interleaved_files_stay_internally_contiguous() {
        let mut m = machine();
        let mut cache = PageCache::new(CacheAllocMode::CaContiguous);
        let a = cache.create_file();
        let b = cache.create_file();
        for chunk in 0..4 {
            cache.readahead(&mut m, a, chunk * 4, 4).unwrap();
            cache.readahead(&mut m, b, chunk * 4, 4).unwrap();
        }
        for f in [a, b] {
            let frames = cache.frames_of(f);
            assert!(
                frames.windows(2).all(|w| w[1].raw() == w[0].raw() + 1),
                "file {f:?} frames scattered: {frames:?}"
            );
        }
    }

    #[test]
    fn eviction_returns_frames() {
        let mut m = machine();
        let mut cache = PageCache::new(CacheAllocMode::CaContiguous);
        let f = cache.create_file();
        cache.readahead(&mut m, f, 0, 32).unwrap();
        cache.evict_file(&mut m, f);
        assert_eq!(cache.cached_pages(f), 0);
        assert_eq!(m.free_frames(), m.total_frames());
        m.verify_integrity();
    }

    #[test]
    fn out_of_memory_is_reported() {
        let mut m = Machine::new(MachineConfig::with_node_mib(&[1]));
        let mut cache = PageCache::new(CacheAllocMode::Default);
        let f = cache.create_file();
        let err = cache.readahead(&mut m, f, 0, 1000).unwrap_err();
        assert!(matches!(err, AllocError::OutOfMemory { .. }));
        assert_eq!(cache.cached_pages(f), 256);
    }

    /// One step of the memo property test.
    #[derive(Clone, Copy, Debug)]
    enum Op {
        Readahead { file: usize, start: u64, count: u64 },
        EvictWhere { file: usize, modulus: u64, rem: u64 },
        EvictFile { file: usize },
        Relocate { file: usize, nth: usize },
        Restore,
    }

    /// A window start near the bottom of the index space, mostly close to
    /// the last one so windows run on from each other, or within a few
    /// windows of its top.
    fn start() -> impl Strategy<Value = u64> {
        (0u64..8, 0u64..160).prop_map(|(kind, x)| if kind == 0 { u64::MAX - x } else { x })
    }

    fn op() -> impl Strategy<Value = Op> {
        let file = 0usize..2;
        prop_oneof![
            (file.clone(), start(), 0u64..48)
                .prop_map(|(file, start, count)| Op::Readahead { file, start, count }),
            (file.clone(), 1u64..5, 0u64..5)
                .prop_map(|(file, modulus, rem)| Op::EvictWhere { file, modulus, rem }),
            file.clone().prop_map(|file| Op::EvictFile { file }),
            (file, 0usize..64).prop_map(|(file, nth)| Op::Relocate { file, nth }),
            Just(Op::Restore),
        ]
    }

    /// `gaps` as a walk over every index of the window, with no memo.
    fn reference_gaps(cache: &PageCache, file: FileId, start: u64, count: u64) -> Vec<Range<u64>> {
        let pages = &cache.files[file.0 as usize].pages;
        let mut gaps: Vec<Range<u64>> = Vec::new();
        for index in start..start.saturating_add(count) {
            if pages.contains_key(&index) {
                continue;
            }
            match gaps.last_mut() {
                Some(gap) if gap.end == index => gap.end += 1,
                _ => gaps.push(index..index + 1),
            }
        }
        gaps
    }

    fn apply(cache: &mut PageCache, machine: &mut Machine, files: &[FileId], op: Op) {
        match op {
            Op::Readahead { file, start, count } => {
                // Running out partway must forget the run.
                let _ = cache.readahead(machine, files[file], start, count);
            }
            Op::EvictWhere { file, modulus, rem } => {
                cache.evict_pages_where(machine, files[file], |i| i % modulus == rem);
            }
            Op::EvictFile { file } => cache.evict_file(machine, files[file]),
            Op::Relocate { file, nth } => {
                let pages: Vec<_> = cache.pages_of(files[file]).collect();
                if let (Some(&(index, old)), Ok(new)) =
                    (pages.get(nth % pages.len().max(1)), machine.alloc_page(PageSize::Base4K))
                {
                    cache.relocate_page(files[file], index, new);
                    machine.free_page(old, PageSize::Base4K);
                }
            }
            Op::Restore => *cache = PageCache::from_snapshot(&cache.snapshot()),
        }
    }

    proptest! {
        /// The full-run memo only caches: after every step each file's run
        /// holds only cached indices and no cached index lies between its end
        /// and its next cached index, `gaps` agrees with an index-by-index
        /// walk on the step's window and on a probe window, and the cache
        /// and machine match a copy whose memos are cleared before each step.
        #[test]
        fn full_run_memo_agrees_with_the_page_map(
            ca in any::<bool>(),
            free in 16u64..256,
            steps in proptest::collection::vec((op(), 0usize..2, start(), 0u64..48), 1..80),
        ) {
            let mode = if ca { CacheAllocMode::CaContiguous } else { CacheAllocMode::Default };
            let mut m = Machine::new(MachineConfig::single_node_mib(1));
            let mut ref_m = Machine::new(MachineConfig::single_node_mib(1));
            // Leave `free` frames, so readahead runs out of memory partway.
            for machine in [&mut m, &mut ref_m] {
                let total = machine.total_frames();
                let (_, err) = machine.alloc_bulk(total - free);
                prop_assert!(err.is_none());
            }
            let mut cache = PageCache::new(mode);
            let files = [cache.create_file(), cache.create_file()];
            let mut reference = cache.clone();
            for (step, (op, probe_file, probe_start, probe_count)) in steps.into_iter().enumerate() {
                if let Op::Readahead { file, start, count } = op {
                    prop_assert_eq!(
                        cache.gaps(files[file], start, count).0,
                        reference_gaps(&cache, files[file], start, count),
                        "step {}: {:?}", step, op
                    );
                }
                for f in &mut reference.files {
                    f.full = None;
                }
                apply(&mut cache, &mut m, &files, op);
                apply(&mut reference, &mut ref_m, &files, op);
                for entry in &cache.files {
                    if let Some(run) = &entry.full {
                        prop_assert!(
                            run.cached.clone().all(|i| entry.pages.contains_key(&i)),
                            "step {}: {:?} run {:?} not cached", step, op, run
                        );
                        prop_assert!(
                            entry.pages.range(run.cached.end..run.next_cached).next().is_none(),
                            "step {}: {:?} cached page inside {:?}'s gap", step, op, run
                        );
                    }
                }
                prop_assert_eq!(
                    cache.gaps(files[probe_file], probe_start, probe_count).0,
                    reference_gaps(&cache, files[probe_file], probe_start, probe_count),
                    "step {}: {:?} probe {}..+{}", step, op, probe_start, probe_count
                );
                prop_assert_eq!(cache.snapshot(), reference.snapshot(), "step {}: {:?}", step, op);
                prop_assert_eq!(m.snapshot(), ref_m.snapshot(), "step {}: {:?}", step, op);
            }
            m.verify_integrity();
        }
    }
}
