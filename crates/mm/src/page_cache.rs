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

#[derive(Clone, Debug, Default)]
struct CachedFile {
    /// file page index -> backing frame.
    pages: BTreeMap<u64, Pfn>,
    /// CA paging per-file offset, in the file's own "virtual" space where
    /// page `i` lives at byte `i * 4096`.
    offset: Option<MapOffset>,
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
    /// from one window walk. There is at most one run more than there are
    /// cached pages, whatever `count` is.
    fn gaps(&self, file: FileId, start: u64, count: u64) -> Vec<Range<u64>> {
        let mut gaps = Vec::new();
        let mut next = start;
        for (index, _) in self.window(file, start, count) {
            if index > next {
                gaps.push(next..index);
            }
            // Cannot overflow: `index` lies below the window's end.
            next = index + 1;
        }
        let end = start.saturating_add(count);
        if next < end {
            gaps.push(next..end);
        }
        gaps
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
    /// its contents). The caller owns both frames' buddy bookkeeping.
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
    /// designated frame).
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
        let gaps = self.gaps(file, start, count);
        if matches!(self.mode, CacheAllocMode::Default) {
            let (frames, err) = machine.alloc_bulk(gaps.iter().map(|g| g.end - g.start).sum());
            for (index, pfn) in gaps.into_iter().flatten().zip(frames) {
                self.readahead_allocs += 1;
                self.files[file.0 as usize].pages.insert(index, pfn);
            }
            return match err {
                Some(e) => Err(e),
                None => Ok(()),
            };
        }
        for index in gaps.into_iter().flatten() {
            let pfn = self.alloc_contiguous(machine, file, index)?;
            self.readahead_allocs += 1;
            self.files[file.0 as usize].pages.insert(index, pfn);
        }
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
}
