//! The page cache's ordered window walk against the per-index loops it
//! replaced, and file faults at the top of the file-page index space.

use std::collections::BTreeMap;

use proptest::prelude::*;

use contig_buddy::{Machine, MachineConfig};
use contig_mm::{
    CacheAllocMode, DefaultThpPolicy, FileCacheSnapshot, PageCache, PageCacheSnapshot, System,
    SystemConfig, VmaKind,
};
use contig_types::{
    AllocError, FaultError, MapOffset, PageSize, Pfn, PhysAddr, VirtAddr, VirtRange,
};

const FILES: usize = 3;

/// The page cache as the per-index loops saw it: `readahead` probing every
/// index of its window with `contains_key`, and the nested fault's window
/// read with one `lookup` per index. Transcribed from the code before the
/// window walk; the one change is the window end, which saturates at
/// `u64::MAX` where the old loops overflowed.
struct Reference {
    ca: bool,
    files: Vec<(BTreeMap<u64, Pfn>, Option<MapOffset>)>,
    readahead_allocs: u64,
}

impl Reference {
    fn readahead(
        &mut self,
        machine: &mut Machine,
        file: usize,
        start: u64,
        count: u64,
    ) -> Result<(), AllocError> {
        let end = start.saturating_add(count);
        if !self.ca {
            let missing: Vec<u64> =
                (start..end).filter(|index| !self.files[file].0.contains_key(index)).collect();
            let (frames, err) = machine.alloc_bulk(missing.len() as u64);
            for (&index, &pfn) in missing.iter().zip(&frames) {
                self.readahead_allocs += 1;
                self.files[file].0.insert(index, pfn);
            }
            return match err {
                Some(e) => Err(e),
                None => Ok(()),
            };
        }
        for index in start..end {
            if self.files[file].0.contains_key(&index) {
                continue;
            }
            let pfn = self.alloc_contiguous(machine, file, index)?;
            self.readahead_allocs += 1;
            self.files[file].0.insert(index, pfn);
        }
        Ok(())
    }

    fn alloc_contiguous(
        &mut self,
        machine: &mut Machine,
        file: usize,
        index: u64,
    ) -> Result<Pfn, AllocError> {
        let file_va = VirtAddr::new(index.wrapping_mul(PageSize::Base4K.bytes()));
        let offset = &mut self.files[file].1;
        if let Some(off) = *offset {
            if let Some(target) = off.target_frame(file_va.page_number()) {
                if machine.alloc_page_at(target, PageSize::Base4K).is_ok() {
                    return Ok(target);
                }
            }
        }
        if let Some(cluster) = machine.next_fit_cluster(PageSize::Huge2M.bytes()) {
            let target = cluster.first_page();
            if machine.alloc_page_at(target, PageSize::Base4K).is_ok() {
                *offset = Some(MapOffset::between(file_va, PhysAddr::from(target)));
                return Ok(target);
            }
        }
        *offset = None;
        machine.alloc_page(PageSize::Base4K)
    }

    /// The nested fault's window read: one lookup per index.
    fn window(&self, file: usize, start: u64, count: u64) -> Vec<(u64, Pfn)> {
        let mut frames = Vec::new();
        for i in start..start.saturating_add(count) {
            if let Some(&pfn) = self.files[file].0.get(&i) {
                frames.push((i, pfn));
            }
        }
        frames
    }

    fn evict_pages_where(
        &mut self,
        machine: &mut Machine,
        file: usize,
        pred: impl Fn(u64) -> bool,
    ) {
        let victims: Vec<(u64, Pfn)> =
            self.files[file].0.iter().filter(|(&i, _)| pred(i)).map(|(&i, &p)| (i, p)).collect();
        for (i, pfn) in victims {
            self.files[file].0.remove(&i);
            machine.free_page(pfn, PageSize::Base4K);
        }
    }

    fn evict_file(&mut self, machine: &mut Machine, file: usize) {
        for (_, pfn) in std::mem::take(&mut self.files[file].0) {
            machine.free_page(pfn, PageSize::Base4K);
        }
        self.files[file].1 = None;
    }

    fn snapshot(&self) -> PageCacheSnapshot {
        PageCacheSnapshot {
            mode: if self.ca { CacheAllocMode::CaContiguous } else { CacheAllocMode::Default },
            readahead_allocs: self.readahead_allocs,
            files: self
                .files
                .iter()
                .map(|(pages, offset)| FileCacheSnapshot {
                    pages: pages.iter().map(|(&i, &p)| (i, p.raw())).collect(),
                    offset: offset.map(|o| o.raw()),
                })
                .collect(),
        }
    }
}

#[derive(Clone, Copy, Debug)]
enum Op {
    Readahead { file: usize, start: u64, count: u64 },
    Window { file: usize, start: u64, count: u64 },
    EvictWhere { file: usize, modulus: u64, rem: u64 },
    EvictFile { file: usize },
}

/// A window start near the bottom of the index space or within a few
/// windows of its top, so windows that end at — or would run past —
/// `u64::MAX` come up often.
fn start() -> impl Strategy<Value = u64> {
    (any::<bool>(), 0u64..160).prop_map(|(top, x)| if top { u64::MAX - x } else { x })
}

fn op() -> impl Strategy<Value = Op> {
    let file = 0usize..FILES;
    prop_oneof![
        (file.clone(), start(), 0u64..96)
            .prop_map(|(file, start, count)| Op::Readahead { file, start, count }),
        (file.clone(), start(), 0u64..96)
            .prop_map(|(file, start, count)| Op::Window { file, start, count }),
        (file.clone(), 1u64..5, 0u64..5)
            .prop_map(|(file, modulus, rem)| Op::EvictWhere { file, modulus, rem }),
        file.prop_map(|file| Op::EvictFile { file }),
    ]
}

proptest! {
    /// Any interleaving of readahead (either discipline), evictions and
    /// window reads leaves the cache — pages, frames, per-file offsets and
    /// the allocation counter — and the machine exactly as the per-index
    /// loops do, with the same errors and the same window frame lists. The
    /// 4 MiB machine runs out of memory, so the partial-allocation error
    /// point is exercised too.
    #[test]
    fn window_walk_matches_the_per_index_loops(
        ca in any::<bool>(),
        ops in proptest::collection::vec(op(), 1..60),
    ) {
        let mode = if ca { CacheAllocMode::CaContiguous } else { CacheAllocMode::Default };
        let mut machine = Machine::new(MachineConfig::single_node_mib(4));
        let mut ref_machine = Machine::new(MachineConfig::single_node_mib(4));
        let mut cache = PageCache::new(mode);
        let files: Vec<_> = (0..FILES).map(|_| cache.create_file()).collect();
        let mut reference =
            Reference { ca, files: vec![(BTreeMap::new(), None); FILES], readahead_allocs: 0 };
        for (step, op) in ops.into_iter().enumerate() {
            match op {
                Op::Readahead { file, start, count } => {
                    let got = cache.readahead(&mut machine, files[file], start, count);
                    let want = reference.readahead(&mut ref_machine, file, start, count);
                    prop_assert_eq!(got, want, "step {}: {:?}", step, op);
                }
                Op::Window { file, start, count } => {
                    let got: Vec<_> = cache.window(files[file], start, count).collect();
                    let want = reference.window(file, start, count);
                    prop_assert_eq!(got, want, "step {}: {:?}", step, op);
                }
                Op::EvictWhere { file, modulus, rem } => {
                    cache.evict_pages_where(&mut machine, files[file], |i| i % modulus == rem);
                    reference.evict_pages_where(&mut ref_machine, file, |i| i % modulus == rem);
                }
                Op::EvictFile { file } => {
                    cache.evict_file(&mut machine, files[file]);
                    reference.evict_file(&mut ref_machine, file);
                }
            }
            prop_assert_eq!(cache.snapshot(), reference.snapshot(), "step {}: {:?}", step, op);
            prop_assert_eq!(machine.snapshot(), ref_machine.snapshot(), "step {}: {:?}", step, op);
        }
        machine.verify_integrity();
    }
}

/// A file VMA whose pages run past the last file-page index: the pages
/// inside the index space fault in, with a readahead window clamped to it,
/// and the pages past it are unmapped addresses — neither an overflow
/// panic nor an out-of-memory error with memory free, nor a page mapping a
/// wrapped-around file index.
#[test]
fn file_pages_past_the_index_space_are_unmapped() {
    const BASE: u64 = 0x4000_0000;
    for mode in [CacheAllocMode::Default, CacheAllocMode::CaContiguous] {
        let mut config = SystemConfig::new(MachineConfig::single_node_mib(16));
        config.cache_mode = mode;
        let mut sys = System::new(config);
        let file = sys.page_cache_mut().create_file();
        let pid = sys.spawn();
        sys.aspace_mut(pid).map_vma(
            VirtRange::new(VirtAddr::new(BASE), 64 * 4096),
            VmaKind::File { file, start_page: u64::MAX - 4 },
        );
        let page = |i: u64| VirtAddr::new(BASE + i * 4096);
        let mut policy = DefaultThpPolicy;

        let first = sys.touch(&mut policy, pid, page(0)).expect("page 0 is file page MAX - 4");
        assert_eq!(sys.page_cache().cached_pages(file), 4, "{mode:?}: window clamped to 4 pages");
        assert_eq!(sys.page_cache().lookup(file, u64::MAX - 4), Some(first.pfn));
        let last = sys.touch(&mut policy, pid, page(3)).expect("page 3 is file page MAX - 1");
        assert_eq!(sys.page_cache().lookup(file, u64::MAX - 1), Some(last.pfn));
        for i in [4, 5, 10, 63] {
            assert_eq!(
                sys.touch(&mut policy, pid, page(i)),
                Err(FaultError::UnmappedAddress { addr: page(i) }),
                "{mode:?}: page {i} lies past the index space"
            );
        }
        assert_eq!(sys.page_cache().cached_pages(file), 4);
        assert_eq!(sys.machine().free_frames(), sys.machine().total_frames() - 4);
        sys.machine().verify_integrity();
    }
}
