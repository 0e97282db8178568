//! The reverse map, the block move and the huge-page collapse: the one
//! answer to "who uses this frame?" and the one way to migrate what they use.
//!
//! Post-allocation migration is the cost CA paging avoids, so the simulator
//! models it in full — find every user of a frame, copy, repoint, free — and
//! every mover (direct compaction and reclaim in [`crate::recovery`], heal
//! and soft-offline in [`crate::poison`], the maintenance daemon, the paper's
//! Translation Ranger baseline, the hypervisor's guest-MCE delivery) does it
//! through this module: [`FrameUsers`] is the lookup, [`System::classify_movable`]
//! the only spelling of "movable", [`System::repoint`] the only reference
//! rewrite and [`System::move_block`] the whole move. [`System::collapse`] is
//! the one 2 MiB collapse (khugepaged's): the daemon collapses full windows
//! and `contig-baselines`' Ingens windows at least 90 % utilised, and both
//! go through the same validity checks, frame claim and clock charge. Each
//! caller keeps its own *selection* rules; the mechanism is shared.
//!
//! **Freshness.** A [`FrameUsers`] is valid for the state it was built from
//! plus the moves made *through* it ([`System::move_block`] re-keys it). A
//! fault, `reclaim_cache_pages`, a collapse or the recovery escalation
//! behind `alloc_with_recovery` invalidates it. Movers that allocate with
//! recovery therefore classify first (allocating first would move
//! `buddy.alloc` counts), allocate, then re-validate the chosen
//! [`MoveKind`] with [`System::still_names`] before touching anything. The
//! daemon keeps one map across a whole tick, collapses included: the frames
//! a collapse frees stay keyed but are no longer allocated blocks (a later
//! move onto one overwrites its key), and the huge block it maps is unkeyed,
//! so the stale map can only answer "not movable".
//! Strikes on free or pcp-resident frames build no map at all.
//!
//! Deliberately apart: [`System::audit`] (the checker must not share the
//! mechanism it checks).

use std::collections::hash_map::{DefaultHasher, Entry};
use std::collections::HashMap;
use std::hash::BuildHasherDefault;

use contig_buddy::{FrameState, NodeId};
use contig_types::{PageSize, Pfn, VirtAddr, VirtRange};

use crate::page_cache::FileId;
use crate::pte::{Pte, PteFlags};
use crate::stats::ZERO_PAGE_NS;
use crate::system::{Pid, System};
use crate::vma::VmaKind;

/// One PTE naming a mapping-head frame: `(pid, va, size, flags)`.
pub type PteRef = (Pid, VirtAddr, PageSize, PteFlags);

/// One mapping referencing a frame block:
/// `(pid, head va, size, flags, head pfn)`.
pub type FrameRef = (Pid, VirtAddr, PageSize, PteFlags, Pfn);

/// Every user of every frame, built once by [`System::frame_users`]:
/// mapping-head frame → its PTEs in pid-then-va order, cached frame → its
/// page-cache slot. Valid for the state it was built from (plus the block
/// moves the crate makes through it): a fault, an exit, a reclaim or a
/// daemon tick afterwards makes it stale.
#[derive(Debug, PartialEq, Eq)]
pub struct FrameUsers {
    ptes: PfnMap<PteRefs>,
    cache: PfnMap<(FileId, u64)>,
}

/// A map keyed by frame number, hashed with a fixed key: frame numbers are
/// not chosen by an adversary, and skipping the per-map random key made
/// ranger-heavy figures (which build one map per epoch) measurably faster.
type PfnMap<V> = HashMap<Pfn, V, BuildHasherDefault<DefaultHasher>>;

fn pfn_map<V>(capacity: u64) -> PfnMap<V> {
    PfnMap::with_capacity_and_hasher(capacity as usize, Default::default())
}

/// The PTEs of one mapping-head frame. Almost every frame has exactly one,
/// so it is stored inline; only COW sharers spill to a `Vec`.
#[derive(Debug, PartialEq, Eq)]
enum PteRefs {
    One(PteRef),
    Many(Vec<PteRef>),
}

impl PteRefs {
    fn push(&mut self, r: PteRef) {
        match self {
            PteRefs::One(first) => *self = PteRefs::Many(vec![*first, r]),
            PteRefs::Many(refs) => refs.push(r),
        }
    }

    fn as_slice(&self) -> &[PteRef] {
        match self {
            PteRefs::One(r) => std::slice::from_ref(r),
            PteRefs::Many(refs) => refs,
        }
    }
}

impl FrameUsers {
    /// The PTEs whose mapping starts at frame `head`, pid-then-va ordered.
    pub fn mappings_of(&self, head: Pfn) -> &[PteRef] {
        self.ptes.get(&head).map_or(&[], PteRefs::as_slice)
    }

    /// The page-cache slot holding `pfn`, if any.
    pub fn cache_slot(&self, pfn: Pfn) -> Option<(FileId, u64)> {
        self.cache.get(&pfn).copied()
    }

    /// Every mapping whose frame block covers `pfn` — those starting at
    /// `pfn` itself plus huge mappings starting at its 2 MiB-aligned head —
    /// in pid-then-va order.
    pub fn covering(&self, pfn: Pfn) -> Vec<FrameRef> {
        let huge_head = Pfn::new(pfn.raw() & !(PageSize::Huge2M.base_pages() - 1));
        let at = |head: Pfn| self.mappings_of(head).iter().map(move |&(p, v, s, f)| (p, v, s, f, head));
        let mut refs: Vec<FrameRef> = at(pfn).collect();
        if huge_head != pfn {
            refs.extend(at(huge_head).filter(|r| r.2 == PageSize::Huge2M));
            refs.sort_unstable_by_key(|r| (r.0, r.1));
        }
        refs
    }
}

/// Where [`System::move_block`] puts a block.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Dest {
    /// The free block at this frame, claimed in whichever zone owns it.
    At(Pfn),
    /// Wherever default placement puts a block of the order: node 0 first,
    /// then the others in wrap-around order.
    Anywhere,
}

/// Why [`System::collapse`] left a window at 4 KiB.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum CollapseError {
    /// The window fails a validity check (see [`System::collapse`]).
    Refused,
    /// No node had a free 2 MiB block.
    NoHugeFrame,
}

/// How one movable block is referenced, so a move can fix every pointer.
pub(crate) enum MoveKind {
    /// Exactly one anonymous PTE covering the whole block.
    Anon { pid: Pid, va: VirtAddr, flags: PteFlags },
    /// A page-cache page (order 0) plus the FILE PTEs referencing it.
    Cache { file: FileId, index: u64, ptes: Vec<(Pid, VirtAddr, PteFlags)> },
}

impl System {
    /// Builds the reverse map of the current state: one walk of every page
    /// table (pids ascending) and of every file's cached pages.
    pub fn frame_users(&self) -> FrameUsers {
        // Sized up front: at most one key per leaf, one per cached page.
        let tables = || self.processes.iter().map(|(pid, aspace)| (pid, aspace.page_table()));
        let leaves = tables().map(|(_, pt)| pt.mapped_base_pages() + pt.mapped_huge_pages());
        let mut ptes: PfnMap<PteRefs> = pfn_map(leaves.sum());
        for (pid, pt) in tables() {
            for m in pt.iter_mappings() {
                let r = (pid, m.va, m.size, m.pte.flags);
                match ptes.entry(m.pte.pfn) {
                    Entry::Occupied(refs) => refs.into_mut().push(r),
                    Entry::Vacant(slot) => _ = slot.insert(PteRefs::One(r)),
                }
            }
        }
        let files = (0..self.page_cache.file_count()).map(FileId);
        let pages = files.clone().map(|file| self.page_cache.cached_pages(file));
        let mut cache = pfn_map(pages.sum());
        for file in files {
            for (index, pfn) in self.page_cache.pages_of(file) {
                cache.insert(pfn, (file, index));
            }
        }
        FrameUsers { ptes, cache }
    }

    /// Decides whether the allocated block `[head, head + 2^order)` can be
    /// migrated, and how to fix its references if so. A block is movable
    /// when every reference to it can be fixed: a single exclusive anonymous
    /// mapping exactly covering the block, or an order-0 page-cache page
    /// with only 4 KiB FILE PTEs. COW-shared frames and raw allocations with
    /// no mapping (pinned memory, fragmenter hogs) are immovable, as in the
    /// kernel.
    pub(crate) fn classify_movable(
        &self,
        head: Pfn,
        order: u32,
        users: &FrameUsers,
    ) -> Option<MoveKind> {
        // No interior frame may be independently referenced: mappings and
        // cache slots always point at allocation heads, so anything else
        // means the block is aliased in a way a move cannot fix.
        for i in 1..(1u64 << order) {
            let frame = head.add(i);
            if users.ptes.contains_key(&frame) || users.cache.contains_key(&frame) {
                return None;
            }
        }
        let refs = users.mappings_of(head);
        if let Some((file, index)) = users.cache_slot(head) {
            // A cache frame must only ever be FILE-mapped at 4 KiB;
            // anything else is aliased state the auditor reports.
            let file_only = refs
                .iter()
                .all(|r| r.2 == PageSize::Base4K && r.3.contains(PteFlags::FILE));
            return (order == 0 && file_only).then(|| MoveKind::Cache {
                file,
                index,
                ptes: refs.iter().map(|&(pid, va, _, flags)| (pid, va, flags)).collect(),
            });
        }
        let &[(pid, va, size, flags)] = refs else {
            return None; // unmapped, or shared between mappings: pinned
        };
        let exclusive = !flags.contains(PteFlags::COW)
            && !flags.contains(PteFlags::FILE)
            && self.machine.share_count(head) == 0;
        (size.order() == order && exclusive).then_some(MoveKind::Anon { pid, va, flags })
    }

    /// The process whose one exclusive anonymous mapping covers exactly the
    /// allocated block `(head, order)`, or `None` when the block is not
    /// that kind of movable (page-cache pages, shared or pinned memory).
    pub fn anon_owner(&self, head: Pfn, order: u32, users: &FrameUsers) -> Option<Pid> {
        match self.classify_movable(head, order, users)? {
            MoveKind::Anon { pid, .. } => Some(pid),
            MoveKind::Cache { .. } => None,
        }
    }

    /// Whether the references `kind` lists still name `head` — the
    /// re-validation a mover owes after anything that can invalidate the
    /// [`FrameUsers`] it classified against (see the module docs).
    pub(crate) fn still_names(&self, kind: &MoveKind, head: Pfn) -> bool {
        match *kind {
            MoveKind::Anon { pid, va, .. } => self
                .processes
                .get(pid)
                .and_then(|aspace| aspace.page_table().translate(va).ok())
                .is_some_and(|t| t.pfn == head),
            MoveKind::Cache { file, index, .. } => self.page_cache.lookup(file, index) == Some(head),
        }
    }

    /// Unmaps every PTE whose mapping starts at `head` (reclaim and the
    /// poisoned-cache-page drop, just before they evict the slot).
    pub(crate) fn unmap_mappings_of(&mut self, users: &FrameUsers, head: Pfn) {
        for &(pid, va, ..) in users.mappings_of(head) {
            if let Some(aspace) = self.processes.get_mut(pid) {
                aspace.page_table_mut().unmap(va);
            }
        }
    }

    /// Points every reference `kind` lists at `dest`: the PTE and cache-slot
    /// rewrite of a migration, nothing else. The caller owns both blocks'
    /// buddy bookkeeping, the copy cost and the statistics.
    pub(crate) fn repoint(&mut self, kind: &MoveKind, dest: Pfn) {
        let anon;
        let ptes = match kind {
            MoveKind::Anon { pid, va, flags } => {
                anon = [(*pid, *va, *flags)];
                &anon[..]
            }
            MoveKind::Cache { file, index, ptes } => {
                self.page_cache.relocate_page(*file, *index, dest);
                ptes
            }
        };
        for &(pid, va, flags) in ptes {
            if let Some(aspace) = self.processes.get_mut(pid) {
                aspace.page_table_mut().remap(va, Pte::new(dest, flags));
            }
        }
    }

    /// Migrates the allocated block `(head, order)` to `dest`: classify,
    /// claim the destination, repoint, free, charge one page copy per frame,
    /// and re-key `users` so it stays fresh. The destination may lie in
    /// another zone. Returns the frames moved, or `None` when the block is
    /// not movable or the destination claim failed (busy, or vetoed: injection
    /// may veto even migration); either way nothing changed.
    pub fn move_block(
        &mut self,
        head: Pfn,
        order: u32,
        dest: Dest,
        users: &mut FrameUsers,
    ) -> Option<u64> {
        let kind = self.classify_movable(head, order, users)?;
        let dest = match dest {
            Dest::At(pfn) => self.machine.alloc_specific(pfn, order).ok().map(|()| pfn)?,
            Dest::Anywhere => self.machine.alloc(order).ok()?,
        };
        self.repoint(&kind, dest);
        self.machine.free(head, order);
        let frames = 1u64 << order;
        self.advance_clock(frames * ZERO_PAGE_NS);
        if let Some(refs) = users.ptes.remove(&head) {
            users.ptes.insert(dest, refs);
        }
        if let Some(slot) = users.cache.remove(&head) {
            users.cache.insert(dest, slot);
        }
        Some(frames)
    }

    /// Collapses the 2 MiB window starting at `window` into one huge leaf:
    /// claims a huge frame on the owner's home node (node 0 when it has
    /// none, then wrap-around), swings the window's present 4 KiB leaves to
    /// one huge PTE with their flags, frees their frames and charges one
    /// page copy per leaf. The window need not be full; the pages it lacks
    /// come in zeroed, as khugepaged's do.
    ///
    /// Collapse preserves what every mapped address sees, so the bar is
    /// high. It refuses a window that is not 2 MiB aligned or not inside one
    /// anonymous VMA, that maps nothing or a huge leaf, or whose leaves
    /// differ in flags, are COW or FILE, share a frame, or are not each the
    /// head of their own order-0 allocation.
    ///
    /// Returns the huge frame and the leaves copied.
    ///
    /// # Errors
    ///
    /// `CollapseError::Refused` for a window the checks refuse,
    /// `CollapseError::NoHugeFrame` when no node has a free 2 MiB block;
    /// nothing changes in either case.
    pub fn collapse(&mut self, pid: Pid, window: VirtAddr) -> Result<(Pfn, u64), CollapseError> {
        let (leaves, flags) = self.collapsible(pid, window).ok_or(CollapseError::Refused)?;
        let home = NodeId(self.home_node(pid).unwrap_or(0));
        let block = self
            .machine
            .alloc_on(home, PageSize::Huge2M.order())
            .map_err(|_| CollapseError::NoHugeFrame)?;
        let pt = self.processes.get_mut(pid).expect("checked live").page_table_mut();
        for &(va, _) in &leaves {
            pt.unmap(va);
        }
        pt.map(window, Pte::new(block, flags), PageSize::Huge2M);
        for &(_, pfn) in &leaves {
            self.machine.free(pfn, 0);
        }
        let copied = leaves.len() as u64;
        self.advance_clock(copied * ZERO_PAGE_NS);
        Ok((block, copied))
    }

    /// The checks of [`System::collapse`]: the window's leaves and their
    /// common flags, or `None` when it must stay at 4 KiB.
    fn collapsible(&self, pid: Pid, window: VirtAddr) -> Option<(Vec<(VirtAddr, Pfn)>, PteFlags)> {
        let aspace = self.processes.get(pid)?;
        let range = VirtRange::new(window, PageSize::Huge2M.bytes());
        let vma = aspace.vma(aspace.vma_containing(window)?);
        let last = VirtAddr::new(range.end().raw() - PageSize::Base4K.bytes());
        let anon_vma = vma.kind() == VmaKind::Anon && vma.contains(last);
        if !window.is_aligned(PageSize::Huge2M) || !anon_vma {
            return None;
        }
        let mut leaves = Vec::with_capacity(PageSize::Huge2M.base_pages() as usize);
        let mut flags = None;
        for m in aspace.page_table().mappings_in(range) {
            let f = *flags.get_or_insert(m.pte.flags);
            let head = FrameState::AllocatedHead { order: 0 };
            let own_frame = self.machine.node_of(m.pte.pfn).is_some_and(|node| {
                self.machine.zone(node).frame_table().state(m.pte.pfn) == head
            });
            if m.size != PageSize::Base4K
                || m.pte.flags != f
                || f.contains(PteFlags::COW)
                || f.contains(PteFlags::FILE)
                || self.machine.share_count(m.pte.pfn) > 0
                || !own_frame
            {
                return None;
            }
            leaves.push((m.va, m.pte.pfn));
        }
        Some((leaves, flags?))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::policy::{BasePagesPolicy, DefaultThpPolicy};
    use crate::system::SystemConfig;
    use crate::vma::VmaKind;
    use contig_buddy::MachineConfig;
    use contig_types::VirtRange;

    /// The re-key path: a map carried through a run of `move_block`s — anon
    /// pages, mapped cache pages, a huge page — equals one
    /// rebuilt from scratch after every move.
    #[test]
    fn users_carried_through_moves_equal_a_rebuild() {
        let mut sys = System::new(SystemConfig::new(MachineConfig::single_node_mib(8)));
        let file = sys.page_cache_mut().create_file();
        let (huge, reader, anon, hole) = (sys.spawn(), sys.spawn(), sys.spawn(), sys.spawn());
        let at = |mib: u64, page: u64| VirtAddr::new((mib << 20) + page * 4096);
        sys.aspace_mut(huge).map_vma(VirtRange::new(at(64, 0), 2 << 20), VmaKind::Anon);
        let thp = sys.touch(&mut DefaultThpPolicy, huge, at(64, 0)).unwrap();
        assert_eq!(thp.size, PageSize::Huge2M);
        // 2 MiB-misaligned starts: every fault below maps one 4 KiB page,
        // and the exiting process leaves a hole after each survivor.
        let vmas = [
            (reader, 128, VmaKind::File { file, start_page: 0 }),
            (anon, 136, VmaKind::Anon),
            (hole, 144, VmaKind::Anon),
        ];
        for (pid, mib, kind) in vmas {
            sys.aspace_mut(pid).map_vma(VirtRange::new(at(mib, 1), 2 << 20), kind);
        }
        for page in 1..=200 {
            for (pid, va) in [
                (reader, at(128, page)),
                (hole, at(144, 2 * page)),
                (anon, at(136, page)),
                (hole, at(144, 2 * page + 1)),
            ] {
                sys.touch(&mut BasePagesPolicy, pid, va).unwrap();
            }
        }
        sys.exit(hole);

        let mut users = sys.frame_users();
        let inside = users.covering(thp.pfn.add(13));
        assert_eq!(inside.len(), 1);
        assert_eq!(inside[0], (huge, at(64, 0), PageSize::Huge2M, inside[0].3, thp.pfn));
        let node = NodeId(0);
        let blocks: Vec<(Pfn, u32)> = sys.machine.zone(node).frame_table().allocated_blocks().collect();
        let (mut anon_moves, mut cache_moves) = (0, 0);
        for (head, order) in blocks.into_iter().rev() {
            let Some(dest) = sys.machine.zone(node).lowest_free_block(order, head) else { continue };
            let cached = users.cache_slot(head).is_some();
            if sys.move_block(head, order, Dest::At(dest), &mut users).is_some() {
                *(if cached { &mut cache_moves } else { &mut anon_moves }) += 1;
                assert_eq!(users, sys.frame_users(), "after moving {head} to {dest}");
                assert_eq!(users.cache_slot(dest).is_some(), cached);
            }
        }
        assert!(anon_moves > 0 && cache_moves > 0, "{anon_moves} anon, {cache_moves} cache moves");
        assert!(sys.audit().is_clean(), "{}", sys.audit());
        sys.machine().verify_integrity();
    }
}
