//! Shadow paging: the hypervisor-maintained gVA→hPA table (paper §VII).
//!
//! With shadow paging the hardware walks a single-dimensional table that the
//! hypervisor keeps synchronized with the guest's: walks cost native depth
//! (4 references instead of up to 24) but every guest page-table update must
//! be propagated, which is why nested paging became the state of practice.
//! The paper notes CA paging and SpOT "are agnostic to the virtualization
//! technology and directly applicable to shadow and hybrid paging"; this
//! module lets the experiments demonstrate that claim.

use contig_mm::{PageTable, Pid, Pte, PteFlags};
use contig_types::{PageSize, VirtAddr, VirtRange};

use crate::vm::VirtualMachine;

/// A shadow gVA→hPA page table for one guest process.
///
/// # Examples
///
/// ```
/// use contig_mm::{DefaultThpPolicy, VmaKind};
/// use contig_types::{VirtAddr, VirtRange};
/// use contig_virt::{ShadowPageTable, VirtualMachine, VmConfig};
///
/// let mut vm = VirtualMachine::new(
///     VmConfig::with_mib(32, 64),
///     Box::new(DefaultThpPolicy),
///     Box::new(DefaultThpPolicy),
/// );
/// let pid = vm.guest_mut().spawn();
/// let vma = vm
///     .guest_mut()
///     .aspace_mut(pid)
///     .map_vma(VirtRange::new(VirtAddr::new(0x40_0000), 2 << 20), VmaKind::Anon);
/// vm.populate_vma(pid, vma)?;
/// let shadow = ShadowPageTable::build(&vm, pid);
/// // The shadow translates in one dimension what the nested walk composes.
/// let direct = shadow.table().translate(VirtAddr::new(0x40_1000)).unwrap();
/// let nested = vm.translate_2d(pid, VirtAddr::new(0x40_1000)).unwrap();
/// assert_eq!(direct.frame_for(VirtAddr::new(0x40_1000)).byte_offset(), nested.hpa.raw() & !0xfff);
/// # Ok::<(), contig_types::FaultError>(())
/// ```
#[derive(Debug)]
pub struct ShadowPageTable {
    shadow: PageTable,
    /// Shadow PTE installs/updates performed — each corresponds to a
    /// hypervisor trap in a real shadow-paging implementation, the cost
    /// nested paging was invented to avoid.
    sync_updates: u64,
}

impl ShadowPageTable {
    /// Builds the shadow from the current guest and nested tables.
    pub fn build(vm: &VirtualMachine, pid: Pid) -> Self {
        let mut shadow = Self { shadow: PageTable::new(), sync_updates: 0 };
        let full = VirtRange::new(VirtAddr::new(0), u64::MAX);
        shadow.sync_range(vm, pid, full);
        shadow
    }

    /// The shadow table (walkable by [`crate::NativeBackend`]).
    pub fn table(&self) -> &PageTable {
        &self.shadow
    }

    /// Shadow updates performed so far (hypervisor trap count).
    pub fn sync_updates(&self) -> u64 {
        self.sync_updates
    }

    /// Synchronizes every guest mapping inside `range` into the shadow,
    /// composing the two dimensions: a shadow leaf is huge only when the
    /// guest leaf is huge *and* its host backing is a single aligned huge
    /// frame; otherwise the guest leaf shatters into 4 KiB shadow entries
    /// (the "splintering" cost shadow paging pays for mismatched sizes).
    pub(crate) fn sync_range(&mut self, vm: &VirtualMachine, pid: Pid, range: VirtRange) {
        let leaves: Vec<_> = vm
            .guest()
            .aspace(pid)
            .page_table()
            .mappings_in(range)
            .collect();
        for leaf in leaves {
            if self.shadow.translate(leaf.va).is_ok() {
                continue; // already shadowed
            }
            let Some(t) = vm.translate_2d(pid, leaf.va) else {
                continue; // guest frame not host-backed yet
            };
            let flags = {
                let mut f = PteFlags::NONE;
                if t.write {
                    f |= PteFlags::WRITE;
                }
                if t.contig {
                    f |= PteFlags::CONTIG;
                }
                f
            };
            if t.effective_size() == PageSize::Huge2M && leaf.size == PageSize::Huge2M {
                let hpa_base = vm.translate_2d(pid, leaf.va).expect("just walked").hpa;
                self.shadow.map(
                    leaf.va,
                    Pte::new(hpa_base.page_number(), flags),
                    PageSize::Huge2M,
                );
                self.sync_updates += 1;
            } else {
                // Splinter: one shadow entry per 4 KiB page of the leaf.
                for i in 0..leaf.size.base_pages() {
                    let va = leaf.va + i * PageSize::Base4K.bytes();
                    let Some(t) = vm.translate_2d(pid, va) else { continue };
                    self.shadow.map(va, Pte::new(t.hpa.page_number(), flags), PageSize::Base4K);
                    self.sync_updates += 1;
                }
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::vm::VmConfig;
    use crate::NativeBackend;
    use contig_mm::{DefaultThpPolicy, VmaKind};
    use contig_tlb::TranslationBackend;

    fn vm_with(len: u64) -> (VirtualMachine, Pid) {
        let mut vm = VirtualMachine::new(
            VmConfig::with_mib(64, 96),
            Box::new(DefaultThpPolicy),
            Box::new(DefaultThpPolicy),
        );
        let pid = vm.guest_mut().spawn();
        let vma = vm
            .guest_mut()
            .aspace_mut(pid)
            .map_vma(VirtRange::new(VirtAddr::new(0x40_0000), len), VmaKind::Anon);
        vm.populate_vma(pid, vma).unwrap();
        (vm, pid)
    }

    #[test]
    fn shadow_agrees_with_nested_walk_everywhere() {
        let (vm, pid) = vm_with(8 << 20);
        let shadow = ShadowPageTable::build(&vm, pid);
        for i in 0..(8 << 20) / 4096 {
            let va = VirtAddr::new(0x40_0000 + i * 4096);
            let nested = vm.translate_2d(pid, va).unwrap().hpa;
            let direct = shadow.table().translate(va).unwrap().frame_for(va);
            assert_eq!(direct.byte_offset(), nested.raw() & !0xfff, "mismatch at {va}");
        }
    }

    #[test]
    fn shadow_walks_are_one_dimensional() {
        let (vm, pid) = vm_with(4 << 20);
        let shadow = ShadowPageTable::build(&vm, pid);
        let backend = NativeBackend::new(shadow.table());
        let w = backend.walk(VirtAddr::new(0x40_0000)).unwrap();
        assert!(w.refs <= 4, "shadow walk must cost native depth, got {}", w.refs);
        // The nested walk for the same address costs 2D references.
        assert!(vm.translate_2d(pid, VirtAddr::new(0x40_0000)).unwrap().walk_refs() >= 15);
    }

    #[test]
    fn huge_guest_leaves_stay_huge_when_host_allows() {
        let (vm, pid) = vm_with(4 << 20);
        let shadow = ShadowPageTable::build(&vm, pid);
        assert_eq!(shadow.table().mapped_huge_pages(), 2, "fresh VM backs huge with huge");
        assert_eq!(shadow.sync_updates(), 2, "one trap per shadow install");
    }

    #[test]
    fn splintering_when_host_backs_with_base_pages() {
        // Shred host memory so nested backing is 4 KiB.
        let mut vm = VirtualMachine::new(
            VmConfig::with_mib(16, 8),
            Box::new(DefaultThpPolicy),
            Box::new(DefaultThpPolicy),
        );
        let mut held = Vec::new();
        while let Ok(p) = vm.host_mut().machine_mut().alloc(0) {
            held.push(p);
        }
        for p in held.iter().step_by(2) {
            vm.host_mut().machine_mut().free(*p, 0);
        }
        let pid = vm.guest_mut().spawn();
        let vma = vm
            .guest_mut()
            .aspace_mut(pid)
            .map_vma(VirtRange::new(VirtAddr::new(0x40_0000), 2 << 20), VmaKind::Anon);
        vm.populate_vma(pid, vma).unwrap();
        let shadow = ShadowPageTable::build(&vm, pid);
        assert_eq!(shadow.table().mapped_huge_pages(), 0);
        assert_eq!(shadow.table().mapped_base_pages(), 512, "guest huge leaf splinters");
        assert_eq!(shadow.sync_updates(), 512, "one trap per splintered page");
    }

    #[test]
    fn incremental_sync_covers_new_mappings_only() {
        let (mut vm, pid) = vm_with(4 << 20);
        let mut shadow = ShadowPageTable::build(&vm, pid);
        let before = shadow.sync_updates();
        // New guest VMA appears afterwards.
        let vma2 = vm
            .guest_mut()
            .aspace_mut(pid)
            .map_vma(VirtRange::new(VirtAddr::new(0x4000_0000), 2 << 20), VmaKind::Anon);
        vm.populate_vma(pid, vma2).unwrap();
        shadow.sync_range(&vm, pid, VirtRange::new(VirtAddr::new(0x4000_0000), 2 << 20));
        assert!(shadow.sync_updates() > before);
        assert!(shadow.table().translate(VirtAddr::new(0x4000_0000)).is_ok());
        // Re-syncing is idempotent.
        let after = shadow.sync_updates();
        shadow.sync_range(&vm, pid, VirtRange::new(VirtAddr::new(0x4000_0000), 2 << 20));
        assert_eq!(shadow.sync_updates(), after);
    }
}
