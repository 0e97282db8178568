//! Two-dimensional (gVA → hPA) contiguity analysis and the translation
//! backend for the TLB simulator.
//!
//! A larger-than-a-page mapping is *effectively* contiguous only if it is
//! contiguous in both dimensions (paper §III-C): the guest may map a region
//! contiguously onto guest-physical memory that the host scattered, or vice
//! versa. The functions here compose both page tables and report the
//! composed runs — the same thing the paper's VMI tool computes by combining
//! guest and nested page-table dumps.

use contig_mm::{compose_mappings, PageTable, Pid};
use contig_tlb::{TranslationBackend, WalkResult};
use contig_types::{ContigMapping, PageSize, PhysAddr, VirtAddr, VirtRange};

use crate::vm::VirtualMachine;

/// Collects the maximal 2D contiguous mappings of one guest process:
/// runs of guest-virtual pages whose *host-physical* backing is consecutive.
///
/// # Examples
///
/// ```
/// use contig_mm::{DefaultThpPolicy, VmaKind};
/// use contig_types::{VirtAddr, VirtRange};
/// use contig_virt::{two_dimensional_mappings, VirtualMachine, VmConfig};
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
///     .map_vma(VirtRange::new(VirtAddr::new(0x40_0000), 4 << 20), VmaKind::Anon);
/// vm.populate_vma(pid, vma)?;
/// let mappings = two_dimensional_mappings(&vm, pid);
/// assert_eq!(mappings.iter().map(|m| m.len()).sum::<u64>(), 4 << 20);
/// # Ok::<(), contig_types::FaultError>(())
/// ```
pub fn two_dimensional_mappings(vm: &VirtualMachine, pid: Pid) -> Vec<ContigMapping> {
    let guest_pt = vm.guest().aspace(pid).page_table();
    let host_pt = vm.host().aspace(vm.host_pid()).page_table();
    // The host leaf the last segment came from: the 4 KiB guest leaves
    // that follow on it resolve without a walk.
    let mut host_leaf: Option<(VirtRange, PhysAddr)> = None;
    let mut segments: Vec<(VirtAddr, PhysAddr, u64)> = Vec::new();
    for m in guest_pt.iter_mappings() {
        // Split each guest leaf by the host leaves backing it.
        let leaf_bytes = m.size.bytes();
        let mut covered = 0u64;
        while covered < leaf_bytes {
            let va = m.va + covered;
            let gpa = PhysAddr::from(m.pte.pfn) + covered;
            let hva = vm.host_va_of(gpa);
            let (leaf, leaf_hpa) = match host_leaf {
                Some(found) if found.0.contains(hva) => found,
                _ => {
                    let Ok(h) = host_pt.translate(hva) else {
                        // Guest frame not backed by the host (never
                        // touched): skip one base page.
                        covered += PageSize::Base4K.bytes();
                        continue;
                    };
                    let leaf = VirtRange::new(hva.align_down(h.size), h.size.bytes());
                    let found = (leaf, PhysAddr::from(h.pfn));
                    host_leaf = Some(found);
                    found
                }
            };
            let hpa = leaf_hpa + (hva - leaf.start());
            // Length until the end of whichever leaf ends first.
            let span = (leaf.end() - hva).min(leaf_bytes - covered);
            segments.push((va, hpa, span));
            covered += span;
        }
    }
    compose_mappings(segments.into_iter())
}

/// A [`TranslationBackend`] view of one guest process, letting the TLB
/// simulator drive nested walks.
#[derive(Debug)]
pub struct VmBackend<'a> {
    vm: &'a VirtualMachine,
    guest: &'a PageTable,
    host: &'a PageTable,
}

impl<'a> VmBackend<'a> {
    /// A backend translating through `pid`'s guest page table and the VM's
    /// nested table, both resolved here, once, instead of per walk.
    ///
    /// # Panics
    ///
    /// Panics on an unknown pid.
    pub fn new(vm: &'a VirtualMachine, pid: Pid) -> Self {
        Self {
            vm,
            guest: vm.guest().aspace(pid).page_table(),
            host: vm.host().aspace(vm.host_pid()).page_table(),
        }
    }
}

impl TranslationBackend for VmBackend<'_> {
    fn walk(&self, va: VirtAddr) -> Option<WalkResult> {
        let t = self.vm.translate_through(self.guest, self.host, va)?;
        Some(WalkResult {
            pa: t.hpa,
            size: t.effective_size(),
            refs: t.walk_refs(),
            contig: t.contig,
            write: t.write,
        })
    }
}

/// A native (one-dimensional) backend over a process page table, for the
/// paper's native-execution configurations.
#[derive(Debug)]
pub struct NativeBackend<'a> {
    pt: &'a PageTable,
}

impl<'a> NativeBackend<'a> {
    /// A backend walking the given page table.
    pub fn new(pt: &'a PageTable) -> Self {
        Self { pt }
    }
}

impl TranslationBackend for NativeBackend<'_> {
    fn walk(&self, va: VirtAddr) -> Option<WalkResult> {
        let t = self.pt.translate(va).ok()?;
        Some(WalkResult {
            pa: PhysAddr::from(t.frame_for(va)) + va.page_offset(PageSize::Base4K),
            size: t.size,
            refs: t.levels,
            contig: t.flags.contains(contig_mm::PteFlags::CONTIG),
            write: t.flags.contains(contig_mm::PteFlags::WRITE),
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use contig_mm::{DefaultThpPolicy, VmaKind};

    fn vm_with_populated(guest_mib: u64, host_mib: u64, len: u64) -> (VirtualMachine, Pid) {
        let mut vm = VirtualMachine::new(
            crate::vm::VmConfig::with_mib(guest_mib, host_mib),
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
    fn fresh_vm_composes_fully() {
        let (vm, pid) = vm_with_populated(64, 128, 16 << 20);
        let m = two_dimensional_mappings(&vm, pid);
        let total: u64 = m.iter().map(|x| x.len()).sum();
        assert_eq!(total, 16 << 20, "every mapped byte appears in some 2D run");
        // On a fresh VM both allocators hand out consecutive blocks, so the
        // footprint composes into few runs.
        assert!(m.len() <= 16, "expected few 2D runs on a fresh VM, got {}", m.len());
    }

    #[test]
    fn composed_run_translates_correctly() {
        let (vm, pid) = vm_with_populated(32, 64, 4 << 20);
        for m in two_dimensional_mappings(&vm, pid) {
            let va = m.virt.start();
            let expect = vm.translate_2d(pid, va).unwrap().hpa;
            assert_eq!(m.offset.apply(va), expect);
        }
    }

    #[test]
    fn backend_reports_nested_refs() {
        let (vm, pid) = vm_with_populated(32, 64, 2 << 20);
        let backend = VmBackend::new(&vm, pid);
        let w = backend.walk(VirtAddr::new(0x40_0000)).unwrap();
        assert_eq!(w.refs, 15, "THP+THP nested walk");
        assert_eq!(w.size, PageSize::Huge2M);
        assert!(backend.walk(VirtAddr::new(0x4000_0000)).is_none());
    }

    #[test]
    fn native_backend_reports_levels() {
        let (vm, pid) = vm_with_populated(32, 64, 2 << 20);
        let aspace = vm.guest().aspace(pid);
        let backend = NativeBackend::new(aspace.page_table());
        let w = backend.walk(VirtAddr::new(0x40_0000)).unwrap();
        assert_eq!(w.refs, 3, "huge leaf native walk");
    }
}
