//! Cross-layer invariant auditor for native and virtualized systems.
//!
//! The single-system walk — every page table of every address space
//! cross-checked against buddy-allocator ownership, page-cache inventory,
//! and COW bookkeeping — is `contig-mm`'s
//! [`System::audit`](contig_mm::System::audit), whose report types are
//! re-exported here. This crate adds the *nested* dimension:
//! [`audit_vm`] audits the guest and host [`System`](contig_mm::System)s of a
//! [`VirtualMachine`] independently and then checks the composition glue
//! between them — every guest-physical address a guest page table names
//! must be a frame the guest machine actually owns, and host backing (when
//! present) must compose into a valid two-dimensional translation.
//!
//! A guest mapping *without* host backing is not a violation: a nested
//! fault that hard-OOMs on the host legitimately leaves such a hole, and
//! the VM heals it on the next touch. The report lists these holes
//! separately so pressure tests can distinguish "awaiting re-backing" from
//! "corrupt".
//!
//! # Examples
//!
//! ```
//! use contig_audit::audit_vm;
//! use contig_mm::{DefaultThpPolicy, VmaKind};
//! use contig_types::{VirtAddr, VirtRange};
//! use contig_virt::{VirtualMachine, VmConfig};
//!
//! let mut vm = VirtualMachine::new(
//!     VmConfig::with_mib(64, 128),
//!     Box::new(DefaultThpPolicy),
//!     Box::new(DefaultThpPolicy),
//! );
//! let pid = vm.guest_mut().spawn();
//! vm.guest_mut()
//!     .aspace_mut(pid)
//!     .map_vma(VirtRange::new(VirtAddr::new(0x40_0000), 4 << 20), VmaKind::Anon);
//! vm.touch(pid, VirtAddr::new(0x40_0000))?;
//! let report = audit_vm(&vm);
//! assert!(report.is_clean());
//! # Ok::<(), contig_types::FaultError>(())
//! ```

#![warn(missing_docs)]

pub use contig_mm::{AuditReport, AuditViolation};

use contig_mm::Pid;
use contig_types::{PageSize, PhysAddr, VirtAddr};
use contig_virt::VirtualMachine;

/// A violation of the guest↔host composition invariants.
#[derive(Clone, Debug, PartialEq, Eq)]
pub(crate) enum VmAuditViolation {
    /// A guest page table names a guest-physical frame outside the VM
    /// memory region — nothing on the host can ever back it.
    GuestFrameOutOfRange {
        /// Guest process owning the mapping.
        pid: Pid,
        /// Guest virtual address of the mapping.
        va: VirtAddr,
        /// The out-of-range guest-physical address.
        gpa: PhysAddr,
    },
    /// A guest mapping composes onto a *poisoned* host frame: the hwpoison
    /// recovery path must always unmap or re-back before returning, so a
    /// reachable quarantined frame is corruption.
    PoisonedHostBacking {
        /// Guest process owning the mapping.
        pid: Pid,
        /// Guest virtual address of the mapping.
        va: VirtAddr,
        /// Guest-physical address backed by the poisoned frame.
        gpa: PhysAddr,
    },
}

impl std::fmt::Display for VmAuditViolation {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            Self::GuestFrameOutOfRange { pid, va, gpa } => write!(
                f,
                "guest pid {pid:?} va {va:?}: gpa {gpa:?} outside the VM memory region"
            ),
            Self::PoisonedHostBacking { pid, va, gpa } => write!(
                f,
                "guest pid {pid:?} va {va:?}: gpa {gpa:?} backed by a poisoned host frame"
            ),
        }
    }
}

/// The result of auditing a [`VirtualMachine`] across both dimensions.
#[derive(Clone, Debug)]
pub struct VmAuditReport {
    /// The guest OS audited as a system of its own.
    pub(crate) guest: AuditReport,
    /// The host OS audited as a system of its own.
    pub(crate) host: AuditReport,
    /// Composition violations between the two dimensions.
    pub(crate) violations: Vec<VmAuditViolation>,
    /// Guest 4 KiB pages that are mapped in a guest page table and fully
    /// backed by host memory (counted per guest mapping: a guest frame that
    /// several guest pages share through COW counts once per page).
    pub(crate) backed_pages: u64,
    /// Guest mappings whose guest-physical frame currently has no host
    /// backing at all — legal after a nested-fault OOM, healed on the next
    /// touch. `(pid, va)` of each affected guest base page.
    pub(crate) unbacked: Vec<(Pid, VirtAddr)>,
}

impl VmAuditReport {
    /// No violations in the guest, the host, or the composition. Unbacked
    /// (not-yet-healed) mappings do not count against cleanliness.
    pub fn is_clean(&self) -> bool {
        self.guest.is_clean() && self.host.is_clean() && self.violations.is_empty()
    }
}

impl std::fmt::Display for VmAuditReport {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        writeln!(f, "guest {}", self.guest)?;
        writeln!(f, "host {}", self.host)?;
        write!(
            f,
            "composition: {} backed pages, {} awaiting re-backing, {} violations",
            self.backed_pages,
            self.unbacked.len(),
            self.violations.len()
        )?;
        for v in &self.violations {
            write!(f, "\n  {v}")?;
        }
        Ok(())
    }
}

/// Audits a [`VirtualMachine`]: guest system, host system, and the nested
/// composition between them.
///
/// See the crate docs for the invariants checked. The walk is read-only.
pub fn audit_vm(vm: &VirtualMachine) -> VmAuditReport {
    let guest = vm.guest().audit();
    let host = vm.host().audit();
    let mut violations = Vec::new();
    let mut unbacked = Vec::new();
    let mut backed_pages = 0u64;

    let guest_bytes = vm.guest().machine().total_frames() * PageSize::Base4K.bytes();
    let host_pt = vm.host().aspace(vm.host_pid()).page_table();

    for &pid in vm.guest().pids().iter() {
        for m in vm.guest().aspace(pid).page_table().iter_mappings() {
            // Check each 4 KiB base page of the leaf independently: a huge
            // guest page may be backed by a patchwork of host leaves.
            for i in 0..m.size.base_pages() {
                let gpa = PhysAddr::from(m.pte.pfn.add(i));
                let va = m.va + i * PageSize::Base4K.bytes();
                if gpa.raw() >= guest_bytes {
                    violations.push(VmAuditViolation::GuestFrameOutOfRange { pid, va, gpa });
                    continue;
                }
                let hva = vm.host_va_of(gpa);
                match host_pt.translate(hva) {
                    Ok(t) => {
                        if vm.host().machine().is_poisoned(t.frame_for(hva)) {
                            violations.push(VmAuditViolation::PoisonedHostBacking {
                                pid,
                                va,
                                gpa,
                            });
                        } else {
                            backed_pages += 1;
                        }
                    }
                    Err(_) => unbacked.push((pid, va)),
                }
            }
        }
    }

    VmAuditReport { guest, host, violations, backed_pages, unbacked }
}

#[cfg(test)]
mod tests {
    use super::*;
    use contig_mm::{DefaultThpPolicy, VmaKind};
    use contig_types::{FailMode, FailPolicy, VirtRange};
    use contig_virt::VmConfig;

    fn vm() -> VirtualMachine {
        VirtualMachine::new(
            VmConfig::with_mib(64, 128),
            Box::new(DefaultThpPolicy),
            Box::new(DefaultThpPolicy),
        )
    }

    #[test]
    fn fresh_populated_vm_is_clean_and_fully_backed() {
        let mut vm = vm();
        let pid = vm.guest_mut().spawn();
        let vma = vm
            .guest_mut()
            .aspace_mut(pid)
            .map_vma(VirtRange::new(VirtAddr::new(0x40_0000), 8 << 20), VmaKind::Anon);
        vm.populate_vma(pid, vma).unwrap();
        let report = audit_vm(&vm);
        assert!(report.is_clean(), "{report}");
        assert_eq!(report.backed_pages, (8 << 20) / 4096);
        assert!(report.unbacked.is_empty());
    }

    #[test]
    fn nested_oom_hole_is_reported_as_unbacked_not_violation() {
        let mut vm = vm();
        let pid = vm.guest_mut().spawn();
        vm.guest_mut()
            .aspace_mut(pid)
            .map_vma(VirtRange::new(VirtAddr::new(0x40_0000), 2 << 20), VmaKind::Anon);
        vm.host_mut()
            .set_fail_policy(FailPolicy::new(FailMode::MinOrder { min_order: 0 }));
        vm.touch(pid, VirtAddr::new(0x40_0000))
            .expect_err("injected host OOM, after host recovery's bounded retries");
        assert!(vm.host().recovery_stats().retries > 0);

        let report = audit_vm(&vm);
        assert!(report.is_clean(), "{report}");
        assert!(!report.unbacked.is_empty(), "the hole must be visible");

        // Healing the hole moves the pages from `unbacked` to `backed`.
        vm.host_mut().clear_fail_policy();
        vm.touch(pid, VirtAddr::new(0x40_0000)).unwrap();
        let healed = audit_vm(&vm);
        assert!(healed.is_clean(), "{healed}");
        assert!(healed.unbacked.is_empty(), "{healed}");
        assert!(healed.backed_pages > 0);
    }

    #[test]
    fn host_poison_recovery_keeps_the_composition_clean() {
        let mut vm = vm();
        let pid = vm.guest_mut().spawn();
        let vma = vm
            .guest_mut()
            .aspace_mut(pid)
            .map_vma(VirtRange::new(VirtAddr::new(0x40_0000), 4 << 20), VmaKind::Anon);
        vm.populate_vma(pid, vma).unwrap();
        let hpa = vm.translate_2d(pid, VirtAddr::new(0x40_0000)).unwrap().hpa;
        vm.poison_host_frame(contig_types::Pfn::new(hpa.raw() / 4096));
        let audit = audit_vm(&vm);
        assert!(audit.is_clean(), "{audit}");
        assert!(vm.host().machine().poisoned_frames() > 0);
    }

    #[test]
    fn poisoned_host_backing_is_a_composition_violation() {
        let mut vm = vm();
        let pid = vm.guest_mut().spawn();
        let vma = vm
            .guest_mut()
            .aspace_mut(pid)
            .map_vma(VirtRange::new(VirtAddr::new(0x40_0000), 2 << 20), VmaKind::Anon);
        vm.populate_vma(pid, vma).unwrap();
        let hpa = vm.translate_2d(pid, VirtAddr::new(0x40_0000)).unwrap().hpa;
        // Poison underneath the mm layer, skipping the recovery path: the
        // guest now composes onto a quarantined frame and the auditor must
        // say so (the host's own audit flags the mapping too).
        vm.host_mut().machine_mut().poison(contig_types::Pfn::new(hpa.raw() / 4096));
        let report = audit_vm(&vm);
        assert!(!report.is_clean());
        assert!(report
            .violations
            .iter()
            .any(|v| matches!(v, VmAuditViolation::PoisonedHostBacking { .. })));
    }
}
