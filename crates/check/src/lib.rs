//! Crash-consistent snapshots, state digests, and the differential torture
//! harness for the contiguity-aware memory stack.
//!
//! This crate closes the robustness loop the rest of the workspace opens:
//! `contig-mm`/`contig-virt`/`contig-buddy`/`contig-tlb` export plain-data
//! snapshot types and exact `restore` constructors; this crate gives them
//!
//! - a **versioned JSONL codec** (`codec`) over the workspace's one
//!   hand-rolled JSON model (`contig_types::json`, re-exported here as
//!   [`json`]) whose canonical encoding is safe to hash,
//! - **FNV-1a-64 state digests** (`digest`) so "recovered exactly" is a
//!   single integer comparison,
//! - a **seeded torture runner** (`torture`) that drives the whole
//!   two-dimensional stack against a flat oracle, audits cross-layer
//!   invariants, and simulates crashes at op boundaries (restore last
//!   checkpoint, replay the journal, require digest equality),
//! - a **ddmin minimizer** ([`minimize()`]) plus a replayable JSONL repro
//!   format (`replay`) so a CI failure shrinks to a few ops anyone can
//!   re-run with the `torture_replay` binary.
//!
//! # Examples
//!
//! ```
//! use contig_check::{run_torture, TortureConfig};
//!
//! let report = run_torture(&TortureConfig::with_seed_and_ops(1, 200));
//! assert!(report.is_ok(), "{:?}", report.failure);
//! assert!(report.touches > 0);
//! ```

#![warn(missing_docs)]

pub(crate) mod codec;
pub(crate) mod digest;
pub mod minimize;
pub(crate) mod replay;
pub(crate) mod torture;

pub use codec::{decode_vm_file, encode_vm_file, SnapshotGuestCodec, SNAPSHOT_FORMAT};
pub use digest::{digest_fleet, digest_system, digest_tlb, digest_vm, fnv1a64, fold_digests};
pub use contig_types::json::{self, Json};
pub use minimize::{minimize, Minimized};
pub use replay::{decode_repro, encode_repro, read_repro};
pub use torture::{
    generate_ops, run_ops, run_torture, ConfigError, TortureConfig, TortureFailure, TortureOp,
    TortureReport,
};

#[cfg(test)]
mod tests {
    use super::*;
    use crate::codec::SNAPSHOT_VERSION;
    use crate::json::Wire;
    use contig_mm::{DefaultThpPolicy, VmaKind};
    use contig_types::{VirtAddr, VirtRange};
    use contig_virt::{VirtualMachine, VmConfig};

    fn fresh_vm() -> VirtualMachine {
        VirtualMachine::new(
            VmConfig::with_mib(16, 64),
            Box::new(DefaultThpPolicy),
            Box::new(DefaultThpPolicy),
        )
    }

    /// A VM with populated anonymous, file, and COW state in both dims.
    fn populated_vm() -> VirtualMachine {
        let mut vm = fresh_vm();
        let pid = vm.guest_mut().spawn();
        let vma = vm
            .guest_mut()
            .aspace_mut(pid)
            .map_vma(VirtRange::new(VirtAddr::new(0x4000_0000), 0x40_0000), VmaKind::Anon);
        vm.populate_vma(pid, vma).unwrap();
        let file = vm.guest_mut().page_cache_mut().create_file();
        vm.guest_mut().aspace_mut(pid).map_vma(
            VirtRange::new(VirtAddr::new(0x5000_0000), 0x10_0000),
            VmaKind::File { file, start_page: 0 },
        );
        vm.touch(pid, VirtAddr::new(0x5000_0000)).unwrap();
        let child = vm.guest_mut().fork_vma(pid, vma);
        vm.touch_write(child, VirtAddr::new(0x4000_0000)).unwrap();
        vm
    }

    #[test]
    fn vm_snapshot_survives_the_jsonl_codec_exactly() {
        let vm = populated_vm();
        let snap = vm.snapshot();
        let decoded = decode_vm_file(&encode_vm_file(&snap)).unwrap();
        assert_eq!(decoded, snap);
        // Digest is a pure function of state: same through the codec.
        assert_eq!(digest_vm(&decoded), digest_vm(&snap));
    }

    #[test]
    fn restored_snapshot_passes_the_auditor() {
        let vm = populated_vm();
        let snap = vm.snapshot();
        let recovered =
            VirtualMachine::restore(&snap, Box::new(DefaultThpPolicy), Box::new(DefaultThpPolicy));
        let report = contig_audit::audit_vm(&recovered);
        assert!(report.is_clean(), "{report}");
        assert_eq!(digest_vm(&recovered.snapshot()), digest_vm(&snap));
    }

    #[test]
    fn tlb_snapshot_survives_the_codec() {
        use contig_tlb::{TlbConfig, TlbHierarchy, TlbSnapshot};
        let mut tlb = TlbHierarchy::new(TlbConfig::broadwell_scaled(5));
        for page in 0..400u64 {
            tlb.fill(VirtAddr::new(page << 12), contig_types::PageSize::Base4K);
            tlb.lookup(VirtAddr::new((page / 3) << 12));
        }
        let snap = tlb.snapshot();
        let line = json::line(|e| snap.enc(e));
        let decoded = json::decode::<TlbSnapshot>(&line, "tlb").unwrap();
        assert_eq!(decoded, snap);
        assert_eq!(fnv1a64(line.as_bytes()), digest_tlb(&snap));
    }

    /// A mapping whose frame number cannot be packed into a page-table
    /// entry is a decode error, not a panic (or a truncation) in `restore`.
    #[test]
    fn unpackable_mapping_pfn_is_refused_by_the_decoder() {
        let mut snap = populated_vm().snapshot();
        let max = contig_mm::Pte::MAX_PFN.raw();
        snap.guest.processes[0].mappings[0].1 = max;
        assert_eq!(decode_vm_file(&encode_vm_file(&snap)).unwrap(), snap);
        snap.guest.processes[0].mappings[0].1 = max + 1;
        let err = decode_vm_file(&encode_vm_file(&snap)).unwrap_err();
        assert!(err.contains("exceeds 52 bits"), "{err}");
    }

    /// Nesting past the parser's bound reaches both decoders that take
    /// bytes from outside as their ordinary error, header digest or not.
    #[test]
    fn hostile_nesting_is_a_decode_error_in_both_decoders() {
        use contig_virt::GuestStateCodec;
        let deep = "[".repeat(1_000_000);
        let err = SnapshotGuestCodec.decode(deep.as_bytes()).unwrap_err();
        assert!(err.starts_with("state chunk not JSON: nesting deeper than 64"), "{err}");
        // The attacker chooses the header too, so its digest matches.
        let header = format!(
            r#"{{"format":"{SNAPSHOT_FORMAT}","version":{SNAPSHOT_VERSION},"digest":{}}}"#,
            fnv1a64(deep.as_bytes())
        );
        let err = decode_vm_file(&format!("{header}\n{deep}\n")).unwrap_err();
        assert!(err.starts_with("bad payload: nesting deeper than 64"), "{err}");
        let err = decode_vm_file(&format!("{deep}\n{deep}\n")).unwrap_err();
        assert!(err.starts_with("bad header: nesting deeper than 64"), "{err}");
    }

    #[test]
    fn codec_detects_corruption() {
        let snap = populated_vm().snapshot();
        let text = encode_vm_file(&snap);
        // Flip one digit inside the payload line: digest check must trip.
        let corrupted = {
            let mut lines: Vec<String> = text.lines().map(str::to_string).collect();
            lines[1] = lines[1].replacen("\"now_ns\":", "\"now_ns\":1", 1);
            lines.join("\n")
        };
        let err = decode_vm_file(&corrupted).unwrap_err();
        assert!(err.contains("digest mismatch"), "{err}");
    }
}
