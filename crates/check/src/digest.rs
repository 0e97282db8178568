//! Deterministic state digests.
//!
//! A digest is FNV-1a-64 over the canonical single-line JSON encoding of a
//! snapshot (see [`crate::codec`]), computed as the encoder emits it: the
//! bytes go straight into the running hash, so no line, no value tree and no
//! heap allocation is built to be thrown away. Because the encoder emits
//! object members in a fixed order and integers in a fixed decimal form,
//! equal snapshots always produce equal digests, and the digest of a
//! restored-and-replayed system can be compared against the live system
//! byte-for-byte — the core assertion of crash-point testing.

use contig_fleet::FleetSnapshot;
use contig_mm::SystemSnapshot;
use contig_tlb::TlbSnapshot;
use contig_types::Fnv1a64;
use contig_virt::VmSnapshot;

use crate::json::{digest, Wire};

// The canonical FNV-1a-64 implementation lives in `contig-types` (it also
// checksums migration transport frames in `contig-virt`); re-exported here so
// existing `contig_check::fnv1a64` callers keep working.
pub use contig_types::fnv1a64;

/// Digest of one [`System`](contig_mm::System) image.
pub fn digest_system(snap: &SystemSnapshot) -> u64 {
    digest(|e| snap.enc(e))
}

/// Digest of a whole two-dimensional [`VirtualMachine`](contig_virt::VirtualMachine) image.
pub fn digest_vm(snap: &VmSnapshot) -> u64 {
    digest(|e| snap.enc(e))
}

/// Digest of a whole multi-tenant [`Fleet`](contig_fleet::Fleet) image —
/// every host system, every tenant guest, the sharing registries, balloons,
/// content tags, stats, and RNG state.
pub fn digest_fleet(snap: &FleetSnapshot) -> u64 {
    digest(|e| snap.enc(e))
}

/// Digest of a TLB hierarchy image: every slot, LRU tick and counter.
pub fn digest_tlb(snap: &TlbSnapshot) -> u64 {
    digest(|e| snap.enc(e))
}

/// Folds per-task digests into one, hashing each digest's 8 little-endian
/// bytes in slice order. Callers present digests in canonical (task-index)
/// order — the order engine reports come back in — so the fold is
/// independent of which worker produced which digest when.
pub fn fold_digests(digests: &[u64]) -> u64 {
    let mut hash = Fnv1a64::new();
    for d in digests {
        hash.update(&d.to_le_bytes());
    }
    hash.finish()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fnv_matches_reference_vectors() {
        // Published FNV-1a-64 test vectors.
        assert_eq!(fnv1a64(b""), 0xcbf2_9ce4_8422_2325);
        assert_eq!(fnv1a64(b"a"), 0xaf63_dc4c_8601_ec8c);
        assert_eq!(fnv1a64(b"foobar"), 0x85944171f73967e8);
    }

    #[test]
    fn digest_is_sensitive_to_single_bit() {
        assert_ne!(fnv1a64(b"state-a"), fnv1a64(b"state-b"));
    }

    #[test]
    fn fold_digests_is_order_sensitive_and_canonical() {
        let a = fold_digests(&[1, 2, 3]);
        let b = fold_digests(&[3, 2, 1]);
        assert_ne!(a, b, "digest order must matter");
        assert_eq!(a, fold_digests(&[1, 2, 3]), "same digests, same fold");
        // The fold is exactly FNV-1a over the concatenated LE bytes.
        let mut bytes = Vec::new();
        for d in [1u64, 2, 3] {
            bytes.extend_from_slice(&d.to_le_bytes());
        }
        assert_eq!(a, fnv1a64(&bytes));
        assert_eq!(fold_digests(&[]), fnv1a64(b""));
    }
}
