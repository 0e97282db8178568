//! Workspace-wide FNV-1a-64 hashing.
//!
//! One canonical implementation of the digest primitive used everywhere a
//! byte string must be checksummed deterministically: snapshot digests in
//! `contig-check`, per-frame checksums on migration transport frames in
//! `contig-virt`. FNV-1a-64 is not cryptographic — it detects the accidental
//! corruption the simulator injects, nothing more — but it is fast, has
//! published test vectors, and its avalanche is good enough that single-byte
//! corruption is caught in practice.

/// FNV-1a-64 offset basis.
const FNV_OFFSET: u64 = 0xcbf2_9ce4_8422_2325;
/// FNV-1a-64 prime.
const FNV_PRIME: u64 = 0x0000_0100_0000_01b3;

/// An FNV-1a-64 hash being computed over bytes as they arrive: feeding a
/// byte string in pieces gives the hash of the whole, wherever it is split.
///
/// # Examples
///
/// ```
/// use contig_types::{fnv1a64, Fnv1a64};
///
/// let mut hash = Fnv1a64::new();
/// hash.update(b"foo");
/// hash.update(b"bar");
/// assert_eq!(hash.finish(), fnv1a64(b"foobar"));
/// ```
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct Fnv1a64(u64);

impl Fnv1a64 {
    /// The hash of the empty string.
    pub const fn new() -> Self {
        Fnv1a64(FNV_OFFSET)
    }

    /// Appends `bytes` to the hashed string.
    #[inline]
    pub fn update(&mut self, bytes: &[u8]) {
        let mut hash = self.0;
        for &b in bytes {
            hash = (hash ^ u64::from(b)).wrapping_mul(FNV_PRIME);
        }
        self.0 = hash;
    }

    /// The hash of everything fed so far.
    pub const fn finish(&self) -> u64 {
        self.0
    }
}

impl Default for Fnv1a64 {
    fn default() -> Self {
        Self::new()
    }
}

/// FNV-1a-64 of a byte string.
///
/// # Examples
///
/// ```
/// use contig_types::fnv1a64;
///
/// // Published FNV-1a-64 test vectors.
/// assert_eq!(fnv1a64(b""), 0xcbf2_9ce4_8422_2325);
/// assert_eq!(fnv1a64(b"a"), 0xaf63_dc4c_8601_ec8c);
/// ```
pub fn fnv1a64(bytes: &[u8]) -> u64 {
    let mut hash = Fnv1a64::new();
    hash.update(bytes);
    hash.finish()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn matches_reference_vectors() {
        assert_eq!(fnv1a64(b""), 0xcbf2_9ce4_8422_2325);
        assert_eq!(fnv1a64(b"a"), 0xaf63_dc4c_8601_ec8c);
        assert_eq!(fnv1a64(b"foobar"), 0x8594_4171_f739_67e8);
    }

    #[test]
    fn update_is_split_point_independent() {
        let text = b"{\"machine\":{\"zones\":[{\"config\":{\"base\":0}}]}}";
        for cut in 0..=text.len() {
            for cut2 in cut..=text.len() {
                let mut hash = Fnv1a64::new();
                hash.update(&text[..cut]);
                hash.update(&text[cut..cut2]);
                hash.update(&text[cut2..]);
                assert_eq!(hash.finish(), fnv1a64(text), "cuts at {cut} and {cut2}");
            }
        }
        assert_eq!(Fnv1a64::default().finish(), fnv1a64(b""));
    }

    #[test]
    fn single_byte_flip_changes_hash() {
        let frame = b"kind=1 seq=42 payload=....".to_vec();
        let base = fnv1a64(&frame);
        for i in 0..frame.len() {
            for bit in 0..8 {
                let mut flipped = frame.clone();
                flipped[i] ^= 1 << bit;
                assert_ne!(fnv1a64(&flipped), base, "flip at byte {i} bit {bit}");
            }
        }
    }
}
