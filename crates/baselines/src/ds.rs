//! Direct Segments in dual direct mode (Gandhi et al., MICRO'14).
//!
//! A single `[base, limit, offset]` segment register pair translates the
//! primary region gVA→hPA in one step, bypassing nested paging entirely.
//! Addresses inside the segment never pay a walk; addresses outside fall
//! back to (4 KiB) nested paging. The mechanism is rigid: the segment is
//! reserved when the VM boots and its memory cannot be demand-paged or
//! reclaimed — the trade-off SpOT avoids (paper §VI-B).

use contig_tlb::{Access, MissHandler, MissHandling, WalkResult};
use contig_types::ContigMapping;

/// The dual-direct-mode segment on the miss path.
///
/// # Examples
///
/// ```
/// use contig_baselines::DirectSegment;
/// use contig_tlb::{Access, MissHandler, MissHandling, WalkResult};
/// use contig_types::{ContigMapping, PageSize, PhysAddr, VirtAddr};
///
/// let seg = ContigMapping::new(VirtAddr::new(0x10_0000), PhysAddr::new(0x800_0000), 64 << 20);
/// let mut ds = DirectSegment::new(seg);
/// let walk = WalkResult { pa: PhysAddr::new(0), size: PageSize::Base4K,
///                         refs: 24, contig: false, write: true };
/// assert_eq!(ds.on_miss(Access::read(0, VirtAddr::new(0x20_0000)), &walk),
///            MissHandling::Hidden);
/// assert_eq!(ds.on_miss(Access::read(0, VirtAddr::new(0x0_1000)), &walk),
///            MissHandling::Exposed);
/// ```
#[derive(Clone, Copy, Debug)]
pub struct DirectSegment {
    segment: ContigMapping,
}

impl DirectSegment {
    /// A segment covering the given 2D mapping.
    pub fn new(segment: ContigMapping) -> Self {
        Self { segment }
    }
}

impl MissHandler for DirectSegment {
    /// Misses inside the segment translate with no walk; the rest pay a
    /// nested walk at base-page cost.
    fn on_miss(&mut self, access: Access, _walk: &WalkResult) -> MissHandling {
        if self.segment.virt.contains(access.va) {
            MissHandling::Hidden
        } else {
            MissHandling::Exposed
        }
    }

    fn scheme_name(&self) -> &'static str {
        "DS"
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use contig_types::{PageSize, PhysAddr, VirtAddr};

    fn walk() -> WalkResult {
        WalkResult {
            pa: PhysAddr::new(0),
            size: PageSize::Base4K,
            refs: 24,
            contig: false,
            write: false,
        }
    }

    #[test]
    fn boundaries_are_half_open() {
        let seg = ContigMapping::new(VirtAddr::new(0x1000), PhysAddr::new(0x10_0000), 0x2000);
        let mut ds = DirectSegment::new(seg);
        assert_eq!(ds.on_miss(Access::read(0, VirtAddr::new(0x0fff)), &walk()), MissHandling::Exposed);
        assert_eq!(ds.on_miss(Access::read(0, VirtAddr::new(0x1000)), &walk()), MissHandling::Hidden);
        assert_eq!(ds.on_miss(Access::read(0, VirtAddr::new(0x2fff)), &walk()), MissHandling::Hidden);
        assert_eq!(ds.on_miss(Access::read(0, VirtAddr::new(0x3000)), &walk()), MissHandling::Exposed);
    }

    #[test]
    fn segment_translation_matches_offset() {
        let seg = ContigMapping::new(VirtAddr::new(0x40_0000), PhysAddr::new(0x800_0000), 1 << 20);
        let va = VirtAddr::new(0x40_1234);
        assert_eq!(seg.translate(va), Some(PhysAddr::new(0x800_1234)));
    }
}
