//! The page-walk cost model and the translation backend abstraction.

use contig_types::{PageSize, PhysAddr, VirtAddr};

/// Converts walk references into cycles.
///
/// Each reference mostly hits the cache hierarchy / page-walk caches; a flat
/// per-reference cost calibrated against the paper's measured averages
/// (~81 cycles for a nested THP walk, i.e. 15 references) captures the shape.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct WalkCostModel {
    /// Cycles per walker memory reference.
    pub(crate) cycles_per_ref: u64,
}

impl Default for WalkCostModel {
    fn default() -> Self {
        // 15 refs * 5.4 ≈ 81 cycles, the paper's measured nested-THP average.
        Self { cycles_per_ref: 5 }
    }
}

impl WalkCostModel {
    /// Cycles of a walk issuing `refs` references.
    pub(crate) fn cycles(&self, refs: u32) -> u64 {
        self.cycles_per_ref * refs as u64
    }
}

/// A completed translation delivered by a [`TranslationBackend`].
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct WalkResult {
    /// Final physical address (host-physical under virtualization).
    pub pa: PhysAddr,
    /// Effective page size: for 2D translations, the smaller of the guest
    /// and host page sizes backing the address.
    pub size: PageSize,
    /// Walker memory references issued: one per radix level natively (4
    /// for a 4 KiB leaf, 3 for 2 MiB); `(g + 1) * (h + 1) - 1` for a nested
    /// walk of `g` guest and `h` host levels, up to 24 (paper §II).
    pub refs: u32,
    /// Whether the translation is marked contiguous (the CA-paging PTE bit)
    /// in every dimension — SpOT's fill filter.
    pub contig: bool,
    /// Whether the mapping is writable.
    pub write: bool,
}

/// Anything that can service a page walk: a native page table or a
/// guest+host composition.
pub trait TranslationBackend {
    /// Walks the tables for `va`; `None` means the address is unmapped (the
    /// access would fault, which trace-driven simulations treat as a bug in
    /// the trace).
    fn walk(&self, va: VirtAddr) -> Option<WalkResult>;
}

impl<T: TranslationBackend + ?Sized> TranslationBackend for &T {
    fn walk(&self, va: VirtAddr) -> Option<WalkResult> {
        (**self).walk(va)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn cost_model_is_linear_in_refs() {
        let m = WalkCostModel::default();
        assert_eq!(m.cycles(24), 2 * m.cycles(12));
    }
}
