//! The workload catalog: scaled-down structural models of the paper's five
//! memory-intensive benchmarks (Table III).
//!
//! A workload is described by its VMA layout (how many large regions, their
//! sizes), an optional memory-mapped dataset read through the page cache,
//! and a set of *access phases* — each a memory instruction (stable PC) with
//! a locality class over one VMA. Footprints scale down by a common factor
//! so that the footprint-to-TLB-reach and footprint-to-physical-memory
//! ratios match the paper's testbed when the TLB and machine are scaled by
//! the same factor.

use contig_types::{VirtAddr, VirtRange};

/// Footprint scale divisor applied to the paper's gigabyte-class workloads.
///
/// # Examples
///
/// ```
/// use contig_workloads::Scale;
/// let s = Scale::default();
/// assert_eq!(s.apply(64 << 30), 1 << 30); // 64 GiB -> 1 GiB at /64
/// ```
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub struct Scale(pub u64);

impl Default for Scale {
    fn default() -> Self {
        Scale(64)
    }
}

impl Scale {
    /// Scales a byte count, rounding up to a 2 MiB multiple so THP regions
    /// stay well-formed.
    pub fn apply(&self, bytes: u64) -> u64 {
        let scaled = bytes / self.0;
        scaled.div_ceil(2 << 20) * (2 << 20)
    }

    /// A small scale for fast unit tests.
    pub fn tiny() -> Self {
        Scale(1024)
    }
}

/// The locality class of one access phase.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub(crate) enum PhaseKind {
    /// Streaming: consecutive addresses with the given byte stride.
    Sequential {
        /// Bytes between consecutive accesses.
        stride: u64,
    },
    /// Uniform random within the VMA (gathers, hash probes).
    Random,
    /// Random within a sliding window (graph frontier locality): the window
    /// covers `window_bytes` and drifts across the VMA.
    WindowedRandom {
        /// Size of the hot window in bytes.
        window_bytes: u64,
    },
}

/// One memory instruction of the workload's inner loop.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub(crate) struct AccessPhase {
    /// Stable program counter (SpOT's prediction index).
    pub(crate) pc: u64,
    /// Index into the spec's VMA list.
    pub(crate) vma: usize,
    /// Locality class.
    pub(crate) kind: PhaseKind,
    /// Relative frequency among phases.
    pub(crate) weight: u32,
    /// Whether the instruction writes.
    pub(crate) write: bool,
}

/// A VMA of the workload.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct VmaSpec {
    /// Virtual base address.
    pub base: VirtAddr,
    /// Length in bytes (already scaled).
    pub len: u64,
    /// Whether the region is backed by the dataset file through the page
    /// cache rather than anonymous memory.
    pub file_backed: bool,
}

impl VmaSpec {
    /// The virtual range of the VMA.
    pub fn range(&self) -> VirtRange {
        VirtRange::new(self.base, self.len)
    }
}

/// A fully-specified workload instance.
#[derive(Clone, Debug)]
pub struct WorkloadSpec {
    /// Workload name ("SVM", "PageRank", ...).
    pub name: &'static str,
    /// The VMAs, largest regions first.
    pub vmas: Vec<VmaSpec>,
    /// Inner-loop memory instructions.
    pub(crate) phases: Vec<AccessPhase>,
    /// Fraction of instructions that are branches (Table VII inputs).
    pub branch_fraction: f64,
    /// Fraction of instructions that are loads.
    pub load_fraction: f64,
}

impl WorkloadSpec {
    /// Total declared footprint in bytes.
    pub fn footprint_bytes(&self) -> u64 {
        self.vmas.iter().map(|v| v.len).sum()
    }

    /// The workload's anonymous VMAs.
    pub fn anon_vmas(&self) -> impl Iterator<Item = &VmaSpec> {
        self.vmas.iter().filter(|v| !v.file_backed)
    }
}

/// The five paper workloads.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub enum Workload {
    /// Liblinear SVM over the kdd12 dataset (29 GiB, serial).
    Svm,
    /// Ligra PageRank over the friendster graph (78 GiB, serial).
    PageRank,
    /// The hashjoin microbenchmark (102 GiB, 10 threads).
    HashJoin,
    /// XSBench Monte Carlo neutronics (122 GiB, 10 threads).
    XsBench,
    /// NAS BT class E (167 GiB, serial).
    Bt,
}

impl Workload {
    /// Every workload, in the paper's table order.
    pub const ALL: [Workload; 5] =
        [Workload::Svm, Workload::PageRank, Workload::HashJoin, Workload::XsBench, Workload::Bt];

    /// Display name.
    pub fn name(&self) -> &'static str {
        match self {
            Workload::Svm => "SVM",
            Workload::PageRank => "PageRank",
            Workload::HashJoin => "hashjoin",
            Workload::XsBench => "XSBench",
            Workload::Bt => "BT",
        }
    }

    /// Builds the scaled workload specification.
    ///
    /// The VMA layouts encode each benchmark's structure:
    /// - **SVM**: one dominant model/feature region plus a file-read dataset
    ///   and a spray of small VMAs (the irregular allocations behind its
    ///   residual misses, §VI-B).
    /// - **PageRank**: CSR offsets + edges + two vertex arrays; the dataset
    ///   graph is file-read.
    /// - **hashjoin**: one giant hash table plus two sequential relations.
    /// - **XSBench**: unionized energy grid + nuclide grids + index arrays.
    /// - **BT**: five solver arrays swept in order.
    pub fn spec(&self, scale: Scale) -> WorkloadSpec {
        const GIB: u64 = 1 << 30;
        let base = 0x10_0000_0000u64; // common VMA arena start
        let next = |cursor: &mut u64, len: u64, file_backed: bool| {
            let v = VmaSpec { base: VirtAddr::new(*cursor), len, file_backed };
            // Leave an unmapped guard gap so VMAs never merge virtually.
            *cursor += len + (64 << 20);
            v
        };
        let mut cursor = base;
        match self {
            Workload::Svm => {
                let model = next(&mut cursor, scale.apply(18 * GIB), false);
                let dataset = next(&mut cursor, scale.apply(8 * GIB), true);
                let stack = next(&mut cursor, 2 << 20, false);
                let mut vmas = vec![model, dataset, stack];
                // 16 small irregular VMAs of 2 MiB each.
                for _ in 0..16 {
                    vmas.push(next(&mut cursor, 2 << 20, false));
                }
                let mut phases = vec![
                    // Register/stack/cache-resident work dominates retired
                    // loads; only a small fraction of loads roam the big
                    // regions (Table VII: ~0.25% DTLB misses/instruction).
                    AccessPhase { pc: 0x1f0, vma: 2, kind: PhaseKind::Sequential { stride: 8 }, weight: 9_870, write: false },
                    // Medium-locality loads: hot structures of a few MiB that
                    // fit the huge-page TLB reach but thrash the 4 KiB one.
                    AccessPhase { pc: 0x1e0, vma: 0, kind: PhaseKind::WindowedRandom { window_bytes: 4 << 20 }, weight: 40, write: false },
                    AccessPhase { pc: 0x100, vma: 0, kind: PhaseKind::Sequential { stride: 64 }, weight: 30, write: true },
                    AccessPhase { pc: 0x108, vma: 0, kind: PhaseKind::Random, weight: 30, write: false },
                    AccessPhase { pc: 0x110, vma: 1, kind: PhaseKind::Sequential { stride: 64 }, weight: 20, write: false },
                ];
                // One instruction hopping across the small VMAs: its offset
                // thrashes across mappings and resists prediction (the paper
                // singles SVM out for exactly this irregular-miss behaviour).
                for i in 0..8 {
                    phases.push(AccessPhase {
                        pc: 0x118,
                        vma: 3 + i * 2,
                        kind: PhaseKind::Random,
                        weight: 1,
                        write: false,
                    });
                }
                WorkloadSpec { name: self.name(), vmas, phases, branch_fraction: 0.062, load_fraction: 0.31 }
            }
            Workload::PageRank => {
                let offsets = next(&mut cursor, scale.apply(8 * GIB), false);
                let edges = next(&mut cursor, scale.apply(52 * GIB), true);
                let src_rank = next(&mut cursor, scale.apply(9 * GIB), false);
                let dst_rank = next(&mut cursor, scale.apply(9 * GIB), false);
                let stack = next(&mut cursor, 2 << 20, false);
                let phases = vec![
                    AccessPhase { pc: 0x2f0, vma: 4, kind: PhaseKind::Sequential { stride: 8 }, weight: 9_870, write: false },
                    AccessPhase { pc: 0x2e0, vma: 2, kind: PhaseKind::WindowedRandom { window_bytes: 4 << 20 }, weight: 30, write: false },
                    AccessPhase { pc: 0x200, vma: 0, kind: PhaseKind::Sequential { stride: 64 }, weight: 10, write: false },
                    AccessPhase { pc: 0x208, vma: 1, kind: PhaseKind::Sequential { stride: 64 }, weight: 40, write: false },
                    AccessPhase { pc: 0x210, vma: 2, kind: PhaseKind::Random, weight: 40, write: false },
                    AccessPhase { pc: 0x218, vma: 3, kind: PhaseKind::Sequential { stride: 64 }, weight: 10, write: true },
                ];
                WorkloadSpec { name: self.name(), vmas: vec![offsets, edges, src_rank, dst_rank, stack], phases, branch_fraction: 0.055, load_fraction: 0.35 }
            }
            Workload::HashJoin => {
                let table = next(&mut cursor, scale.apply(72 * GIB), false);
                let rel_a = next(&mut cursor, scale.apply(15 * GIB), false);
                let rel_b = next(&mut cursor, scale.apply(15 * GIB), false);
                let stack = next(&mut cursor, 2 << 20, false);
                let phases = vec![
                    AccessPhase { pc: 0x3f0, vma: 3, kind: PhaseKind::Sequential { stride: 8 }, weight: 9_850, write: false },
                    AccessPhase { pc: 0x3e0, vma: 1, kind: PhaseKind::WindowedRandom { window_bytes: 4 << 20 }, weight: 30, write: false },
                    AccessPhase { pc: 0x300, vma: 0, kind: PhaseKind::Random, weight: 70, write: true },
                    AccessPhase { pc: 0x308, vma: 1, kind: PhaseKind::Sequential { stride: 64 }, weight: 25, write: false },
                    AccessPhase { pc: 0x310, vma: 2, kind: PhaseKind::Sequential { stride: 64 }, weight: 25, write: false },
                ];
                WorkloadSpec { name: self.name(), vmas: vec![table, rel_a, rel_b, stack], phases, branch_fraction: 0.048, load_fraction: 0.28 }
            }
            Workload::XsBench => {
                let grid = next(&mut cursor, scale.apply(80 * GIB), false);
                let nuclides = next(&mut cursor, scale.apply(38 * GIB), false);
                let index = next(&mut cursor, scale.apply(4 * GIB), false);
                let stack = next(&mut cursor, 2 << 20, false);
                let phases = vec![
                    AccessPhase { pc: 0x4f0, vma: 3, kind: PhaseKind::Sequential { stride: 8 }, weight: 9_870, write: false },
                    AccessPhase { pc: 0x4e0, vma: 2, kind: PhaseKind::WindowedRandom { window_bytes: 4 << 20 }, weight: 30, write: false },
                    AccessPhase { pc: 0x400, vma: 0, kind: PhaseKind::Random, weight: 50, write: false },
                    AccessPhase { pc: 0x408, vma: 1, kind: PhaseKind::Random, weight: 35, write: false },
                    AccessPhase { pc: 0x410, vma: 2, kind: PhaseKind::Sequential { stride: 64 }, weight: 15, write: false },
                ];
                WorkloadSpec { name: self.name(), vmas: vec![grid, nuclides, index, stack], phases, branch_fraction: 0.058, load_fraction: 0.33 }
            }
            Workload::Bt => {
                let sizes = [40, 40, 33, 30, 24];
                let mut vmas: Vec<_> =
                    sizes.iter().map(|&g| next(&mut cursor, scale.apply(g * GIB), false)).collect();
                vmas.push(next(&mut cursor, 2 << 20, false));
                let mut phases = vec![
                    AccessPhase {
                        pc: 0x5f0,
                        vma: 5,
                        kind: PhaseKind::Sequential { stride: 8 },
                        weight: 9_830,
                        write: false,
                    },
                    AccessPhase {
                        pc: 0x5e0,
                        vma: 0,
                        kind: PhaseKind::WindowedRandom { window_bytes: 4 << 20 },
                        weight: 50,
                        write: false,
                    },
                ];
                phases.extend((0..5).map(|i| AccessPhase {
                    pc: 0x500 + i as u64 * 8,
                    vma: i,
                    kind: PhaseKind::WindowedRandom { window_bytes: 64 << 20 },
                    weight: 24,
                    write: i % 2 == 0,
                }));
                WorkloadSpec { name: self.name(), vmas, phases, branch_fraction: 0.071, load_fraction: 0.36 }
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The unscaled footprint from the paper's Table III, in bytes.
    fn paper_footprint_bytes(w: Workload) -> u64 {
        let gib = match w {
            Workload::Svm => 29,
            Workload::PageRank => 78,
            Workload::HashJoin => 102,
            Workload::XsBench => 122,
            Workload::Bt => 167,
        };
        gib << 30
    }

    #[test]
    fn scaled_footprints_track_paper_ratios() {
        let scale = Scale::default();
        for w in Workload::ALL {
            let spec = w.spec(scale);
            let scaled = spec.footprint_bytes() as f64;
            let expected = paper_footprint_bytes(w) as f64 / scale.0 as f64;
            let ratio = scaled / expected;
            assert!(
                (0.85..=1.25).contains(&ratio),
                "{}: scaled {scaled} vs expected {expected}",
                w.name()
            );
        }
    }

    #[test]
    fn vmas_are_disjoint_and_page_aligned() {
        for w in Workload::ALL {
            let spec = w.spec(Scale::tiny());
            for (i, a) in spec.vmas.iter().enumerate() {
                assert_eq!(a.len % 4096, 0);
                assert_eq!(a.base.raw() % 4096, 0);
                for b in &spec.vmas[i + 1..] {
                    assert!(!a.range().overlaps(&b.range()), "{}: VMAs overlap", w.name());
                }
            }
        }
    }

    #[test]
    fn phases_reference_valid_vmas() {
        for w in Workload::ALL {
            let spec = w.spec(Scale::tiny());
            for p in &spec.phases {
                assert!(p.vma < spec.vmas.len(), "{}: phase vma out of range", w.name());
                assert!(p.weight > 0);
            }
        }
    }

    #[test]
    fn scale_rounds_to_huge_multiples() {
        let s = Scale(64);
        assert_eq!(s.apply(29 << 30) % (2 << 20), 0);
        assert_eq!(Scale::tiny().apply(1 << 30) % (2 << 20), 0);
    }
}
