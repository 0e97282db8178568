//! Deterministic access-trace generation from a [`WorkloadSpec`].

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

use contig_types::{Access, VirtAddr};

use crate::spec::{AccessPhase, PhaseKind, WorkloadSpec};

/// A deterministic, infinite access-trace generator.
///
/// Phases are interleaved by weight; sequential phases keep a wrapping
/// cursor, windowed phases drift their hot window across the VMA.
///
/// # Examples
///
/// ```
/// use contig_workloads::{Scale, TraceGenerator, Workload};
///
/// let spec = Workload::PageRank.spec(Scale::tiny());
/// let mut gen = TraceGenerator::new(&spec, 42);
/// let a = gen.next_access();
/// let again = TraceGenerator::new(&spec, 42).next_access();
/// assert_eq!(a, again, "same seed, same trace");
/// ```
#[derive(Clone, Debug)]
pub struct TraceGenerator {
    phases: Vec<PhaseState>,
    /// Cumulative weights for phase selection.
    cumulative: Vec<u32>,
    total_weight: u32,
    rng: StdRng,
}

#[derive(Clone, Debug)]
struct PhaseState {
    phase: AccessPhase,
    vma_base: u64,
    vma_len: u64,
    cursor: u64,
}

impl TraceGenerator {
    /// A generator over `spec` seeded with `seed`.
    ///
    /// # Panics
    ///
    /// Panics if the spec has no phases.
    pub fn new(spec: &WorkloadSpec, seed: u64) -> Self {
        assert!(!spec.phases.is_empty(), "workload {} has no phases", spec.name);
        let phases: Vec<PhaseState> = spec
            .phases
            .iter()
            .map(|&phase| {
                // The SVM-style "spray" phase points at the first small VMA;
                // it roams over all VMAs from that index on.
                let vma = spec.vmas[phase.vma];
                PhaseState { phase, vma_base: vma.base.raw(), vma_len: vma.len, cursor: 0 }
            })
            .collect();
        let mut cumulative = Vec::with_capacity(phases.len());
        let mut total = 0;
        for p in &phases {
            total += p.phase.weight;
            cumulative.push(total);
        }
        Self { phases, cumulative, total_weight: total, rng: StdRng::seed_from_u64(seed) }
    }

    /// Generates the next reference.
    pub fn next_access(&mut self) -> Access {
        let pick = self.rng.gen_range(0..self.total_weight);
        let idx = self.cumulative.partition_point(|&c| c <= pick);
        let state = &mut self.phases[idx];
        let offset = match state.phase.kind {
            PhaseKind::Sequential { stride } => {
                let off = state.cursor;
                state.cursor = (state.cursor + stride) % state.vma_len;
                off
            }
            PhaseKind::Random => self.rng.gen_range(0..state.vma_len) & !0x7,
            PhaseKind::WindowedRandom { window_bytes } => {
                let window = window_bytes.min(state.vma_len);
                // Drift the window one page per access so the working set
                // slides across the VMA like a structured-grid sweep.
                state.cursor = (state.cursor + 4096) % state.vma_len;
                let start = state.cursor.min(state.vma_len - window);
                (start + self.rng.gen_range(0..window)) & !0x7
            }
        };
        Access {
            pc: state.phase.pc,
            va: VirtAddr::new(state.vma_base + offset % state.vma_len),
            write: state.phase.write,
        }
    }

    /// A bounded iterator of `count` references.
    pub fn take_accesses(&mut self, count: u64) -> impl Iterator<Item = Access> + '_ {
        (0..count).map(move |_| self.next_access())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::spec::{Scale, Workload};

    #[test]
    fn trace_stays_inside_vmas() {
        for w in Workload::ALL {
            let spec = w.spec(Scale::tiny());
            let mut gen = TraceGenerator::new(&spec, 7);
            for a in gen.take_accesses(10_000) {
                let inside = spec.vmas.iter().any(|v| v.range().contains(a.va));
                assert!(inside, "{}: access {} escaped every VMA", w.name(), a.va);
            }
        }
    }

    #[test]
    fn deterministic_per_seed_and_divergent_across_seeds() {
        let spec = Workload::HashJoin.spec(Scale::tiny());
        let a: Vec<_> = TraceGenerator::new(&spec, 1).take_accesses(100).collect();
        let b: Vec<_> = TraceGenerator::new(&spec, 1).take_accesses(100).collect();
        let c: Vec<_> = TraceGenerator::new(&spec, 2).take_accesses(100).collect();
        assert_eq!(a, b);
        assert_ne!(a, c);
    }

    #[test]
    fn phase_weights_shape_the_mix() {
        let spec = Workload::HashJoin.spec(Scale::tiny());
        let mut gen = TraceGenerator::new(&spec, 3);
        let mut probe = 0u64;
        let mut local = 0u64;
        let total = 200_000u64;
        for a in gen.take_accesses(total) {
            match a.pc {
                0x300 => probe += 1,
                0x3f0 => local += 1,
                _ => {}
            }
        }
        // Probes are ~0.7 % of loads (Table VII-scale DTLB miss rates);
        // TLB-resident local work dominates.
        let probe_frac = probe as f64 / total as f64;
        assert!((0.005..0.01).contains(&probe_frac), "probe fraction {probe_frac}");
        assert!(local as f64 / total as f64 > 0.95);
    }

    #[test]
    fn sequential_phase_walks_forward() {
        let spec = Workload::PageRank.spec(Scale::tiny());
        let mut gen = TraceGenerator::new(&spec, 5);
        let mut last_seq: Option<u64> = None;
        let mut advances = 0;
        let mut total_seq = 0;
        for a in gen.take_accesses(50_000) {
            if a.pc == 0x208 {
                if let Some(prev) = last_seq {
                    total_seq += 1;
                    if a.va.raw() > prev {
                        advances += 1;
                    }
                }
                last_seq = Some(a.va.raw());
            }
        }
        assert!(advances as f64 / total_seq as f64 > 0.99, "{advances}/{total_seq}");
    }

    #[test]
    fn writes_follow_phase_declaration() {
        let spec = Workload::HashJoin.spec(Scale::tiny());
        let mut gen = TraceGenerator::new(&spec, 9);
        for a in gen.take_accesses(10_000) {
            if a.pc == 0x300 {
                assert!(a.write);
            } else {
                assert!(!a.write);
            }
        }
    }
}
