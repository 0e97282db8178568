//! Table VI: memory bloat — physical memory allocated beyond what a 4 KiB
//! demand-paged run would use.
//!
//! Two bloat sources are modelled, following the paper's analysis:
//!
//! 1. **Huge-page rounding**: applications leave some 4 KiB holes untouched;
//!    THP-family policies back the whole 2 MiB region anyway. We touch the
//!    footprint with a sparse hole pattern (one skipped page per couple of
//!    MiB) so this effect is megabyte-scale, as in the paper.
//! 2. **Allocator reservation**: user-space allocators (the modified
//!    TCMalloc of the eager-paging setup) reserve address space the program
//!    never touches. Eager paging backs those reservations with physical
//!    memory; demand paging does not. The per-workload reserve fractions
//!    follow the paper's measured eager bloat.

use contig_mm::VmaKind;
use contig_types::{PageSize, VirtAddr, VirtRange};
use contig_workloads::Workload;

use crate::env::Env;
use crate::install::{install, spec_ranges, Setup};
use crate::policies::PolicyKind;

/// One Table VI cell.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct BloatRow {
    /// Policy measured.
    pub(crate) policy: PolicyKind,
    /// Bytes of physical memory used beyond the 4 KiB-paging baseline.
    pub bloat_bytes: u64,
    /// Bloat as a fraction of the touched footprint.
    pub bloat_fraction: f64,
}

/// Untouched allocator reservation as a fraction of the footprint, shaped
/// after the paper's measured eager bloat (Table VI).
pub(crate) fn reserve_fraction(workload: Workload) -> f64 {
    match workload {
        Workload::Svm => 0.080,
        Workload::PageRank => 0.065,
        Workload::HashJoin => 0.475,
        Workload::XsBench => 0.004,
        Workload::Bt => 0.001,
    }
}

/// Pages are skipped (left untouched) every this many base pages, producing
/// the sparse-hole pattern behind huge-page rounding bloat.
const HOLE_EVERY_PAGES: u64 = 1024;

/// Runs the bloat experiment: sparse-touch the workload under the policy and
/// measure physical usage against the exact touched byte count.
pub fn run_bloat(env: &Env, workload: Workload, policy: PolicyKind) -> BloatRow {
    let spec = workload.spec(env.scale);
    let mut sys = Setup::default().boot(env, policy);
    // All VMAs anonymous here: the page cache obeys its own accounting.
    let pid = install(&spec, &mut sys, true).pid;
    // The allocator reservation: one extra VMA the program never touches.
    let reserve_len = ((spec.footprint_bytes() as f64 * reserve_fraction(workload)) as u64)
        .div_ceil(2 << 20)
        * (2 << 20);
    let reserve_base = spec.vmas.iter().map(|v| v.base.raw() + v.len).max().unwrap() + (1 << 30);
    sys.aspace_mut(pid)
        .map_vma(VirtRange::new(VirtAddr::new(reserve_base), reserve_len), VmaKind::Anon);
    let mut placement = policy.policy(env, Some((sys.machine(), &spec_ranges(&spec))));

    // The allocator touches its reservation's metadata page at mmap time:
    // demand paging backs one page; eager paging backs the whole reserve.
    let mut touched_bytes = 0u64;
    sys.touch(&mut *placement, pid, VirtAddr::new(reserve_base))
        .unwrap_or_else(|e| panic!("bloat reserve touch: {e}"));
    touched_bytes += PageSize::Base4K.bytes();

    // Sparse touch: every page except one hole per HOLE_EVERY_PAGES.
    for v in &spec.vmas {
        let pages = v.len / PageSize::Base4K.bytes();
        for i in 0..pages {
            if i % HOLE_EVERY_PAGES == HOLE_EVERY_PAGES - 1 {
                continue;
            }
            let va = v.base + i * PageSize::Base4K.bytes();
            sys.touch(&mut *placement, pid, va)
                .unwrap_or_else(|e| panic!("bloat {} {}: {e}", workload.name(), policy.name()));
            touched_bytes += PageSize::Base4K.bytes();
        }
    }
    // Let daemons settle (Ingens promotion changes bloat).
    for _ in 0..4 {
        placement.tick(&mut sys, &[pid]);
    }
    let used_bytes =
        (sys.machine().total_frames() - sys.machine().free_frames()) * PageSize::Base4K.bytes();
    let bloat = used_bytes.saturating_sub(touched_bytes);
    BloatRow { policy, bloat_bytes: bloat, bloat_fraction: bloat as f64 / touched_bytes as f64 }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn table6_shape() {
        let env = Env::tiny();
        let w = Workload::HashJoin;
        let fourk = run_bloat(&env, w, PolicyKind::FourK);
        let thp = run_bloat(&env, w, PolicyKind::Thp);
        let ca = run_bloat(&env, w, PolicyKind::Ca);
        let ingens = run_bloat(&env, w, PolicyKind::Ingens);
        let eager = run_bloat(&env, w, PolicyKind::Eager);
        // 4 KiB demand paging is the zero-bloat baseline.
        assert_eq!(fourk.bloat_bytes, 0);
        // THP and CA round sparse holes up to huge pages: small, similar.
        assert!(thp.bloat_bytes > 0);
        // Sparse holes plus one reservation page rounded to a huge page:
        // megabyte-scale at any footprint.
        assert!(thp.bloat_fraction < 0.04, "THP bloat {}", thp.bloat_fraction);
        let ratio = ca.bloat_bytes as f64 / thp.bloat_bytes.max(1) as f64;
        assert!((0.5..=2.0).contains(&ratio), "CA ~ THP bloat, ratio {ratio}");
        // Ingens promotes only utilized regions: less bloat than THP.
        assert!(ingens.bloat_bytes <= thp.bloat_bytes);
        // Eager backs the untouched reservation: bloat near the reserve
        // fraction (47.5 % for hashjoin).
        assert!(
            eager.bloat_fraction > 0.3,
            "eager bloat fraction {} must reflect the reservation",
            eager.bloat_fraction
        );
        assert!(eager.bloat_bytes > 10 * thp.bloat_bytes);
    }

    #[test]
    fn reserve_fractions_match_paper_order() {
        assert!(reserve_fraction(Workload::HashJoin) > reserve_fraction(Workload::Svm));
        assert!(reserve_fraction(Workload::Svm) > reserve_fraction(Workload::XsBench));
        assert!(reserve_fraction(Workload::XsBench) > reserve_fraction(Workload::Bt));
    }
}
