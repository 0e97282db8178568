//! `ablations` — the quality impact of the design choices called out in
//! `DESIGN.md` §2: the sorted top-order list, CA re-placement, and the SpOT
//! table geometry / contiguity-bit fill filter. What each choice *costs* in
//! host time is measured by `benchmark/` (`core.ca_fault_4k_ns`,
//! `core.spot_on_miss_ns`).

use std::process::ExitCode;

use contig_buddy::MachineConfig;
use contig_core::{CaConfig, CaPaging, SpotConfig, SpotPredictor};
use contig_mm::{contiguous_mappings, System, SystemConfig, VmaKind};
use contig_tlb::{Access, MissHandler, WalkResult};
use contig_types::{PageSize, PhysAddr, VirtAddr, VirtRange};

use crate::cli::{no_flags, UsageError};

fn fragmented_system(sorted_top: bool) -> System {
    let mut mc = MachineConfig::single_node_mib(128);
    mc.sorted_top_list = sorted_top;
    let mut sys = System::new(SystemConfig::new(mc));
    let hog = contig_buddy::Hog::occupy(sys.machine_mut(), 0.35, 5);
    std::mem::forget(hog); // keep the pressure for the system's lifetime
    sys
}

fn run_ca(sys: &mut System, config: CaConfig) -> usize {
    let pid = sys.spawn();
    let vma = sys
        .aspace_mut(pid)
        .map_vma(VirtRange::new(VirtAddr::new(0x4000_0000), 24 << 20), VmaKind::Anon);
    let mut ca = CaPaging::with_config(config);
    sys.populate_vma(&mut ca, pid, vma).expect("24 MiB fits the hogged 128 MiB machine");
    let runs = contiguous_mappings(sys.aspace(pid).page_table()).len();
    sys.exit(pid);
    runs
}

/// SpOT under phase changes and noise. The predictable instruction changes
/// its offset at phase boundaries (as real instructions do when the
/// workload moves between regions); during the confidence-drop window after
/// each change, contiguity-less noise can steal its slot — unless the OS
/// filter keeps such offsets out of the table.
fn run_spot(config: SpotConfig) -> contig_core::SpotStats {
    let mut spot = SpotPredictor::new(config);
    let walk = |pa: u64, contig: bool| WalkResult {
        pa: PhysAddr::new(pa),
        size: PageSize::Base4K,
        refs: 24,
        contig,
        write: false,
    };
    for i in 0..50_000u64 {
        // Predictable stream: one instruction, offset switches between
        // two large mappings every 500 misses (phase change).
        let phase = (i / 500) % 2;
        let va = VirtAddr::new((1 << 33) + (i * 0x3000) % (1 << 30));
        let pa = va.raw() - (1 << 32) - phase * (1 << 31);
        spot.on_miss(Access::read(0x10, va), &walk(pa, true));
        // Noise: scattered 4 KiB mappings, no contiguity bit, many PCs.
        let nva = VirtAddr::new((1 << 36) + (i * 0x9151) % (1 << 30));
        let nwalk = walk((i * 0x1357) % (1 << 30), false);
        for k in 0..3 {
            spot.on_miss(Access::read(0x18 + (i % 23) * 8 + k * 256, nva), &nwalk);
        }
    }
    spot.stats()
}

/// Prints one quality line per ablation arm; takes no flags.
pub fn run(argv: &[String]) -> Result<ExitCode, UsageError> {
    no_flags(argv)?;
    println!("== Ablations — quality impact of the DESIGN.md §2 design choices ==\n");
    println!("CA paging, 24 MiB VMA on a 128 MiB machine with 35% hogged:");
    for (name, sorted, replacement) in
        [("full CA", true, true), ("no sorted list", false, true), ("no re-placement", true, false)]
    {
        let mut sys = fragmented_system(sorted);
        let runs = run_ca(&mut sys, CaConfig { replacement, ..CaConfig::default() });
        println!("ablation quality [{name}]: {runs} contiguous runs for a 24 MiB VMA");
    }
    println!("\nSpOT, one predictable instruction changing phase under contiguity-less noise:");
    for (name, config) in [
        ("filtered_32x4", SpotConfig::default()),
        ("unfiltered_32x4", SpotConfig { require_contig_bit: false, ..SpotConfig::default() }),
        ("filtered_8x4", SpotConfig { entries: 8, ..SpotConfig::default() }),
        ("filtered_128x4", SpotConfig { entries: 128, ..SpotConfig::default() }),
    ] {
        let s = run_spot(config);
        println!(
            "ablation quality [{name}]: correct {:.1}%, mispredict {:.1}%, fills {}",
            s.correct_rate() * 100.0,
            s.mispredict_rate() * 100.0,
            s.fills
        );
    }
    Ok(ExitCode::SUCCESS)
}
