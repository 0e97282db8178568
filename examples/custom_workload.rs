//! Building your own workload against the public API: a software-managed
//! key-value store with a growing log, demand-faulted through CA paging,
//! then measured under the TLB simulator with and without SpOT.
//!
//! ```sh
//! cargo run --release --example custom_workload
//! ```

use contig::prelude::*;
use contig_tlb::NoScheme;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

fn main() -> Result<(), contig_types::FaultError> {
    // --- build the "application": a 96 MiB index plus a 32 MiB append log.
    let mut sys = System::new(SystemConfig::new(MachineConfig::single_node_mib(256)));
    let pid = sys.spawn();
    let index_range = VirtRange::new(VirtAddr::new(0x1_0000_0000), 96 << 20);
    let log_range = VirtRange::new(VirtAddr::new(0x2_0000_0000), 32 << 20);
    let index = sys.aspace_mut(pid).map_vma(index_range, VmaKind::Anon);
    let log = sys.aspace_mut(pid).map_vma(log_range, VmaKind::Anon);

    let mut ca = CaPaging::new();
    sys.populate_vma(&mut ca, pid, index)?;
    sys.populate_vma(&mut ca, pid, log)?;
    let stats = ca.stats();
    println!(
        "CA paging: {} placement decisions, {} offset-derived allocations, {} busy targets",
        stats.placements, stats.offset_allocs, stats.target_busy
    );

    // --- generate this store's access pattern ourselves: random index
    // probes (one stable PC) plus a sequential log writer (another PC).
    let mut rng = StdRng::seed_from_u64(11);
    let mut log_cursor = 0u64;
    let mut trace = Vec::with_capacity(400_000);
    for _ in 0..400_000 {
        if rng.gen_bool(0.7) {
            let off = rng.gen_range(0..index_range.len()) & !0x7;
            trace.push(Access::read(0xA11, index_range.start() + off));
        } else {
            trace.push(Access::write(0xB22, log_range.start() + log_cursor));
            log_cursor = (log_cursor + 64) % log_range.len();
        }
    }

    // --- run it through the translation hardware twice.
    let pt = sys.aspace(pid).page_table();
    let backend = NativeBackend::new(pt);
    let run = |name: &str, handler: &mut dyn MissHandler| {
        let mut sim = MemorySim::new(TlbConfig::broadwell_scaled(512), Default::default());
        sim.run(&backend, handler, trace.iter().copied());
        let r = sim.report();
        let model = PerfModel;
        println!(
            "{name:>10}: {} walks, overhead {:.2}%",
            r.walks,
            model.scheme_overhead(&r) * 100.0
        );
        r
    };
    run("baseline", &mut NoScheme);
    let mut spot = SpotPredictor::new(SpotConfig::default());
    run("SpOT", &mut spot);
    let s = spot.stats();
    println!(
        "SpOT breakdown: {:.1}% correct, {:.1}% mispredicted",
        s.correct_rate() * 100.0,
        s.mispredict_rate() * 100.0
    );
    println!();
    println!("two instructions, two offsets: the prediction table locks onto both");
    println!("contiguous mappings and hides nearly every walk.");
    Ok(())
}
