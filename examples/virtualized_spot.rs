//! Virtualized translation end-to-end: boot a nested-paging VM with CA
//! paging in both dimensions, run a synthetic PageRank inside it, and drive
//! the TLB simulator with SpOT on the miss path.
//!
//! ```sh
//! cargo run --release --example virtualized_spot
//! ```

use contig::prelude::*;

fn main() -> Result<(), contig_types::FaultError> {
    // Guest: 512 MiB of "guest physical" memory; host: 768 MiB backing it.
    // CA paging runs in each dimension independently — no coordination.
    let mut vm = VirtualMachine::new(
        VmConfig::with_mib(512, 768),
        Box::new(CaPaging::new()),
        Box::new(CaPaging::new()),
    );

    // A scaled-down PageRank: CSR offsets + edges + two rank arrays.
    let spec = Workload::PageRank.spec(Scale(1024));
    let pid = vm.guest_mut().spawn();
    let mut vmas = Vec::new();
    for v in spec.anon_vmas() {
        vmas.push(vm.guest_mut().aspace_mut(pid).map_vma(v.range(), VmaKind::Anon));
    }
    println!("populating {} of guest memory through nested faults...", spec.name);
    for vma in &vmas {
        vm.populate_vma(pid, *vma)?;
    }

    // Inspect the 2D (gVA -> hPA) contiguity CA paging created.
    let maps = contig_virt::two_dimensional_mappings(&vm, pid);
    let cov = CoverageStats::from_mappings(&maps);
    println!(
        "2D contiguous mappings: {} ({} needed for 99% of the footprint)\n",
        maps.len(),
        cov.mappings_for_coverage(0.99)
    );

    // Drive the TLB simulator: nested walks on misses, SpOT predicting.
    let accesses = 500_000u64;
    let mut gen = TraceGenerator::new(&spec, 7);
    let backend = VmBackend::new(&vm, pid);
    let mut spot = SpotPredictor::new(SpotConfig::default());
    let mut sim = MemorySim::new(TlbConfig::broadwell_scaled(1024), Default::default());
    // Skip file-backed edges in this standalone example (anon-only VMAs).
    let trace = gen.take_accesses(accesses).filter(|a| !spec.vmas[1].range().contains(a.va));
    sim.run(&backend, &mut spot, trace);

    let report = sim.report();
    let stats = spot.stats();
    let model = PerfModel;
    println!("accesses simulated : {}", report.accesses);
    println!("nested page walks  : {}", report.walks);
    println!("SpOT correct       : {} ({:.1}%)", stats.correct, stats.correct_rate() * 100.0);
    println!("SpOT mispredicted  : {}", stats.mispredicted);
    println!("SpOT no prediction : {}", stats.no_prediction);
    println!();
    println!(
        "translation overhead: {:.2}% with SpOT (vs {:.2}% with every walk exposed)",
        model.scheme_overhead(&report) * 100.0,
        model.exposed_overhead(&report) * 100.0,
    );
    Ok(())
}
