//! `torture_mix`: the differential torture harness with every mode on.

use contig::check::{fold_digests, generate_ops, run_ops, TortureConfig, TortureReport};

use super::{BatchOut, Counts, Finish, Size, Spec, Workload};
use crate::rec::{Class, Recorder};

pub const SPEC: Spec = Spec {
    name: "torture_mix",
    why: "snapshot/restore, digest, audit, oracle sweeps, migration, fleet steps and daemon ticks \
          dominate; buddy and mm are driven by poison, compaction and restore, not faults, so costs \
          shifted onto them show",
    event: "torture op",
    repetitions: 5,
    batches: |size| size.pick(200, 3),
    arms: &[],
    build: |seed, size| Box::new(TortureMix::build(seed, size)),
};

pub struct TortureMix {
    seed: u64,
    ops: usize,
    counts: Counts,
    fold: u64,
    problems: Vec<String>,
}

impl TortureMix {
    fn build(seed: u64, size: Size) -> Self {
        let fresh = |seed| Self {
            seed,
            ops: size.pick(128, 48),
            counts: Counts::default(),
            fold: 0,
            problems: Vec::new(),
        };
        // One throwaway batch, for the same reason as `nested_boot`'s and
        // like it the same for every seed.
        fresh(0).run(0, &mut Recorder::off());
        fresh(seed)
    }

    fn config(&self, k: usize) -> TortureConfig {
        TortureConfig {
            poison: true,
            migrate: true,
            fleet: true,
            pcp: true,
            daemon: true,
            shards: 2,
            ..TortureConfig::with_seed_and_ops(self.seed.wrapping_add(k as u64), self.ops)
        }
    }

    fn account(&mut self, report: &TortureReport) {
        let c = &mut self.counts;
        let m = &report.metrics;
        // The run's own trace registry is the only public view of its
        // allocator and fault traffic; the counters are exact.
        c.allocs += m.counter("buddy.alloc");
        c.targeted_allocs += m.counter("buddy.targeted_alloc");
        c.targeted_misses += m.counter("buddy.targeted_miss");
        c.frees += m.counter("buddy.free");
        c.cow_faults += m.counter("mm.cow_break");
        c.ca_placements += m.counter("ca.placement");
        c.host_faults += m.counter("virt.nested_fault");
        c.oom_events += report.oom_events;
        c.daemon_moves += report.daemon_stats.compact_moves;
        c.migrations += report.migrations;
        c.audits += report.audits;
        c.sweeps += report.sweeps;
        c.crash_checks += report.crash_checks;
        c.fleet_ops += report.fleet_ops;
        c.pressure_events += report.fleet_stats.pressure_events;
        self.fold = fold_digests(&[
            self.fold,
            report.final_digest,
            report.fleet_digest,
            report.op_errors,
            report.touches,
            report.writes,
        ]);
    }
}

impl Workload for TortureMix {
    fn prepare(&mut self, _k: usize) {}

    fn run(&mut self, k: usize, rec: &mut Recorder) -> BatchOut {
        let cfg = self.config(k);
        let phase = rec.open("generate_ops");
        let ops = rec.call(Class::CheckGenerateOps, || generate_ops(&cfg));
        rec.close(phase);
        let phase = rec.open("run_ops");
        let report = rec.call(Class::CheckRunOps, || run_ops(&cfg, &ops));
        rec.close(phase);
        self.account(&report);
        let events = report.ops_executed as u64;
        // Expected op errors (injected OOM) are not failures; a divergence
        // between the stack and its oracle fails every op of the run.
        let failed = match &report.failure {
            Some(f) => {
                self.problems
                    .push(format!("torture_mix: seed {} failed: {f:?}", cfg.seed));
                events
            }
            None => 0,
        };
        BatchOut { events, failed }
    }

    fn finish(self: Box<Self>) -> Finish {
        Finish {
            digest: self.fold,
            counts: self.counts,
            problems: self.problems,
        }
    }
}
