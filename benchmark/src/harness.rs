//! Runs one workload in this process: repetitions, the determinism check,
//! the floor estimator, and the traced pass.

use std::time::{Duration, Instant};

use contig::check::{fnv1a64, fold_digests};

use crate::estimator::{self, Estimate, MICRO};
use crate::metrics::{self, END_TO_END};
use crate::rec::{Class, Recorder};
use crate::report::{EndToEnd, Value, WorkloadResult};
use crate::workloads::{Finish, Size, Spec};

/// Repetitions are never cut below this by a time budget.
const MIN_REPETITIONS: usize = 5;
/// Repetitions of each kind (untraced, traced) in the traced pass.
const TRACED_REPETITIONS: usize = 2;

pub struct Options {
    pub seed: u64,
    pub size: Size,
    /// Time budget; repetitions beyond [`MIN_REPETITIONS`] that would
    /// overrun it are cut.
    pub budget: Option<Duration>,
    /// Busy-spin this share of every batch's measured time inside the timed
    /// region: the detection-power self-check.
    pub handicap_ppm: u64,
}

/// One repetition: state rebuilt from the seed, every batch timed.
struct Repetition {
    setup_ns: u64,
    batch_ns: Vec<u64>,
    events: Vec<u64>,
    failed: u64,
    finish: Finish,
}

fn repetition(spec: &Spec, opts: &Options, rec: &mut Recorder) -> Repetition {
    let batches = (spec.batches)(opts.size);
    let started = Instant::now();
    let mut workload = (spec.build)(opts.seed, opts.size);
    let setup_ns = started.elapsed().as_nanos() as u64;
    let mut batch_ns = Vec::with_capacity(batches);
    let mut events = Vec::with_capacity(batches);
    let mut failed = 0;
    let run_span = rec.open(spec.name);
    for k in 0..batches {
        workload.prepare(k);
        let batch_span = rec.open("batch");
        let timer = Instant::now();
        let out = workload.run(k, rec);
        let mut ns = timer.elapsed().as_nanos() as u64;
        if opts.handicap_ppm > 0 {
            let target = ns + (u128::from(ns) * u128::from(opts.handicap_ppm) / MICRO) as u64;
            while (timer.elapsed().as_nanos() as u64) < target {
                std::hint::spin_loop();
            }
            ns = timer.elapsed().as_nanos() as u64;
        }
        rec.end_batch(batch_span);
        rec.close(batch_span);
        batch_ns.push(ns);
        events.push(out.events);
        failed += out.failed;
    }
    rec.close(run_span);
    Repetition {
        setup_ns,
        batch_ns,
        events,
        failed,
        finish: workload.finish(),
    }
}

/// Runs `count` repetitions (fewer if the budget runs out after
/// `min_count`) and checks that each left the same state behind — the
/// correctness check, and what licenses taking per-batch minima.
fn repetitions(
    spec: &Spec,
    opts: &Options,
    count: usize,
    min_count: usize,
    recorder: impl Fn(usize) -> Recorder,
) -> Result<(Vec<Repetition>, Recorder), String> {
    let started = Instant::now();
    let mut reps: Vec<Repetition> = Vec::with_capacity(count);
    let mut last_rec = Recorder::off();
    while reps.len() < count {
        let rep_started = Instant::now();
        let mut rec = recorder(reps.len());
        let rep = repetition(spec, opts, &mut rec);
        last_rec = rec;
        if let Some(first) = reps.first() {
            if (first.finish.digest, &first.finish.counts, &first.events)
                != (rep.finish.digest, &rep.finish.counts, &rep.events)
            {
                return Err(format!(
                    "{}: repetition {} left digest {:#x}, repetition 0 left {:#x}; the floor \
                     estimator is invalid on a run that does not repeat",
                    spec.name,
                    reps.len(),
                    rep.finish.digest,
                    first.finish.digest
                ));
            }
        }
        reps.push(rep);
        let next_ends = started.elapsed() + rep_started.elapsed();
        if reps.len() >= min_count && opts.budget.is_some_and(|b| next_ends > b) {
            break;
        }
    }
    Ok((reps, last_rec))
}

/// `VmHWM` of this process in KiB.
fn peak_rss_kib() -> u64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|s| {
            s.lines()
                .find_map(|l| l.strip_prefix("VmHWM:"))
                .and_then(|v| v.trim().trim_end_matches("kB").trim().parse().ok())
        })
        .unwrap_or(0)
}

fn batch_series(reps: &[Repetition]) -> Vec<Vec<u64>> {
    reps.iter().map(|r| r.batch_ns.clone()).collect()
}

/// Floored nanoseconds per event (millionths) of the batches in group
/// `g` of `groups`, batch `k` belonging to group `k % groups`.
fn group_ns_per_event(floor: &[u64], events: &[u64], g: usize, groups: usize) -> u64 {
    let pick = |v: &[u64]| -> u128 {
        v.iter()
            .enumerate()
            .filter(|(k, _)| k % groups == g)
            .map(|(_, &x)| u128::from(x))
            .sum()
    };
    u64::try_from(pick(floor) * MICRO / pick(events).max(1)).expect("ns/event fits u64")
}

fn arm_values(arms: &[&str], reps: &[Repetition]) -> Vec<Value> {
    if arms.is_empty() {
        return Vec::new();
    }
    let floor = estimator::floor_series(&batch_series(reps));
    (0..arms.len())
        .map(|g| {
            Value::new(
                arms[g],
                group_ns_per_event(&floor, &reps[0].events, g, arms.len()),
            )
        })
        .collect()
}

fn result(spec: &Spec, reps: &[Repetition], host_layer: Vec<Value>) -> WorkloadResult {
    let first = &reps[0];
    let events: u64 = first.events.iter().sum();
    let failed = reps.iter().map(|r| r.failed).max().unwrap_or(0);
    let [eps, p50, p95] = estimator::estimate(&batch_series(reps), &first.events);
    let setup =
        estimator::estimate_scalar(&reps.iter().map(|r| r.setup_ns / 1_000).collect::<Vec<_>>());
    let rss = Estimate::exact((u128::from(peak_rss_kib()) * MICRO / 1024) as u64);
    let failed_ppm = Estimate::exact(metrics::ppm(failed, events));
    let estimates = [eps, p50, p95, setup, rss, failed_ppm];
    let counts_digest = fnv1a64(format!("{:?}", first.finish.counts).as_bytes());
    WorkloadResult {
        name: spec.name.to_string(),
        model_digest: fold_digests(&[first.finish.digest, events, counts_digest]),
        batches: first.batch_ns.len() as u64,
        repetitions: reps.len() as u64,
        tail_samples_beyond: estimator::samples_beyond(first.batch_ns.len(), 95) as u64,
        events,
        failed,
        end_to_end: END_TO_END
            .iter()
            .zip(estimates)
            .map(|(def, e)| EndToEnd {
                name: def.name.to_string(),
                floor: e.floor,
                median: e.median,
            })
            .collect(),
        counts: metrics::count_metrics(&first.finish.counts, events)
            .into_iter()
            .map(|(name, micro)| Value::new(name, micro))
            .collect(),
        host_layer,
        problems: first.finish.problems.clone(),
    }
}

/// The measured pass: end-to-end numbers with no tracing cost.
pub fn measure(spec: &Spec, opts: &Options) -> Result<WorkloadResult, String> {
    let count = opts.size.pick(spec.repetitions, 2);
    let min_count = count.min(MIN_REPETITIONS);
    let (reps, _) = repetitions(spec, opts, count, min_count, |_| Recorder::off())?;
    Ok(result(spec, &reps, arm_values(spec.arms, &reps)))
}

/// The traced pass: untraced and traced repetitions side by side, so the
/// share of wall time inside each class of public call and the cost of
/// recording it are both known. Writes the last traced repetition's spans
/// to `trace_path`.
pub fn trace(
    spec: &Spec,
    opts: &Options,
    trace_path: &std::path::Path,
) -> Result<WorkloadResult, String> {
    // Untraced and traced repetitions alternate, so a slow phase of the box
    // falls on both kinds alike.
    let count = 2 * opts.size.pick(TRACED_REPETITIONS, 1);
    let run_id = opts.seed;
    let (reps, rec) = repetitions(spec, opts, count, count, |i| {
        if i % 2 == 0 {
            Recorder::off()
        } else {
            Recorder::on(run_id)
        }
    })?;
    let (mut plain, mut traced) = (Vec::new(), Vec::new());
    for (i, rep) in reps.into_iter().enumerate() {
        if i % 2 == 0 { &mut plain } else { &mut traced }.push(rep);
    }
    rec.write_jsonl(trace_path)
        .map_err(|e| format!("writing {}: {e}", trace_path.display()))?;

    let last = traced.last().expect("at least one traced repetition");
    let wall: u64 = last.batch_ns.iter().sum();
    // A class has a busy share when the metric tables declare one (the
    // replay arms are reported per access instead).
    let mut host_layer: Vec<Value> = Class::ALL
        .iter()
        .map(|c| (format!("{}_busy_ppm", c.name()), rec.class_ns(*c)))
        .filter(|(name, _)| metrics::PER_LAYER.iter().any(|d| d.name == name))
        .map(|(name, ns)| Value::new(&name, metrics::ppm(ns, wall)))
        .collect();
    host_layer.extend(arm_values(spec.arms, &plain));
    let sum =
        |reps: &[Repetition]| -> u64 { estimator::floor_series(&batch_series(reps)).iter().sum() };
    let (plain_ns, traced_ns) = (sum(&plain), sum(&traced));
    let overhead = metrics::ppm(traced_ns.saturating_sub(plain_ns), plain_ns);
    host_layer.push(Value::new("bench.span_overhead_ppm", overhead));
    Ok(result(spec, &plain, host_layer))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::metrics::{Source, PER_LAYER};
    use crate::workloads::ALL;
    use contig::check::json;

    fn smoke(handicap_ppm: u64) -> Options {
        Options {
            seed: 7,
            size: Size::Smoke,
            budget: None,
            handicap_ppm,
        }
    }

    /// Two repetitions of every workload leave equal digests (`measure`
    /// fails otherwise) and a sound final state: auditor clean, allocator
    /// intact, every frame returned after the last exit.
    #[test]
    fn smoke_runs_repeat_and_end_clean() {
        for spec in &ALL {
            let result = measure(spec, &smoke(0)).expect("repetitions agree");
            assert!(result.correct(), "{}: {:?}", spec.name, result.problems);
            assert_eq!(result.repetitions, 2);
            assert_eq!(result.batches as usize, (spec.batches)(Size::Smoke));
            assert!(result.events > 0 && result.end_to_end.iter().take(5).all(|e| e.floor > 0));
            assert_eq!(result.host_layer.len(), spec.arms.len());
        }
    }

    #[test]
    fn full_size_has_two_hundred_batches_and_a_resolved_tail() {
        for spec in &ALL {
            let batches = (spec.batches)(Size::Full);
            assert!(batches >= 200, "{} has {batches} batches", spec.name);
            assert!(estimator::samples_beyond(batches, 95) >= estimator::MIN_TAIL_SAMPLES);
            assert!(spec.repetitions >= MIN_REPETITIONS);
        }
    }

    #[test]
    fn the_handicap_spins_inside_the_timed_region() {
        let spec = &ALL[0];
        let plain = measure(spec, &smoke(0)).unwrap();
        let doubled = measure(spec, &smoke(1_000_000)).unwrap();
        assert_eq!(
            plain.model_digest, doubled.model_digest,
            "the handicap must not touch the model"
        );
        let (fast, slow) = (
            plain.metric("events_per_s").floor,
            doubled.metric("events_per_s").floor,
        );
        assert!(
            slow * 10 < fast * 7,
            "a 100 % handicap left {slow} of {fast} events/s"
        );
    }

    #[test]
    fn traced_pass_attributes_time_and_writes_spans() {
        let dir = std::path::Path::new(env!("CARGO_MANIFEST_DIR")).join("out");
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join(format!("trace-unit-test-{}.jsonl", std::process::id()));
        let spec = &ALL[0];
        let traced = trace(spec, &smoke(0), &path).expect("traced pass");
        let measured = measure(spec, &smoke(0)).unwrap();
        assert_eq!(traced.model_digest, measured.model_digest);
        assert_eq!(traced.counts, measured.counts);
        let busy: u64 = traced
            .host_layer
            .iter()
            .filter(|v| v.name.ends_with("_busy_ppm"))
            .map(|v| v.micro)
            .sum();
        assert!(
            busy > 500_000 * 1_000_000 && busy <= 1_000_000 * 1_000_000,
            "busy share {busy}"
        );
        for v in &traced.host_layer {
            let def = PER_LAYER
                .iter()
                .find(|d| d.name == v.name)
                .expect("declared metric");
            assert_eq!(def.source, Source::Host);
        }
        let text = std::fs::read_to_string(&path).unwrap();
        std::fs::remove_file(&path).unwrap();
        let lines: Vec<_> = text
            .lines()
            .map(|l| json::parse(l).expect("integer-only JSON line"))
            .collect();
        let spans = lines
            .iter()
            .filter(|l| l.get("type").and_then(|t| t.as_str()) == Some("span"))
            .count();
        // One workload span, one per batch, eight phases per batch.
        assert_eq!(spans, 1 + 6 * 9);
        assert!(lines
            .iter()
            .any(|l| l.get("class").and_then(|c| c.as_str()) == Some("mm.touch")));
    }

    #[test]
    fn probes_cover_every_probe_metric_once() {
        let mut produced: Vec<String> = crate::probes::run(Size::Smoke)
            .into_iter()
            .map(|v| v.name)
            .collect();
        let mut declared: Vec<String> = PER_LAYER
            .iter()
            .filter(|d| d.source == Source::Probe)
            .map(|d| d.name.to_string())
            .collect();
        produced.sort();
        declared.sort();
        assert_eq!(produced, declared);
    }
}
