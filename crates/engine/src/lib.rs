//! Parallel experiment engine.
//!
//! Virtual-memory simulators become research-useful once experiment sweeps
//! run at scale (cf. Virtuoso): a figure is dozens of independent
//! `System`/`VirtualMachine` simulations, and nothing about them shares
//! state. This crate runs such sweeps on `std::thread` workers with:
//!
//! - **Deterministic per-task seeds** — task `i` always receives
//!   `splitmix64(base_seed + i)`, so results are bit-identical regardless of
//!   worker count or scheduling (the property checked by the repo's
//!   1-vs-8-worker determinism test).
//! - **One shared task cursor** — each worker claims the next unclaimed task
//!   index from one atomic counter, so a worker that finishes early simply
//!   takes the next task and uneven task durations do not strand workers.
//! - **Panic isolation** — a panicking task is caught, reported as a failed
//!   [`TaskReport`], and never takes down the pool or sibling tasks.
//! - **Per-task trace sessions** — every task gets its own
//!   [`contig_trace::TraceSession`] ring, so probes from concurrent
//!   simulations never interleave.
//!
//! # Examples
//!
//! ```
//! use contig_engine::{run_seeded, PoolConfig};
//!
//! let reports = run_seeded(PoolConfig::new(4), 42, 8, |ctx| {
//!     // Each task sees a stable seed derived from (base_seed, index).
//!     ctx.seed.wrapping_mul(ctx.index as u64 + 1)
//! });
//! assert_eq!(reports.len(), 8);
//! assert!(reports.iter().all(|r| r.outcome.is_ok()));
//! ```

use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Mutex;

use contig_trace::{SpanStack, TraceSession};
use contig_types::splitmix64;

/// How many events each task's private trace ring retains.
const TASK_TRACE_CAPACITY: usize = 4096;

/// Pool shape for one [`run_seeded`] sweep.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct PoolConfig {
    /// Worker threads to spawn. [`run_seeded`] clamps it to `1..=tasks`.
    pub(crate) workers: usize,
}

impl PoolConfig {
    /// A pool of `workers` threads.
    pub fn new(workers: usize) -> Self {
        Self { workers }
    }
}

/// Everything a task needs: its identity, its seed, and a private trace
/// session whose [`contig_trace::Tracer`] can be attached to the simulated
/// system.
pub struct TaskCtx {
    /// Task index in `0..tasks`.
    pub index: usize,
    /// Deterministic seed: `splitmix64(base_seed + index)`. Independent of
    /// worker count and scheduling order.
    pub seed: u64,
    /// This task's private trace session (ring sink).
    pub trace: TraceSession,
}

/// Outcome of one task.
#[derive(Clone, Debug)]
pub struct TaskReport<R> {
    /// The task's return value, or the panic message if it panicked.
    pub outcome: Result<R, String>,
    /// Final span-profiler snapshot of the task's trace session.
    pub spans: SpanStack,
    /// The task's flight-recorder dump, captured when (and only when) the
    /// task panicked — the engine-side post-mortem artifact.
    pub flight_jsonl: Option<String>,
}

impl<R> TaskReport<R> {
    /// The successful result, if any.
    pub fn ok(&self) -> Option<&R> {
        self.outcome.as_ref().ok()
    }
}

/// The deterministic seed of task `index` under `base_seed` — one
/// splitmix64 step keyed by the sum, so neighbouring indices get
/// well-mixed, independent streams.
pub fn task_seed(base_seed: u64, index: usize) -> u64 {
    let mut state = base_seed.wrapping_add(index as u64);
    splitmix64(&mut state)
}

/// Renders a panic payload the way the default hook would.
fn panic_message(payload: Box<dyn std::any::Any + Send>) -> String {
    if let Some(s) = payload.downcast_ref::<&str>() {
        (*s).to_string()
    } else if let Some(s) = payload.downcast_ref::<String>() {
        s.clone()
    } else {
        "task panicked (non-string payload)".to_string()
    }
}

/// Runs task `index` under a fresh [`TaskCtx`], catching a panic into an
/// `Err` outcome that carries the task's flight recorder.
fn run_task<R>(f: &impl Fn(&mut TaskCtx) -> R, base_seed: u64, index: usize) -> TaskReport<R> {
    let mut ctx = TaskCtx {
        index,
        seed: task_seed(base_seed, index),
        trace: TraceSession::ring(TASK_TRACE_CAPACITY),
    };
    let outcome = catch_unwind(AssertUnwindSafe(|| f(&mut ctx))).map_err(panic_message);
    let flight_jsonl = outcome.is_err().then(|| ctx.trace.flight_jsonl());
    TaskReport { outcome, spans: ctx.trace.spans(), flight_jsonl }
}

/// Runs `tasks` independent seeded tasks on `config.workers` threads
/// (clamped to `1..=tasks`) and returns one [`TaskReport`] per task, in
/// task order.
///
/// Every worker claims the next task index from one shared counter, runs
/// it, and writes its report into that index's slot, so each task runs
/// exactly once. The task closure runs concurrently on the workers; it must
/// be `Sync` (shared by reference) and is handed a fresh [`TaskCtx`] per
/// task. Task results depend only on `(base_seed, index)`, never on the
/// worker count — the engine's core determinism contract.
///
/// # Panics
///
/// Never propagates task panics (they surface as `Err` outcomes); panics
/// only if a slot lock is poisoned, which a caught task panic cannot cause.
pub fn run_seeded<R, F>(config: PoolConfig, base_seed: u64, tasks: usize, f: F) -> Vec<TaskReport<R>>
where
    R: Send,
    F: Fn(&mut TaskCtx) -> R + Sync,
{
    let workers = config.workers.max(1).min(tasks);
    let next = AtomicUsize::new(0);
    let slots: Vec<Mutex<Option<TaskReport<R>>>> = (0..tasks).map(|_| Mutex::new(None)).collect();
    std::thread::scope(|scope| {
        for _ in 0..workers {
            scope.spawn(|| loop {
                // Relaxed suffices: the counter publishes no data, and every
                // `fetch_add` returns a distinct index. Reports reach the
                // caller through the slot mutexes and the scope's join.
                let index = next.fetch_add(1, Ordering::Relaxed);
                if index >= tasks {
                    break;
                }
                let report = run_task(&f, base_seed, index);
                *slots[index].lock().expect("slot poisoned") = Some(report);
            });
        }
    });
    slots
        .into_iter()
        .map(|slot| {
            slot.into_inner()
                .expect("slot poisoned")
                .expect("every task index is claimed exactly once")
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    use std::sync::atomic::AtomicU32;
    use std::time::Duration;

    #[test]
    fn reports_come_back_in_task_order() {
        let reports = run_seeded(PoolConfig::new(4), 7, 37, |ctx| ctx.index * 3);
        assert_eq!(reports.len(), 37);
        for (i, r) in reports.iter().enumerate() {
            assert_eq!(*r.ok().unwrap(), i * 3);
        }
    }

    #[test]
    fn seeds_are_independent_of_worker_count() {
        let one = run_seeded(PoolConfig::new(1), 99, 16, |ctx| ctx.seed);
        let eight = run_seeded(PoolConfig::new(8), 99, 16, |ctx| ctx.seed);
        for (i, (a, b)) in one.iter().zip(&eight).enumerate() {
            assert_eq!(a.ok(), Some(&task_seed(99, i)));
            assert_eq!(a.ok(), b.ok());
        }
    }

    #[test]
    fn panicking_task_is_isolated() {
        let reports = run_seeded(PoolConfig::new(4), 0, 8, |ctx| {
            assert!(ctx.index != 3, "task three detonates");
            ctx.index
        });
        for (i, r) in reports.iter().enumerate() {
            if i == 3 {
                let msg = r.outcome.as_ref().unwrap_err();
                assert!(msg.contains("task three detonates"), "unexpected message {msg}");
            } else {
                assert_eq!(*r.ok().unwrap(), i);
            }
        }
    }

    #[test]
    fn zero_tasks_is_fine() {
        let reports = run_seeded(PoolConfig::new(4), 0, 0, |ctx| ctx.index);
        assert!(reports.is_empty());
    }

    #[test]
    fn a_zero_worker_literal_runs_on_one_worker() {
        // `workers` is public, so a literal bypasses `PoolConfig::new`;
        // `run_seeded` itself must clamp it.
        let reports = run_seeded(PoolConfig { workers: 0 }, 1, 3, |c| c.index);
        let results: Vec<usize> = reports.iter().map(|r| *r.ok().unwrap()).collect();
        assert_eq!(results, [0, 1, 2]);
    }

    #[test]
    fn every_task_runs_exactly_once() {
        const BASE: u64 = 0x5EED;
        for workers in [1, 2, 3, 8] {
            for tasks in [0, 1, 7, 64] {
                let runs: Vec<AtomicU32> = (0..tasks).map(|_| AtomicU32::new(0)).collect();
                let reports = run_seeded(PoolConfig::new(workers), BASE, tasks, |ctx| {
                    // Uneven durations: 0–1.2 ms by index, so workers
                    // overtake each other and claim out of step.
                    std::thread::sleep(Duration::from_micros((ctx.index % 5) as u64 * 300));
                    runs[ctx.index].fetch_add(1, Ordering::Relaxed);
                    (ctx.index, ctx.seed)
                });
                assert_eq!(reports.len(), tasks, "{workers} workers, {tasks} tasks");
                for (i, (r, ran)) in reports.iter().zip(&runs).enumerate() {
                    let ran = ran.load(Ordering::Relaxed);
                    assert_eq!(ran, 1, "{workers} workers: task {i} of {tasks} ran {ran} times");
                    assert_eq!(r.ok(), Some(&(i, task_seed(BASE, i))));
                }
            }
        }
    }

    #[test]
    fn panicking_task_carries_flight_dump() {
        let reports = run_seeded(PoolConfig::new(2), 0, 4, |ctx| {
            let tracer = ctx.trace.tracer();
            tracer.emit(contig_trace::TraceEvent::Alloc { order: 0, pfn: ctx.index as u64 });
            assert!(ctx.index != 2, "task two detonates");
            ctx.index
        });
        for (i, r) in reports.iter().enumerate() {
            if i == 2 {
                let dump = r.flight_jsonl.as_deref().expect("panicked task dumps flight");
                let parsed = contig_trace::parse_jsonl(dump).expect("decodable dump");
                assert!(!parsed.is_empty());
            } else {
                assert!(r.flight_jsonl.is_none(), "clean tasks carry no dump");
            }
        }
    }

    #[test]
    fn task_trace_sessions_are_private() {
        let reports = run_seeded(PoolConfig::new(4), 5, 6, |ctx| {
            let tracer = ctx.trace.tracer();
            for _ in 0..=ctx.index {
                tracer.add("engine.test", 1);
            }
            ctx.trace.metrics().counter("engine.test")
        });
        for (i, r) in reports.iter().enumerate() {
            assert_eq!(*r.ok().unwrap(), i as u64 + 1, "cross-task trace bleed");
        }
    }
}
