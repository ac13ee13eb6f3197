//! The unit-level compilation pool.
//!
//! The build environment has no external dependencies (no rayon), so
//! this module provides the one parallel primitive the compiler needs,
//! built on [`std::thread::scope`]: [`run_units`] overlaps independent
//! compilation units. Workers claim units one at a time off a shared
//! [`AtomicUsize`] cursor, so a worker that finishes early immediately
//! grabs the next unit. Within a unit everything is sequential — the
//! simulation tier is the paper's single dominator-tree walk.
//!
//! Determinism is the caller's job, and the pool makes it easy: closures
//! receive the unit *index*, and results are placed into index-addressed
//! slots and returned in submission order, so execution order never
//! leaks into the output. The pool itself only reports per-worker load
//! statistics ([`WorkerLoad`]), which depend on scheduling and must
//! never feed back into results.

use std::panic::resume_unwind;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::OnceLock;
use std::time::Instant;

/// What one worker did — observability only; the counts depend on
/// scheduling and must not feed back into results.
#[derive(Clone, Debug, Default)]
pub struct WorkerLoad {
    /// Worker index within the pool (0-based; worker 0 is the calling
    /// thread).
    pub worker: usize,
    /// Units this worker claimed and ran.
    pub tasks: usize,
    /// Wall-clock nanoseconds the worker spent inside the unit closure
    /// (claim overhead excluded).
    pub busy_ns: u128,
}

/// The machine's available parallelism, resolved once per process:
/// [`std::thread::available_parallelism`] is a syscall and pool plans
/// are constructed per batch, so the value is cached in a [`OnceLock`].
pub fn hardware_threads() -> usize {
    static HW: OnceLock<usize> = OnceLock::new();
    *HW.get_or_init(|| std::thread::available_parallelism().map_or(1, usize::from))
}

/// Runs `f(index, &units[index])` over every unit on up to `workers`
/// scoped threads and returns the results in submission (index) order,
/// plus the per-worker loads (worker-index order) and the wall-clock
/// nanoseconds of the fan-out.
///
/// The calling thread participates as worker 0, so with one worker
/// everything runs inline on it in index order — the sequential path is
/// the same loop. A panic in `f` is re-raised on the caller once every
/// worker has stopped.
///
/// This is the unit-level compilation queue shared by the evaluation
/// harness (`dbds_harness::run_units` wraps it) and the compilation
/// service's batch dispatcher.
pub fn run_units<I: Sync, T: Send>(
    workers: usize,
    units: &[I],
    f: impl Fn(usize, &I) -> T + Sync,
) -> (Vec<T>, Vec<WorkerLoad>, u128) {
    let t = Instant::now();
    if units.is_empty() {
        return (Vec::new(), Vec::new(), t.elapsed().as_nanos());
    }
    let workers = workers.clamp(1, units.len());
    let cursor = AtomicUsize::new(0);
    let drain = |worker: usize| {
        let mut load = WorkerLoad {
            worker,
            ..WorkerLoad::default()
        };
        let mut done = Vec::new();
        loop {
            // Relaxed: the cursor only hands out indices; results reach
            // the caller through the joins.
            let i = cursor.fetch_add(1, Ordering::Relaxed);
            let Some(unit) = units.get(i) else { break };
            let t_unit = Instant::now();
            done.push((i, f(i, unit)));
            load.busy_ns += t_unit.elapsed().as_nanos();
            load.tasks += 1;
        }
        (done, load)
    };
    let parts = std::thread::scope(|scope| {
        let drain = &drain;
        let handles: Vec<_> = (1..workers)
            .map(|w| scope.spawn(move || drain(w)))
            .collect();
        let mut parts = vec![drain(0)];
        for handle in handles {
            parts.push(handle.join().unwrap_or_else(|p| resume_unwind(p)));
        }
        parts
    });
    let mut slots: Vec<Option<T>> = units.iter().map(|_| None).collect();
    let mut loads = Vec::with_capacity(parts.len());
    for (done, load) in parts {
        for (i, result) in done {
            slots[i] = Some(result);
        }
        loads.push(load);
    }
    let results = slots
        .into_iter()
        .map(|s| s.expect("the cursor hands out every unit exactly once"))
        .collect();
    (results, loads, t.elapsed().as_nanos())
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::panic::{catch_unwind, AssertUnwindSafe};

    #[test]
    fn results_come_back_in_submission_order() {
        let units: Vec<u64> = (0..23).collect();
        for workers in [1, 2, 3, 8, 64] {
            let (results, loads, _) = run_units(workers, &units, |i, &v| v * 1000 + i as u64);
            let expected: Vec<u64> = units.iter().map(|&v| v * 1001).collect();
            assert_eq!(results, expected, "at {workers} workers");
            assert_eq!(loads.iter().map(|l| l.tasks).sum::<usize>(), units.len());
            assert!(loads.len() <= workers.min(units.len()));
            for (w, load) in loads.iter().enumerate() {
                assert_eq!(load.worker, w);
            }
        }
    }

    #[test]
    fn one_worker_runs_inline_in_index_order() {
        let units: Vec<usize> = (0..40).collect();
        let caller = std::thread::current().id();
        let (order, loads, _) = run_units(1, &units, |i, _| {
            assert_eq!(std::thread::current().id(), caller);
            i
        });
        assert_eq!(order, units);
        assert_eq!(loads.len(), 1);
    }

    #[test]
    fn empty_input_is_fine() {
        let (results, loads, _) = run_units(4, &[] as &[u64], |_, _| 0u64);
        assert!(results.is_empty());
        assert!(loads.is_empty());
    }

    #[test]
    fn hardware_threads_is_cached_and_positive() {
        assert!(hardware_threads() >= 1);
        assert_eq!(hardware_threads(), hardware_threads());
    }

    #[test]
    fn unit_panic_propagates_to_the_caller() {
        let units: Vec<usize> = (0..8).collect();
        for workers in [1, 2, 4] {
            let outcome = catch_unwind(AssertUnwindSafe(|| {
                run_units(workers, &units, |i, _| {
                    if i == 3 {
                        panic!("unit 3 exploded");
                    }
                    i
                })
            }));
            let payload = outcome.expect_err("the panic must reach the caller");
            let msg = payload.downcast_ref::<&str>().copied();
            assert_eq!(msg, Some("unit 3 exploded"), "at {workers} workers");
        }
    }
}
