//! Shared parallel-execution layer for the Exathlon pipeline.
//!
//! A single primitive — order-preserving [`par_map_indexed`] over a slice,
//! with [`par_map`] as its index-free wrapper — built on crossbeam scoped
//! threads. Work is claimed dynamically: every lane (the calling thread
//! plus the spawned workers) takes the next unclaimed index from one
//! shared counter until none is left, so a slow item holds up only the
//! lane that claimed it while the others drain the rest. Every parallel
//! hot path of the pipeline (per-method training, per-trace scoring,
//! per-record inference, the thresholding-rule grid, dataset simulation)
//! goes through it, so the guarantees live in one place:
//!
//! * **Determinism.** Each element is computed independently by the same
//!   function, and the caller puts every `(index, value)` result back at
//!   its index, so the output is bitwise identical to the sequential
//!   `items.iter().map(f).collect()` for any thread count and any claiming
//!   order (asserted end-to-end by `tests/parallel_determinism.rs`).
//! * **Bounded threads.** A global worker budget caps *transitive*
//!   parallelism: when an outer `par_map` has claimed the budget (e.g.
//!   per-method training), inner calls (e.g. per-record scoring inside a
//!   method) degrade to the sequential path instead of multiplying
//!   threads.
//! * **One knob.** `EXATHLON_THREADS` overrides the worker cap for both
//!   benchmarking (`EXATHLON_THREADS=1` vs `=8`) and containment; unset
//!   or invalid values fall back to the machine's available parallelism,
//!   clamped to 16. The variable is re-read on every call, so tests can
//!   vary it at runtime.
//!
//! # Panics
//! If a worker panics, the panic propagates to the caller (after the
//! budget is returned, so later calls are unaffected).

use std::sync::atomic::{AtomicUsize, Ordering};

/// Environment variable overriding the worker cap.
pub const THREADS_ENV: &str = "EXATHLON_THREADS";

/// Worker-thread cap: `EXATHLON_THREADS` if set to a positive integer,
/// otherwise the machine's available parallelism, clamped to `[1, 16]`.
pub fn max_threads() -> usize {
    if let Ok(v) = std::env::var(THREADS_ENV) {
        if let Ok(n) = v.trim().parse::<usize>() {
            if n >= 1 {
                return n;
            }
        }
    }
    std::thread::available_parallelism().map(|n| n.get()).unwrap_or(1).clamp(1, 16)
}

/// Workers currently claimed by in-flight `par_map` calls, process-wide.
static ACTIVE_WORKERS: AtomicUsize = AtomicUsize::new(0);

/// Claim up to `want` extra workers from the global budget of
/// `cap - 1` (the calling thread is always lane zero and is never
/// counted). Returns the number granted, possibly 0.
fn reserve_workers(want: usize, cap: usize) -> usize {
    let budget = cap.saturating_sub(1);
    loop {
        let current = ACTIVE_WORKERS.load(Ordering::Acquire);
        let grant = want.min(budget.saturating_sub(current));
        if grant == 0 {
            return 0;
        }
        if ACTIVE_WORKERS
            .compare_exchange(current, current + grant, Ordering::AcqRel, Ordering::Acquire)
            .is_ok()
        {
            return grant;
        }
    }
}

/// Returns claimed workers on drop, so panics cannot leak budget.
struct WorkerLease(usize);

impl Drop for WorkerLease {
    fn drop(&mut self) {
        if self.0 > 0 {
            ACTIVE_WORKERS.fetch_sub(self.0, Ordering::AcqRel);
        }
    }
}

/// Map `f` over `items` on up to [`max_threads`] threads, preserving
/// order. Falls back to the sequential path when the input is small, the
/// cap is 1, or the global worker budget is exhausted (nested calls) —
/// the result is identical in every case.
pub fn par_map<T, U, F>(items: &[T], f: F) -> Vec<U>
where
    T: Sync,
    U: Send,
    F: Fn(&T) -> U + Sync,
{
    par_map_indexed(items, |_, item| f(item))
}

/// [`par_map`] with the element index: `f(i, &items[i])` in input order.
/// Each lane claims the next index from a shared counter, keeps its
/// results with their indices, and the caller places them back in input
/// order once every lane has joined.
pub fn par_map_indexed<T, U, F>(items: &[T], f: F) -> Vec<U>
where
    T: Sync,
    U: Send,
    F: Fn(usize, &T) -> U + Sync,
{
    let n = items.len();
    let cap = max_threads();
    crate::obs::counter("par.calls", 1);
    let sequential = || items.iter().enumerate().map(|(i, item)| f(i, item)).collect();
    if n <= 1 || cap <= 1 {
        return sequential();
    }
    let lease = WorkerLease(reserve_workers(n.min(cap) - 1, cap));
    if lease.0 == 0 {
        return sequential();
    }
    crate::obs::counter("par.parallel_calls", 1);
    crate::obs::counter("par.workers_spawned", lease.0 as u64);
    // `Relaxed` suffices: the counter only hands out indices, and the
    // results reach the caller through the joins, which synchronize.
    let next = AtomicUsize::new(0);
    let lane = || {
        let busy = crate::obs::BusyClock::start();
        let mut done = Vec::new();
        loop {
            let i = next.fetch_add(1, Ordering::Relaxed);
            if i >= n {
                break;
            }
            done.push((i, f(i, &items[i])));
        }
        busy.stop();
        done
    };
    let result = crossbeam::scope(|scope| {
        // Spawn the workers, run lane zero on this thread, then join.
        let handles: Vec<_> = (0..lease.0).map(|_| scope.spawn(|_| lane())).collect();
        let mut slots: Vec<Option<U>> = std::iter::repeat_with(|| None).take(n).collect();
        let mut place = |done: Vec<(usize, U)>| {
            for (i, value) in done {
                slots[i] = Some(value);
            }
        };
        place(lane());
        for handle in handles {
            place(handle.join().expect("par_map worker panicked"));
        }
        slots.into_iter().map(|value| value.expect("every index is claimed once")).collect()
    })
    .expect("par_map scope failed");
    drop(lease);
    result
}

#[cfg(test)]
mod tests {
    use super::*;

    fn with_threads<R>(n: &str, body: impl FnOnce() -> R) -> R {
        // Tests in one binary share the process env; serialize access.
        static ENV_LOCK: std::sync::Mutex<()> = std::sync::Mutex::new(());
        let _guard = ENV_LOCK.lock().unwrap_or_else(|e| e.into_inner());
        std::env::set_var(THREADS_ENV, n);
        let r = body();
        std::env::remove_var(THREADS_ENV);
        r
    }

    #[test]
    fn preserves_order_and_values() {
        let items: Vec<u64> = (0..1000).collect();
        let expected: Vec<u64> = items.iter().map(|x| x * x).collect();
        for threads in ["1", "2", "3", "8"] {
            let got = with_threads(threads, || par_map(&items, |x| x * x));
            assert_eq!(got, expected, "threads={threads}");
        }
    }

    #[test]
    fn empty_and_single_inputs() {
        let empty: Vec<u32> = vec![];
        assert!(par_map(&empty, |x| x + 1).is_empty());
        assert_eq!(par_map(&[41u32], |x| x + 1), vec![42]);
    }

    #[test]
    fn indexed_variant_sees_input_positions() {
        let items = vec!["a", "b", "c"];
        let got = with_threads("4", || par_map_indexed(&items, |i, s| format!("{i}:{s}")));
        assert_eq!(got, vec!["0:a", "1:b", "2:c"]);
    }

    // The budget checks below read `ACTIVE_WORKERS` while still holding
    // the env lock: once it is released, another test's `par_map` may
    // hold workers legitimately.

    #[test]
    fn nested_calls_stay_within_budget() {
        let (peak, live_after) = with_threads("4", || {
            let peak = AtomicUsize::new(0);
            let outer: Vec<usize> = (0..8).collect();
            par_map(&outer, |_| {
                let inner: Vec<usize> = (0..32).collect();
                par_map(&inner, |&x| {
                    let live = ACTIVE_WORKERS.load(Ordering::Acquire);
                    peak.fetch_max(live, Ordering::AcqRel);
                    x * 2
                })
                .len()
            });
            (peak.load(Ordering::Acquire), ACTIVE_WORKERS.load(Ordering::Acquire))
        });
        assert!(peak <= 3, "claimed workers exceeded cap-1: {peak}");
        assert_eq!(live_after, 0, "budget leaked");
    }

    #[test]
    fn worker_panic_propagates_and_releases_budget() {
        let (result, live_after) = with_threads("4", || {
            let result = std::panic::catch_unwind(|| {
                let items: Vec<u32> = (0..100).collect();
                par_map(&items, |&x| {
                    if x == 77 {
                        panic!("boom");
                    }
                    x
                })
            });
            (result, ACTIVE_WORKERS.load(Ordering::Acquire))
        });
        assert!(result.is_err(), "panic should propagate");
        assert_eq!(live_after, 0, "budget leaked after panic");
    }

    /// One 200 ms item among 63 trivial ones.
    const SLOW: std::time::Duration = std::time::Duration::from_millis(200);

    /// Map 64 items where item 0 sleeps for [`SLOW`] and item `panic_at`
    /// (if any) panics; returns the output and the thread each item ran on.
    fn skewed(panic_at: Option<usize>) -> (Vec<usize>, Vec<std::thread::ThreadId>) {
        let items: Vec<usize> = (0..64).collect();
        let ran_on = std::sync::Mutex::new(vec![None; items.len()]);
        let out = par_map_indexed(&items, |i, &x| {
            ran_on.lock().unwrap()[i] = Some(std::thread::current().id());
            if i == 0 {
                std::thread::sleep(SLOW);
            }
            if Some(i) == panic_at {
                panic!("boom at {i}");
            }
            3 * x + i
        });
        let ran_on = ran_on.into_inner().unwrap().into_iter().map(Option::unwrap).collect();
        (out, ran_on)
    }

    #[test]
    fn skewed_items_keep_order_and_balance_lanes() {
        let expected: Vec<usize> = (0..64).map(|x| 4 * x).collect();
        for threads in ["2", "3", "8"] {
            let (out, ran_on) = with_threads(threads, || skewed(None));
            assert_eq!(out, expected, "threads={threads}");
            // The lane stuck on the slow item claims nothing more: the
            // others drain the 63 trivial items long before it frees.
            let slow_lane = ran_on.iter().filter(|&&t| t == ran_on[0]).count();
            assert!(slow_lane <= 3, "threads={threads}: slow lane ran {slow_lane} items");
        }
    }

    #[test]
    fn late_panic_after_a_slow_item_propagates_and_releases_budget() {
        for threads in ["2", "3", "8"] {
            let (panicked, live_after) = with_threads(threads, || {
                let panicked = std::panic::catch_unwind(|| skewed(Some(63))).is_err();
                (panicked, ACTIVE_WORKERS.load(Ordering::Acquire))
            });
            assert!(panicked, "threads={threads}: panic should propagate");
            assert_eq!(live_after, 0, "threads={threads}: budget leaked");
        }
    }

    #[test]
    fn env_override_parses() {
        assert_eq!(with_threads("3", max_threads), 3);
        assert_eq!(with_threads(" 5 ", max_threads), 5);
        let fallback =
            std::thread::available_parallelism().map(|n| n.get()).unwrap_or(1).clamp(1, 16);
        assert_eq!(with_threads("0", max_threads), fallback);
        assert_eq!(with_threads("bogus", max_threads), fallback);
    }
}
