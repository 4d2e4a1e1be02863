//! Parallel sweep execution.
//!
//! Every figure in the paper is a grid of independent simulation points
//! (thread counts, block sizes, presets); this module fans those points
//! across a fixed-size pool of worker threads — plain `std::thread`
//! scoped workers pulling indices off a shared atomic cursor and
//! returning `(index, value)` over a channel — and reassembles results
//! in **sweep order**, so output is identical at any `-j`.
//!
//! Determinism guarantees:
//!
//! * Each point is a self-contained simulation (its own engine, integer
//!   time, seeded draws), so its value does not depend on which worker
//!   runs it or when.
//! * Results are placed by index, not arrival, so rows come back in
//!   sweep order regardless of completion order.
//! * Each point runs in a child of the caller's [`RunCtx`]
//!   ([`RunCtx::child`]), and its reports join the caller's sink in
//!   index order once every point is done, so `--report-json` is
//!   byte-stable across `-j` values.
//!
//! The worker count comes from [`crate::runcfg::jobs`] (the current
//! ctx's: the `--jobs`/`-j` flag, the `EMU_JOBS` variable, or the host's
//! available parallelism). At one job the sweep runs inline on the
//! caller's thread — no pool, identical to the historical serial path.

use emu_core::ctx::RunCtx;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::mpsc;

/// Run `f(0..n)` across the worker pool; returns values in index order.
///
/// `f` must be safe to call from multiple threads at once (`Sync`) and
/// must not depend on cross-point shared state for its value — which
/// holds for every simulation sweep in this crate. Panics in `f`
/// propagate to the caller, as in a serial loop.
pub fn run_indexed<T, F>(n: usize, f: F) -> Vec<T>
where
    T: Send,
    F: Fn(usize) -> T + Sync,
{
    let parent = RunCtx::current();
    let jobs = parent.jobs.max(1).min(n.max(1));
    if jobs <= 1 {
        return (0..n).map(f).collect();
    }
    let cursor = AtomicUsize::new(0);
    let mut out: Vec<Option<(T, RunCtx)>> = (0..n).map(|_| None).collect();
    std::thread::scope(|scope| {
        let (tx, rx) = mpsc::channel::<(usize, T, RunCtx)>();
        for _ in 0..jobs {
            let tx = tx.clone();
            let cursor = &cursor;
            let f = &f;
            let parent = &parent;
            scope.spawn(move || loop {
                let i = cursor.fetch_add(1, Ordering::Relaxed);
                if i >= n {
                    break;
                }
                let ctx = parent.child();
                let v = ctx.scope(|| f(i));
                // The receiver only disappears if the scope is already
                // unwinding from another worker's panic.
                if tx.send((i, v, ctx)).is_err() {
                    break;
                }
            });
        }
        drop(tx);
        for (i, v, ctx) in rx {
            out[i] = Some((v, ctx));
        }
    });
    out.into_iter()
        .map(|slot| {
            let (v, ctx) = slot.expect("every index sent exactly once");
            parent.adopt(&ctx);
            v
        })
        .collect()
}

/// A boxed sweep-point closure, as consumed by [`run_thunks`].
pub type Thunk<T> = Box<dyn FnOnce() -> T + Send>;

/// Run one closure per sweep point; returns values in point order.
/// Convenience wrapper over [`run_indexed`] for heterogeneous sweeps
/// built as a list of thunks.
pub fn run_thunks<T: Send>(thunks: Vec<Thunk<T>>) -> Vec<T> {
    let slots: Vec<std::sync::Mutex<Option<Thunk<T>>>> = thunks
        .into_iter()
        .map(|t| std::sync::Mutex::new(Some(t)))
        .collect();
    run_indexed(slots.len(), |i| {
        let thunk = slots[i]
            .lock()
            .unwrap_or_else(|e| e.into_inner())
            .take()
            .expect("each thunk runs exactly once");
        thunk()
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::Mutex;

    fn at_jobs(jobs: usize) -> RunCtx {
        RunCtx {
            jobs,
            ..RunCtx::default()
        }
    }

    #[test]
    fn results_come_back_in_index_order() {
        for jobs in [1, 4] {
            let out = at_jobs(jobs).scope(|| run_indexed(97, |i| i * i));
            assert_eq!(out, (0..97).map(|i| i * i).collect::<Vec<_>>());
        }
    }

    #[test]
    fn pool_actually_fans_out() {
        use std::collections::HashSet;
        let seen: Mutex<HashSet<std::thread::ThreadId>> = Mutex::new(HashSet::new());
        at_jobs(4).scope(|| {
            run_indexed(64, |_| {
                seen.lock().unwrap().insert(std::thread::current().id());
                // Hold the point long enough that workers overlap.
                std::thread::sleep(std::time::Duration::from_millis(1));
            })
        });
        let n = seen.lock().unwrap().len();
        assert!(n > 1, "expected >1 worker, saw {n}");
    }

    #[test]
    fn thunks_preserve_order() {
        let thunks: Vec<Box<dyn FnOnce() -> usize + Send>> = (0..20usize)
            .map(|i| Box::new(move || 100 + i) as Box<dyn FnOnce() -> usize + Send>)
            .collect();
        let out = at_jobs(3).scope(|| run_thunks(thunks));
        assert_eq!(out, (0..20usize).map(|i| 100 + i).collect::<Vec<_>>());
    }

    #[test]
    fn workers_run_in_the_callers_ctx() {
        let ctx = RunCtx {
            sim_threads: 7,
            quick: true,
            ..at_jobs(4)
        };
        let seen =
            ctx.scope(|| run_indexed(16, |_| RunCtx::with_current(|c| (c.sim_threads, c.quick))));
        assert!(seen.iter().all(|&s| s == (7, true)), "{seen:?}");
    }

    #[test]
    fn empty_sweep_is_fine() {
        let out: Vec<u32> = run_indexed(0, |_| unreachable!());
        assert!(out.is_empty());
    }
}
