//! Parallel map with deterministic output order.
//!
//! This is the fan-out primitive for every sweep in the workspace:
//! simulator replicas, chaos episodes, and analytic parameter grids.
//! Every item is a whole unit of work (a replica, an episode, a solver
//! batch), so workers claim items one at a time from a shared atomic
//! cursor: a worker that draws a long item simply claims fewer, and
//! nothing is left queued behind it. Each worker keeps its
//! `(index, result)` pairs locally; the caller puts them back in input
//! order, so output order — and therefore every downstream fold — is
//! deterministic regardless of scheduling.
//!
//! A panicking worker moves the cursor past the end, so the others stop
//! claiming items; the panic then propagates to the caller once every
//! worker has stopped.

use std::sync::atomic::{AtomicUsize, Ordering};

/// Default worker count: one per available core.
pub fn default_threads() -> usize {
    std::thread::available_parallelism()
        .map(|p| p.get())
        .unwrap_or(1)
}

/// Applies `f` to every item in parallel, preserving input order in the
/// output. Spawns up to `min(items.len(), available_parallelism)`
/// workers.
///
/// Panics in `f` propagate to the caller after all workers stop.
pub fn par_map<T, R, F>(items: &[T], f: F) -> Vec<R>
where
    T: Sync,
    R: Send,
    F: Fn(&T) -> R + Sync,
{
    par_map_in(default_threads(), items, f)
}

/// [`par_map`] with an explicit worker count (used by the benchmark's
/// thread sweeps and the N-thread-vs-1-thread determinism tests).
/// `threads <= 1` runs inline on the caller's thread.
pub fn par_map_in<T, R, F>(threads: usize, items: &[T], f: F) -> Vec<R>
where
    T: Sync,
    R: Send,
    F: Fn(&T) -> R + Sync,
{
    let n = items.len();
    let threads = threads.min(n);
    if threads <= 1 {
        return items.iter().map(&f).collect();
    }
    // `Relaxed` is enough: the cursor publishes no data. Items are only
    // read, and results reach the caller through `join`, which
    // synchronizes.
    let next = AtomicUsize::new(0);
    let work = || {
        let _stop = StopOnPanic { next: &next, n };
        let mut done = Vec::new();
        loop {
            let i = next.fetch_add(1, Ordering::Relaxed);
            if i >= n {
                return done;
            }
            done.push((i, f(&items[i])));
        }
    };
    let mut done: Vec<(usize, R)> = std::thread::scope(|scope| {
        let workers: Vec<_> =
            (0..threads).map(|_| scope.spawn(work)).collect();
        workers
            .into_iter()
            .flat_map(|w| {
                w.join().unwrap_or_else(|e| std::panic::resume_unwind(e))
            })
            .collect()
    });
    // Each worker's pairs are already ascending, so this stable sort
    // only merges `threads` runs.
    done.sort_by_key(|&(i, _)| i);
    done.into_iter().map(|(_, r)| r).collect()
}

/// Moves the cursor to the end if its worker unwinds, so the other
/// workers stop claiming items and the panic surfaces promptly.
struct StopOnPanic<'a> {
    next: &'a AtomicUsize,
    n: usize,
}

impl Drop for StopOnPanic<'_> {
    fn drop(&mut self) {
        if std::thread::panicking() {
            self.next.store(self.n, Ordering::Relaxed);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::AtomicUsize;

    #[test]
    fn maps_in_order() {
        let items: Vec<u64> = (0..1000).collect();
        let out = par_map(&items, |&x| x * x);
        for (i, v) in out.iter().enumerate() {
            assert_eq!(*v, (i as u64) * (i as u64));
        }
    }

    #[test]
    fn empty_input() {
        let out: Vec<u32> = par_map(&[] as &[u32], |&x| x);
        assert!(out.is_empty());
    }

    #[test]
    fn single_item() {
        let out = par_map(&[41], |&x| x + 1);
        assert_eq!(out, vec![42]);
    }

    #[test]
    fn explicit_thread_counts_agree() {
        let items: Vec<f64> = (0..500).map(|i| i as f64 / 7.0).collect();
        let seq = par_map_in(1, &items, |x| x.sin());
        for threads in [2, 3, 4, 8] {
            let par = par_map_in(threads, &items, |x| x.sin());
            assert_eq!(seq, par, "threads = {threads}");
        }
    }

    #[test]
    fn uneven_work_is_still_complete() {
        // Heavily skewed cost: the last items are ~1000x the first, so
        // completion requires stealing to visit every range.
        let items: Vec<usize> = (0..64).collect();
        let out = par_map_in(4, &items, |&x| {
            let mut acc = 0u64;
            for i in 0..(x * 1000) {
                acc = acc.wrapping_add(i as u64);
            }
            (x, acc)
        });
        assert_eq!(out.len(), 64);
        for (i, (x, _)) in out.iter().enumerate() {
            assert_eq!(*x, i);
        }
    }

    #[test]
    fn more_threads_than_items() {
        let out = par_map_in(16, &[1, 2, 3], |&x| x * 10);
        assert_eq!(out, vec![10, 20, 30]);
    }

    #[test]
    fn panic_propagates_without_leaks_or_double_drops() {
        static CREATED: AtomicUsize = AtomicUsize::new(0);
        static DROPPED: AtomicUsize = AtomicUsize::new(0);

        struct Tracked(#[allow(dead_code)] usize);
        impl Tracked {
            fn new(v: usize) -> Self {
                CREATED.fetch_add(1, Ordering::SeqCst);
                Tracked(v)
            }
        }
        impl Drop for Tracked {
            fn drop(&mut self) {
                DROPPED.fetch_add(1, Ordering::SeqCst);
            }
        }

        let items: Vec<usize> = (0..256).collect();
        let result = std::panic::catch_unwind(|| {
            par_map_in(4, &items, |&x| {
                if x == 137 {
                    panic!("worker panic on item {x}");
                }
                Tracked::new(x)
            })
        });
        assert!(result.is_err(), "worker panic must propagate");
        // Every constructed result was dropped exactly once by the
        // cleanup guard — the old Vec<Option<R>> pattern would instead
        // die on `expect("slot not filled")` or leak.
        assert_eq!(
            CREATED.load(Ordering::SeqCst),
            DROPPED.load(Ordering::SeqCst)
        );
        assert!(CREATED.load(Ordering::SeqCst) > 0);
    }

    #[test]
    fn results_match_sequential_under_stealing() {
        let items: Vec<u64> = (0..4096).collect();
        let seq: Vec<u64> = items.iter().map(|&x| x.wrapping_mul(x)).collect();
        let par = par_map_in(8, &items, |&x| x.wrapping_mul(x));
        assert_eq!(seq, par);
    }
}
