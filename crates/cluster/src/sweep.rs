//! Fork-join helper for configuration sweeps.
//!
//! The exhaustive Oracle baseline and several figure harnesses evaluate
//! hundreds of (nodes, threads, power-split) configurations that do not
//! depend on each other, so they are embarrassingly parallel (the Oracle
//! deals its grid into one lane per worker, each on its own cluster copy).
//! [`parallel_map`] fans the work out over a bounded number of OS threads
//! with `std::thread::scope` (no `'static` bound on the closure) and
//! returns results in input order.

use std::panic::{catch_unwind, resume_unwind, AssertUnwindSafe};
use std::sync::{self, atomic::Ordering};

/// Map `f` over `items` in parallel, preserving order. Falls back to a
/// sequential loop for small inputs, where spawning would dominate, and
/// when the process may run on one CPU only.
///
/// If `f` panics on any item, the first panic payload is re-raised on the
/// calling thread verbatim — `assert!` messages from deep inside a sweep
/// surface exactly as they would sequentially, instead of being masked by
/// a poisoned-lock panic.
pub fn parallel_map<T, R, F>(items: Vec<T>, f: F) -> Vec<R>
where
    T: Send,
    R: Send,
    F: Fn(T) -> R + Sync,
{
    parallel_map_with(items, None, f)
}

/// How many workers a fan-out over `items` inputs runs on — the one rule
/// [`parallel_map_with`] and the sharded fleet's rack pool
/// (`clip_core::hierarchy`) share.
///
/// `Some(w)` asks for `w` workers; `None` runs sequentially under 5
/// inputs and otherwise uses one worker per CPU the process may run on.
/// Either way the count is clamped to `1..=items`, and 1 means the
/// calling thread does all the work: no thread is spawned.
///
/// The CPU count is read once per process, on the first `None` that
/// needs it, and kept: reading it can mean parsing the cgroup quota from
/// files, which costs more than a small sweep. A process that changes its
/// CPU affinity should do so before its first sweep.
pub fn worker_count(workers: Option<usize>, items: usize) -> usize {
    #[expect(
        clippy::disallowed_types,
        reason = "a once-per-process cache of the CPU count; every reader sees the one value, so no result depends on which thread filled it"
    )]
    static CPUS: sync::OnceLock<usize> = sync::OnceLock::new();
    resolve_workers(workers, items, || {
        *CPUS.get_or_init(|| std::thread::available_parallelism().map_or(4, usize::from))
    })
}

/// [`worker_count`] with the CPU count injected (read only when needed).
fn resolve_workers(workers: Option<usize>, items: usize, cpus: impl FnOnce() -> usize) -> usize {
    let wanted = match workers {
        Some(w) => w,
        None if items <= 4 => 1,
        None => cpus(),
    };
    wanted.min(items).max(1)
}

/// [`parallel_map`] with an explicit worker count, resolved by
/// [`worker_count`]: `Some(1)` forces the sequential path, and `Some(k)`
/// spawns `min(k, items.len())` threads even for small inputs.
#[expect(
    clippy::disallowed_types,
    reason = "the worker queue/result mutexes are the fork-join plumbing; results rejoin by index, so output order is input order regardless of interleaving"
)]
pub fn parallel_map_with<T, R, F>(items: Vec<T>, workers: Option<usize>, f: F) -> Vec<R>
where
    T: Send,
    R: Send,
    F: Fn(T) -> R + Sync,
{
    let n = items.len();
    let workers = worker_count(workers, n);
    if workers <= 1 {
        return items.into_iter().map(f).collect();
    }

    // Work queue of (index, item); results gathered by index. Each call of
    // `f` runs under `catch_unwind`, so no lock is ever held across a
    // panic and the locks below cannot poison; the first captured payload
    // wins and is re-raised after the scope joins.
    let queue = sync::Mutex::new(items.into_iter().enumerate().collect::<Vec<_>>());
    let results = sync::Mutex::new(Vec::with_capacity(n));
    let first_panic: sync::Mutex<Option<Box<dyn std::any::Any + Send>>> = sync::Mutex::new(None);
    #[expect(
        clippy::disallowed_types,
        reason = "the abort flag is a one-way latch; a late observer does extra work but never changes a result"
    )]
    let aborted = sync::atomic::AtomicBool::new(false);

    std::thread::scope(|s| {
        for _ in 0..workers {
            s.spawn(|| loop {
                if aborted.load(Ordering::Relaxed) {
                    break;
                }
                let task = match queue.lock() {
                    Ok(mut q) => q.pop(),
                    Err(_) => break,
                };
                match task {
                    Some((idx, item)) => match catch_unwind(AssertUnwindSafe(|| f(item))) {
                        Ok(r) => {
                            if let Ok(mut out) = results.lock() {
                                out.push((idx, r));
                            }
                        }
                        Err(payload) => {
                            aborted.store(true, Ordering::Relaxed);
                            if let Ok(mut slot) = first_panic.lock() {
                                slot.get_or_insert(payload);
                            }
                            break;
                        }
                    },
                    None => break,
                }
            });
        }
    });

    let payload = match first_panic.into_inner() {
        Ok(slot) => slot,
        Err(poisoned) => poisoned.into_inner(),
    };
    if let Some(payload) = payload {
        resume_unwind(payload);
    }

    let mut out = match results.into_inner() {
        Ok(out) => out,
        Err(poisoned) => poisoned.into_inner(),
    };
    out.sort_by_key(|(idx, _)| *idx);
    out.into_iter().map(|(_, r)| r).collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn preserves_order() {
        let items: Vec<u64> = (0..100).collect();
        let out = parallel_map(items.clone(), |x| x * 2);
        assert_eq!(out, items.iter().map(|x| x * 2).collect::<Vec<_>>());
    }

    #[test]
    fn small_inputs_run_sequentially() {
        let out = parallel_map(vec![1, 2, 3], |x| x + 1);
        assert_eq!(out, vec![2, 3, 4]);
    }

    #[test]
    fn every_item_processed_exactly_once() {
        #[expect(
            clippy::disallowed_types,
            reason = "counts calls across workers; addition commutes, so the count is the same in any order"
        )]
        let counter = sync::atomic::AtomicUsize::new(0);
        let out = parallel_map((0..500).collect::<Vec<_>>(), |x| {
            counter.fetch_add(1, Ordering::Relaxed);
            x
        });
        assert_eq!(out.len(), 500);
        assert_eq!(counter.load(Ordering::Relaxed), 500);
    }

    #[test]
    fn explicit_worker_counts_agree_with_sequential() {
        let items: Vec<u64> = (0..37).collect();
        let seq = parallel_map_with(items.clone(), Some(1), |x| x * 3);
        for workers in [2usize, 3, 8] {
            let par = parallel_map_with(items.clone(), Some(workers), |x| x * 3);
            assert_eq!(par, seq, "workers = {workers}");
        }
    }

    #[test]
    fn worker_count_resolves_one_rule() {
        let cpus = |n: usize| move || n;
        // Explicit counts are clamped to 1..=items.
        assert_eq!(resolve_workers(Some(1), 100, cpus(8)), 1);
        assert_eq!(resolve_workers(Some(0), 100, cpus(8)), 1);
        assert_eq!(resolve_workers(Some(3), 100, cpus(8)), 3);
        assert_eq!(resolve_workers(Some(16), 5, cpus(8)), 5);
        assert_eq!(resolve_workers(Some(2), 0, cpus(8)), 1);
        // The default: sequential under 5 inputs, else one per CPU.
        assert_eq!(resolve_workers(None, 4, cpus(8)), 1);
        assert_eq!(resolve_workers(None, 5, cpus(8)), 5);
        assert_eq!(resolve_workers(None, 100, cpus(8)), 8);
        // A one-CPU affinity mask resolves to the sequential path.
        assert_eq!(resolve_workers(None, 100, cpus(1)), 1);
    }

    #[test]
    fn explicit_workers_parallelize_small_inputs() {
        let out = parallel_map_with(vec![1, 2, 3], Some(2), |x| x + 1);
        assert_eq!(out, vec![2, 3, 4]);
    }

    #[test]
    fn empty_input() {
        let out: Vec<u32> = parallel_map(Vec::<u32>::new(), |x| x);
        assert!(out.is_empty());
    }

    #[test]
    fn worker_panic_payload_reaches_the_caller() {
        // Large enough to take the parallel path; the panic message from
        // the failing item must arrive verbatim, not as a poisoned-lock
        // panic.
        let items: Vec<u64> = (0..64).collect();
        let caught = std::panic::catch_unwind(|| {
            parallel_map(items, |x| {
                assert!(x != 33, "boom at item {x}");
                x
            })
        })
        .expect_err("the sweep must propagate the worker panic");
        let msg = caught
            .downcast_ref::<String>()
            .cloned()
            .or_else(|| caught.downcast_ref::<&str>().map(|s| s.to_string()))
            .expect("panic payload should be a string");
        assert!(msg.contains("boom at item 33"), "got: {msg}");
    }

    #[test]
    fn sequential_path_panics_propagate_too() {
        let caught = std::panic::catch_unwind(|| {
            parallel_map(vec![1, 2, 3], |x| {
                assert!(x != 2, "small boom {x}");
                x
            })
        })
        .expect_err("sequential fallback must also panic");
        let msg = caught.downcast_ref::<String>().cloned().unwrap_or_default();
        assert!(msg.contains("small boom 2"), "got: {msg}");
    }
}
