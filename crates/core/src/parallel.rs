//! A shared-cursor scheduler for per-unit pipeline stages.
//!
//! The audit pipeline is embarrassingly parallel *between* units: each
//! translation unit lexes, parses, graphs and checks independently, and
//! only the cross-unit discovery pass needs everything at once. This
//! module fans a per-unit stage across worker threads while keeping the
//! result order — and therefore the final report — byte-identical to a
//! sequential run.
//!
//! Design:
//!
//! - **Scoped threads, no pool.** Workers are spawned with
//!   [`std::thread::scope`] per stage, so the work closure may borrow
//!   the units, the knowledge base and the limits without `Arc`-wrapping
//!   any of them. Stages are long (whole files), so per-stage spawn cost
//!   is noise.
//! - **One shared cursor.** Every worker claims the next unit index
//!   from one `AtomicUsize` with `fetch_add(1)` until the cursor passes
//!   the end. A worker that draws a big file simply claims fewer units,
//!   so the load balances one unit at a time with no queue and no lock,
//!   including on the tree where one directory holds all the big files.
//! - **Deterministic merge.** Workers tag each result with its input
//!   index; the caller sorts the combined output by index. Scheduling
//!   order can vary freely between runs and job counts — result order
//!   cannot.
//!
//! Fault isolation composes with this scheduler rather than living in
//! it: the audit wraps each unit's work in its own `catch_unwind`
//! boundary *inside* the work closure, so a panicking unit degrades
//! itself without taking down its worker thread.

use std::sync::atomic::{AtomicUsize, Ordering};

use refminer_trace::TraceHandle;

/// Resolves a `--jobs` request to a concrete worker count.
///
/// `0` means "auto": one worker per available hardware thread. Any
/// other value is clamped to the available parallelism — more workers
/// than cores is pure oversubscription for this CPU-bound pipeline
/// (the stages do no blocking I/O), and on small hosts the extra
/// context switching measurably *slows* the audit. The report is
/// byte-identical at any worker count, so the clamp is invisible
/// except in wall time.
pub fn effective_jobs(requested: usize) -> usize {
    let available = std::thread::available_parallelism()
        .map(|n| n.get())
        .unwrap_or(1);
    if requested == 0 {
        available
    } else {
        requested.min(available)
    }
}

/// Runs `work` over every element of `items` across `jobs` workers,
/// returning the results in input order.
///
/// `jobs` is resolved through [`effective_jobs`] and clamped to the
/// item count. With one worker (or zero/one items) the work runs inline
/// on the calling thread — no threads, no locks — which keeps `--jobs 1`
/// an exact replica of the historical sequential pipeline.
///
/// The work closure receives `(index, &item)` so it can key caches or
/// diagnostics off the original position. A multi-worker run records
/// its worker count in a `{stage}.workers` trace counter (an empty
/// `stage` records nothing). Tracing is observation-only — a disabled
/// handle, or any handle at all, never changes the results or their
/// order.
///
/// # Examples
///
/// ```
/// use refminer::parallel::run_indexed;
/// use refminer::TraceHandle;
///
/// let items = vec![3u32, 1, 4, 1, 5];
/// let doubled = run_indexed(&items, 4, &TraceHandle::disabled(), "", |_, x| x * 2);
/// assert_eq!(doubled, vec![6, 2, 8, 2, 10]);
/// ```
pub fn run_indexed<T, R, F>(
    items: &[T],
    jobs: usize,
    trace: &TraceHandle,
    stage: &str,
    work: F,
) -> Vec<R>
where
    T: Sync,
    R: Send,
    F: Fn(usize, &T) -> R + Sync,
{
    run_indexed_exact(items, effective_jobs(jobs), trace, stage, work)
}

/// The scheduler proper, taking the worker count literally (no
/// `effective_jobs` resolution beyond the item-count clamp). Kept
/// separate so scheduler tests can exercise real multi-worker runs
/// even on single-core hosts, where [`effective_jobs`] would clamp
/// them to an inline run.
fn run_indexed_exact<T, R, F>(
    items: &[T],
    jobs: usize,
    trace: &TraceHandle,
    stage: &str,
    work: F,
) -> Vec<R>
where
    T: Sync,
    R: Send,
    F: Fn(usize, &T) -> R + Sync,
{
    let jobs = jobs.min(items.len());
    if jobs <= 1 {
        return items.iter().enumerate().map(|(i, t)| work(i, t)).collect();
    }
    if trace.is_enabled() && !stage.is_empty() {
        trace.add(&format!("{stage}.workers"), jobs as u64);
    }

    // Each claim hands out a distinct index; the joins below publish
    // the results, so the cursor needs no ordering of its own.
    let cursor = AtomicUsize::new(0);
    let mut tagged: Vec<(usize, R)> = Vec::with_capacity(items.len());
    std::thread::scope(|s| {
        let handles: Vec<_> = (0..jobs)
            .map(|_| {
                s.spawn(|| {
                    std::iter::from_fn(|| {
                        let i = cursor.fetch_add(1, Ordering::Relaxed);
                        items.get(i).map(|item| (i, work(i, item)))
                    })
                    .collect::<Vec<_>>()
                })
            })
            .collect();
        for h in handles {
            // A panic here means one escaped the per-unit fault
            // boundary inside `work`; propagate it rather than lose it.
            tagged.extend(h.join().expect("audit worker panicked"));
        }
    });

    tagged.sort_by_key(|(i, _)| *i);
    tagged.into_iter().map(|(_, r)| r).collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn auto_jobs_is_positive() {
        assert!(effective_jobs(0) >= 1);
    }

    #[test]
    fn requested_jobs_clamp_to_available_parallelism() {
        let available = effective_jobs(0);
        // Never oversubscribe: a request beyond the core count resolves
        // to the core count; a request within it is honored.
        assert_eq!(effective_jobs(available + 7), available);
        assert_eq!(effective_jobs(1), 1);
        assert_eq!(effective_jobs(available), available);
    }

    #[test]
    fn empty_and_single_inputs() {
        let none: Vec<u32> = Vec::new();
        let off = TraceHandle::disabled();
        assert!(run_indexed(&none, 8, &off, "", |_, x| *x).is_empty());
        assert_eq!(run_indexed(&[9u32], 8, &off, "", |_, x| *x + 1), vec![10]);
    }

    #[test]
    fn order_matches_sequential_at_any_job_count() {
        let items: Vec<usize> = (0..101).collect();
        let sequential = run_indexed(&items, 1, &TraceHandle::disabled(), "", |i, x| i * 1000 + x);
        for jobs in [2, 3, 8, 64] {
            // Exercise the scheduler with literal worker counts so the
            // determinism claim is tested with real threads regardless
            // of how many cores the host has.
            let parallel = run_indexed_exact(&items, jobs, &TraceHandle::disabled(), "", |i, x| {
                i * 1000 + x
            });
            assert_eq!(parallel, sequential, "jobs={jobs}");
        }
    }

    #[test]
    fn every_item_runs_exactly_once() {
        let n = 257;
        let counters: Vec<AtomicUsize> = (0..n).map(|_| AtomicUsize::new(0)).collect();
        let items: Vec<usize> = (0..n).collect();
        run_indexed_exact(&items, 8, &TraceHandle::disabled(), "", |i, _| {
            counters[i].fetch_add(1, Ordering::SeqCst);
        });
        for (i, c) in counters.iter().enumerate() {
            assert_eq!(c.load(Ordering::SeqCst), 1, "item {i}");
        }
    }

    #[test]
    fn stealing_drains_imbalanced_work() {
        // One "heavy" item keeps one worker busy while the others
        // drain the rest; the run completes and order still holds.
        let items: Vec<u64> = (0..32).map(|i| if i == 0 { 400 } else { 1 }).collect();
        let spins = run_indexed_exact(&items, 4, &TraceHandle::disabled(), "", |_, &ms| {
            // Busy-wait proportional to the item weight.
            let mut acc = 0u64;
            for _ in 0..ms * 1000 {
                acc = acc.wrapping_add(1);
            }
            acc
        });
        assert_eq!(spins.len(), items.len());
    }

    #[test]
    fn traced_variant_counts_steals_without_changing_results() {
        // Item 0 is heavy enough that its worker is still busy on it
        // while the other workers drain the rest through the cursor.
        // Run the scheduler proper with a literal worker count so this
        // exercises real threads even on a single-core host, where
        // `effective_jobs` would clamp 4 down to an inline run.
        let items: Vec<u64> = (0..32).map(|i| if i == 0 { 20_000 } else { 1 }).collect();
        let trace = TraceHandle::recording();
        let out = run_indexed_exact(&items, 4, &trace, "stage", |_, &ms| {
            let mut acc = 0u64;
            for _ in 0..ms * 1000 {
                acc = acc.wrapping_add(1);
            }
            acc
        });
        let sequential = run_indexed(&items, 1, &TraceHandle::disabled(), "", |_, &ms| ms * 1000);
        assert_eq!(out, sequential);
        let log = trace.finish().unwrap();
        assert_eq!(log.counters.get("stage.workers"), Some(&4));
    }

    #[test]
    fn chunks_cover_range_without_overlap() {
        // Includes zero items and fewer items than workers.
        for (n, jobs) in [(10, 3), (3, 8), (0, 2), (16, 4)] {
            let counters: Vec<AtomicUsize> = (0..n).map(|_| AtomicUsize::new(0)).collect();
            let items: Vec<usize> = (0..n).collect();
            let seen = run_indexed_exact(&items, jobs, &TraceHandle::disabled(), "", |i, &x| {
                counters[i].fetch_add(1, Ordering::SeqCst);
                x
            });
            assert_eq!(seen, items, "n={n} jobs={jobs}");
            for (i, c) in counters.iter().enumerate() {
                assert_eq!(c.load(Ordering::SeqCst), 1, "n={n} jobs={jobs} item {i}");
            }
        }
    }
}
