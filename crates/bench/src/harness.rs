//! The worker-pool [`run_parallel`] runner every report and suite command
//! is built on. The engine is `Send`, simulated cycle counts are
//! independent of host scheduling, and results are returned in item order
//! — so any `--jobs N` produces byte-identical tables, just faster.

use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Mutex;

/// Apply `f` to every item on a pool of `jobs` worker threads and return
/// the results **in item order**.
///
/// Work is distributed by atomic index-stealing, so idle workers pick up
/// the next unclaimed item regardless of how long earlier items take. The
/// output ordering (and therefore every table printed from it) is
/// independent of the job count and of host scheduling; only wall-clock
/// time changes. Simulated measurements are unaffected by parallelism
/// because each run owns its whole engine.
///
/// # Panics
///
/// Propagates a panic from any worker (via `std::thread::scope`).
pub fn run_parallel<T, R, F>(items: &[T], jobs: usize, f: F) -> Vec<R>
where
    T: Sync,
    R: Send,
    F: Fn(usize, &T) -> R + Sync,
{
    let jobs = jobs.clamp(1, items.len().max(1));
    if jobs == 1 {
        return items.iter().enumerate().map(|(i, t)| f(i, t)).collect();
    }
    let next = AtomicUsize::new(0);
    let slots: Vec<Mutex<Option<R>>> = items.iter().map(|_| Mutex::new(None)).collect();
    std::thread::scope(|scope| {
        for _ in 0..jobs {
            scope.spawn(|| loop {
                let i = next.fetch_add(1, Ordering::Relaxed);
                let Some(item) = items.get(i) else { break };
                let r = f(i, item);
                *slots[i].lock().unwrap() = Some(r);
            });
        }
    });
    slots
        .into_iter()
        .map(|slot| {
            slot.into_inner()
                .expect("no worker panicked holding a result slot")
                .expect("every item was processed")
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn results_are_in_item_order_for_any_job_count() {
        let items: Vec<usize> = (0..37).collect();
        let reference: Vec<usize> = items.iter().map(|i| i * i).collect();
        for jobs in [1, 2, 3, 8, 64] {
            let got = run_parallel(&items, jobs, |idx, &n| {
                // Vary per-item latency so completion order differs from
                // item order under real parallelism.
                if idx % 5 == 0 {
                    std::thread::sleep(std::time::Duration::from_millis(2));
                }
                n * n
            });
            assert_eq!(got, reference, "jobs={jobs}");
        }
    }

    #[test]
    fn empty_input_yields_empty_output() {
        let got: Vec<u32> = run_parallel(&[] as &[u32], 4, |_, &n| n);
        assert!(got.is_empty());
    }
}
