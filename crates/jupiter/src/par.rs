//! An ordered parallel map on `std::thread::scope`: the one place the
//! workspace spends a second core. It fans out at one level at a time —
//! a plan's or a sweep's cells, or the zones of one Jupiter decision —
//! and a map called from inside a fanned-out job runs inline.

use std::cell::Cell;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::OnceLock;

thread_local! {
    /// Set while this thread runs jobs of a fanned-out [`par_map`].
    static IN_JOB: Cell<bool> = const { Cell::new(false) };
}

/// Marks the current thread as a worker until dropped (on unwind too).
struct InJob;

impl InJob {
    fn enter() -> InJob {
        IN_JOB.set(true);
        InJob
    }
}

impl Drop for InJob {
    fn drop(&mut self) {
        IN_JOB.set(false);
    }
}

/// Worker threads the host offers: one per core this process may run on
/// (`available_parallelism` honours CPU affinity, so `taskset -c 0` gives 1).
/// Asked once per process: each ask reads the affinity mask and the cgroup
/// quota, tens of microseconds against a decision of a few milliseconds.
pub fn host_workers() -> usize {
    static WORKERS: OnceLock<usize> = OnceLock::new();
    *WORKERS.get_or_init(|| std::thread::available_parallelism().map_or(1, |n| n.get()))
}

/// `jobs.iter().map(f).collect()`, spread over at most `workers` threads
/// (the caller's included). Workers claim the next unclaimed index, so
/// uneven jobs balance; results come back in job order whatever the
/// schedule. One job or one worker runs inline with no thread spawned,
/// and so does a call made on a thread that is running a job of a
/// fanned-out map (its caller included): the outer level already holds
/// the cores. A panicking job re-raises on the caller with its original
/// payload.
pub fn par_map<T: Sync, R: Send>(jobs: &[T], workers: usize, f: impl Fn(&T) -> R + Sync) -> Vec<R> {
    let workers = workers.min(jobs.len());
    if workers <= 1 || IN_JOB.get() {
        return jobs.iter().map(f).collect();
    }
    // Relaxed: the cursor only hands out indices; `jobs` is published by
    // the spawn and every result by the join.
    let cursor = AtomicUsize::new(0);
    let work = || {
        let _in_job = InJob::enter();
        // Sized before the first job allocates: a buffer regrown between
        // jobs lands above their freed memory and keeps the thread's
        // malloc arena from shrinking, which raises the peak RSS.
        let mut done = Vec::with_capacity(jobs.len());
        loop {
            let i = cursor.fetch_add(1, Ordering::Relaxed);
            let Some(job) = jobs.get(i) else { break done };
            done.push((i, f(job)));
        }
    };
    let mut done = std::thread::scope(|s| {
        let spawned: Vec<_> = (1..workers).map(|_| s.spawn(work)).collect();
        let mut done = work();
        for handle in spawned {
            match handle.join() {
                Ok(part) => done.extend(part),
                Err(payload) => std::panic::resume_unwind(payload),
            }
        }
        done
    });
    done.sort_unstable_by_key(|&(i, _)| i);
    done.into_iter().map(|(_, r)| r).collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::Barrier;
    use std::thread;

    #[test]
    fn results_keep_job_order_on_any_worker_count() {
        let jobs: Vec<u64> = (0..37).collect();
        let squares: Vec<u64> = jobs.iter().map(|j| j * j).collect();
        for workers in [0, 1, 2, 4, 64] {
            assert_eq!(
                par_map(&jobs, workers, |&j| j * j),
                squares,
                "{workers} workers"
            );
        }
        assert!(par_map(&[] as &[u64], 4, |&j| j).is_empty());
    }

    #[test]
    fn two_workers_hold_one_job_each() {
        // Each job waits for the other: this returns only if two threads
        // are inside `f` at the same moment.
        let both = Barrier::new(2);
        let ids = par_map(&[(), ()], 2, |_| {
            both.wait();
            thread::current().id()
        });
        assert_ne!(ids[0], ids[1]);
    }

    #[test]
    fn one_worker_stays_on_the_calling_thread() {
        let here = thread::current().id();
        assert_eq!(par_map(&[(); 3], 1, |_| thread::current().id()), [here; 3]);
    }

    #[test]
    fn a_map_inside_a_fanned_out_job_stays_on_that_jobs_thread() {
        // The barrier puts the two outer jobs on two threads, the caller's
        // included; each inner map, offered four workers, runs inline. Its
        // jobs sleep, so a fanned-out inner map would hand some of them
        // to its spawned workers.
        let both = Barrier::new(2);
        let outer = par_map(&[(), ()], 2, |_| {
            both.wait();
            let here = thread::current().id();
            let inner = par_map(&[(); 5], 4, |_| {
                thread::sleep(std::time::Duration::from_millis(10));
                thread::current().id()
            });
            (here, inner == [here; 5])
        });
        assert_ne!(outer[0].0, outer[1].0);
        assert!(outer.iter().all(|&(_, inline)| inline), "{outer:?}");
        // Once the outer map returns, the caller may fan out again.
        assert!(!IN_JOB.get(), "the caller is no worker after the map");
    }

    #[test]
    #[should_panic(expected = "job failed off the calling thread")]
    fn a_spawned_workers_panic_keeps_its_message() {
        // The barrier pins one job to each thread; only the spawned one
        // fails, so the message can only arrive through the join.
        let caller = thread::current().id();
        let both = Barrier::new(2);
        par_map(&[(), ()], 2, |_| {
            both.wait();
            assert!(
                thread::current().id() == caller,
                "job failed off the calling thread"
            );
        });
    }
}
