//! A fixed worker pool over a crossbeam MPMC channel.
//!
//! The executor fans per-shard searches out as jobs; the pool runs them
//! on `workers` long-lived threads. Jobs are plain `FnOnce` closures —
//! results travel back over caller-owned channels, keeping the pool
//! oblivious to job shapes. The pending-job count is tracked so the
//! metrics surface can report queue depth under load.

use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Arc;

use crossbeam::channel::{unbounded, Sender};
use parking_lot::{Mutex, MutexGuard};
use yask_obs::WindowedMax;

type Job = Box<dyn FnOnce() + Send + 'static>;

/// A fixed-size worker pool. Dropping it drains the queue and joins the
/// workers.
pub struct WorkerPool {
    tx: Option<Sender<Job>>,
    workers: Vec<std::thread::JoinHandle<()>>,
    pending: Arc<AtomicUsize>,
    /// High-water mark of `pending`: `/stats` samples queue depth at
    /// scrape time only, so saturation between scrapes would otherwise
    /// be invisible.
    depth_max: AtomicUsize,
    /// Windowed high-water mark of `pending` — the reset-safe cousin of
    /// `depth_max`, feeding the health surface's "max depth over the
    /// last minute" without a process restart to clear old spikes.
    depth_window: WindowedMax,
    /// Serializes *resident* job groups — jobs that park a worker thread
    /// for an extended section (the keyword fan-out's per-shard
    /// evaluation workers). See [`WorkerPool::resident_guard`].
    resident: Mutex<()>,
    /// Queue-depth bound for [`WorkerPool::submit_or_run`]. `usize::MAX`
    /// = unbounded (the default).
    capacity: usize,
    /// How many [`WorkerPool::submit_or_run`] calls found the queue at
    /// capacity and ran the job inline instead — the backpressure
    /// counter surfaced on `/stats`.
    saturated: AtomicUsize,
}

impl WorkerPool {
    /// Spawns `workers` threads (at least one) with an unbounded queue.
    pub fn new(workers: usize) -> Self {
        WorkerPool::with_capacity(workers, usize::MAX)
    }

    /// Spawns `workers` threads whose [`WorkerPool::submit_or_run`]
    /// queue is bounded at `capacity` pending jobs — the explicit
    /// backpressure knob: once the queue is that deep, scatter callers
    /// run their jobs inline (paying the cost themselves) instead of
    /// piling more onto the queue.
    pub fn with_capacity(workers: usize, capacity: usize) -> Self {
        let workers = workers.max(1);
        let (tx, rx) = unbounded::<Job>();
        let pending = Arc::new(AtomicUsize::new(0));
        let handles = (0..workers)
            .map(|_| {
                let rx = rx.clone();
                let pending = pending.clone();
                std::thread::spawn(move || {
                    while let Ok(job) = rx.recv() {
                        pending.fetch_sub(1, Ordering::Relaxed);
                        // A panicking job must not take the worker down:
                        // the scatter-gather caller detects the missing
                        // result and falls back to the exact scan.
                        let _ = std::panic::catch_unwind(std::panic::AssertUnwindSafe(job));
                    }
                })
            })
            .collect();
        WorkerPool {
            tx: Some(tx),
            workers: handles,
            pending,
            depth_max: AtomicUsize::new(0),
            depth_window: WindowedMax::standard(),
            resident: Mutex::new(()),
            capacity,
            saturated: AtomicUsize::new(0),
        }
    }

    /// Claims the pool's single *resident section*. A caller that parks
    /// long-lived (blocking-on-recv) jobs on pool threads MUST hold this
    /// guard for as long as those jobs live and MUST park at most
    /// [`WorkerPool::workers`] of them: two interleaved resident groups
    /// could each hold threads the other's stranded jobs need, blocking
    /// both gathers forever. With the guard, at most one resident group
    /// exists, every other queued job terminates on its own, and FIFO
    /// dispatch guarantees the group's jobs all eventually start.
    pub fn resident_guard(&self) -> MutexGuard<'_, ()> {
        self.resident.lock()
    }

    /// Enqueues a job. Panics if the pool is shut down (it only shuts
    /// down on drop, so a live pool always accepts).
    pub fn submit(&self, job: impl FnOnce() + Send + 'static) {
        let depth = self.pending.fetch_add(1, Ordering::Relaxed) + 1;
        self.depth_max.fetch_max(depth, Ordering::Relaxed);
        self.depth_window.record(depth as u64);
        let tx = self.tx.as_ref().expect("pool is shut down");
        if tx.send(Box::new(job)).is_err() {
            self.pending.fetch_sub(1, Ordering::Relaxed);
            panic!("worker pool has no live workers");
        }
    }

    /// Enqueues a job unless the queue already holds `capacity` pending
    /// jobs, in which case the job runs *inline on the calling thread* —
    /// bounded-queue backpressure that slows the producer down instead
    /// of letting the queue grow without limit. Scatter paths use this:
    /// running one shard's search inline is always correct (the result
    /// still lands on the caller's gather channel) and self-throttling.
    pub fn submit_or_run(&self, job: impl FnOnce() + Send + 'static) {
        if self.pending.load(Ordering::Relaxed) >= self.capacity {
            self.saturated.fetch_add(1, Ordering::Relaxed);
            job();
        } else {
            self.submit(job);
        }
    }

    /// Jobs submitted but not yet started.
    pub fn queue_depth(&self) -> usize {
        self.pending.load(Ordering::Relaxed)
    }

    /// How many [`WorkerPool::submit_or_run`] calls hit the capacity
    /// bound and ran inline.
    pub fn saturated_submits(&self) -> usize {
        self.saturated.load(Ordering::Relaxed)
    }

    /// The bounded-queue capacity (`usize::MAX` = unbounded).
    pub fn capacity(&self) -> usize {
        self.capacity
    }

    /// Highest queue depth ever observed at a submit.
    pub fn queue_depth_max(&self) -> usize {
        self.depth_max.load(Ordering::Relaxed)
    }

    /// Highest queue depth any submit observed in the last `horizon`
    /// seconds (up to 63) — resets as traffic ages out, unlike
    /// [`WorkerPool::queue_depth_max`].
    pub fn queue_depth_max_windowed(&self, horizon_secs: usize) -> usize {
        self.depth_window.max(horizon_secs) as usize
    }

    /// Number of worker threads.
    pub fn workers(&self) -> usize {
        self.workers.len()
    }
}

impl Drop for WorkerPool {
    fn drop(&mut self) {
        drop(self.tx.take()); // workers drain the queue and exit
        for h in self.workers.drain(..) {
            let _ = h.join();
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::AtomicU32;

    #[test]
    fn jobs_run_on_workers() {
        let pool = WorkerPool::new(3);
        assert_eq!(pool.workers(), 3);
        let counter = Arc::new(AtomicU32::new(0));
        let (tx, rx) = unbounded::<u32>();
        for i in 0..50 {
            let counter = counter.clone();
            let tx = tx.clone();
            pool.submit(move || {
                counter.fetch_add(1, Ordering::Relaxed);
                tx.send(i).unwrap();
            });
        }
        drop(tx);
        let mut got: Vec<u32> = std::iter::from_fn(|| rx.recv().ok()).collect();
        got.sort_unstable();
        assert_eq!(got, (0..50).collect::<Vec<_>>());
        assert_eq!(counter.load(Ordering::Relaxed), 50);
        assert_eq!(pool.queue_depth(), 0);
    }

    #[test]
    fn drop_drains_outstanding_jobs() {
        let counter = Arc::new(AtomicU32::new(0));
        {
            let pool = WorkerPool::new(2);
            for _ in 0..20 {
                let counter = counter.clone();
                pool.submit(move || {
                    counter.fetch_add(1, Ordering::Relaxed);
                });
            }
        } // drop joins after draining
        assert_eq!(counter.load(Ordering::Relaxed), 20);
    }

    #[test]
    fn panicking_job_does_not_kill_workers() {
        let pool = WorkerPool::new(1);
        let (tx, rx) = unbounded::<&'static str>();
        pool.submit(|| panic!("job panic"));
        let tx2 = tx.clone();
        pool.submit(move || {
            tx2.send("survived").unwrap();
        });
        drop(tx);
        assert_eq!(rx.recv(), Ok("survived"));
    }

    #[test]
    fn bounded_pool_runs_overflow_inline() {
        let pool = WorkerPool::with_capacity(1, 2);
        let (gate_tx, gate_rx) = unbounded::<()>();
        // Park the worker, then stack two jobs behind it: pending is at
        // least 2 (= capacity) whether or not the worker has dequeued
        // the parked job yet.
        pool.submit(move || {
            let _ = gate_rx.recv();
        });
        pool.submit(|| {});
        pool.submit(|| {});
        let caller = std::thread::current().id();
        let (tx, rx) = unbounded();
        pool.submit_or_run(move || {
            tx.send(std::thread::current().id()).unwrap();
        });
        // At capacity: the job ran inline on this thread, immediately.
        assert_eq!(rx.recv().unwrap(), caller);
        assert_eq!(pool.saturated_submits(), 1);
        gate_tx.send(()).unwrap();
    }

    #[test]
    fn unbounded_submit_or_run_enqueues() {
        let pool = WorkerPool::new(2);
        let (tx, rx) = unbounded::<()>();
        pool.submit_or_run(move || {
            tx.send(()).unwrap();
        });
        assert_eq!(rx.recv(), Ok(()));
        assert_eq!(pool.saturated_submits(), 0);
    }

    #[test]
    fn zero_workers_clamps_to_one() {
        let pool = WorkerPool::new(0);
        assert_eq!(pool.workers(), 1);
    }

    #[test]
    fn queue_depth_high_water_mark_persists() {
        let pool = WorkerPool::new(1);
        let (gate_tx, gate_rx) = unbounded::<()>();
        let (done_tx, done_rx) = unbounded::<()>();
        // Park the single worker, then stack jobs behind it.
        pool.submit(move || {
            let _ = gate_rx.recv();
        });
        for _ in 0..5 {
            let done_tx = done_tx.clone();
            pool.submit(move || {
                let _ = done_tx.send(());
            });
        }
        assert!(pool.queue_depth_max() >= 5);
        gate_tx.send(()).unwrap();
        for _ in 0..5 {
            done_rx.recv().unwrap();
        }
        // The mark survives the queue draining back to empty.
        assert_eq!(pool.queue_depth(), 0);
        assert!(pool.queue_depth_max() >= 5);
        // The windowed mark saw the same spike (it just happened, so it
        // is inside any horizon).
        assert!(pool.queue_depth_max_windowed(60) >= 5);
    }
}
