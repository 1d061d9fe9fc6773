//! Observability counters for the worker pool.
//!
//! Everything here is monotonic process-lifetime counting — tests and
//! benches diff two snapshots to prove a path actually engaged (pooled
//! dispatch or inline overflow), and the future ops surface reads the
//! same numbers. Every job passes exactly one of `run_job` (a worker
//! slot) or `run_inline` (the caller), so [`PoolStats::completed`]
//! counts each job once, and `completed − inline` is the number of jobs
//! handed to workers.

use std::sync::atomic::Ordering;

/// A snapshot of the pool's lifetime counters.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct PoolStats {
    /// Always 0: the pool has no queue. Kept only because the end-to-end
    /// benchmark still reports it.
    pub queued: u64,
    /// Always 0: the pool has no queue to steal from. Kept only because
    /// the end-to-end benchmark still reports it.
    pub stolen: u64,
    /// Jobs run on the calling thread (a region's last job, no idle
    /// worker, pool size 0, or captures too large for a slot).
    pub inline: u64,
    /// Jobs that finished executing, on any path — the counter to diff
    /// for "work done".
    pub completed: u64,
    /// Always 0: the pool has no queue. Kept only because the end-to-end
    /// benchmark still reports it.
    pub queue_depth_max: usize,
    /// Workers currently accepting dispatch.
    pub workers: usize,
    /// Worker threads parked in the pool (the cap for
    /// [`super::set_workers`]).
    pub spawned: usize,
}

/// Current pool counters; tests and benches diff two snapshots to prove
/// the path under test (dispatch or inline overflow) actually engaged.
pub fn stats() -> PoolStats {
    let p = super::pool();
    PoolStats {
        inline: p.inline.load(Ordering::Relaxed),
        completed: p.completed.load(Ordering::Relaxed),
        workers: super::workers(),
        spawned: p.workers.len(),
        ..PoolStats::default()
    }
}
