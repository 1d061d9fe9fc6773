//! Observability counters for the worker pool.
//!
//! Everything here is monotonic process-lifetime counting — tests and
//! benches diff two snapshots to prove a path actually engaged (pooled
//! dispatch, queueing, stealing), and the future ops surface reads the
//! same numbers. Counter semantics are deliberately precise about the
//! claim/complete distinction:
//!
//! * [`PoolStats::dispatched`] counts **slot handoffs** — IDLE→CLAIMED
//!   CAS wins followed by arming a parked worker. It says nothing about
//!   the job having *run* yet, and it does not cover queued or stolen
//!   jobs at all.
//! * [`PoolStats::completed`] counts **finished jobs** on every path
//!   (slot, queued-then-popped, stolen, inline). Steal-path accounting
//!   cannot double-count against it: each job passes exactly one of
//!   `run_job` / `run_inline`, which is where the increment lives.

use std::sync::atomic::Ordering;

/// A snapshot of the pool's lifetime counters.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct PoolStats {
    /// Worker **slots claimed and armed** (handoffs to parked workers) —
    /// not completions: a just-armed job is counted here before it runs.
    /// Queued and stolen jobs never touch this counter; use
    /// [`completed`](Self::completed) for "how many jobs finished".
    pub dispatched: u64,
    /// Jobs placed on a per-worker deque because no worker slot was idle
    /// (the oversubscription path that used to run inline).
    pub queued: u64,
    /// Queued jobs taken from the **head** of another worker's deque (by
    /// an idle worker or a joining caller). Disjoint from owner pops.
    pub stolen: u64,
    /// Jobs run on the calling thread (single-chunk regions, stash-tail
    /// execution, every deque full, or pool size 0).
    pub inline: u64,
    /// Jobs that finished executing, on any path. The one counter that is
    /// safe to diff for "work done": `dispatched` counts claims,
    /// `queued`/`stolen` count queue transitions, and a single job can
    /// touch several of those — but it completes exactly once.
    pub completed: u64,
    /// High-water mark of any single worker deque's depth.
    pub queue_depth_max: usize,
    /// Workers currently accepting dispatch.
    pub workers: usize,
    /// Worker threads parked in the pool (the cap for
    /// [`super::set_workers`]).
    pub spawned: usize,
}

/// Current pool counters; tests and benches diff two snapshots to prove
/// the path under test (dispatch, queueing, stealing) actually engaged.
pub fn stats() -> PoolStats {
    let p = super::pool();
    let queue_depth_max = p
        .workers
        .iter()
        .map(|w| w.deque.depth_max())
        .max()
        .unwrap_or(0);
    PoolStats {
        dispatched: p.dispatched.load(Ordering::Relaxed),
        queued: p.queued.load(Ordering::Relaxed),
        stolen: p.stolen.load(Ordering::Relaxed),
        inline: p.inline.load(Ordering::Relaxed),
        completed: p.completed.load(Ordering::Relaxed),
        queue_depth_max,
        workers: super::workers(),
        spawned: p.workers.len(),
    }
}
