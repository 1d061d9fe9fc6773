//! Benchmark-only compatibility shim for the deleted worker pool.
//!
//! Evaluation is single-threaded: no library crate spawns a thread or
//! calls anything in this module. It exists only because the end-to-end
//! benchmark package (`crates/bench/src/bin/ektelo_benchmark/`), which a
//! product change may not edit, still calls [`scope`],
//! [`configured_parallelism`] and [`stats`]. Delete it together with the
//! benchmark's `pool.*` rows at the next benchmark change.
//!
//! * [`scope`] / [`Scope::spawn`] keep the `std::thread::scope` shape and
//!   run each job immediately on the caller.
//! * [`stats`] counts those jobs as both `completed` and `inline`; the
//!   other counters read 0.
//! * [`configured_parallelism`] reports the machine's
//!   `available_parallelism` (capped at 64), the figure the benchmark
//!   records so `--compare` can refuse runs made on different machines.
//!   Nothing reads it to size work.

use std::marker::PhantomData;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::OnceLock;

/// Jobs run through [`Scope::spawn`] (all of them inline).
static JOBS: AtomicU64 = AtomicU64::new(0);

/// A snapshot of the shim's counters.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct PoolStats {
    /// Always 0: there is no queue.
    pub queued: u64,
    /// Always 0: there are no workers to steal.
    pub stolen: u64,
    /// Jobs run on the calling thread: every job.
    pub inline: u64,
    /// Jobs that finished: every job.
    pub completed: u64,
    /// Always 0: there is no queue.
    pub queue_depth_max: usize,
}

/// Current counters; diff two snapshots to count jobs.
pub fn stats() -> PoolStats {
    let jobs = JOBS.load(Ordering::Relaxed);
    PoolStats {
        inline: jobs,
        completed: jobs,
        ..PoolStats::default()
    }
}

/// The machine's `available_parallelism`, capped at 64, read once. A
/// recorded fact about the host, not a work size.
pub fn configured_parallelism() -> usize {
    static P: OnceLock<usize> = OnceLock::new();
    *P.get_or_init(|| {
        std::thread::available_parallelism()
            .map_or(1, |p| p.get())
            .min(64)
    })
}

/// The handle [`scope`] passes to its body, shaped like
/// `std::thread::Scope`.
pub struct Scope<'scope, 'env: 'scope> {
    /// Invariance over both lifetimes, exactly as `std::thread::Scope`.
    _scope: PhantomData<&'scope mut &'scope ()>,
    _env: PhantomData<&'env mut &'env ()>,
}

impl<'scope> Scope<'scope, '_> {
    /// Runs `f` now, on the caller.
    pub fn spawn<F>(&self, f: F)
    where
        F: FnOnce() + Send + 'scope,
    {
        f();
        JOBS.fetch_add(1, Ordering::Relaxed);
    }
}

/// Runs `f` with a [`Scope`] whose jobs run inline, and returns its
/// result.
pub fn scope<'env, T, F>(f: F) -> T
where
    F: for<'scope> FnOnce(&'scope Scope<'scope, 'env>) -> T,
{
    f(&Scope {
        _scope: PhantomData,
        _env: PhantomData,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::AtomicUsize;

    #[test]
    fn single_job_runs_inline_without_dispatch() {
        let caller = std::thread::current().id();
        let before = stats();
        let mut ran_on = None;
        scope(|s| s.spawn(|| ran_on = Some(std::thread::current().id())));
        assert_eq!(ran_on, Some(caller));
        assert!(stats().inline > before.inline);
    }

    #[test]
    fn jobs_write_disjoint_slots_and_all_run() {
        let mut slots = vec![0usize; 16];
        scope(|s| {
            for (i, slot) in slots.iter_mut().enumerate() {
                s.spawn(move || *slot = i + 1);
            }
        });
        assert_eq!(slots, (1..=16).collect::<Vec<_>>());
    }

    #[test]
    fn scope_returns_body_value_after_jobs_finish() {
        let counter = AtomicUsize::new(0);
        let v = scope(|s| {
            for _ in 0..8 {
                s.spawn(|| {
                    counter.fetch_add(1, Ordering::Relaxed);
                });
            }
            42
        });
        assert_eq!(v, 42);
        assert_eq!(counter.load(Ordering::Relaxed), 8);
    }

    #[test]
    fn oversized_captures_run_inline() {
        let out = AtomicUsize::new(0);
        let out_ref = &out;
        scope(|s| {
            for _ in 0..2 {
                let big = [[1.0f64; 64]; 8]; // 4 KiB captured by value
                s.spawn(move || {
                    let v = big.iter().flatten().sum::<f64>() as usize;
                    out_ref.fetch_add(v, Ordering::Relaxed);
                });
            }
        });
        assert_eq!(out.load(Ordering::Relaxed), 1024);
    }

    #[test]
    fn completed_counts_every_path() {
        let before = stats();
        let n = 10usize;
        scope(|s| {
            for _ in 0..n {
                s.spawn(|| {});
            }
        });
        let after = stats();
        // Other tests run concurrently, so only a lower bound is exact.
        assert!(after.completed >= before.completed + n as u64);
        assert_eq!(after.completed, after.inline);
        assert_eq!(
            (after.queued, after.stolen, after.queue_depth_max),
            (0, 0, 0)
        );
    }

    #[test]
    fn configured_parallelism_is_positive_and_bounded() {
        let p = configured_parallelism();
        assert!((1..=64).contains(&p));
    }
}
