//! Process-wide persistent worker-pool executor for every threaded path.
//!
//! Until this module existed, each threaded region paid
//! `std::thread::scope` per call: ~10µs of OS thread spawn/join per worker
//! plus the spawn harness's per-thread bookkeeping allocations (closure
//! box, join packet). That tax dominated threaded-small-tree latency and
//! was the one thing keeping the warm threaded paths from being literally
//! allocation-free. This executor replaces it with a fixed set of **parked
//! OS threads** and **preallocated per-worker job slots**:
//!
//! * [`scope`] is shaped like `std::thread::scope` — `pool::scope(|s|
//!   s.spawn(move || …))` — so parallel regions read the same as before,
//!   and spawned closures may borrow anything that outlives the scope.
//! * Dispatch copies the closure **by value into a fixed inline slot**
//!   (no boxing); a parked worker is claimed with one compare-and-swap
//!   and woken with one `unpark`. The warm dispatch path performs **zero
//!   heap allocations and zero thread creation** (gated by
//!   `tests/alloc_parallel.rs` with an every-size counting allocator).
//! * The scope keeps the most recently spawned job **stashed locally** and
//!   runs it on the calling thread at the end of the region: a
//!   single-chunk region therefore degrades to plain inline execution
//!   (no handoff at all), and a k-chunk region costs k−1 handoffs while
//!   the caller does the last chunk instead of parking.
//! * When no worker is idle (pool exhausted, nested regions) a job is
//!   **queued** on a per-worker bounded deque (`deque.rs`) instead of
//!   running inline: the owner pushes and pops LIFO at the tail, idle
//!   workers and joining callers steal FIFO from the head, so an
//!   oversubscribed burst from one session can no longer monopolize the
//!   caller while siblings starve — the oldest queued work runs next,
//!   whoever is free. Inline execution remains the final fallback (a
//!   pool deliberately sized to 0, or every deque full) and the
//!   stash-tail path below. Deadlock freedom now rests on **help-first
//!   joining**: every join loop runs queued jobs (own deque first, then
//!   stealing) instead of blind-parking, so the job a join waits on can
//!   always be executed by the waiter itself, and a slot job is still
//!   only ever armed on a worker that is parked in its dispatch loop.
//!
//! This module is the **packet layer** of the two-tier scheduler; the
//! **bucket layer** ([`bucket`]) adds stage ordering within a plan
//! (measure-before-infer) and round-robin fairness across concurrent
//! sessions on top of these deques. Counters for both layers are
//! exposed through [`stats`] (see [`PoolStats`] for the precise
//! claimed-vs-completed semantics of each counter).
//!
//! # Determinism
//!
//! The scheduler (both tiers) decides **where** and **in what order**
//! fixed chunks run, never **what** the work is.
//! Chunk geometry is fixed before dispatch — at plan time for matrix
//! evaluation ([`crate::Workspace`] plans record chunk sizes built from
//! [`configured_parallelism`], a process constant), and per call from the
//! same constant for the kernel batch paths — and every order-sensitive
//! combine (scatter merges, noise draws) happens sequentially on the
//! caller after the scope closes, in fixed chunk order. Running a chunk
//! on worker 3, worker 0 or inline on the caller — or queueing it and
//! having a thief steal it — executes the identical arithmetic on the
//! identical slice, so results are **bit-identical for every pool size
//! and every steal interleaving**, including 0. [`set_workers`] can be
//! changed at any time (benchmarks and the pool-size identity suites do)
//! without affecting any result, and the forced-steal hook
//! ([`set_force_steal`], env `EKTELO_POOL_FORCE_STEAL=1`) routes every
//! job through the steal path so the identity suites can pin the claim
//! for stealing specifically.
//!
//! # Configuration
//!
//! `EKTELO_POOL_WORKERS` (read once, at first use) sets both the number
//! of active workers and [`configured_parallelism`] — the parallelism
//! that chunk-geometry decisions use. Unset, both default to
//! `std::thread::available_parallelism()`. `EKTELO_POOL_WORKERS=0`
//! disables dispatch entirely (every region runs inline);
//! `EKTELO_POOL_WORKERS=1` fixes the geometry to a single chunk, making
//! every threaded path execute serially. Threading is always compiled;
//! this pool size is the only switch. The CI pool-determinism job runs
//! the suites under `1`, `4` and the default to pin that the answers
//! never move.

use std::any::Any;
use std::cell::UnsafeCell;
use std::marker::PhantomData;
use std::mem::MaybeUninit;
use std::panic::{catch_unwind, resume_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicBool, AtomicU64, AtomicU8, AtomicUsize, Ordering};
use std::sync::{Mutex, OnceLock};
use std::thread::Thread;

pub mod bucket;
mod deque;
mod stats;

pub use stats::{stats, worker_stats, PoolStats, WorkerStats};

use deque::BoundedDeque;

/// Hard upper bound on pool worker threads (and on
/// [`configured_parallelism`]); far above any realistic chunk count.
pub const MAX_WORKERS: usize = 64;

/// Words of inline closure storage per job slot. Every closure the
/// engine spawns captures a handful of slices and scalars (≤ ~12 words);
/// a closure that does not fit runs inline instead of allocating.
const TASK_WORDS: usize = 24;

/// Workers the pool keeps parked beyond the configured count, so
/// [`set_workers`] can raise the effective count at runtime (the
/// pool-size bit-identity suites do this on small machines). Parked
/// threads cost a stack apiece and no CPU.
const SPAWN_FLOOR: usize = 4;

/// Capacity of each per-worker deque, preallocated at pool construction.
/// Far above any chunk count a single region produces
/// (≤ [`MAX_WORKERS`]), and deep enough that dozens of concurrent
/// sessions queue without hitting the inline fallback.
const DEQUE_CAP: usize = 256;

// Worker slot states. IDLE workers are parked in their dispatch loop
// (never blocked inside a job), which is the deadlock-freedom invariant:
// an ARMED job always starts without waiting on anyone.
const IDLE: u8 = 0;
const CLAIMED: u8 = 1;
const ARMED: u8 = 2;
const RUNNING: u8 = 3;

type TaskData = [MaybeUninit<usize>; TASK_WORDS];

/// A type-erased job: the closure's bytes moved into inline storage, the
/// monomorphized invoker, and the scope awaiting its completion.
struct Job {
    data: TaskData,
    call: unsafe fn(*mut TaskData),
    scope: *const ScopeState,
}

// SAFETY: a `Job` only ever erases a closure that was required to be
// `Send` by `Scope::spawn`, and the `scope` pointer outlives the job (the
// scope cannot return until `pending` drains).
unsafe impl Send for Job {}

/// One pool worker: its dispatch state, its preallocated job slot and the
/// handle used to unpark it.
struct Worker {
    state: AtomicU8,
    slot: UnsafeCell<MaybeUninit<Job>>,
    thread: Thread,
    /// This worker's bounded deque: the worker pushes/pops LIFO at the
    /// tail; idle siblings and joining callers steal FIFO from the head.
    deque: BoundedDeque<Job>,
    /// Slot jobs this worker ran (its side of `dispatched` handoffs).
    ran_slot: AtomicU64,
    /// Jobs this worker stole from siblings' deque heads.
    stole: AtomicU64,
}

// SAFETY: `slot` is only written by a dispatcher that won the IDLE→CLAIMED
// CAS and only read by the worker after observing ARMED (Release/Acquire
// paired), so access is exclusive by protocol.
unsafe impl Sync for Worker {}

/// Per-scope completion state, allocated on the caller's stack.
struct ScopeState {
    /// Jobs handed to workers and not yet finished.
    pending: AtomicUsize,
    /// The scope's calling thread, unparked when `pending` drains.
    caller: Thread,
    /// First panic payload from any job (body panics take precedence).
    panic: Mutex<Option<Box<dyn Any + Send + 'static>>>,
}

struct Pool {
    workers: Box<[Worker]>,
    /// Workers `0..effective` accept dispatch; the rest stay parked
    /// (their deques remain valid steal targets, so shrinking can never
    /// strand queued work).
    effective: AtomicUsize,
    /// Slot handoffs (claims), not completions — see [`PoolStats`].
    dispatched: AtomicU64,
    inline: AtomicU64,
    /// Jobs placed on a deque (the oversubscription path).
    queued: AtomicU64,
    /// Jobs taken from a deque head by a non-owner.
    stolen: AtomicU64,
    /// Jobs finished on any path — the only safe "work done" counter.
    completed: AtomicU64,
    /// Round-robin cursor spreading non-worker enqueues across deques.
    rr: AtomicUsize,
}

static POOL: OnceLock<Pool> = OnceLock::new();

std::thread_local! {
    /// This thread's pool-worker index, or `usize::MAX` on non-workers.
    /// Lets dispatch prefer the own deque (LIFO locality) and join loops
    /// pop their own work before stealing.
    static WORKER_INDEX: std::cell::Cell<usize> = const { std::cell::Cell::new(usize::MAX) };
}

/// Test-only forced-steal hook, also reachable via
/// `EKTELO_POOL_FORCE_STEAL=1`: dispatch skips the worker slots so every
/// job queues, and every dequeue goes through the steal end (workers
/// sweep siblings before their own deque). Results are bit-identical
/// either way — the identity suites run with this on to prove it.
static FORCE_STEAL: AtomicBool = AtomicBool::new(false);

fn env_force_steal() -> bool {
    static V: OnceLock<bool> = OnceLock::new();
    *V.get_or_init(|| std::env::var("EKTELO_POOL_FORCE_STEAL").is_ok_and(|s| s.trim() == "1"))
}

fn force_steal() -> bool {
    env_force_steal() || FORCE_STEAL.load(Ordering::Relaxed)
}

/// Enables or disables the forced-steal schedule (see the module docs).
/// Testing surface: never changes results, only where and via which end
/// of the deques jobs execute.
pub fn set_force_steal(on: bool) {
    FORCE_STEAL.store(on, Ordering::Relaxed);
}

/// `EKTELO_POOL_WORKERS`, parsed once for the process lifetime.
fn env_workers() -> Option<usize> {
    static V: OnceLock<Option<usize>> = OnceLock::new();
    *V.get_or_init(|| {
        std::env::var("EKTELO_POOL_WORKERS")
            .ok()
            .and_then(|s| s.trim().parse::<usize>().ok())
    })
}

/// The process-constant parallelism that chunk-geometry decisions use:
/// `EKTELO_POOL_WORKERS` when set (clamped to `1..=`[`MAX_WORKERS`];
/// `0` reads as `1` — no chunking), otherwise the machine's
/// `available_parallelism`.
///
/// This is deliberately **not** [`workers`]: geometry must be a process
/// constant for cached plans to stay meaningful and for results to be
/// bit-identical across runtime [`set_workers`] changes, whereas the
/// effective worker count only steers where fixed chunks execute.
pub fn configured_parallelism() -> usize {
    static P: OnceLock<usize> = OnceLock::new();
    *P.get_or_init(|| match env_workers() {
        Some(n) => n.clamp(1, MAX_WORKERS),
        None => std::thread::available_parallelism()
            .map_or(1, |p| p.get())
            .min(MAX_WORKERS),
    })
}

fn pool() -> &'static Pool {
    POOL.get_or_init(|| {
        let effective = match env_workers() {
            // 0 is honored here (fully inline) but reads as 1 for chunk
            // geometry — the only place the two notions differ.
            Some(n) => n.min(MAX_WORKERS),
            None => configured_parallelism(),
        };
        let spawn = effective.clamp(SPAWN_FLOOR, MAX_WORKERS);
        let workers: Box<[Worker]> = (0..spawn)
            .map(|i| {
                let handle = std::thread::Builder::new()
                    // xlint: allow(warm-path-alloc, reason = "one-time pool construction inside the OnceLock initializer; the warm path only ever re-reads the initialized pool")
                    .name(format!("ektelo-pool-{i}"))
                    .spawn(move || worker_main(i))
                    // xlint: allow(panic-policy, reason = "one-time process initialization: if the OS cannot spawn the pool's worker threads there is no degraded mode to fall back to")
                    .expect("failed to spawn pool worker thread");
                Worker {
                    state: AtomicU8::new(IDLE),
                    slot: UnsafeCell::new(MaybeUninit::uninit()),
                    // xlint: allow(warm-path-alloc, reason = "one-time pool construction inside the OnceLock initializer; Thread::clone is an Arc refcount bump")
                    thread: handle.thread().clone(),
                    deque: BoundedDeque::new(DEQUE_CAP),
                    ran_slot: AtomicU64::new(0),
                    stole: AtomicU64::new(0),
                }
            })
            // xlint: allow(warm-path-alloc, reason = "one-time pool construction inside the OnceLock initializer; the warm path only ever re-reads the initialized pool")
            .collect();
        // Resolve the forced-steal env flag here so its one-time read
        // (which allocates) never lands inside a counting-allocator gate.
        let _ = env_force_steal();
        Pool {
            workers,
            effective: AtomicUsize::new(effective),
            dispatched: AtomicU64::new(0),
            inline: AtomicU64::new(0),
            queued: AtomicU64::new(0),
            stolen: AtomicU64::new(0),
            completed: AtomicU64::new(0),
            rr: AtomicUsize::new(0),
        }
    })
}

/// A worker's main loop: run whatever its slot was armed with, then
/// drain queued work (own deque first, stealing second), then park.
/// Workers never exit; they die with the process like any detached
/// thread.
fn worker_main(index: usize) {
    WORKER_INDEX.set(index);
    // Blocks until `pool()` finishes initializing, then never locks again.
    let w = &pool().workers[index];
    loop {
        match w.state.load(Ordering::Acquire) {
            ARMED => {
                w.state.store(RUNNING, Ordering::Relaxed);
                // SAFETY: ARMED (Acquire) pairs with the dispatcher's
                // Release store after writing the slot; the job is read
                // exactly once.
                let job = unsafe { (*w.slot.get()).assume_init_read() };
                run_job(job, false);
                w.ran_slot.fetch_add(1, Ordering::Relaxed);
                w.state.store(IDLE, Ordering::Release);
                continue;
            }
            IDLE => {
                // Claim RUNNING before touching queued work: a dispatcher
                // must never arm the slot of a worker that is busy inside
                // a (possibly joining) queued job — the deadlock-freedom
                // invariant is that an ARMED job only ever lands on a
                // worker parked in this dispatch loop.
                if w.state
                    .compare_exchange(IDLE, RUNNING, Ordering::Acquire, Ordering::Relaxed)
                    .is_ok()
                {
                    let did = drain_queue_work(index);
                    w.state.store(IDLE, Ordering::Release);
                    if did {
                        continue;
                    }
                } else {
                    // Lost the slot to a dispatcher mid-claim; loop to
                    // observe the ARMED store (or park on its unpark).
                    continue;
                }
            }
            _ => {}
        }
        std::thread::park();
    }
}

/// Runs queued jobs from worker `index`'s position: its own deque first
/// (newest-first — nested spawns stay cache-hot), then one steal sweep
/// over every sibling. Returns whether anything ran. Under the
/// forced-steal schedule the order inverts (steal siblings first) and
/// even the own deque is taken from the steal end, so every queued job
/// deterministically runs as a stolen packet.
fn drain_queue_work(index: usize) -> bool {
    let p = pool();
    let w = &p.workers[index];
    let mut did = false;
    loop {
        if force_steal() {
            if steal_one(p, Some(index)) {
                did = true;
                continue;
            }
            if let Some(job) = w.deque.steal_head() {
                p.stolen.fetch_add(1, Ordering::Relaxed);
                w.stole.fetch_add(1, Ordering::Relaxed);
                run_job(job, true);
                did = true;
                continue;
            }
            return did;
        }
        if let Some(job) = w.deque.pop_tail() {
            run_job(job, false);
            did = true;
            continue;
        }
        if steal_one(p, Some(index)) {
            did = true;
            continue;
        }
        return did;
    }
}

/// One steal attempt across every sibling deque — all spawned workers,
/// not just the active ones, so a [`set_workers`] shrink can never strand
/// queued jobs. Takes the oldest job (FIFO head) and runs it.
fn steal_one(p: &Pool, thief: Option<usize>) -> bool {
    let n = p.workers.len();
    let base = thief.map_or(0, |t| t + 1);
    for k in 0..n {
        let idx = (base + k) % n;
        if Some(idx) == thief {
            continue;
        }
        if let Some(job) = p.workers[idx].deque.steal_head() {
            p.stolen.fetch_add(1, Ordering::Relaxed);
            if let Some(t) = thief {
                p.workers[t].stole.fetch_add(1, Ordering::Relaxed);
            }
            run_job(job, true);
            return true;
        }
    }
    false
}

/// Help-first joining: runs one queued job on the current thread — the
/// own deque when the caller is a pool worker, else stealing the oldest
/// job from any deque. Returns whether a job ran. Every join loop calls
/// this before parking, which is what makes queueing deadlock-free: the
/// job a join is waiting on can always be executed by the waiter itself
/// (including nested scopes running on workers).
pub(crate) fn help_queue_work() -> bool {
    let p = pool();
    let own = WORKER_INDEX.get();
    if own != usize::MAX {
        let w = &p.workers[own];
        if force_steal() {
            if let Some(job) = w.deque.steal_head() {
                p.stolen.fetch_add(1, Ordering::Relaxed);
                w.stole.fetch_add(1, Ordering::Relaxed);
                run_job(job, true);
                return true;
            }
        } else if let Some(job) = w.deque.pop_tail() {
            run_job(job, false);
            return true;
        }
        return steal_one(p, Some(own));
    }
    steal_one(p, None)
}

/// Runs a job and signals its scope; `stolen` marks jobs taken from a
/// deque by a non-owner (and, under the forced-steal schedule, every
/// deque-sourced job). Panics are caught and deferred to the scope's
/// caller.
fn run_job(mut job: Job, stolen: bool) {
    let scope = job.scope;
    let result = catch_unwind(AssertUnwindSafe(|| {
        if stolen {
            // The steal path's own audited fault site: a chaos schedule
            // can kill specifically a stolen packet and assert the budget
            // ledger survives (`fault_injection.rs` sweeps it). Inside
            // the catch for the same reason as `pool::job` below.
            crate::failpoints::panic_if("pool::steal");
        }
        // Injected pool-job fault (counted before the closure runs, so an
        // armed hit skips the job entirely — its captured bytes are never
        // consumed, which is fine: engine closures capture only references
        // and scalars, never owning allocations).
        crate::failpoints::panic_if("pool::job");
        // SAFETY: `job.call` was instantiated by `erase` for exactly the
        // type whose bytes live in `job.data`; each job is consumed once.
        unsafe { (job.call)(&mut job.data) }
    }));
    pool().completed.fetch_add(1, Ordering::Relaxed);
    // SAFETY: the scope outlives the job — `scope()` cannot return while
    // `pending` counts it. The caller handle is cloned *before* the
    // decrement because the decrement is what releases the scope's frame.
    unsafe {
        if let Err(payload) = result {
            store_panic(&*scope, payload);
        }
        // xlint: allow(warm-path-alloc, reason = "Thread::clone is an Arc refcount bump, not a heap allocation; the handle must be taken before the decrement releases the scope's frame")
        let caller = (*scope).caller.clone();
        if (*scope).pending.fetch_sub(1, Ordering::AcqRel) == 1 {
            caller.unpark();
        }
    }
}

/// Runs a job on the calling thread (single-chunk regions, pool
/// exhaustion, pool size 0). Panics are deferred like worker panics so
/// already-dispatched siblings still complete before the scope unwinds.
fn run_inline(state: &ScopeState, mut job: Job) {
    pool().inline.fetch_add(1, Ordering::Relaxed);
    let result = catch_unwind(AssertUnwindSafe(|| {
        // Same site as `run_job`: every slot-backed job passes exactly one
        // of the two, so the site's total hit count per region is the job
        // count — invariant across pool sizes.
        crate::failpoints::panic_if("pool::job");
        // SAFETY: same contract as `run_job` — `job.call` matches the
        // erased type in `job.data`; this is the job's single consumption.
        unsafe { (job.call)(&mut job.data) }
    }));
    pool().completed.fetch_add(1, Ordering::Relaxed);
    if let Err(payload) = result {
        store_panic(state, payload);
    }
}

/// Inline path for closures too large for the preallocated slot: run now,
/// on the caller, deferring any panic like every other job path.
fn run_oversized<F: FnOnce()>(state: &ScopeState, f: F) {
    let p = pool();
    p.inline.fetch_add(1, Ordering::Relaxed);
    let result = catch_unwind(AssertUnwindSafe(f));
    p.completed.fetch_add(1, Ordering::Relaxed);
    if let Err(payload) = result {
        store_panic(state, payload);
    }
}

fn store_panic(state: &ScopeState, payload: Box<dyn Any + Send + 'static>) {
    let mut slot = state.panic.lock().unwrap_or_else(|e| e.into_inner());
    if slot.is_none() {
        *slot = Some(payload);
    }
}

/// Tries to hand `job` to an idle worker. Returns the job back on
/// failure; never waits.
fn try_dispatch(job: Job) -> Option<Job> {
    let p = pool();
    let n = p.effective.load(Ordering::Relaxed).min(p.workers.len());
    for w in &p.workers[..n] {
        if w.state
            .compare_exchange(IDLE, CLAIMED, Ordering::Acquire, Ordering::Relaxed)
            .is_ok()
        {
            // Count the job before arming it so the worker's decrement
            // can never observe a counter it was not added to.
            // SAFETY: the scope outlives its jobs (`scope()` parks until
            // `pending` drains), and winning the IDLE→CLAIMED CAS above
            // grants exclusive write access to this worker's slot until
            // the ARMED store hands it to the worker.
            unsafe { (*job.scope).pending.fetch_add(1, Ordering::Relaxed) };
            // SAFETY: as above — slot access is exclusive post-CAS.
            unsafe { (*w.slot.get()).write(job) };
            w.state.store(ARMED, Ordering::Release);
            w.thread.unpark();
            p.dispatched.fetch_add(1, Ordering::Relaxed);
            return None;
        }
    }
    Some(job)
}

/// Tries to place `job` on a worker deque. Returns the job back when the
/// pool is sized to 0 or every deque is full; never waits.
fn try_enqueue(mut job: Job) -> Option<Job> {
    let p = pool();
    let n = p.effective.load(Ordering::Relaxed).min(p.workers.len());
    if n == 0 {
        return Some(job);
    }
    // Count the job into its scope BEFORE it becomes visible in any
    // deque: a thief could otherwise run it and drive `pending` below
    // zero.
    // SAFETY: the scope outlives its jobs — every join loop parks until
    // `pending` drains, and a queued job was counted here first.
    unsafe { (*job.scope).pending.fetch_add(1, Ordering::Relaxed) };
    // A worker queues to its own deque first: LIFO pops serve its nested
    // spawns next, cache-hot, without a handoff.
    let own = WORKER_INDEX.get();
    if own != usize::MAX && own < p.workers.len() {
        match p.workers[own].deque.push_tail(job) {
            Ok(()) => {
                p.queued.fetch_add(1, Ordering::Relaxed);
                return None;
            }
            Err(back) => job = back,
        }
    }
    // Non-workers (and a worker whose own deque is full) spread across
    // the active deques round-robin, so concurrent sessions interleave
    // instead of piling onto worker 0.
    let start = p.rr.fetch_add(1, Ordering::Relaxed);
    for k in 0..n {
        let idx = (start + k) % n;
        if idx == own {
            continue;
        }
        match p.workers[idx].deque.push_tail(job) {
            Ok(()) => {
                p.queued.fetch_add(1, Ordering::Relaxed);
                p.workers[idx].thread.unpark();
                return None;
            }
            Err(back) => job = back,
        }
    }
    // Every deque full: the job never became visible — take the count
    // back and let the caller run it inline. (The transient nonzero
    // `pending` is harmless: only this thread joins on the scope, and it
    // is here, not parked.)
    // SAFETY: as above.
    unsafe { (*job.scope).pending.fetch_sub(1, Ordering::Relaxed) };
    Some(job)
}

/// Submission chokepoint for every sized job: an idle worker's slot if
/// one exists, else a worker deque (oversubscription **queues** instead
/// of running inline — the cross-session fairness rule), else inline on
/// the caller as the final fallback. Under the forced-steal schedule the
/// slot fast path is skipped so every job travels through a deque.
fn submit_job(state: &ScopeState, job: Job) {
    let job = if force_steal() {
        Some(job)
    } else {
        try_dispatch(job)
    };
    if let Some(job) = job {
        if let Some(job) = try_enqueue(job) {
            run_inline(state, job);
        }
    }
}

/// A dispatch handle into one [`scope`] region, mirroring
/// `std::thread::Scope`: jobs spawned through it may borrow anything
/// that outlives the scope (`'env` data), and the region does not end
/// until every job has run.
pub struct Scope<'scope, 'env: 'scope> {
    state: &'scope ScopeState,
    /// The most recently spawned job, kept local so the last chunk runs
    /// on the caller and single-job regions never touch a worker.
    stash: &'scope UnsafeCell<Option<Job>>,
    /// Invariance over both lifetimes, exactly as `std::thread::Scope`.
    _scope: PhantomData<&'scope mut &'scope ()>,
    _env: PhantomData<&'env mut &'env ()>,
}

impl<'scope, 'env> Scope<'scope, 'env> {
    /// Submits `f` to the pool. The closure runs on a parked worker when
    /// one is idle; otherwise it is **queued** on a worker deque (run
    /// later by that worker, a stealing sibling, or this caller helping
    /// at join). It runs inline on the caller only when it is the
    /// region's only job, when the pool is sized to 0 or every deque is
    /// full, or when its captures exceed the preallocated slot — in
    /// every case before [`scope`] returns, with no heap allocation on
    /// any path, and with no effect on the computed result.
    pub fn spawn<F>(&self, f: F)
    where
        F: FnOnce() + Send + 'scope,
    {
        if std::mem::size_of::<F>() <= std::mem::size_of::<TaskData>()
            && std::mem::align_of::<F>() <= std::mem::align_of::<usize>()
        {
            // SAFETY: `F: Send + 'scope`, and `scope()` cannot return
            // before the erased bytes have been consumed exactly once.
            let job = unsafe { erase(f, self.state) };
            let prev = unsafe { &mut *self.stash.get() }.replace(job);
            if let Some(prev) = prev {
                submit_job(self.state, prev);
            }
        } else {
            // Oversized captures: run now, on the caller, rather than
            // box. (No engine closure hits this; it keeps `spawn` total.)
            run_oversized(self.state, f);
        }
    }
}

/// Erases `f` into a [`Job`] by moving its bytes into the inline slot.
///
/// SAFETY: caller guarantees `F` fits `TaskData` (checked by `spawn`),
/// is `Send`, and outlives the scope; the job must run exactly once.
unsafe fn erase<F: FnOnce()>(f: F, state: &ScopeState) -> Job {
    unsafe fn call<F: FnOnce()>(data: *mut TaskData) {
        let f = unsafe { (data as *mut F).read() };
        f();
    }
    let mut data: TaskData = [MaybeUninit::uninit(); TASK_WORDS];
    // SAFETY: caller guarantees `F` fits `TaskData` and its alignment
    // divides the word alignment, so the write is in bounds and aligned.
    unsafe { (data.as_mut_ptr() as *mut F).write(f) };
    Job {
        data,
        call: call::<F>,
        scope: state,
    }
}

/// Runs `f` with a [`Scope`] whose spawned jobs execute on the persistent
/// worker pool, returning `f`'s result after **every** spawned job has
/// finished — the drop-in replacement for `std::thread::scope` in all
/// threaded regions.
///
/// Guarantees, in the image of `std::thread::scope`:
///
/// * every job spawned through the scope runs before `scope` returns
///   (even if `f` panics — the panic is re-raised after the join);
/// * a panicking job does not tear anything down mid-region: the first
///   payload is re-raised from `scope` once all jobs have completed;
/// * jobs may borrow `'env` data shared or mutably-disjointly, exactly
///   like scoped threads.
///
/// Unlike `std::thread::scope`, the warm path creates no threads and
/// performs no allocations, and a region that spawns a single job never
/// leaves the calling thread.
pub fn scope<'env, T, F>(f: F) -> T
where
    F: for<'scope> FnOnce(&'scope Scope<'scope, 'env>) -> T,
{
    let state = ScopeState {
        pending: AtomicUsize::new(0),
        caller: std::thread::current(),
        panic: Mutex::new(None),
    };
    let stash = UnsafeCell::new(None);
    let scope = Scope {
        state: &state,
        stash: &stash,
        _scope: PhantomData,
        _env: PhantomData,
    };
    let result = catch_unwind(AssertUnwindSafe(|| f(&scope)));
    // The caller executes the last (or only) job itself…
    // SAFETY: `f` has returned, so no `Scope::spawn` can touch the stash
    // concurrently; the caller is its only remaining accessor.
    if let Some(job) = unsafe { &mut *stash.get() }.take() {
        run_inline(&state, job);
    }
    // …then joins help-first: queued jobs (its own, or anyone's) run on
    // this thread instead of blind-parking, which is both the fairness
    // mechanism and what keeps queueing deadlock-free. The token-based
    // park protocol makes the final wait race-free: a completion that
    // lands between the check and the park leaves a token that makes the
    // park return immediately.
    while state.pending.load(Ordering::Acquire) != 0 {
        if !help_queue_work() {
            std::thread::park();
        }
    }
    let job_panic = state.panic.lock().unwrap_or_else(|e| e.into_inner()).take();
    match result {
        Err(body_panic) => resume_unwind(body_panic),
        Ok(value) => {
            if let Some(payload) = job_panic {
                resume_unwind(payload);
            }
            value
        }
    }
}

// Result-slot protocol states for the typed scope. A slot starts EMPTY,
// the job's single Release store publishes READY, and `TypedHandle::take`
// claims it with a READY→TAKEN CAS — so a take before `join`, or after a
// panicked job, fails loudly instead of reading uninitialized memory.
const SLOT_EMPTY: u8 = 0;
const SLOT_READY: u8 = 1;
const SLOT_TAKEN: u8 = 2;

/// A preallocated landing slot for one typed job's return value.
///
/// [`typed_scope`] keeps a fixed array of these on the caller's stack —
/// one per possible spawn — so returning a value from a pool job costs no
/// allocation and no locking: the job writes the value and flips the
/// slot's state with one Release store.
pub struct ResultSlot<T> {
    state: AtomicU8,
    value: UnsafeCell<MaybeUninit<T>>,
}

// SAFETY: the slot protocol gives exclusive access by construction — the
// value cell is written only by the one job that owns the slot (before
// its READY store) and read only by the one `take` that wins the
// READY→TAKEN CAS (after it). `T: Send` is required because the value
// crosses from a worker thread back to the caller.
unsafe impl<T: Send> Sync for ResultSlot<T> {}

impl<T> ResultSlot<T> {
    fn new() -> Self {
        ResultSlot {
            state: AtomicU8::new(SLOT_EMPTY),
            value: UnsafeCell::new(MaybeUninit::uninit()),
        }
    }
}

impl<T> Drop for ResultSlot<T> {
    fn drop(&mut self) {
        // A READY value whose handle was never consumed still gets
        // dropped (we have `&mut self`, so the scope has already joined).
        // SAFETY: READY means the owning job's Release store published a
        // fully written value, and no `take` claimed it (state ≠ TAKEN).
        if *self.state.get_mut() == SLOT_READY {
            unsafe { self.value.get_mut().assume_init_drop() };
        }
    }
}

/// The receipt for one typed job: redeem it with [`TypedHandle::take`]
/// after [`TypedScope::join`] to get the job's return value.
pub struct TypedHandle<'scope, T> {
    slot: &'scope ResultSlot<T>,
}

impl<T> TypedHandle<'_, T> {
    /// Whether the job has finished and its value is still unclaimed.
    pub fn is_ready(&self) -> bool {
        self.slot.state.load(Ordering::Acquire) == SLOT_READY
    }

    /// Consumes the handle and returns the job's value.
    ///
    /// # Panics
    ///
    /// Panics if the value is not ready — taking before
    /// [`TypedScope::join`], or taking the handle of a job that panicked
    /// (the job's own panic also resurfaces when the scope closes).
    pub fn take(self) -> T {
        match self.slot.state.compare_exchange(
            SLOT_READY,
            SLOT_TAKEN,
            Ordering::Acquire,
            Ordering::Acquire,
        ) {
            // SAFETY: winning the READY→TAKEN CAS proves the owning job
            // wrote the value (Release/Acquire paired) and grants this
            // call exclusive right to read it, exactly once.
            Ok(_) => unsafe { (*self.slot.value.get()).assume_init_read() },
            // xlint: allow(panic-policy, reason = "documented API contract (see the Panics section): taking before join, or taking a panicked job's handle, is a caller bug")
            Err(_) => panic!(
                "TypedHandle::take: value not ready (take() before join(), \
                 or the job panicked)"
            ),
        }
    }
}

/// A dispatch handle into one [`typed_scope`] region: like [`Scope`], but
/// spawned closures **return values**, redeemed through
/// [`TypedHandle`]s after an explicit [`TypedScope::join`]. All jobs in
/// one region return the same type `T` (they land in a homogeneous
/// preallocated slot array).
pub struct TypedScope<'scope, 'env: 'scope, T: Send> {
    state: &'scope ScopeState,
    /// Last spawned job, run by the caller at `join` — same single-chunk
    /// degradation as [`Scope`].
    stash: &'scope UnsafeCell<Option<Job>>,
    slots: &'scope [ResultSlot<T>; MAX_WORKERS],
    /// Next unclaimed slot index (slots are claimed in spawn order, which
    /// is what makes fixed-order merges of the results trivial).
    next: &'scope std::cell::Cell<usize>,
    _scope: PhantomData<&'scope mut &'scope ()>,
    _env: PhantomData<&'env mut &'env ()>,
}

impl<'scope, 'env, T: Send> TypedScope<'scope, 'env, T> {
    /// Submits `f` to the pool and returns the handle that will hold its
    /// value. Placement mirrors [`Scope::spawn`] exactly (worker, inline
    /// fallback, caller-run stash tail, oversized-capture inline path) —
    /// none of which affects the value produced.
    ///
    /// # Panics
    ///
    /// Panics if the region spawns more than [`MAX_WORKERS`] jobs (the
    /// preallocated slot array is full; chunk counts are bounded by
    /// [`configured_parallelism`], which is far below this).
    pub fn spawn<F>(&self, f: F) -> TypedHandle<'scope, T>
    where
        F: FnOnce() -> T + Send + 'scope,
    {
        let idx = self.next.get();
        assert!(
            idx < MAX_WORKERS,
            "typed_scope: spawned more jobs than preallocated result slots"
        );
        self.next.set(idx + 1);
        let slot = &self.slots[idx];
        debug_assert_eq!(slot.state.load(Ordering::Relaxed), SLOT_EMPTY);
        let task = move || {
            let v = f();
            // SAFETY: this job is the slot's unique owner; the Release
            // store below is what publishes the write to `take`.
            unsafe { (*slot.value.get()).write(v) };
            slot.state.store(SLOT_READY, Ordering::Release);
        };
        if std::mem::size_of_val(&task) <= std::mem::size_of::<TaskData>()
            && std::mem::align_of_val(&task) <= std::mem::align_of::<usize>()
        {
            // SAFETY: the wrapper is `Send + 'scope` (it captures `f` and
            // a `'scope` slot reference), and `typed_scope` cannot return
            // before the erased bytes are consumed exactly once.
            let job = unsafe { erase(task, self.state) };
            let prev = unsafe { &mut *self.stash.get() }.replace(job);
            if let Some(prev) = prev {
                submit_job(self.state, prev);
            }
        } else {
            run_oversized(self.state, task);
        }
        TypedHandle { slot }
    }

    /// Blocks until every job spawned so far has finished (running the
    /// stashed tail job on the calling thread first). After `join`
    /// returns, every handle spawned before it is ready. Callable
    /// repeatedly; spawning again after a `join` starts a new batch.
    pub fn join(&self) {
        // SAFETY: `TypedScope` is `!Sync` (Cell fields), so `join` and
        // `spawn` are serialized on the one caller thread that owns the
        // stash; workers never touch it.
        if let Some(job) = unsafe { &mut *self.stash.get() }.take() {
            run_inline(self.state, job);
        }
        while self.state.pending.load(Ordering::Acquire) != 0 {
            if !help_queue_work() {
                std::thread::park();
            }
        }
    }
}

/// Runs `f` with a [`TypedScope`]: the value-returning variant of
/// [`scope`], built for chunked reductions — spawn one job per fixed
/// chunk, [`TypedScope::join`], then merge the [`TypedHandle`] values in
/// spawn order on the caller. The result slots live in this call's stack
/// frame, so the whole round trip (dispatch, return, merge) allocates
/// nothing.
///
/// Joins all jobs before returning even if `f` panics or forgets to call
/// `join`; job panics resurface here after every job has completed, with
/// a body panic taking precedence — the same contract as [`scope`].
pub fn typed_scope<'env, T, R, F>(f: F) -> R
where
    T: Send,
    F: for<'scope> FnOnce(&'scope TypedScope<'scope, 'env, T>) -> R,
{
    let state = ScopeState {
        pending: AtomicUsize::new(0),
        caller: std::thread::current(),
        panic: Mutex::new(None),
    };
    let stash = UnsafeCell::new(None);
    let slots: [ResultSlot<T>; MAX_WORKERS] = std::array::from_fn(|_| ResultSlot::new());
    let next = std::cell::Cell::new(0);
    let ts = TypedScope {
        state: &state,
        stash: &stash,
        slots: &slots,
        next: &next,
        _scope: PhantomData,
        _env: PhantomData,
    };
    let result = catch_unwind(AssertUnwindSafe(|| f(&ts)));
    // SAFETY: `f` has returned, so no `TypedScope::spawn`/`join` can touch
    // the stash concurrently; the caller is its only remaining accessor.
    if let Some(job) = unsafe { &mut *stash.get() }.take() {
        run_inline(&state, job);
    }
    while state.pending.load(Ordering::Acquire) != 0 {
        if !help_queue_work() {
            std::thread::park();
        }
    }
    let job_panic = state.panic.lock().unwrap_or_else(|e| e.into_inner()).take();
    match result {
        Err(body_panic) => resume_unwind(body_panic),
        Ok(value) => {
            if let Some(payload) = job_panic {
                resume_unwind(payload);
            }
            value
        }
    }
}

/// Number of workers currently accepting dispatch (0 = fully inline).
pub fn workers() -> usize {
    let p = pool();
    p.effective.load(Ordering::Relaxed).min(p.workers.len())
}

/// Sets the number of workers accepting dispatch and returns the value
/// actually applied (capped by the threads spawned at pool creation —
/// at least 4, at most [`MAX_WORKERS`]).
///
/// Changing this **never changes results** — chunk geometry is fixed by
/// [`configured_parallelism`], a process constant, and all merges are
/// fixed-order — it only changes where the fixed chunks execute. The
/// pool-size bit-identity suites sweep this across 1, 2 and the full
/// pool to pin exactly that.
pub fn set_workers(n: usize) -> usize {
    let p = pool();
    let applied = n.min(p.workers.len());
    p.effective.store(applied, Ordering::Relaxed);
    applied
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::AtomicUsize;

    /// Tests that resize the pool must not interleave (the effective
    /// count is process-global).
    static RESIZE: Mutex<()> = Mutex::new(());

    fn resize_lock() -> std::sync::MutexGuard<'static, ()> {
        RESIZE.lock().unwrap_or_else(|e| e.into_inner())
    }

    #[test]
    fn single_job_runs_inline_without_dispatch() {
        let _serial = resize_lock();
        // A zero-worker pool forces the point: the job can only run
        // inline, and a single-chunk region completes without any worker.
        let prev = workers();
        set_workers(0);
        let before = stats();
        let mut out = 0usize;
        scope(|s| s.spawn(|| out = 7));
        set_workers(prev);
        assert_eq!(out, 7);
        let after = stats();
        assert!(after.inline > before.inline);
    }

    #[test]
    fn jobs_write_disjoint_slots_and_all_run() {
        let _serial = resize_lock();
        let mut slots = vec![0usize; 16];
        scope(|s| {
            for (i, slot) in slots.iter_mut().enumerate() {
                s.spawn(move || *slot = i + 1);
            }
        });
        assert_eq!(slots, (1..=16).collect::<Vec<_>>());
    }

    #[test]
    fn results_identical_across_pool_sizes_including_zero() {
        let _serial = resize_lock();
        let prev = workers();
        let run = || {
            let mut slots = vec![0.0f64; 8];
            scope(|s| {
                for (i, slot) in slots.iter_mut().enumerate() {
                    s.spawn(move || *slot = (0..100).map(|k| ((i * 100 + k) as f64).sqrt()).sum());
                }
            });
            slots
        };
        let reference = run();
        for size in [0, 1, 2, MAX_WORKERS] {
            set_workers(size);
            assert_eq!(run(), reference, "pool size {size} changed results");
        }
        set_workers(prev);
    }

    #[test]
    fn scope_returns_body_value_after_jobs_finish() {
        let _serial = resize_lock();
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
    fn nested_scopes_on_workers_complete() {
        let _serial = resize_lock();
        let mut outer = [0usize; 6];
        scope(|s| {
            for (i, slot) in outer.iter_mut().enumerate() {
                s.spawn(move || {
                    // A nested region inside a pool job: dispatch falls
                    // back to idle workers or inline, never deadlocks.
                    let mut inner = [0usize; 4];
                    scope(|s2| {
                        for (j, islot) in inner.iter_mut().enumerate() {
                            s2.spawn(move || *islot = j + 1);
                        }
                    });
                    *slot = i + inner.iter().sum::<usize>();
                });
            }
        });
        for (i, v) in outer.iter().enumerate() {
            assert_eq!(*v, i + 10);
        }
    }

    #[test]
    fn job_panic_propagates_after_all_jobs_complete() {
        let _serial = resize_lock();
        let finished = AtomicUsize::new(0);
        let result = catch_unwind(AssertUnwindSafe(|| {
            scope(|s| {
                s.spawn(|| panic!("boom"));
                for _ in 0..4 {
                    s.spawn(|| {
                        finished.fetch_add(1, Ordering::Relaxed);
                    });
                }
            });
        }));
        assert!(result.is_err(), "a job panic must surface from scope()");
        assert_eq!(
            finished.load(Ordering::Relaxed),
            4,
            "sibling jobs must complete before the panic propagates"
        );
    }

    #[test]
    fn panic_in_stolen_packet_propagates_after_siblings_complete() {
        // The scope() panic contract must hold on the thief path too:
        // with forced stealing every spawned job queues and executes via
        // a deque steal, and a panicking stolen packet still surfaces
        // from scope() only after every sibling packet has run.
        let _serial = resize_lock();
        let prev = workers();
        set_workers(pool().workers.len().max(1));
        set_force_steal(true);
        let finished = AtomicUsize::new(0);
        let result = catch_unwind(AssertUnwindSafe(|| {
            scope(|s| {
                s.spawn(|| panic!("stolen boom"));
                for _ in 0..4 {
                    s.spawn(|| {
                        finished.fetch_add(1, Ordering::Relaxed);
                    });
                }
            });
        }));
        set_force_steal(false);
        set_workers(prev);
        assert!(
            result.is_err(),
            "a stolen packet's panic must surface from scope()"
        );
        assert_eq!(
            finished.load(Ordering::Relaxed),
            4,
            "sibling packets must complete before the panic propagates"
        );
        // The pool is not wedged: a fresh region still runs to completion.
        let sum = AtomicUsize::new(0);
        scope(|s| {
            for i in 0..4 {
                let sum = &sum;
                s.spawn(move || {
                    sum.fetch_add(i + 1, Ordering::Relaxed);
                });
            }
        });
        assert_eq!(sum.load(Ordering::Relaxed), 10);
    }

    #[test]
    fn oversized_captures_run_inline() {
        let _serial = resize_lock();
        let out = AtomicUsize::new(0);
        let out_ref = &out;
        scope(|s| {
            for _ in 0..2 {
                let big = [[1.0f64; 64]; 8]; // 4 KiB by value: exceeds the slot
                s.spawn(move || {
                    let v = big.iter().flatten().sum::<f64>() as usize;
                    out_ref.fetch_add(v, Ordering::Relaxed);
                });
            }
        });
        assert_eq!(out.load(Ordering::Relaxed), 1024);
    }

    #[test]
    fn forced_steal_queues_and_steals_with_identical_results() {
        let _serial = resize_lock();
        let prev = workers();
        set_workers(pool().workers.len());
        let run = || {
            let mut slots = vec![0.0f64; 12];
            scope(|s| {
                for (i, slot) in slots.iter_mut().enumerate() {
                    s.spawn(move || *slot = (0..200).map(|k| ((i * 37 + k) as f64).sqrt()).sum());
                }
            });
            slots
        };
        let reference = run();
        let before = stats();
        set_force_steal(true);
        let forced = run();
        set_force_steal(false);
        let after = stats();
        set_workers(prev);
        assert_eq!(forced, reference, "forced stealing changed results");
        assert!(
            after.queued > before.queued,
            "forced-steal spawns must queue"
        );
        assert!(after.stolen > before.stolen, "queued jobs must run stolen");
        assert!(after.completed > before.completed);
        assert!(after.queue_depth_max >= 1);
    }

    #[test]
    fn nested_scopes_complete_under_forced_steal() {
        let _serial = resize_lock();
        set_force_steal(true);
        let mut outer = [0usize; 4];
        scope(|s| {
            for (i, slot) in outer.iter_mut().enumerate() {
                s.spawn(move || {
                    let mut inner = [0usize; 3];
                    scope(|s2| {
                        for (j, islot) in inner.iter_mut().enumerate() {
                            s2.spawn(move || *islot = j + 1);
                        }
                    });
                    *slot = i + inner.iter().sum::<usize>();
                });
            }
        });
        set_force_steal(false);
        for (i, v) in outer.iter().enumerate() {
            assert_eq!(*v, i + 6);
        }
    }

    #[test]
    fn completed_counts_every_path() {
        let _serial = resize_lock();
        let before = stats();
        let n = 10usize;
        let counter = AtomicUsize::new(0);
        scope(|s| {
            for _ in 0..n {
                s.spawn(|| {
                    counter.fetch_add(1, Ordering::Relaxed);
                });
            }
        });
        let after = stats();
        assert_eq!(counter.load(Ordering::Relaxed), n);
        // Other tests run concurrently, so only a lower bound is exact.
        assert!(
            after.completed >= before.completed + n as u64,
            "every spawned job must be counted completed exactly once \
             (before {}, after {})",
            before.completed,
            after.completed
        );
    }

    #[test]
    fn worker_stats_align_with_pool() {
        let ws = worker_stats();
        let ps = stats();
        assert_eq!(ws.len(), ps.spawned);
        for (i, w) in ws.iter().enumerate() {
            assert_eq!(w.index, i);
        }
        let per_worker: u64 = ws.iter().map(|w| w.stolen).sum();
        assert!(
            per_worker <= ps.stolen,
            "worker steals ({per_worker}) cannot exceed pool steals ({})",
            ps.stolen
        );
    }

    #[test]
    fn configured_parallelism_is_positive_and_bounded() {
        let p = configured_parallelism();
        assert!((1..=MAX_WORKERS).contains(&p));
    }

    #[test]
    fn typed_scope_returns_values_in_spawn_order() {
        let _serial = resize_lock();
        let data: Vec<f64> = (0..64).map(|i| i as f64).collect();
        let got = typed_scope(|ts| {
            let handles: Vec<_> = data
                .chunks(16)
                .map(|c| ts.spawn(move || c.iter().sum::<f64>()))
                .collect();
            ts.join();
            handles
                .into_iter()
                .map(TypedHandle::take)
                .collect::<Vec<_>>()
        });
        assert_eq!(got, vec![120.0, 376.0, 632.0, 888.0]);
    }

    #[test]
    fn typed_scope_results_identical_across_pool_sizes_including_zero() {
        let _serial = resize_lock();
        let prev = workers();
        let run = || {
            typed_scope(|ts| {
                let handles: Vec<_> = (0..8)
                    .map(|i| {
                        ts.spawn(move || {
                            (0..100).map(|k| ((i * 100 + k) as f64).sqrt()).sum::<f64>()
                        })
                    })
                    .collect();
                ts.join();
                handles.into_iter().map(TypedHandle::take).sum::<f64>()
            })
        };
        let reference = run();
        for size in [0, 1, 2, MAX_WORKERS] {
            set_workers(size);
            assert_eq!(
                run().to_bits(),
                reference.to_bits(),
                "pool size {size} changed typed reduction"
            );
        }
        set_workers(prev);
    }

    #[test]
    fn typed_take_before_join_panics_cleanly() {
        let _serial = resize_lock();
        typed_scope(|ts| {
            // A single spawned job sits in the stash until join runs it,
            // so its handle is guaranteed not-ready here.
            let h = ts.spawn(|| 1.0f64);
            assert!(!h.is_ready());
            let r = catch_unwind(AssertUnwindSafe(|| h.take()));
            assert!(r.is_err(), "take() before join() must panic");
            ts.join();
        });
    }

    #[test]
    fn typed_job_panic_propagates_from_scope() {
        let _serial = resize_lock();
        let result = catch_unwind(AssertUnwindSafe(|| {
            typed_scope(|ts| {
                let _h = ts.spawn(|| -> f64 { panic!("typed boom") });
                ts.join();
            });
        }));
        assert!(result.is_err(), "a typed job panic must surface");
    }

    #[test]
    fn typed_unconsumed_values_are_dropped() {
        let _serial = resize_lock();
        // Heap-owning values left unclaimed must still be freed by the
        // slot's Drop when the scope closes.
        typed_scope(|ts| {
            for i in 0..6 {
                let _ = ts.spawn(move || vec![i; 100]);
            }
            ts.join();
        });
    }

    #[test]
    fn typed_scope_joins_all_jobs_even_without_explicit_join() {
        let _serial = resize_lock();
        let counter = AtomicUsize::new(0);
        typed_scope(|ts: &TypedScope<'_, '_, ()>| {
            for _ in 0..8 {
                let _ = ts.spawn(|| {
                    counter.fetch_add(1, Ordering::Relaxed);
                });
            }
            // No join(): the scope epilogue must still drain everything.
        });
        assert_eq!(counter.load(Ordering::Relaxed), 8);
    }
}
