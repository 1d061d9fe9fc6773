//! Per-worker bounded work deques for the pool's queueing fallback.
//!
//! Each pool worker owns one [`BoundedDeque`]: the owner pushes and pops
//! at the **tail** (LIFO — newest first, which keeps a worker's own
//! nested spawns cache-hot), while idle workers and joining callers steal
//! from the **head** (FIFO — oldest first, which is what makes queueing
//! fair: work that has waited longest runs next, so one caller's burst
//! cannot indefinitely delay another's earlier jobs).
//!
//! The ring is **preallocated at construction** and never grows: a push
//! onto a full deque fails and hands the job back to the dispatcher
//! (which falls back to the next worker's deque, then to running inline
//! on the caller). That bound is what keeps the scheduler's warm path
//! allocation-free — dispatching onto the deque moves the job's bytes
//! into an existing slot, nothing more.
//!
//! Synchronization is a plain [`Mutex`] around the ring indices: every
//! operation holds it for an index update plus one fixed-size move in or
//! out of a slot (a `Job` is ~30 words). The engine's contention regime —
//! a handful of workers, job bodies that run for microseconds to
//! milliseconds — makes a lock-free Chase–Lev deque measurable noise
//! here, while the mutex keeps the steal/pop race at `len == 1` trivially
//! correct (exactly one side wins the element; the other sees empty).

use std::mem::MaybeUninit;
use std::sync::Mutex;

/// A fixed-capacity ring deque: owner end at the tail (LIFO), thief end
/// at the head (FIFO). `T` is moved in and out by value; unconsumed
/// elements are dropped with the deque.
pub(crate) struct BoundedDeque<T: Send> {
    ring: Mutex<Ring<T>>,
}

struct Ring<T> {
    /// Preallocated storage; only `head..head+len` (mod capacity) is
    /// initialized.
    slots: Box<[MaybeUninit<T>]>,
    /// Index of the oldest element (the steal end).
    head: usize,
    /// Live element count; the tail is `(head + len) % capacity`.
    len: usize,
    /// High-water mark of `len` since construction, for
    /// `queue_depth_max` stats.
    depth_max: usize,
}

// SAFETY: all slot access happens under the `ring` mutex, and the
// initialized window `head..head+len` is maintained by every operation,
// so elements are moved in and out exactly once. `T: Send` is required
// because elements cross threads (owner push, thief pop).
unsafe impl<T: Send> Sync for BoundedDeque<T> {}

impl<T: Send> BoundedDeque<T> {
    /// Creates a deque with a fixed capacity (allocated once, here).
    pub(crate) fn new(capacity: usize) -> Self {
        assert!(capacity > 0, "a zero-capacity deque cannot hold work");
        let slots: Box<[MaybeUninit<T>]> = (0..capacity)
            // xlint: allow(warm-path-alloc, reason = "one-time ring preallocation at pool construction; every warm-path push/pop/steal reuses these slots")
            .map(|_| MaybeUninit::uninit())
            // xlint: allow(warm-path-alloc, reason = "one-time ring preallocation at pool construction; every warm-path push/pop/steal reuses these slots")
            .collect();
        BoundedDeque {
            ring: Mutex::new(Ring {
                slots,
                head: 0,
                len: 0,
                depth_max: 0,
            }),
        }
    }

    fn lock(&self) -> std::sync::MutexGuard<'_, Ring<T>> {
        // Elements never run (and so never panic) while the ring lock is
        // held — panics cannot poison a half-updated ring — but recover
        // from stray poisoning anyway: the indices are always consistent
        // at lock release.
        self.ring.lock().unwrap_or_else(|e| e.into_inner())
    }

    /// Owner push at the tail. Returns the value back when the deque is
    /// full (the dispatcher's cue to try the next worker or run inline);
    /// never blocks, never allocates.
    pub(crate) fn push_tail(&self, value: T) -> Result<(), T> {
        let mut r = self.lock();
        if r.len == r.slots.len() {
            return Err(value);
        }
        let cap = r.slots.len();
        let idx = (r.head + r.len) % cap;
        r.slots[idx].write(value);
        r.len += 1;
        if r.len > r.depth_max {
            r.depth_max = r.len;
        }
        Ok(())
    }

    /// Owner pop at the tail (LIFO): the most recently pushed element.
    pub(crate) fn pop_tail(&self) -> Option<T> {
        let mut r = self.lock();
        if r.len == 0 {
            return None;
        }
        r.len -= 1;
        let cap = r.slots.len();
        let idx = (r.head + r.len) % cap;
        // SAFETY: `idx` was inside the initialized window before `len`
        // was decremented, and shrinking the window first means no other
        // accessor (all serialized by the mutex) can read it again.
        Some(unsafe { r.slots[idx].assume_init_read() })
    }

    /// Thief pop at the head (FIFO): the oldest element. Used by idle
    /// workers and by callers helping while they wait on a join.
    pub(crate) fn steal_head(&self) -> Option<T> {
        let mut r = self.lock();
        if r.len == 0 {
            return None;
        }
        let idx = r.head;
        let cap = r.slots.len();
        r.head = (r.head + 1) % cap;
        r.len -= 1;
        // SAFETY: `idx` was the initialized head; advancing `head` and
        // shrinking `len` under the mutex removes it from the window
        // before the lock is released, so it is read exactly once.
        Some(unsafe { r.slots[idx].assume_init_read() })
    }

    /// Current length (diagnostics only — stale by the time you read it).
    #[cfg(test)]
    pub(crate) fn len(&self) -> usize {
        self.lock().len
    }

    /// High-water mark of the queue depth since construction.
    pub(crate) fn depth_max(&self) -> usize {
        self.lock().depth_max
    }
}

impl<T> Drop for Ring<T> {
    fn drop(&mut self) {
        // Drop any elements still queued (a scheduler batch abandoned by
        // a panic unwinding past its owner).
        for k in 0..self.len {
            let idx = (self.head + k) % self.slots.len();
            // SAFETY: `head..head+len` is exactly the initialized window,
            // and drop has exclusive access.
            unsafe { self.slots[idx].assume_init_drop() };
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::{AtomicUsize, Ordering};
    use std::sync::Arc;

    #[test]
    fn lifo_pop_fifo_steal() {
        let d = BoundedDeque::new(8);
        for v in [1u32, 2, 3, 4] {
            d.push_tail(v).unwrap();
        }
        assert_eq!(d.steal_head(), Some(1), "steal takes the oldest");
        assert_eq!(d.pop_tail(), Some(4), "pop takes the newest");
        assert_eq!(d.steal_head(), Some(2));
        assert_eq!(d.pop_tail(), Some(3));
        assert_eq!(d.pop_tail(), None);
        assert_eq!(d.steal_head(), None);
    }

    #[test]
    fn wraparound_preserves_order_and_bound() {
        let d = BoundedDeque::new(4);
        // Drive head around the ring several times with a mixed
        // push/steal pattern; order must stay FIFO at the head and the
        // capacity bound must hold at every wrap position.
        let mut next_in = 0u64;
        let mut next_out = 0u64;
        for round in 0..10 {
            let fill = 1 + (round % 4);
            for _ in 0..fill {
                d.push_tail(next_in).unwrap();
                next_in += 1;
            }
            // Overfill attempt when full must hand the value back.
            if fill == 4 {
                assert_eq!(d.push_tail(next_in), Err(next_in));
            }
            for _ in 0..fill {
                assert_eq!(d.steal_head(), Some(next_out));
                next_out += 1;
            }
        }
        assert_eq!(d.len(), 0);
        assert_eq!(d.depth_max(), 4);
    }

    #[test]
    fn concurrent_steal_vs_pop_at_len_one() {
        // The classic race: one element, owner popping the tail while a
        // thief steals the head. Exactly one side must win each element,
        // every element must surface exactly once, and nothing may be
        // duplicated — swept over many rounds to hit both outcomes.
        let d = Arc::new(BoundedDeque::new(2));
        let won = Arc::new(AtomicUsize::new(0));
        let rounds = 2000usize;
        // xlint: allow(determinism-thread, reason = "deque unit test: races a raw OS thread against the owner on purpose; the pool executor is not under test here")
        std::thread::scope(|s| {
            let thief = {
                let d = Arc::clone(&d);
                let won = Arc::clone(&won);
                move || {
                    for _ in 0..rounds {
                        while d.steal_head().is_none() {
                            std::hint::spin_loop();
                            if won.load(Ordering::Acquire) >= rounds {
                                return;
                            }
                        }
                        won.fetch_add(1, Ordering::AcqRel);
                    }
                }
            };
            let owner = {
                let d = Arc::clone(&d);
                let won = Arc::clone(&won);
                move || {
                    for v in 0..rounds as u64 {
                        d.push_tail(v).unwrap();
                        if d.pop_tail().is_some() {
                            won.fetch_add(1, Ordering::AcqRel);
                        }
                        // Wait until this element surfaced on one side
                        // before pushing the next, so exactly `rounds`
                        // elements flow through a len-0/1 deque.
                        while won.load(Ordering::Acquire) <= v as usize {
                            std::hint::spin_loop();
                        }
                    }
                }
            };
            s.spawn(thief);
            s.spawn(owner);
        });
        assert_eq!(
            won.load(Ordering::Acquire),
            rounds,
            "every element must surface exactly once across pop/steal"
        );
        assert_eq!(d.len(), 0);
    }

    #[test]
    fn dropped_deque_drops_queued_elements() {
        struct Counting(Arc<AtomicUsize>);
        impl Drop for Counting {
            fn drop(&mut self) {
                self.0.fetch_add(1, Ordering::Relaxed);
            }
        }
        let drops = Arc::new(AtomicUsize::new(0));
        {
            let d = BoundedDeque::new(4);
            for _ in 0..3 {
                let _ = d.push_tail(Counting(Arc::clone(&drops)));
            }
            let taken = d.steal_head();
            drop(taken);
            assert_eq!(drops.load(Ordering::Relaxed), 1);
        }
        assert_eq!(
            drops.load(Ordering::Relaxed),
            3,
            "queued elements must be dropped with the deque"
        );
    }
}
