//! Process-wide evaluation-plan cache.
//!
//! One map from the structural shape fingerprint
//! ([`crate::plan::fingerprint`]) to a build-once slot, behind one
//! `Mutex`, shared by every [`crate::Workspace`] and every thread.
//! [`crate::plan`] fingerprints **per child** on `Union` blocks and
//! `Product`-chain factors, so a spine rebuilt with mostly unchanged
//! children (an MWEM round stacking one more measurement onto last
//! round's union) reassembles from cached block plans in `O(blocks)`
//! without re-walking any shared subtree.
//!
//! * **Entries never go stale** — a plan is a pure function of the shape
//!   that keys it (see the soundness argument on `fingerprint`), so there
//!   is no invalidation protocol, only [`plan_cache_clear`] for
//!   benchmarks that want to price re-planning.
//! * **Exactly-once builds.** Each slot is a `OnceLock`: threads that miss
//!   on the same shape agree on one canonical `Arc<EvalPlan>`, and only
//!   one of them runs the planning pass. The lock is *not* held while
//!   building, so recursive child builds cannot deadlock.
//! * **One lock.** Solver inner loops never reach it (each workspace
//!   keeps a single-entry fast path), and evaluation is single-threaded.
//! * **Bounded residency.** A byte counter adds each plan's direct
//!   footprint once, when its build completes. An insert that finds the
//!   counter above `MAX_BYTES` (64 MiB) clears the whole map, and the
//!   shapes in use rebuild once. The benchmark workloads hold 2–62 KB of
//!   plans, and a spine stacking one block per round crosses the bound
//!   only after about 2,900 rounds.

use std::collections::HashMap;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex, OnceLock};

use crate::plan::EvalPlan;
use crate::Matrix;

/// Resident plan bytes above which the next insert clears the cache.
const MAX_BYTES: usize = 64 << 20;

type Slot = Arc<OnceLock<Arc<EvalPlan>>>;

#[derive(Default)]
struct Cache {
    map: HashMap<u64, Slot>,
    /// Sum of `direct_bytes` over the resident plans whose build
    /// completed.
    bytes: usize,
}

impl Cache {
    /// The slot for `fp`, inserting an empty one on a miss. An insert
    /// that finds more than `max_bytes` resident clears the map first.
    fn slot(&mut self, fp: u64, max_bytes: usize) -> Slot {
        if let Some(slot) = self.map.get(&fp) {
            return Arc::clone(slot);
        }
        if self.bytes > max_bytes {
            self.clear();
        }
        Arc::clone(self.map.entry(fp).or_default())
    }

    /// Adds a finished plan's `bytes`, once, if `slot` is still the
    /// resident entry for `fp` (a clear during the build dropped it).
    fn account(&mut self, fp: u64, slot: &Slot, bytes: usize) {
        if self.map.get(&fp).is_some_and(|s| Arc::ptr_eq(s, slot)) {
            self.bytes += bytes;
        }
    }

    fn clear(&mut self) {
        self.map.clear();
        self.bytes = 0;
    }
}

static CACHE: OnceLock<Mutex<Cache>> = OnceLock::new();

static HITS: AtomicU64 = AtomicU64::new(0);
static MISSES: AtomicU64 = AtomicU64::new(0);

fn lock() -> std::sync::MutexGuard<'static, Cache> {
    // Every update leaves the map and the counter consistent, so a guard
    // poisoned by a panicking planner is still valid.
    CACHE
        .get_or_init(Mutex::default)
        .lock()
        .unwrap_or_else(|e| e.into_inner())
}

/// The cached plan for `m` under fingerprint `fp`, building it exactly
/// once process-wide on a miss. Returns `(plan, built)` where `built` is
/// true iff *this* call ran the planning pass.
pub(crate) fn get_or_build(m: &Matrix, fp: u64) -> (Arc<EvalPlan>, bool) {
    let slot = lock().slot(fp, MAX_BYTES);
    let mut built = false;
    let plan = slot.get_or_init(|| {
        built = true;
        Arc::new(EvalPlan::build_new(m, fp))
    });
    if built {
        MISSES.fetch_add(1, Ordering::Relaxed);
        lock().account(fp, &slot, plan.direct_bytes());
    } else {
        HITS.fetch_add(1, Ordering::Relaxed);
    }
    (Arc::clone(plan), built)
}

/// A snapshot of the process-wide plan-cache counters.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct PlanCacheStats {
    /// Lookups served from the cache without building (includes child
    /// lookups during spine assembly).
    pub hits: u64,
    /// Lookups that had to run the planning pass.
    pub misses: u64,
    /// Shapes currently resident.
    pub entries: usize,
    /// Approximate heap bytes of all resident plans (each entry's
    /// *direct* footprint; `Arc`-shared sub-plans — union blocks, chain
    /// factors — count at pointer size in their parents and in full only
    /// at their own entry, so shared subtrees are not double counted).
    /// The figure the residency bound applies to.
    pub resident_bytes: usize,
}

/// Current process-wide plan-cache counters. Counters are cumulative for
/// the process; tests and benchmarks diff two snapshots.
pub fn plan_cache_stats() -> PlanCacheStats {
    let cache = lock();
    PlanCacheStats {
        hits: HITS.load(Ordering::Relaxed),
        misses: MISSES.load(Ordering::Relaxed),
        entries: cache.map.len(),
        resident_bytes: cache.bytes,
    }
}

/// Drops every cached plan process-wide. Never needed for correctness
/// (entries cannot go stale); benchmarks call this to price what the
/// cache removes. Workspaces holding a fast-path `Arc` keep evaluating
/// their plan unaffected — pair with [`crate::Workspace::invalidate_plans`]
/// to force a full re-plan.
pub fn plan_cache_clear() {
    lock().clear();
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::plan::fingerprint;

    // Shapes here use dimensions unique to this file so counter assertions
    // are immune to sibling tests sharing the process-wide cache.

    /// Tests that clear the cache or assert on global residency must not
    /// interleave (the test harness runs them on concurrent threads).
    static RESIDENCY: Mutex<()> = Mutex::new(());

    fn residency_lock() -> std::sync::MutexGuard<'static, ()> {
        RESIDENCY.lock().unwrap_or_else(|e| e.into_inner())
    }

    #[test]
    fn exactly_one_build_per_shape_across_threads() {
        let _serial = residency_lock();
        let m = Matrix::vstack(vec![Matrix::prefix(377), Matrix::wavelet(377)]);
        let fp = fingerprint(&m);
        let mut plans: Vec<Option<(Arc<EvalPlan>, bool)>> = vec![None; 4];
        let mut threads = vec![None; 4];
        let start = &std::sync::Barrier::new(4);
        // xlint: allow(determinism-thread, reason = "test: the exactly-once build must hold when real OS threads race on one shape")
        std::thread::scope(|s| {
            for (slot, id) in plans.iter_mut().zip(threads.iter_mut()) {
                let m = m.clone();
                s.spawn(move || {
                    *id = Some(std::thread::current().id());
                    start.wait();
                    *slot = Some(get_or_build(&m, fingerprint(&m)));
                });
            }
        });
        let ids: Vec<_> = threads.into_iter().flatten().collect();
        assert!(
            ids.len() == 4 && ids.iter().any(|&id| id != ids[0]),
            "the lookups must run on several OS threads"
        );
        let plans: Vec<(Arc<EvalPlan>, bool)> =
            plans.into_iter().map(|p| p.expect("thread ran")).collect();
        let builds = plans.iter().filter(|(_, b)| *b).count();
        assert_eq!(builds, 1, "racing lookups must agree on one build");
        for (p, _) in &plans {
            assert!(Arc::ptr_eq(p, &plans[0].0), "all threads share one plan");
        }
        // And a later lookup is a hit on the same canonical Arc.
        let (again, built) = get_or_build(&m, fp);
        assert!(!built);
        assert!(Arc::ptr_eq(&again, &plans[0].0));
    }

    #[test]
    fn clear_forces_a_rebuild() {
        let _serial = residency_lock();
        let m = Matrix::prefix(5419);
        let (_, built_first) = get_or_build(&m, fingerprint(&m));
        assert!(built_first);
        let (_, built_again) = get_or_build(&m, fingerprint(&m));
        assert!(!built_again);
        plan_cache_clear();
        let (_, built_after_clear) = get_or_build(&m, fingerprint(&m));
        assert!(built_after_clear, "clear must drop residency");
    }

    #[test]
    fn stats_track_entries() {
        let _serial = residency_lock();
        let before = plan_cache_stats();
        let m = Matrix::suffix(7451);
        let _ = get_or_build(&m, fingerprint(&m));
        let after = plan_cache_stats();
        assert!(after.misses > before.misses);
        assert!(after.entries >= 1);
    }

    #[test]
    fn stats_weigh_resident_bytes() {
        // A leaf plan weighs a fixed struct size; a union spine adds
        // per-block records, so its entry must weigh more. Dimensions
        // unique to this test keep the assertions immune to cache
        // sharing, and the residency lock keeps `clear_forces_a_rebuild`
        // from clearing the entries between the builds and the snapshot.
        let _serial = residency_lock();
        let leaf = Matrix::prefix(9973);
        let (leaf_plan, _) = get_or_build(&leaf, fingerprint(&leaf));
        let spine = Matrix::vstack(vec![Matrix::prefix(4201); 39]);
        let (spine_plan, _) = get_or_build(&spine, fingerprint(&spine));
        assert!(
            spine_plan.direct_bytes() > leaf_plan.direct_bytes(),
            "39-block spine ({}) must outweigh a leaf ({})",
            spine_plan.direct_bytes(),
            leaf_plan.direct_bytes()
        );
        assert!(
            plan_cache_stats().resident_bytes
                >= leaf_plan.direct_bytes() + spine_plan.direct_bytes(),
            "resident bytes must cover at least the entries just built"
        );
    }

    /// The residency bound, driven on a synthetic map so no
    /// process-global state (and no sibling test) is involved: a build's
    /// bytes count once and only while its slot is resident, hits never
    /// clear, and the first insert over the bound clears the map and the
    /// counter together. (A long spine-stacking run through the global
    /// cache is pinned in `tests/plan_eviction.rs`, which owns its
    /// process.)
    #[test]
    fn insert_over_the_bound_clears_the_map() {
        let mut cache = Cache::default();
        for fp in 1..=3 {
            let slot = cache.slot(fp, 2000);
            cache.account(fp, &slot, 1000);
        }
        assert_eq!((cache.map.len(), cache.bytes), (3, 3000));

        // Hits over the bound neither clear nor account.
        let hot = cache.slot(2, 2000);
        assert!(Arc::ptr_eq(&hot, &cache.map[&2]));
        assert_eq!((cache.map.len(), cache.bytes), (3, 3000));

        // A build whose slot was cleared away adds nothing.
        let stale: Slot = Slot::default();
        cache.account(3, &stale, 1000);
        assert_eq!(cache.bytes, 3000);

        // The next insert finds 3000 > 2000 resident and clears first.
        let fresh = cache.slot(4, 2000);
        assert_eq!(cache.map.len(), 1);
        assert_eq!(cache.bytes, 0, "the clear resets the counter");
        // The builds that were in flight across the clear add nothing.
        cache.account(2, &hot, 1000);
        assert_eq!(cache.bytes, 0);
        cache.account(4, &fresh, 500);
        assert_eq!((cache.map.len(), cache.bytes), (1, 500));

        // At the bound (not above it) an insert keeps everything.
        let slot = cache.slot(5, 500);
        cache.account(5, &slot, 700);
        assert_eq!((cache.map.len(), cache.bytes), (2, 1200));
    }
}
