//! Process-wide, sharded evaluation-plan cache.
//!
//! PR 2 memoized [`EvalPlan`]s per [`crate::Workspace`] (cap-8 LRU), which
//! left two hot-path taxes on the table:
//!
//! * **Cross-workspace rebuilds.** Every solver, batch and plan
//!   phase that constructed its own workspace re-planned shapes the
//!   process had already planned — and a workspace touching more than 8
//!   shapes (nine round-robined strategies, an MWEM sweep) evicted and
//!   rebuilt plans on *every* call.
//! * **Per-round spine rebuilds.** MWEM-style loops rebuild a stacked
//!   `Union` each round that shares all-but-one block with the previous
//!   round, but a whole-tree cache can only miss on the new spine and
//!   re-walk every block.
//!
//! This module replaces that with one process-wide cache keyed purely by
//! the structural shape fingerprint ([`crate::plan::fingerprint`]), and
//! [`crate::plan`] fingerprints **per child** on `Union` blocks and
//! `Product`-chain factors, so a rebuilt spine reassembles from cached
//! block plans in `O(blocks)` without re-walking any shared subtree.
//!
//! Design notes:
//!
//! * **Entries never go stale** — a plan is a pure function of the shape
//!   that keys it (see the soundness argument on `fingerprint`), so there
//!   is no invalidation protocol, only an optional [`plan_cache_clear`]
//!   for benchmarks that want to price re-planning.
//! * **Sharding.** The map is split into [`PLAN_CACHE_SHARDS`] independent
//!   `Mutex` shards selected by fingerprint bits, so concurrent
//!   workspaces rarely contend; solver inner loops never reach the shards
//!   at all thanks to the workspace-local single-entry fast path.
//! * **Exactly-once builds.** Each map slot holds a `OnceLock`: racing
//!   threads that miss on the same shape agree on one canonical
//!   `Arc<EvalPlan>` and only one of them runs the planning pass (the
//!   shard lock is *not* held while building, so recursive child builds
//!   cannot deadlock).
//! * **Byte-bounded residency.** Each shard runs a **byte-weighted
//!   second-chance** (clock) eviction: every entry carries its plan's
//!   direct byte footprint (accounted once, after the build completes)
//!   and a referenced bit set on every hit; when a shard's accounted
//!   bytes exceed its share of [`plan_cache_max_bytes`] — or its entry
//!   count reaches the `SHARD_CAP` backstop — the clock hand gives each
//!   referenced entry a second chance (clearing the bit) and evicts cold
//!   entries until the shard is back under ¾ of its bound. Hot entries —
//!   the shared block plans an MWEM loop re-stacks every round — survive
//!   indefinitely, while dead spines age out, so a long spine-stacking
//!   run holds bounded plan memory with **no rebuild storm** (gated by
//!   `tests/plan_eviction.rs`). Eviction only costs transient rebuilds,
//!   never correctness.

use std::collections::{HashMap, VecDeque};
use std::sync::atomic::{AtomicU64, AtomicUsize, Ordering};
use std::sync::{Arc, Mutex, OnceLock};

use crate::plan::EvalPlan;
use crate::Matrix;

/// Number of independent cache shards (power of two). Public so the
/// per-shard byte breakdown in [`PlanCacheStats`] has a stable, nameable
/// dimension.
pub const PLAN_CACHE_SHARDS: usize = 16;

/// Internal alias for the shard count.
const SHARDS: usize = PLAN_CACHE_SHARDS;

/// Resident shapes per shard before the clock sweep runs regardless of
/// bytes — a backstop against byte-accounting blind spots (in-flight
/// builds weigh 0 until accounted).
const SHARD_CAP: usize = 4096;

/// Default process-wide byte bound across all shards (see
/// [`plan_cache_set_max_bytes`]). Generous for realistic plan mixes —
/// a leaf plan is ~100 bytes, a 1000-block spine ~16 KiB — while still
/// bounding a pathological spine-stacking run to a fixed footprint.
const DEFAULT_MAX_BYTES: usize = 64 << 20;

/// Sweeps drain a shard to this fraction of its bound (hysteresis, so
/// each insert near the bound does not trigger its own sweep).
const SWEEP_TARGET_NUM: usize = 3;
const SWEEP_TARGET_DEN: usize = 4;

type Slot = Arc<OnceLock<Arc<EvalPlan>>>;

/// One resident shape: its build-once slot, its second-chance bit and
/// its accounted byte weight (0 while the build is in flight).
struct Entry {
    slot: Slot,
    referenced: bool,
    bytes: usize,
}

#[derive(Default)]
struct Shard {
    map: HashMap<u64, Entry>,
    /// Clock order for the second-chance hand: keys in insertion order.
    /// May hold stale keys (evicted, or re-inserted and queued twice);
    /// the sweep skips keys that no longer resolve.
    clock: VecDeque<u64>,
    /// Sum of accounted entry weights.
    bytes: usize,
}

static CACHE: OnceLock<Vec<Mutex<Shard>>> = OnceLock::new();

static HITS: AtomicU64 = AtomicU64::new(0);
static MISSES: AtomicU64 = AtomicU64::new(0);
static SHARED_SUBPLANS: AtomicU64 = AtomicU64::new(0);
static EVICTIONS: AtomicU64 = AtomicU64::new(0);
static MAX_BYTES: AtomicUsize = AtomicUsize::new(DEFAULT_MAX_BYTES);

fn shards() -> &'static [Mutex<Shard>] {
    CACHE.get_or_init(|| (0..SHARDS).map(|_| Mutex::new(Shard::default())).collect())
}

fn shard(fp: u64) -> &'static Mutex<Shard> {
    // The fingerprint is an FNV-1a product whose low bits are well mixed.
    &shards()[(fp as usize) & (SHARDS - 1)]
}

fn lock(m: &'static Mutex<Shard>) -> std::sync::MutexGuard<'static, Shard> {
    m.lock().unwrap_or_else(|e| e.into_inner())
}

/// Per-shard share of the process-wide byte bound.
fn shard_max_bytes() -> usize {
    (MAX_BYTES.load(Ordering::Relaxed) / SHARDS).max(1)
}

/// The process-wide plan-cache byte bound currently in force.
pub fn plan_cache_max_bytes() -> usize {
    MAX_BYTES.load(Ordering::Relaxed)
}

/// Sets the process-wide plan-cache byte bound (split evenly across the
/// [`PLAN_CACHE_SHARDS`] shards) and returns the previous bound. Purely a
/// memory/perf dial: eviction can only cost transient rebuilds, never
/// correctness. Bounds below a few plan footprints effectively disable
/// caching; the default (64 MiB) is generous for realistic plan mixes.
pub fn plan_cache_set_max_bytes(bytes: usize) -> usize {
    MAX_BYTES.swap(bytes.max(1), Ordering::Relaxed)
}

/// Second-chance sweep: advance the clock hand until the shard is under
/// both targets (or every surviving entry has used its second chance —
/// the pass bound keeps in-flight-heavy shards from spinning).
fn sweep(shard: &mut Shard, byte_target: usize, entry_target: usize) {
    let mut passes = shard.clock.len().saturating_mul(2);
    while (shard.bytes > byte_target || shard.map.len() > entry_target) && passes > 0 {
        passes -= 1;
        let Some(fp) = shard.clock.pop_front() else {
            break;
        };
        match shard.map.get_mut(&fp) {
            // Stale hand position: the key was evicted earlier (or is a
            // duplicate from an evict/re-insert cycle).
            None => continue,
            // Recently used: second chance.
            Some(e) if e.referenced => {
                e.referenced = false;
                shard.clock.push_back(fp);
            }
            // Build in flight (weight not yet accounted): keep.
            Some(e) if e.bytes == 0 => shard.clock.push_back(fp),
            // Cold: evict.
            Some(_) => {
                // xlint: allow(panic-policy, reason = "the match arm above just resolved this key and the shard lock is held continuously, so the entry cannot vanish")
                let e = shard.map.remove(&fp).expect("entry just resolved");
                shard.bytes -= e.bytes;
                EVICTIONS.fetch_add(1, Ordering::Relaxed);
            }
        }
    }
}

/// The cached plan for `m` under fingerprint `fp`, building it exactly
/// once process-wide on a miss. Returns `(plan, built)` where `built` is
/// true iff *this* call ran the planning pass.
pub(crate) fn get_or_build(m: &Matrix, fp: u64) -> (Arc<EvalPlan>, bool) {
    let slot: Slot = {
        let mut sh = lock(shard(fp));
        if let Some(e) = sh.map.get_mut(&fp) {
            e.referenced = true;
            Arc::clone(&e.slot)
        } else {
            let bound = shard_max_bytes();
            if sh.bytes > bound || sh.map.len() >= SHARD_CAP {
                sweep(
                    &mut sh,
                    bound * SWEEP_TARGET_NUM / SWEEP_TARGET_DEN,
                    SHARD_CAP * SWEEP_TARGET_NUM / SWEEP_TARGET_DEN,
                );
            }
            let slot = Slot::default();
            sh.map.insert(
                fp,
                Entry {
                    slot: Arc::clone(&slot),
                    referenced: false,
                    bytes: 0,
                },
            );
            sh.clock.push_back(fp);
            slot
        }
    };
    let mut built = false;
    let plan = slot.get_or_init(|| {
        built = true;
        Arc::new(EvalPlan::build_new(m, fp))
    });
    if built {
        MISSES.fetch_add(1, Ordering::Relaxed);
        // Account the entry's weight now that the plan exists. The entry
        // may have been swept while we were building (or replaced by an
        // evict/re-insert cycle): account only our own slot, once.
        let mut sh = lock(shard(fp));
        if let Some(e) = sh.map.get_mut(&fp) {
            if e.bytes == 0 && Arc::ptr_eq(&e.slot, &slot) {
                e.bytes = plan.direct_bytes();
                sh.bytes += e.bytes;
            }
        }
    } else {
        HITS.fetch_add(1, Ordering::Relaxed);
    }
    (Arc::clone(plan), built)
}

/// Records that a `Union`-block / `Product`-factor lookup was served from
/// the cache (the per-child sharing the MWEM round loop relies on).
pub(crate) fn note_shared_subplan() {
    SHARED_SUBPLANS.fetch_add(1, Ordering::Relaxed);
}

/// A snapshot of the process-wide plan-cache counters.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct PlanCacheStats {
    /// Lookups served from the cache without building (includes child
    /// lookups during spine assembly).
    pub hits: u64,
    /// Lookups that had to run the planning pass.
    pub misses: u64,
    /// The subset of `hits` that were `Union`-block or `Product`-factor
    /// lookups during spine assembly — each one is a whole subtree walk
    /// the per-child sharing avoided.
    pub shared_subplans: u64,
    /// Entries removed by the byte-weighted second-chance sweeps.
    pub evictions: u64,
    /// Shapes currently resident across all shards.
    pub entries: usize,
    /// Approximate heap bytes of all resident plans (each entry's
    /// *direct* footprint; `Arc`-shared sub-plans — union blocks, chain
    /// factors — count at pointer size in their parents and in full only
    /// at their own entry, so shared subtrees are not double counted).
    /// The figure the byte-weighted eviction policy budgets against.
    pub resident_bytes: usize,
    /// `resident_bytes` broken down per shard — the granularity at which
    /// the second-chance sweep operates.
    pub shard_bytes: [usize; PLAN_CACHE_SHARDS],
}

/// Current process-wide plan-cache counters. Counters are cumulative for
/// the process; tests and benchmarks diff two snapshots. Byte figures
/// walk the resident entries (bounded per shard by the byte-weighted
/// eviction), so this is a stats call, not a hot-path probe.
pub fn plan_cache_stats() -> PlanCacheStats {
    let mut entries = 0;
    let mut shard_bytes = [0usize; PLAN_CACHE_SHARDS];
    for (bytes, s) in shard_bytes.iter_mut().zip(shards()) {
        let map = lock(s);
        entries += map.map.len();
        *bytes = map
            .map
            .values()
            .filter_map(|e| e.slot.get())
            .map(|plan| plan.direct_bytes())
            .sum();
    }
    PlanCacheStats {
        hits: HITS.load(Ordering::Relaxed),
        misses: MISSES.load(Ordering::Relaxed),
        shared_subplans: SHARED_SUBPLANS.load(Ordering::Relaxed),
        evictions: EVICTIONS.load(Ordering::Relaxed),
        entries,
        resident_bytes: shard_bytes.iter().sum(),
        shard_bytes,
    }
}

/// Drops every cached plan process-wide. Never needed for correctness
/// (entries cannot go stale); benchmarks call this to price what the
/// cache removes. Workspaces holding a fast-path `Arc` keep evaluating
/// their plan unaffected — pair with [`crate::Workspace::invalidate_plans`]
/// to force a full re-plan.
pub fn plan_cache_clear() {
    for s in shards() {
        let mut sh = lock(s);
        sh.map.clear();
        sh.clock.clear();
        sh.bytes = 0;
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::plan::fingerprint;

    // Shapes here use dimensions unique to this file so counter assertions
    // are immune to sibling tests sharing the process-wide cache.

    /// Tests that clear the cache, change the byte bound or assert on
    /// global residency must not interleave (the test harness runs them
    /// on concurrent threads).
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
    fn stats_weigh_resident_bytes_per_shard() {
        // A leaf plan weighs a fixed struct size; a union spine adds
        // per-block records, so its entry must weigh more — the signal the
        // byte-weighted eviction policy keys on. Dimensions unique to this
        // test keep the assertions immune to cache sharing, and the
        // residency lock keeps `clear_forces_a_rebuild` from evicting the
        // entries between the builds and the stats snapshot.
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

        let stats = plan_cache_stats();
        assert!(
            stats.resident_bytes >= leaf_plan.direct_bytes() + spine_plan.direct_bytes(),
            "resident bytes must cover at least the entries just built"
        );
        assert_eq!(
            stats.resident_bytes,
            stats.shard_bytes.iter().sum::<usize>(),
            "total must equal the per-shard breakdown"
        );
    }

    /// Unit-level clock semantics, driven on a synthetic shard so no
    /// process-global state (and no sibling test) is involved: cold
    /// entries are evicted, referenced entries survive with their bit
    /// spent, in-flight builds (weight 0) are never evicted, and the
    /// byte accounting tracks the removals. (The end-to-end behavior —
    /// a long spine-stacking run under a configured bound with zero
    /// re-planning — is pinned in `tests/plan_eviction.rs`, which owns
    /// its process.)
    #[test]
    fn sweep_evicts_cold_keeps_hot_and_in_flight() {
        let mut shard = Shard::default();
        let mut insert = |fp: u64, referenced: bool, bytes: usize| {
            shard.map.insert(
                fp,
                Entry {
                    slot: Slot::default(),
                    referenced,
                    bytes,
                },
            );
            shard.clock.push_back(fp);
            shard.bytes += bytes;
        };
        insert(1, true, 1000); // hot
        insert(2, false, 1000); // cold
        insert(3, false, 0); // build in flight
        insert(4, false, 1000); // cold
        insert(5, true, 1000); // hot

        sweep(&mut shard, 2000, SHARD_CAP);
        assert!(!shard.map.contains_key(&2), "cold entry 2 must be evicted");
        assert!(!shard.map.contains_key(&4), "cold entry 4 must be evicted");
        assert!(shard.map.contains_key(&3), "in-flight entry must survive");
        assert!(shard.map.contains_key(&1), "hot entry 1 must survive");
        assert!(shard.map.contains_key(&5), "hot entry 5 must survive");
        // The hand stops as soon as the shard is under target: entry 1's
        // second chance was spent on the way, entry 5 was never reached.
        assert!(
            !shard.map[&1].referenced,
            "visited hot entry spends its bit"
        );
        assert!(shard.map[&5].referenced, "unvisited entry keeps its bit");
        assert_eq!(shard.bytes, 2000, "accounting must track the removals");

        // A second sweep with a tighter target now takes the ex-hot
        // entries (their chance is spent), but never the in-flight one.
        sweep(&mut shard, 0, SHARD_CAP);
        assert!(shard.map.contains_key(&3), "in-flight survives any sweep");
        assert_eq!(shard.map.len(), 1);
        assert_eq!(shard.bytes, 0);
    }
}
