//! Deterministic fault-injection sites ("failpoints").
//!
//! Robustness claims about the budget ledger are only as good as the
//! failure paths that have actually been executed, so the engine declares
//! named failpoints at every place a plan can die mid-flight: reservation
//! admission, each charging class, batch mid-stripe, the batch's
//! exact-answer phase and solver iterations. A test (or an operator
//! running a chaos drill) schedules "fail at the k-th hit of site S" and
//! the site either returns `true` from [`triggered`] (the caller maps that
//! to a typed error) or panics via [`panic_if`] (for sites modelling
//! crashes inside code that has no error channel, e.g. a matrix
//! evaluation).
//!
//! Design constraints, in order:
//!
//! * **Zero cost and zero behavior change when disabled.** The module is
//!   compiled in two legs: the real registry under the non-default
//!   `failpoints` cargo feature, and `#[inline(always)]` no-op stubs
//!   otherwise. Call sites are unconditional — no `cfg` at the site — and
//!   the stubs constant-fold away, so the default build is bit-identical
//!   to a build that never heard of failpoints.
//! * **Deterministic.** Sites are keyed by name; a schedule arms "the
//!   n-th hit" with hits counted from the arming point. No clocks, no
//!   RNG, no probabilities — the same program run hits the same fault.
//! * **Schedules are test/ops-surface only.** The mutation API
//!   (`arm`, `clear` — compiled only with the feature) must never be
//!   called from library code — xlint's
//!   `failpoint-sites` rule enforces that, and also pins [`triggered`] /
//!   [`panic_if`] call sites to the enumerated site files.
//!
//! With the feature on but nothing armed, every site is a counter
//! increment under a mutex — results stay bit-identical to the default
//! build (the fault-injection CI leg runs the determinism suites this
//! way to prove it).

/// The audited failpoint surface: every site name that may appear at a
/// [`triggered`] / [`panic_if`] call site, in one reviewable list.
/// Always compiled (both feature legs) so chaos schedules can be
/// validated against it and xlint's `cfg-parity` rule can cross-check
/// declarations against uses in both directions — a name used but not
/// declared is a covert site; a name declared but never used is a chaos
/// drill that silently arms nothing.
pub const SITES: &[&str] = &[
    "state::reserve",
    "state::charge",
    "state::redeem",
    "kernel::batch_stripe",
    "kernel::batch_exact",
    "solver::iteration",
];

#[cfg(feature = "failpoints")]
mod imp {
    use std::collections::BTreeMap;
    use std::sync::{Mutex, OnceLock};

    #[derive(Default)]
    struct Site {
        /// Hits observed since the site was last armed (or first seen).
        hits: u64,
        /// Fire on this hit count, then disarm (one-shot).
        armed: Option<u64>,
    }

    /// `BTreeMap` (not a hash map) so any diagnostic iteration over sites
    /// is in a stable order.
    fn registry() -> &'static Mutex<BTreeMap<String, Site>> {
        static REGISTRY: OnceLock<Mutex<BTreeMap<String, Site>>> = OnceLock::new();
        REGISTRY.get_or_init(|| {
            let mut map = BTreeMap::new();
            if let Ok(spec) = std::env::var("EKTELO_FAILPOINTS") {
                arm_into(&mut map, &spec);
            }
            Mutex::new(map)
        })
    }

    /// Parses a `site=nth;site=nth` schedule into the registry. Malformed
    /// entries are ignored: a chaos drill with a typo'd schedule should
    /// run clean, not crash the process before the first query.
    fn arm_into(map: &mut BTreeMap<String, Site>, spec: &str) {
        for part in spec.split(';') {
            if let Some((site, nth)) = part.split_once('=') {
                if let Ok(n) = nth.trim().parse::<u64>() {
                    if n > 0 {
                        // xlint: allow(warm-path-alloc, reason = "schedule arming is test/ops surface, reachable from warm code only through the one-time registry initialization of the non-default failpoints leg")
                        map.insert(
                            // xlint: allow(warm-path-alloc, reason = "schedule arming is test/ops surface, reachable from warm code only through the one-time registry initialization of the non-default failpoints leg")
                            site.trim().to_string(),
                            Site {
                                hits: 0,
                                armed: Some(n),
                            },
                        );
                    }
                }
            }
        }
    }

    fn lock() -> std::sync::MutexGuard<'static, BTreeMap<String, Site>> {
        // A panic *at* a site happens outside this lock (the registry
        // guard is already dropped when `panic_if` unwinds), but recover
        // from stray poisoning anyway: the registry holds no invariants
        // a half-completed mutation could break.
        registry().lock().unwrap_or_else(|e| e.into_inner())
    }

    /// Records a hit at `site`; returns `true` exactly when a schedule
    /// armed this hit. Firing disarms the site (one-shot), so recovery
    /// code re-entering the same site does not fail forever.
    pub fn triggered(site: &'static str) -> bool {
        let mut reg = lock();
        // xlint: allow(warm-path-alloc, reason = "the non-default failpoints leg trades one BTreeMap entry per site for deterministic fault injection; the default build compiles the no-op stub")
        let entry = reg.entry(site.to_string()).or_default();
        entry.hits += 1;
        if entry.armed == Some(entry.hits) {
            entry.armed = None;
            true
        } else {
            false
        }
    }

    /// Panics when a schedule armed this hit of `site` — for sites that
    /// model crashes in code without an error channel (exact-answer
    /// evaluation, solver inner loops). The payload names the site so tests can assert which
    /// fault fired.
    pub fn panic_if(site: &'static str) {
        if triggered(site) {
            // xlint: allow(panic-policy, reason = "the entire purpose of this function is to model a crash at a named site; only reachable with the non-default failpoints feature AND an explicit schedule arming the site")
            panic!("failpoint triggered: {site}");
        }
    }

    /// Arms `site` to fire on its `nth` subsequent hit (1-based), resetting
    /// the site's hit counter. Test/ops surface only — never call from
    /// library code (xlint-enforced).
    pub fn arm(site: &str, nth: u64) {
        assert!(nth > 0, "failpoint hit counts are 1-based");
        lock().insert(
            site.to_string(),
            Site {
                hits: 0,
                armed: Some(nth),
            },
        );
    }

    /// Arms every entry of a `site=nth;site=nth` schedule string (the same
    /// grammar as the `EKTELO_FAILPOINTS` env schedule, which is parsed at
    /// first registry use). Test/ops surface only.
    pub fn arm_schedule(spec: &str) {
        arm_into(&mut lock(), spec);
    }

    /// Disarms every site and resets all hit counters.
    pub fn clear() {
        lock().clear();
    }

    /// Hits observed at `site` since it was last armed/cleared/first seen.
    /// Sweep tests run a plan once clean to learn each site's hit count,
    /// then re-run arming hits `1..=hits(site)`.
    pub fn hits(site: &str) -> u64 {
        lock().get(site).map_or(0, |s| s.hits)
    }

    #[cfg(test)]
    mod tests {
        use super::*;
        use std::sync::{Mutex, MutexGuard, OnceLock};

        /// The registry is process-global, so tests touching it must not
        /// interleave.
        fn serial() -> MutexGuard<'static, ()> {
            static GATE: OnceLock<Mutex<()>> = OnceLock::new();
            GATE.get_or_init(|| Mutex::new(()))
                .lock()
                .unwrap_or_else(|e| e.into_inner())
        }

        #[test]
        fn fires_exactly_on_the_armed_hit_then_disarms() {
            let _g = serial();
            clear();
            arm("t::site", 3);
            assert!(!triggered("t::site"));
            assert!(!triggered("t::site"));
            assert!(triggered("t::site"));
            // One-shot: the 3rd hit of the *next* epoch does not fire.
            assert!(!triggered("t::site"));
            assert_eq!(hits("t::site"), 4);
            clear();
        }

        #[test]
        fn unarmed_sites_only_count() {
            let _g = serial();
            clear();
            for _ in 0..5 {
                assert!(!triggered("t::unarmed"));
            }
            assert_eq!(hits("t::unarmed"), 5);
            clear();
        }

        #[test]
        fn arming_resets_the_hit_counter() {
            let _g = serial();
            clear();
            for _ in 0..7 {
                triggered("t::reset");
            }
            arm("t::reset", 1);
            assert_eq!(hits("t::reset"), 0);
            assert!(triggered("t::reset"));
            clear();
        }

        #[test]
        fn schedule_grammar_parses_and_ignores_malformed_entries() {
            let _g = serial();
            clear();
            arm_schedule("t::a=2; t::b = 1 ;bogus;t::c=;t::d=0;=3");
            assert!(!triggered("t::a"));
            assert!(triggered("t::a"));
            assert!(triggered("t::b"));
            // Malformed/zero entries armed nothing.
            assert!(!triggered("t::c"));
            assert!(!triggered("t::d"));
            clear();
        }

        #[test]
        fn panic_if_carries_the_site_name() {
            let _g = serial();
            clear();
            arm("t::boom", 1);
            let err = std::panic::catch_unwind(|| panic_if("t::boom")).unwrap_err();
            let msg = err.downcast_ref::<String>().cloned().unwrap_or_default();
            assert!(msg.contains("t::boom"), "payload was {msg:?}");
            clear();
        }
    }
}

#[cfg(not(feature = "failpoints"))]
mod imp {
    /// No-op stub: the default build records nothing and never fires.
    #[inline(always)]
    pub fn triggered(_site: &'static str) -> bool {
        false
    }

    /// No-op stub: the default build never panics here.
    #[inline(always)]
    pub fn panic_if(_site: &'static str) {}
}

pub use imp::*;
