//! Concurrent reservation stress: racing sessions reserve, redeem and
//! drop against one kernel, and the ledger must conserve exactly.
//!
//! The PR-4-era redemption race this guards against: with the old
//! unlock-then-charge dance, a sibling session could take an admitted
//! plan's just-unlocked budget between the unlock and the charge, making
//! the admitted plan fail with budget-exhaustion mid-run. Atomic
//! redemption makes that impossible — so these tests assert the strong
//! form: **an admitted reservation always redeems successfully**, no
//! matter what the other sessions do.
//!
//! Each session runs on its own OS thread (`std::thread::scope`), and
//! every race asserts that at least two distinct threads took part, so
//! the suite cannot silently degrade to a sequential loop.

use std::sync::Barrier;
use std::thread::ThreadId;

use ektelo_core::kernel::ProtectedKernel;
use ektelo_matrix::Matrix;

const N: usize = 16;
const EPS_TOTAL: f64 = 1.0;

fn kernel() -> ProtectedKernel {
    ProtectedKernel::init_from_vector(vec![1.0; N], EPS_TOTAL, 7)
}

/// Per-session outcome, written into a dedicated slot by each racing job.
#[derive(Clone, Copy, Default, PartialEq, Debug)]
enum Outcome {
    #[default]
    NotRun,
    Rejected,
    Redeemed,
}

/// Runs `session` once per slot, each on its own OS thread released
/// together by a barrier, and asserts that at least two distinct threads
/// ran.
fn on_threads<T: Send>(slots: &mut [T], session: impl Fn(&mut T) + Sync) {
    let mut ids: Vec<Option<ThreadId>> = vec![None; slots.len()];
    let session = &session;
    let start = &Barrier::new(slots.len());
    // xlint: allow(determinism-thread, reason = "test: the reservation ledger must conserve under sessions racing on real OS threads")
    std::thread::scope(|s| {
        for (slot, id) in slots.iter_mut().zip(ids.iter_mut()) {
            s.spawn(move || {
                *id = Some(std::thread::current().id());
                start.wait();
                session(slot);
            });
        }
    });
    let ids: Vec<ThreadId> = ids.into_iter().flatten().collect();
    assert!(
        ids.len() == slots.len() && ids.iter().any(|&id| id != ids[0]),
        "the sessions must run on at least two OS threads"
    );
}

/// Races `sessions` sessions, each reserving `eps_each` and then
/// redeeming `redeem` of it before dropping the remainder. Returns the
/// outcomes.
fn race(k: &ProtectedKernel, sessions: usize, eps_each: f64, redeem: f64) -> Vec<Outcome> {
    let m = Matrix::identity(N);
    let mut outcomes = vec![Outcome::NotRun; sessions];
    on_threads(&mut outcomes, |slot| {
        *slot = match k.reserve_budget(eps_each) {
            Err(_) => Outcome::Rejected,
            Ok(res) => {
                // The regression under test: an admitted hold
                // must be redeemable regardless of racing
                // siblings.
                res.vector_laplace(k.root(), &m, redeem)
                    .expect("admitted reservation starved of its own budget");
                assert_eq!(res.charged(), redeem);
                Outcome::Redeemed
            }
        };
    });
    outcomes
}

fn assert_conserved(k: &ProtectedKernel, expected_spent: f64) {
    assert_eq!(k.budget_reserved(), 0.0, "a hold leaked");
    assert_eq!(k.active_reservations(), 0, "a reservation slot leaked");
    let spent = k.budget_spent();
    assert!(
        (spent - expected_spent).abs() < 1e-12,
        "ledger drifted: spent {spent}, expected {expected_spent}"
    );
    // The exact remainder is still chargeable — nothing was destroyed.
    let remaining = EPS_TOTAL - spent;
    if remaining > 1e-6 {
        k.vector_laplace(k.root(), &Matrix::identity(N), remaining)
            .expect("conserved remainder must be chargeable");
    }
}

#[test]
fn undersubscribed_sessions_all_admit_and_redeem() {
    // 16 × 0.05 = 0.8 ≤ 1.0: every session fits, so every one must be
    // admitted and redeem in full.
    let k = kernel();
    let outcomes = race(&k, 16, 0.05, 0.05);
    assert!(
        outcomes.iter().all(|&o| o == Outcome::Redeemed),
        "all sessions fit the budget: {outcomes:?}"
    );
    assert_conserved(&k, 16.0 * 0.05);
}

#[test]
fn oversubscribed_sessions_admit_exactly_to_capacity() {
    // 16 × 0.2 = 3.2 > 1.0: exactly 5 sessions fit (5 × 0.2 = 1.0) in
    // *some* interleaving order, the rest are turned away typed — and
    // every admitted one redeems despite the contention.
    let k = kernel();
    let outcomes = race(&k, 16, 0.2, 0.2);
    let admitted = outcomes.iter().filter(|&&o| o == Outcome::Redeemed).count();
    let rejected = outcomes.iter().filter(|&&o| o == Outcome::Rejected).count();
    assert_eq!(admitted, 5, "capacity is 5 holds of 0.2: {outcomes:?}");
    assert_eq!(rejected, 11);
    assert_conserved(&k, 5.0 * 0.2);
}

#[test]
fn partial_redemption_with_drop_releases_exactly_the_remainder() {
    // Each admitted session redeems half its hold and drops the rest;
    // the drop must release exactly the unredeemed remainder, even while
    // siblings are mid-redemption.
    let k = kernel();
    let outcomes = race(&k, 10, 0.1, 0.05);
    assert!(
        outcomes.iter().all(|&o| o == Outcome::Redeemed),
        "10 × 0.1 = 1.0 all fit: {outcomes:?}"
    );
    assert_conserved(&k, 10.0 * 0.05);
}

#[test]
fn dropped_without_redeeming_releases_the_full_hold() {
    // Reservations that die before any charge (the plan failed early)
    // must return their entire hold.
    let k = kernel();
    on_threads(&mut [(); 8], |_| {
        let res = k.reserve_budget(0.125).expect("8 × 0.125 = 1.0 fits");
        assert_eq!(res.charged(), 0.0);
        drop(res);
    });
    assert_conserved(&k, 0.0);
}
