pub struct St {
    pub reserved: f64,
}

pub fn admit(st: &mut St, eps: f64) -> bool {
    // xlint: allow(budget-chokepoint, reason = "fixture: pre-chokepoint fast path, re-validated by state.rs")
    if eps <= 0.0 {
        return false;
    }
    // xlint: allow(budget-chokepoint, reason = "fixture: mutation mirrored from the chokepoint for a test double")
    st.reserved += eps;
    true
}

pub fn locked_work(&self) {
    let st = self.state.lock();
    // xlint: allow(lock-discipline, reason = "fixture: bounded one-shot allocation while holding the ledger")
    let scratch = vec![0.0; 4];
    // xlint: allow(lock-discipline, reason = "fixture: the dispatch is a no-op double in this tree")
    pool::scope(|s| s.run(&scratch));
    drop(st);
}

pub fn closure_under_lock(&self, f: impl FnOnce(&St) -> f64) -> f64 {
    let st = self.state.lock();
    // xlint: allow(lock-discipline, reason = "fixture: the closure is a vetted constant-time read")
    let r = f(&st);
    drop(st);
    r
}
