pub struct St {
    pub reserved: f64,
}

pub fn admit(st: &mut St, eps: f64) -> bool {
    if eps <= 0.0 {
        return false;
    }
    st.reserved += eps;
    true
}

pub fn redeem(e: &mut Entry, take: f64) {
    e.held -= take;
    e.charged += take;
}

pub fn site_file_twin() -> bool {
    // kernel/mod.rs is on the audited site list: a site here is legal.
    failpoints::triggered("state::charge")
}

pub fn locked_work(&self) {
    let st = self.state.lock();
    let scratch = vec![0.0; 4];
    pool::scope(|s| s.run(&scratch));
    let r = solve(&st);
    self.audit(r);
    st.entries.first().unwrap();
}

pub fn audit(&self, r: f64) {
    let st = self.state.lock();
    drop(st);
    let _ = r;
}

// The guard is assigned inside a nested block but the binding outlives
// it: the region must follow the move, so the allocation after the
// block close is still inside the critical section.
pub fn moved_guard(&self) {
    let held;
    {
        held = self.state.lock();
    }
    let tail = vec![0.0; 4];
    drop(held);
    let _ = tail;
}

// A caller-supplied closure called inside the guard fires; the workspace
// function called inside it and the closure called after the guard is
// dropped stay silent.
pub fn closure_under_lock(&self, f: impl FnOnce(&St) -> f64) -> f64 {
    let st = self.state.lock();
    let r = f(&st);
    drop(st);
    r
}

pub fn closure_after_lock(&self, f: impl FnOnce(f64) -> f64) -> f64 {
    let st = self.state.lock();
    let held = total(&st);
    drop(st);
    f(held)
}

fn total(st: &St) -> f64 {
    st.reserved
}
