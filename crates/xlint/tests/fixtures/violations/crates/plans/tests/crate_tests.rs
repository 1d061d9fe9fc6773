//! A crate's own integration tests are no caller.

#[test]
fn calls_it() {
    crate_test_only();
}
