//! The root tests are callers, inside `proptest!` blocks too.

proptest! {
    #[test]
    fn calls_it(x in 0..4u32) {
        used_by_root_test();
    }
}
