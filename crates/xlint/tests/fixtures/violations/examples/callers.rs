//! Calls every fixture `pub fn` seeded for the other rules, so `dead-pub`
//! fires only on the cases in `crates/plans/src/api.rs`.

fn main() {
    solve();
    chunks();
    matvec_into();
    configured_parallelism();
    accumulate();
    shard();
    tagged_and_tested();
    untagged();
    tagged_untested();
    mistagged();
    admit();
    redeem();
    site_file_twin();
    locked_work();
    audit();
    moved_guard();
    first();
    parse();
    poke();
    used_by_example();
}
