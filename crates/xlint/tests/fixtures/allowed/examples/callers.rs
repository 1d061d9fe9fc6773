//! Calls every fixture `pub fn` seeded for the other rules, so `dead-pub`
//! sees only the allowed cases in `crates/plans/src/api.rs`.

fn main() {
    chunks();
    matvec_into();
    accumulate();
    shard();
    tagged_and_tested();
    admit();
    locked_work();
    first();
    parse();
    poke();
}
