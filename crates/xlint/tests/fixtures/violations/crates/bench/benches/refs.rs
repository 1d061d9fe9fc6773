//! A function named as a value is used.

fn bench() {
    let f = [1].iter().map(api::used_as_value);
}
