//! Calls every fixture `pub fn`, so only the malformed directives report.

fn main() {
    accumulate();
    f();
    g();
}
