//! Library callers: a direct call, a qualified call that resolves to one
//! impl type, and a call through an alias the index cannot resolve.

fn route() {
    api::used_by_library();
    Other::shared_name();
    ThingAlias::aliased();
}

#[cfg(test)]
mod tests {
    fn test_code_is_no_caller() {
        crate_test_only();
    }
}
