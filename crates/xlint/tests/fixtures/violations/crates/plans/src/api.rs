//! dead-pub: which callers keep a public function alive.

pub fn no_caller() {}

pub fn own_file_only() {}

fn private_helper() {
    own_file_only();
}

pub fn crate_test_only() {}

pub fn unit_test_only() {}

pub fn used_by_library() {}

pub fn used_by_example() {}

pub fn used_by_root_test() {}

pub fn used_as_value() {}

pub(crate) fn crate_visible() {}

pub struct Thing;

impl Thing {
    pub fn shared_name(&self) {}

    pub fn aliased() {}
}

pub struct Other;

impl Other {
    pub fn shared_name() {}
}

#[cfg(test)]
mod tests {
    #[test]
    fn calls_from_unit_tests_do_not_count() {
        super::unit_test_only();
    }
}
