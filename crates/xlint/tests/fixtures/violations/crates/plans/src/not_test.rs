//! `cfg(not(test))` code is library code: both rules see it.

#[cfg(not(test))]
mod real {
    pub fn parse_count(s: &str) -> u32 {
        s.parse().unwrap()
    }
}
