//! dead-pub: deliberate API is kept with a reasoned allow.

/// Documented entry point with no caller yet.
// xlint: allow(dead-pub, reason = "fixture: deliberate public API")
pub fn kept() {}

pub fn kept_trailing() {} // xlint: allow(dead-pub, reason = "fixture: deliberate public API")
