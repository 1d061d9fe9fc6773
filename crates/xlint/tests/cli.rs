//! The command-line contract of `--features`: a name that no workspace
//! `Cargo.toml` declares is a usage error (exit 2), so a stale leg such
//! as a deleted feature cannot lint clean by evaluating gates that no
//! build has.

use std::path::PathBuf;
use std::process::{Command, Stdio};

fn xlint(features: &str) -> Option<i32> {
    let root = PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("../..");
    Command::new(env!("CARGO_BIN_EXE_xlint"))
        .arg("--root")
        .arg(root)
        .args(["--features", features])
        .stdout(Stdio::null())
        .stderr(Stdio::null())
        .status()
        .expect("xlint binary runs")
        .code()
}

#[test]
fn undeclared_features_are_rejected() {
    assert_eq!(xlint("simd"), Some(2));
    assert_eq!(xlint("failpoints,no_such_feature"), Some(2));
}

#[test]
fn declared_feature_lints_clean() {
    assert_eq!(xlint("failpoints"), Some(0));
}
