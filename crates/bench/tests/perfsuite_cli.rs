//! `perfsuite` is strict about its command line: it answers `--help` and
//! rejects an unknown argument or a missing `--out` before any section
//! runs or any file is written.

use std::process::Command;
use std::time::{Duration, Instant};

const PERFSUITE: &str = env!("CARGO_BIN_EXE_perfsuite");

#[test]
fn unknown_argument_exits_2_and_writes_nothing() {
    let out = std::env::temp_dir().join(format!("perfsuite-cli-{}.json", std::process::id()));
    let _ = std::fs::remove_file(&out);
    let run = Command::new(PERFSUITE)
        .arg("--bogus")
        .arg("--out")
        .arg(&out)
        .output()
        .expect("perfsuite runs");
    assert_eq!(run.status.code(), Some(2));
    assert!(
        !out.exists(),
        "a rejected command line must not write {out:?}"
    );
    let stderr = String::from_utf8_lossy(&run.stderr);
    assert!(
        stderr.contains("--bogus") && stderr.contains("usage"),
        "{stderr}"
    );
}

#[test]
fn help_prints_usage_and_exits_0_at_once() {
    let start = Instant::now();
    let run = Command::new(PERFSUITE)
        .arg("--help")
        .output()
        .expect("perfsuite runs");
    assert_eq!(run.status.code(), Some(0));
    assert!(
        start.elapsed() < Duration::from_secs(1),
        "--help took {:?}: it must not run the suite",
        start.elapsed()
    );
    assert!(String::from_utf8_lossy(&run.stdout).contains("--out PATH"));
}

#[test]
fn missing_out_exits_2_before_any_section() {
    let start = Instant::now();
    let run = Command::new(PERFSUITE)
        .arg("--quick")
        .output()
        .expect("perfsuite runs");
    assert_eq!(run.status.code(), Some(2));
    assert!(
        start.elapsed() < Duration::from_secs(2),
        "a missing --out took {:?}: it must not run the suite",
        start.elapsed()
    );
    let stderr = String::from_utf8_lossy(&run.stderr);
    assert!(
        stderr.contains("--out") && stderr.contains("usage"),
        "{stderr}"
    );
}
