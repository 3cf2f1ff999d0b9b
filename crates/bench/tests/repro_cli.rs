//! `repro` is strict about its command line: an unknown experiment, or
//! an argument the experiment does not take, prints the usage to stderr
//! and exits 2 before any experiment runs.

use std::process::Command;
use std::time::{Duration, Instant};

const REPRO: &str = env!("CARGO_BIN_EXE_repro");

#[test]
fn unused_arguments_exit_2_before_any_experiment() {
    for args in [
        &["table1", "--ful"][..],
        &["table1", "--full", "--full"],
        &["accuracy", "40", "extra"],
        &["accuracy", "forty"],
        &["accuracy", "0"],
        &["rw-trap", "--full"],
        &["bogus"],
    ] {
        let start = Instant::now();
        let run = Command::new(REPRO).args(args).output().expect("repro runs");
        assert_eq!(run.status.code(), Some(2), "{args:?}");
        assert!(
            start.elapsed() < Duration::from_secs(2),
            "{args:?} took {:?}: it must not run an experiment",
            start.elapsed()
        );
        assert!(
            run.stdout.is_empty(),
            "{args:?} printed a report: {}",
            String::from_utf8_lossy(&run.stdout)
        );
        let stderr = String::from_utf8_lossy(&run.stderr);
        assert!(stderr.contains("USAGE"), "{args:?}: {stderr}");
    }
}

#[test]
fn known_commands_still_run() {
    let help = Command::new(REPRO)
        .arg("help")
        .output()
        .expect("repro runs");
    assert_eq!(help.status.code(), Some(0));
    assert!(String::from_utf8_lossy(&help.stdout).contains("EXPERIMENTS"));
    let check = Command::new(REPRO)
        .arg("selfcheck")
        .output()
        .expect("repro runs");
    assert_eq!(check.status.code(), Some(0));
}
