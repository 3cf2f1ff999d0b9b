//! `voltprop-serve` is strict about its command line: it answers
//! `--help` and rejects an unknown flag, a missing or invalid value, or
//! two modes at once with exit code 2 and the usage, before it binds a
//! port or starts a harness.

use std::process::{Command, Output, Stdio};
use std::time::{Duration, Instant};

const SERVE: &str = env!("CARGO_BIN_EXE_voltprop-serve");

/// Runs the daemon with `args` and waits at most 5 s for it to exit,
/// killing it on timeout, so a command line that starts the daemon fails
/// the test instead of hanging it and leaves no process behind. Returns
/// the output and how long the run took.
fn run(args: &[&str]) -> (Output, Duration) {
    let start = Instant::now();
    let mut child = Command::new(SERVE)
        .args(args)
        .stdin(Stdio::null())
        .stdout(Stdio::piped())
        .stderr(Stdio::piped())
        .spawn()
        .expect("voltprop-serve starts");
    while child.try_wait().expect("child status").is_none() {
        if start.elapsed() > Duration::from_secs(5) {
            let _ = child.kill();
            let _ = child.wait();
            panic!("voltprop-serve {args:?} still ran after 5 s");
        }
        std::thread::sleep(Duration::from_millis(10));
    }
    let out = child.wait_with_output().expect("child output");
    (out, start.elapsed())
}

#[test]
fn help_prints_usage_and_exits_0_at_once() {
    let (out, took) = run(&["--help"]);
    assert_eq!(out.status.code(), Some(0));
    assert!(
        took < Duration::from_secs(1),
        "--help took {took:?}: it must not start the daemon"
    );
    assert!(String::from_utf8_lossy(&out.stdout).contains("usage: voltprop-serve"));
}

#[test]
fn unknown_flag_exits_2_with_the_usage() {
    let (out, _) = run(&["--bogus"]);
    assert_eq!(out.status.code(), Some(2));
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(
        stderr.contains("--bogus") && stderr.contains("usage: voltprop-serve"),
        "{stderr}"
    );
}

#[test]
fn bad_values_and_conflicting_modes_exit_2() {
    for args in [
        &["--parallelism", "0"][..],
        &["--port", "70000"],
        &["--port"],
        &["--smoke", "--soak"],
    ] {
        let (out, _) = run(args);
        assert_eq!(out.status.code(), Some(2), "{args:?}");
        let stderr = String::from_utf8_lossy(&out.stderr);
        assert!(
            stderr.contains("usage: voltprop-serve"),
            "{args:?}: {stderr}"
        );
    }
}
