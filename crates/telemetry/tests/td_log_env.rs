//! Regression test for the `TD_LOG` environment-driven init path.
//!
//! The filter is parsed inside a `std::sync::Once` closure the first
//! time `events::enabled` runs; a re-entrant `set_level` /
//! `set_target_level` call from that closure deadlocks the process
//! (recursive `Once::call_once`). The in-process tests can never see
//! this — the env var must be present before first telemetry use — so
//! this test re-executes itself as a child with `TD_LOG` set and a
//! hard deadline.

use std::process::Command;
use std::time::{Duration, Instant};

use td_telemetry::{events, Level};

const CHILD_ENV: &str = "TD_LOG_ENV_CHILD";
const CHILD_OK: &str = "TD_LOG_ENV_CHILD_OK";

#[test]
fn td_log_env_filter_initializes_without_deadlock() {
    if std::env::var(CHILD_ENV).is_ok() {
        child();
        return;
    }

    let exe = std::env::current_exe().expect("test binary path");
    let mut child = Command::new(exe)
        .args([
            "td_log_env_filter_initializes_without_deadlock",
            "--exact",
            "--nocapture",
        ])
        .env(CHILD_ENV, "1")
        .env("TD_LOG", "info,adapt=trace")
        .stdout(std::process::Stdio::piped())
        .stderr(std::process::Stdio::piped())
        .spawn()
        .expect("spawn child test process");

    // Generous deadline: the child does one enabled() check and exits.
    // A deadlocked Once never returns, so poll rather than wait.
    let deadline = Instant::now() + Duration::from_secs(60);
    let status = loop {
        match child.try_wait().expect("poll child") {
            Some(status) => break status,
            None if Instant::now() >= deadline => {
                let _ = child.kill();
                let _ = child.wait();
                panic!("child with TD_LOG set hung — filter init deadlocked");
            }
            None => std::thread::sleep(Duration::from_millis(20)),
        }
    };
    let out = child.wait_with_output().expect("collect child output");
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert!(
        status.success(),
        "child with TD_LOG set failed:\n{stdout}\n{}",
        String::from_utf8_lossy(&out.stderr)
    );
    assert!(
        stdout.contains(CHILD_OK),
        "child exited cleanly but never ran the TD_LOG assertions:\n{stdout}"
    );
}

/// Runs in the child process, with `TD_LOG=info,adapt=trace` in the
/// environment since before any telemetry call. The first `enabled()`
/// triggers the env-driven init, which must apply both parts of the
/// spec.
fn child() {
    assert!(events::enabled(Level::Info, "anything"));
    assert!(events::enabled(Level::Trace, "adapt"));
    assert!(!events::enabled(Level::Trace, "anything"));
    println!("{CHILD_OK}");
}
