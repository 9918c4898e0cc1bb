//! A watchdog for tests that can hang: a test that touches a socket, a
//! heal, a retry loop or a kill holds a [`deadline`] guard, and if it is
//! still running when the deadline passes, the watchdog prints the test's
//! name and aborts the whole test process. `cargo test` has no timeout of
//! its own, and a hung suite must fail, not wedge.
//!
//! Included by path (`#[path = ".../support/deadline.rs"] mod deadline;`)
//! into every test target that needs it, so there is one implementation.

use std::io::Write;
use std::sync::mpsc::{self, RecvTimeoutError};
use std::time::Duration;

/// Disarms the watchdog when dropped — at the test's end, passing or
/// panicking.
#[must_use = "the watchdog is disarmed as soon as the guard is dropped"]
pub struct Deadline {
    _disarm: mpsc::Sender<()>,
}

/// Arms a watchdog for the calling test: if the returned guard is still
/// alive `secs` seconds from now, the process aborts with the test's name.
pub fn deadline(secs: u64) -> Deadline {
    let test = std::thread::current()
        .name()
        .unwrap_or("<unnamed test>")
        .to_owned();
    let (disarm, armed) = mpsc::channel::<()>();
    std::thread::spawn(move || {
        if let Err(RecvTimeoutError::Timeout) = armed.recv_timeout(Duration::from_secs(secs)) {
            // Straight to the stream: the harness's output capture would
            // hold an `eprintln!` back, and the abort discards it.
            let msg = format!("test {test} outlived its {secs} s deadline; aborting\n");
            let _ = std::io::stderr().write_all(msg.as_bytes());
            std::process::abort();
        }
    });
    Deadline { _disarm: disarm }
}
