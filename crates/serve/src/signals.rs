//! SIGTERM/SIGINT → graceful-shutdown flag, without a libc crate.
//!
//! The workspace builds against vendored stubs only, so the usual
//! `signal-hook`/`ctrlc` route is out. POSIX `signal(2)` is in libc,
//! which every Rust binary already links; declaring it `extern "C"`
//! is the whole dependency. The handler does the only thing an
//! async-signal-safe handler may: store to a static atomic, which the
//! daemon's run loop polls.
//!
//! On non-Unix targets installation is a no-op, keeping the daemon
//! portable; `POST /shutdown` stops it there as everywhere.

use std::sync::atomic::{AtomicBool, Ordering};

static TERMINATE: AtomicBool = AtomicBool::new(false);

/// Whether a termination signal has arrived.
#[must_use]
pub fn termination_requested() -> bool {
    TERMINATE.load(Ordering::SeqCst)
}

/// Installs the SIGTERM and SIGINT handlers. Safe to call repeatedly.
pub fn install_termination_handler() {
    imp::install();
}

#[cfg(unix)]
mod imp {
    use super::{Ordering, TERMINATE};

    const SIGINT: i32 = 2;
    const SIGTERM: i32 = 15;

    extern "C" fn on_signal(_signum: i32) {
        // Async-signal-safe: a single atomic store, nothing else.
        TERMINATE.store(true, Ordering::SeqCst);
    }

    // `signal(2)` from libc, which the binary links regardless. The
    // simplistic prototype (handler as a plain function pointer) is
    // exactly the POSIX signature.
    #[allow(unsafe_code)]
    extern "C" {
        fn signal(signum: i32, handler: extern "C" fn(i32)) -> usize;
    }

    #[allow(unsafe_code)]
    pub(super) fn install() {
        // SAFETY: `signal` is the POSIX libc function; `on_signal` is a
        // valid `extern "C" fn(i32)` for the lifetime of the process,
        // and its body is async-signal-safe (one atomic store).
        unsafe {
            signal(SIGTERM, on_signal);
            signal(SIGINT, on_signal);
        }
    }
}

#[cfg(not(unix))]
mod imp {
    pub(super) fn install() {}
}
