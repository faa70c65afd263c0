//! SIGTERM/SIGINT handling without any C dependency: a process-global
//! flag flipped by an async-signal-safe handler, polled by the daemon
//! main loop. This is the crate's only unsafe code — the two
//! `libc::signal` registrations — and it is confined to this module.

use std::sync::atomic::{AtomicBool, Ordering};

static TERMINATED: AtomicBool = AtomicBool::new(false);

/// Whether SIGTERM/SIGINT has been delivered since [`install`].
pub fn terminated() -> bool {
    TERMINATED.load(Ordering::SeqCst)
}

#[allow(unsafe_code)]
mod ffi {
    use super::{Ordering, TERMINATED};

    // An atomic store is async-signal-safe; nothing else happens in
    // handler context.
    extern "C" fn on_signal(_signum: i32) {
        TERMINATED.store(true, Ordering::SeqCst);
    }

    extern "C" {
        // POSIX signal(2). The return value (the previous handler) is
        // pointer-sized on every supported target; it is ignored.
        fn signal(signum: i32, handler: extern "C" fn(i32)) -> isize;
    }

    /// Register the handler for SIGTERM (15) and SIGINT (2).
    pub fn install() {
        unsafe {
            signal(15, on_signal);
            signal(2, on_signal);
        }
    }
}

/// Install the SIGTERM/SIGINT handler (idempotent).
pub fn install() {
    ffi::install();
}
