//! SIGTERM → drain flag, without a libc dependency.
//!
//! Mirrors the discipline of `disc-core`'s mmap module: the one `unsafe`
//! surface is a module-scoped allow around a direct `extern "C"`
//! declaration of the libc symbol the platform already links. The handler
//! does the only async-signal-safe thing there is to do — store to an
//! atomic: it cancels the process-wide [`termination_token`]. Scheduler
//! slices run under children of that token, so they stop at their next
//! checkpoint. The scheduler loop reads the token each time it wakes (at
//! least every 200 ms, and after every round of slices) and turns it into
//! a drain, whose loopback connection wakes the accept loop. The accept
//! loop does not rely on `EINTR`: `signal(2)` installs with `SA_RESTART`,
//! so a blocked `accept()` simply resumes after the handler returns.
//!
//! On non-Unix platforms installation is a no-op; the in-process drain
//! endpoint (`POST /admin/drain`) covers graceful shutdown everywhere.

use disc_core::CancelToken;
use std::sync::OnceLock;

static TERM: OnceLock<CancelToken> = OnceLock::new();

/// The process-wide token a SIGTERM (or SIGINT) cancels once
/// [`install_termination_flag`] has run.
pub fn termination_token() -> &'static CancelToken {
    TERM.get_or_init(CancelToken::new)
}

/// Whether a SIGTERM (or SIGINT) has arrived since
/// [`install_termination_flag`].
pub fn termination_requested() -> bool {
    termination_token().is_cancelled()
}

/// Sets the flag by hand — what tests use; also the non-Unix "handler".
pub fn request_termination() {
    termination_token().cancel();
}

#[cfg(unix)]
#[allow(unsafe_code)]
mod sys {
    use super::TERM;

    const SIGINT: i32 = 2;
    const SIGTERM: i32 = 15;

    extern "C" {
        /// POSIX `signal(2)`. The return value (previous handler) is
        /// ignored — the server installs once at startup and never
        /// restores.
        fn signal(signum: i32, handler: extern "C" fn(i32)) -> usize;
    }

    extern "C" fn on_terminate(_sig: i32) {
        // Only async-signal-safe operations here: an atomic load (the token
        // exists, `install` created it first) and the token's atomic store.
        if let Some(token) = TERM.get() {
            token.cancel();
        }
    }

    pub fn install() {
        super::termination_token();
        unsafe {
            signal(SIGTERM, on_terminate);
            signal(SIGINT, on_terminate);
        }
    }
}

/// Installs the SIGTERM/SIGINT handler that flips the drain flag. Safe to
/// call more than once.
pub fn install_termination_flag() {
    #[cfg(unix)]
    sys::install();
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn manual_request_flips_the_flag() {
        // Note: process-global — fine because nothing in this crate's test
        // suite asserts the flag stays false after this test runs.
        install_termination_flag();
        request_termination();
        assert!(termination_requested());
    }
}
