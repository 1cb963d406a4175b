//! Cooperative run-wide cancellation.
//!
//! The paper's pipeline assumes every partition flows cleanly from input
//! to output; a production run cannot. [`CancelToken`] is the one-way
//! "abandon ship" switch the fail-fast layer threads through
//! [`run_pipeline`](crate::run_pipeline): the first fatal error (or a
//! stage panic, via the scheduler's drop guard) flips it, every stage
//! observes it at its next loop boundary, and the feed and every internal
//! queue are closed so blocked workers drain promptly instead of grinding
//! through the remaining partitions.

use std::sync::atomic::{AtomicBool, Ordering};

/// A one-way, thread-safe cancellation flag.
///
/// Cheap to poll (one `Acquire` load) and impossible to un-cancel:
/// once any worker has observed the token set, the run's outcome is
/// already decided, so resetting it could only mask a failure.
///
/// # Examples
///
/// ```
/// use pipeline::CancelToken;
///
/// let token = CancelToken::new();
/// assert!(!token.is_cancelled());
/// token.cancel();
/// assert!(token.is_cancelled());
/// token.cancel(); // idempotent
/// assert!(token.is_cancelled());
/// ```
#[derive(Debug, Default)]
pub struct CancelToken {
    cancelled: AtomicBool,
}

impl CancelToken {
    /// A fresh, un-cancelled token.
    pub fn new() -> CancelToken {
        CancelToken { cancelled: AtomicBool::new(false) }
    }

    /// Flips the token. Idempotent; never blocks.
    pub fn cancel(&self) {
        self.cancelled.store(true, Ordering::Release);
    }

    /// Whether [`cancel`](CancelToken::cancel) has been called. Suitable
    /// as a per-iteration early-exit check in worker loops.
    pub fn is_cancelled(&self) -> bool {
        self.cancelled.load(Ordering::Acquire)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::Arc;

    #[test]
    fn starts_clear_and_latches() {
        let t = CancelToken::new();
        assert!(!t.is_cancelled());
        t.cancel();
        assert!(t.is_cancelled());
        t.cancel();
        assert!(t.is_cancelled());
    }

    #[test]
    fn default_is_clear() {
        assert!(!CancelToken::default().is_cancelled());
    }

    #[test]
    fn visible_across_threads() {
        let t = Arc::new(CancelToken::new());
        let t2 = Arc::clone(&t);
        std::thread::spawn(move || t2.cancel()).join().unwrap();
        assert!(t.is_cancelled());
    }
}
