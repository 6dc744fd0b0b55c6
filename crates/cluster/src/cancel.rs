//! Cooperative cancellation with an optional deadline.
//!
//! A [`CancelToken`] is threaded from `QueryEngine::run` down through
//! BDS reads, both join runtimes and recovery backoff waits, and a
//! federated query hands each shard hop a [`CancelToken::child`] of its
//! own. It is the one place a query's deadline lives. Cancellation is
//! *cooperative*: nothing is killed, every loop and every sleep checks
//! the token, so a cancelled or over-deadline query unwinds promptly
//! (bounded by one [`SLEEP_SLICE`]) through the normal error path —
//! scratch RAII guards drop, worker threads are joined, and the caller
//! sees a typed [`Error::Cancelled`] / [`Error::DeadlineExceeded`].

#![allow(
    clippy::disallowed_methods,
    reason = "the cancellable slice primitive: it owns the deadline clock and the one raw sleep"
)]

use orv_types::{Error, Result};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

/// Longest uninterruptible sleep anywhere in the runtime. Every recovery
/// backoff and injected delay sleeps in slices of at most this, checking
/// the token between slices.
pub const SLEEP_SLICE: Duration = Duration::from_millis(250);

#[derive(Debug)]
struct Inner {
    cancelled: AtomicBool,
    deadline: Option<Instant>,
    /// The token this one was minted from by [`CancelToken::child`]:
    /// cancelling it fires this one too.
    parent: Option<Arc<Inner>>,
}

impl Inner {
    fn cancelled(&self) -> bool {
        self.cancelled.load(Ordering::Acquire)
            || self.parent.as_ref().is_some_and(|p| p.cancelled())
    }
}

/// A cancellation flag plus optional deadline, shared by every worker of
/// one query — the one place a query's time limit lives.
///
/// The default token ([`CancelToken::none`]) can never fire and costs one
/// branch per check, so fault-free paths stay hot. Clones share state:
/// cancelling any clone cancels them all. A [`child`](Self::child) is
/// minted per fan-out hop: it fires whenever its parent does, and its
/// deadline sits a margin before the parent's.
#[derive(Clone, Debug, Default)]
pub struct CancelToken {
    inner: Option<Arc<Inner>>,
}

impl CancelToken {
    /// A token that never cancels (the default for standalone runs).
    pub fn none() -> Self {
        CancelToken { inner: None }
    }

    /// A cancellable token with no deadline.
    pub fn new() -> Self {
        Self::minted(None, None)
    }

    /// A cancellable token that also fires once `timeout` has elapsed.
    pub fn with_deadline(timeout: Duration) -> Self {
        Self::minted(Some(Instant::now() + timeout), None)
    }

    fn minted(deadline: Option<Instant>, parent: Option<Arc<Inner>>) -> Self {
        CancelToken {
            inner: Some(Arc::new(Inner {
                cancelled: AtomicBool::new(false),
                deadline,
                parent,
            })),
        }
    }

    /// The token for one fan-out hop: it fires whenever this one does,
    /// and its deadline is this one's moved `margin` earlier (none if this
    /// one has none), so the parent keeps time to collect, merge and
    /// degrade after the child gives up. Deadlines only shrink down a
    /// chain; an oversized margin gives an already-expired child.
    /// Cancelling the child leaves its parent alone.
    pub fn child(&self, margin: Duration) -> Self {
        let deadline = self
            .deadline()
            .map(|d| d.checked_sub(margin).unwrap_or_else(Instant::now));
        Self::minted(deadline, self.inner.clone())
    }

    /// Cancel the query; every clone and every child observes it at its
    /// next check. Cancelling a [`CancelToken::none`] token is a no-op.
    pub fn cancel(&self) {
        if let Some(inner) = &self.inner {
            inner.cancelled.store(true, Ordering::Release);
        }
    }

    /// The instant after which [`check`](Self::check) fails, if any.
    pub fn deadline(&self) -> Option<Instant> {
        self.inner.as_ref().and_then(|i| i.deadline)
    }

    /// Time left before the deadline: `None` without one, zero once it
    /// has passed — never negative. What a bounded wait waits at most.
    pub fn remaining(&self) -> Option<Duration> {
        self.deadline()
            .map(|d| d.saturating_duration_since(Instant::now()))
    }

    /// Fail fast if the query was cancelled or ran past its deadline.
    ///
    /// This is the single cancellation propagation point: sprinkle it at
    /// the top of every per-chunk / per-batch / per-bucket loop body. It
    /// takes no lock; a child pays one more atomic load per generation.
    pub fn check(&self) -> Result<()> {
        let Some(inner) = &self.inner else {
            return Ok(());
        };
        if inner.cancelled() {
            return Err(Error::Cancelled);
        }
        // A child's deadline is never later than its parent's, so its
        // own is the one to test.
        if inner.deadline.is_some_and(|d| Instant::now() >= d) {
            return Err(Error::DeadlineExceeded);
        }
        Ok(())
    }

    /// Sleep for `duration`, waking early (with the cancellation error)
    /// if the token fires. Sleeps in [`SLEEP_SLICE`] chunks so the wait
    /// never outlives a cancellation by more than one slice; a deadline
    /// inside the requested window shortens the final slice to hit it.
    pub fn sleep(&self, duration: Duration) -> Result<()> {
        let until = Instant::now() + duration;
        loop {
            self.check()?;
            let now = Instant::now();
            if now >= until {
                return Ok(());
            }
            let mut slice = (until - now).min(SLEEP_SLICE);
            if let Some(left) = self.remaining() {
                slice = slice.min(left);
            }
            std::thread::sleep(slice.max(Duration::from_millis(1)));
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn none_token_never_fires() {
        let t = CancelToken::none();
        t.cancel();
        assert!(t.check().is_ok());
        assert!(t.deadline().is_none());
        t.sleep(Duration::from_millis(1)).unwrap();
    }

    #[test]
    fn cancel_is_shared_across_clones() {
        let t = CancelToken::new();
        let c = t.clone();
        assert!(t.check().is_ok());
        c.cancel();
        assert!(matches!(t.check(), Err(Error::Cancelled)));
    }

    #[test]
    fn deadline_fires_as_deadline_exceeded() {
        let t = CancelToken::with_deadline(Duration::from_millis(10));
        assert!(t.check().is_ok());
        std::thread::sleep(Duration::from_millis(20));
        assert!(matches!(t.check(), Err(Error::DeadlineExceeded)));
        // An explicit cancel takes precedence in the report.
        t.cancel();
        assert!(matches!(t.check(), Err(Error::Cancelled)));
    }

    #[test]
    fn sleep_wakes_within_one_slice_of_cancel() {
        let t = CancelToken::new();
        let c = t.clone();
        let h = std::thread::spawn(move || {
            std::thread::sleep(Duration::from_millis(30));
            c.cancel();
        });
        let start = Instant::now();
        let err = t.sleep(Duration::from_secs(60)).unwrap_err();
        h.join().unwrap();
        assert!(matches!(err, Error::Cancelled));
        assert!(
            start.elapsed() < SLEEP_SLICE + Duration::from_millis(100),
            "woke after {:?}",
            start.elapsed()
        );
    }

    #[test]
    fn sleep_completes_when_not_cancelled() {
        let t = CancelToken::new();
        let start = Instant::now();
        t.sleep(Duration::from_millis(20)).unwrap();
        assert!(start.elapsed() >= Duration::from_millis(19));
    }

    #[test]
    fn deadline_budget_counts_down_and_expires() {
        let t = CancelToken::with_deadline(Duration::from_millis(40));
        let left = t.remaining().unwrap();
        assert!(!left.is_zero() && left <= Duration::from_millis(40));
        std::thread::sleep(Duration::from_millis(50));
        assert_eq!(t.remaining(), Some(Duration::ZERO));
        assert!(matches!(t.check(), Err(Error::DeadlineExceeded)));
        assert_eq!(CancelToken::new().remaining(), None);
        assert_eq!(CancelToken::none().remaining(), None);
    }

    #[test]
    fn deadline_budget_shrinks_monotonically() {
        let root = CancelToken::with_deadline(Duration::from_secs(10));
        let hop1 = root.child(Duration::from_millis(250));
        let hop2 = hop1.child(Duration::from_millis(250));
        assert!(hop1.deadline() < root.deadline());
        assert!(hop2.deadline() < hop1.deadline());
        assert!(hop2.remaining() <= hop1.remaining());
        assert!(root.check().is_ok() && hop2.check().is_ok());
        // A zero margin is a fixed point, never a later deadline.
        assert_eq!(hop2.child(Duration::ZERO).deadline(), hop2.deadline());
    }

    #[test]
    fn deadline_budget_saturates_instead_of_going_negative() {
        let root = CancelToken::with_deadline(Duration::from_millis(5));
        for margin in [Duration::from_secs(3600), Duration::MAX] {
            let spent = root.child(margin);
            assert_eq!(spent.remaining(), Some(Duration::ZERO));
            // An oversized margin mints an already-expired child.
            assert!(matches!(spent.check(), Err(Error::DeadlineExceeded)));
        }
        assert!(root.check().is_ok());
    }

    #[test]
    fn child_of_a_deadline_free_parent_has_no_deadline() {
        for parent in [CancelToken::new(), CancelToken::none()] {
            let child = parent.child(Duration::from_secs(1));
            assert_eq!(child.deadline(), None);
            assert_eq!(child.remaining(), None);
            assert!(child.check().is_ok());
        }
        // A child of an inert parent is still cancellable itself.
        let child = CancelToken::none().child(Duration::ZERO);
        child.cancel();
        assert!(matches!(child.check(), Err(Error::Cancelled)));
    }

    #[test]
    fn a_cancelled_parent_fires_every_descendant() {
        let root = CancelToken::new();
        let child = root.child(Duration::ZERO);
        let grandchild = child.child(Duration::ZERO);
        let sibling = root.child(Duration::ZERO);
        root.cancel();
        for t in [&root, &child, &grandchild, &sibling] {
            assert!(matches!(t.check(), Err(Error::Cancelled)));
        }
        // A deadline-bearing child reports the cancel, not the deadline.
        let root = CancelToken::with_deadline(Duration::from_secs(60));
        let child = root.child(Duration::from_secs(120));
        root.cancel();
        assert!(matches!(child.check(), Err(Error::Cancelled)));
    }

    #[test]
    fn cancelling_a_child_leaves_its_parent_alone() {
        let root = CancelToken::new();
        let child = root.child(Duration::ZERO);
        let grandchild = child.child(Duration::ZERO);
        let sibling = root.child(Duration::ZERO);
        child.cancel();
        assert!(matches!(grandchild.check(), Err(Error::Cancelled)));
        assert!(root.check().is_ok());
        assert!(sibling.check().is_ok());
    }
}
