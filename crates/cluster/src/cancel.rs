//! Cooperative cancellation with an optional deadline.
//!
//! A [`CancelToken`] is threaded from `QueryEngine::execute` down through
//! BDS reads, both join runtimes and recovery backoff waits. Cancellation is *cooperative*: nothing is killed, every loop and
//! every sleep checks the token, so a cancelled or over-deadline query
//! unwinds promptly (bounded by one [`SLEEP_SLICE`]) through the normal
//! error path — scratch RAII guards drop, worker threads are joined, and
//! the caller sees a typed [`Error::Cancelled`] / [`Error::DeadlineExceeded`].

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
}

/// A cancellation flag plus optional deadline, shared by every worker of
/// one query.
///
/// The default token ([`CancelToken::none`]) can never fire and costs one
/// branch per check, so fault-free paths stay hot. Clones share state:
/// cancelling any clone cancels them all.
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
        CancelToken {
            inner: Some(Arc::new(Inner {
                cancelled: AtomicBool::new(false),
                deadline: None,
            })),
        }
    }

    /// A cancellable token that also fires once `timeout` has elapsed.
    pub fn with_deadline(timeout: Duration) -> Self {
        Self::with_deadline_at(Instant::now() + timeout)
    }

    /// A cancellable token that fires at an absolute instant — the hook
    /// [`DeadlineBudget`] uses to mint hop tokens that all point at the
    /// *same* root deadline instead of restarting the countdown per hop.
    pub fn with_deadline_at(until: Instant) -> Self {
        CancelToken {
            inner: Some(Arc::new(Inner {
                cancelled: AtomicBool::new(false),
                deadline: Some(until),
            })),
        }
    }

    /// Cancel the query; every clone observes it at its next check.
    /// Cancelling a [`CancelToken::none`] token is a no-op.
    pub fn cancel(&self) {
        if let Some(inner) = &self.inner {
            inner.cancelled.store(true, Ordering::Release);
        }
    }

    /// Whether [`CancelToken::cancel`] has been called (deadline aside).
    pub fn is_cancelled(&self) -> bool {
        self.inner
            .as_ref()
            .is_some_and(|i| i.cancelled.load(Ordering::Acquire))
    }

    /// The instant after which [`check`](Self::check) fails, if any.
    pub fn deadline(&self) -> Option<Instant> {
        self.inner.as_ref().and_then(|i| i.deadline)
    }

    /// Fail fast if the query was cancelled or ran past its deadline.
    ///
    /// This is the single cancellation propagation point: sprinkle it at
    /// the top of every per-chunk / per-batch / per-bucket loop body.
    pub fn check(&self) -> Result<()> {
        let Some(inner) = &self.inner else {
            return Ok(());
        };
        if inner.cancelled.load(Ordering::Acquire) {
            return Err(Error::Cancelled);
        }
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
            if let Some(deadline) = self.deadline() {
                slice = slice.min(deadline.saturating_duration_since(now));
            }
            std::thread::sleep(slice.max(Duration::from_millis(1)));
        }
    }
}

/// A monotone-shrinking deadline budget, threaded submit → queue →
/// engine → every federated sub-query.
///
/// The root deadline is fixed once at submit; each fan-out hop derives a
/// *smaller* budget by subtracting a hop margin ([`shrink`]), leaving the
/// parent time to collect, merge and degrade after the child gives up.
/// Budgets only ever shrink — [`shrink`] can never move the deadline
/// later, and [`remaining`] saturates at zero — so a chain of hops is
/// monotone non-increasing and never negative no matter how margins are
/// chosen. A root budget also bounds a caller's wait (a ticket's
/// `wait_timeout`, the router's hedge timer). Lives here because this
/// module is the runtime's one sanctioned wall-clock site (lint rule L006).
///
/// [`shrink`]: DeadlineBudget::shrink
/// [`remaining`]: DeadlineBudget::remaining
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct DeadlineBudget {
    until: Instant,
}

impl DeadlineBudget {
    /// A root budget of `total` starting now.
    pub fn root(total: Duration) -> Self {
        DeadlineBudget {
            until: Instant::now() + total,
        }
    }

    /// The budget a deadline-bearing token implies, if it has one.
    pub fn from_token(token: &CancelToken) -> Option<Self> {
        token.deadline().map(|until| DeadlineBudget { until })
    }

    /// Derive the child budget for one fan-out hop: the deadline moves
    /// *earlier* by `hop_margin` (saturating — it never moves later, and
    /// an oversized margin simply yields an already-expired budget).
    pub fn shrink(&self, hop_margin: Duration) -> Self {
        DeadlineBudget {
            until: self.until.checked_sub(hop_margin).unwrap_or(self.until),
        }
    }

    /// The absolute instant this budget expires. Exposed so budget
    /// chains can be compared without racing the clock.
    pub fn hard_deadline(&self) -> Instant {
        self.until
    }

    /// Time left before expiry (zero once expired — never negative).
    pub fn remaining(&self) -> Duration {
        self.until.saturating_duration_since(Instant::now())
    }

    /// Whether the budget has fully expired.
    pub fn expired(&self) -> bool {
        self.remaining().is_zero()
    }

    /// Mint a cancellable token that fires at this budget's deadline —
    /// the token handed to the next hop.
    pub fn token(&self) -> CancelToken {
        CancelToken::with_deadline_at(self.until)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn none_token_never_fires() {
        let t = CancelToken::none();
        t.cancel();
        assert!(!t.is_cancelled());
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
        assert!(t.is_cancelled());
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
        let b = DeadlineBudget::root(Duration::from_millis(40));
        assert!(!b.expired());
        assert!(b.remaining() <= Duration::from_millis(40));
        std::thread::sleep(Duration::from_millis(50));
        assert!(b.expired());
        assert_eq!(b.remaining(), Duration::ZERO);
    }

    #[test]
    fn deadline_budget_shrinks_monotonically() {
        let root = DeadlineBudget::root(Duration::from_secs(10));
        let hop1 = root.shrink(Duration::from_millis(250));
        let hop2 = hop1.shrink(Duration::from_millis(250));
        assert!(hop1.hard_deadline() < root.hard_deadline());
        assert!(hop2.hard_deadline() < hop1.hard_deadline());
        assert!(hop2.remaining() <= hop1.remaining());
        assert!(!root.expired());
        // A zero margin is a fixed point, never a later deadline.
        assert_eq!(
            hop2.shrink(Duration::ZERO).hard_deadline(),
            hop2.hard_deadline()
        );
    }

    #[test]
    fn deadline_budget_saturates_instead_of_going_negative() {
        let root = DeadlineBudget::root(Duration::from_millis(5));
        let spent = root.shrink(Duration::from_secs(3600));
        assert!(spent.expired());
        assert_eq!(spent.remaining(), Duration::ZERO);
        // Expired budgets mint tokens that fail check() immediately.
        assert!(matches!(
            spent.token().check(),
            Err(Error::DeadlineExceeded)
        ));
    }

    #[test]
    fn deadline_budget_round_trips_through_tokens() {
        let root = DeadlineBudget::root(Duration::from_secs(5));
        let token = root.token();
        let back = DeadlineBudget::from_token(&token).unwrap();
        assert_eq!(back.hard_deadline(), root.hard_deadline());
        assert!(DeadlineBudget::from_token(&CancelToken::new()).is_none());
        assert!(DeadlineBudget::from_token(&CancelToken::none()).is_none());
    }
}
