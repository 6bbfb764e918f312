//! Request deadlines — a monotonic time budget threaded from the HTTP
//! layer through scatter-gather and the why-not modules.
//!
//! A [`Deadline`] is a wall-line in monotonic time ([`std::time::Instant`]),
//! not a duration: it is fixed once at the edge (from the request's
//! budget) and every layer below compares against the same instant, so
//! time spent queueing counts against the same budget as time spent
//! searching.
//!
//! Convention: APIs take `Option<Deadline>` where `None` means "run to
//! completion" — every pre-existing call path passes `None` and is
//! bit-for-bit unchanged. Paths that honour a deadline report
//! *completeness* alongside their result, so a partial answer is always
//! explicitly flagged and never enters an exactness-critical cache.

use std::time::{Duration, Instant};

/// A fixed point in monotonic time after which a request should stop
/// doing new work and return what it has.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct Deadline {
    at: Instant,
}

impl Deadline {
    /// The deadline `budget` from now.
    pub fn after(budget: Duration) -> Self {
        Deadline {
            at: Instant::now() + budget,
        }
    }

    /// A deadline at an explicit instant.
    pub fn at(at: Instant) -> Self {
        Deadline { at }
    }

    /// A deadline that has already passed (for tests and shed paths).
    pub fn already_expired() -> Self {
        Deadline { at: Instant::now() }
    }

    /// True once the budget is spent.
    #[inline]
    pub fn expired(&self) -> bool {
        Instant::now() >= self.at
    }

    /// Budget left, zero once expired.
    pub fn remaining(&self) -> Duration {
        self.at.saturating_duration_since(Instant::now())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn after_expires_once_the_budget_passes() {
        let d = Deadline::after(Duration::from_millis(20));
        assert!(!d.expired());
        assert!(d.remaining() > Duration::ZERO);
        std::thread::sleep(Duration::from_millis(25));
        assert!(d.expired());
        assert_eq!(d.remaining(), Duration::ZERO);
    }

    #[test]
    fn already_expired_is_expired() {
        let d = Deadline::already_expired();
        assert!(d.expired());
    }

    #[test]
    fn at_pins_an_instant() {
        let now = Instant::now();
        let d = Deadline::at(now + Duration::from_secs(60));
        assert!(!d.expired());
        assert!(d.remaining() <= Duration::from_secs(60));
    }
}
