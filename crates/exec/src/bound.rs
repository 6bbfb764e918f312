//! The lock-free cross-shard outrank count of the why-not keyword
//! adaptation.
//!
//! Shard descents counting how many objects outrank a missing object
//! publish their partial counts into a [`SharedOutrank`], and once the
//! global total already proves the candidate's penalty cannot beat the
//! best refinement found so far, every late shard aborts its count
//! mid-descent. It plugs into the core crate's rank evaluator through the
//! [`yask_core::OutrankGate`] trait. (The top-k's shared *score* bound is
//! [`yask_query::SharedBound`].)

use std::sync::atomic::{AtomicU64, Ordering};

/// The shared cross-shard outrank accumulator of one candidate × missing
/// object evaluation.
///
/// `limit` is the smallest outrank count at which the candidate's penalty
/// already meets the best complete penalty (computed by the caller from
/// the penalty context; [`usize::MAX`] disables aborting). Every shard's
/// exact descent adds its increments here, so the abort decision uses the
/// *global* running total: a late shard gives up as soon as the early
/// shards' counts alone prove the candidate hopeless.
pub struct SharedOutrank {
    total: AtomicU64,
    limit: usize,
}

impl SharedOutrank {
    /// A fresh accumulator aborting once the total reaches `limit`.
    pub fn new(limit: usize) -> Self {
        SharedOutrank {
            total: AtomicU64::new(0),
            limit,
        }
    }

    /// The accumulated global count.
    pub fn total(&self) -> usize {
        self.total.load(Ordering::Relaxed) as usize
    }

    /// True when the accumulated count has reached the hopeless limit.
    pub fn exceeded(&self) -> bool {
        self.total() >= self.limit
    }
}

impl yask_core::OutrankGate for SharedOutrank {
    #[inline]
    fn add(&self, n: usize) -> bool {
        let after = self.total.fetch_add(n as u64, Ordering::Relaxed) + n as u64;
        after < self.limit as u64
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn shared_outrank_aborts_at_the_limit() {
        use yask_core::OutrankGate;
        let o = SharedOutrank::new(10);
        assert!(o.add(4));
        assert!(o.add(5)); // total 9 < 10
        assert!(!o.exceeded());
        assert!(!o.add(1)); // total 10 = limit → hopeless
        assert!(o.exceeded());
        assert_eq!(o.total(), 10);
        // Unlimited accumulator never aborts.
        let free = SharedOutrank::new(usize::MAX);
        assert!(free.add(1_000_000));
        assert!(!free.exceeded());
    }

    #[test]
    fn shared_outrank_sums_across_threads() {
        use yask_core::OutrankGate;
        let o = std::sync::Arc::new(SharedOutrank::new(usize::MAX));
        let mut handles = Vec::new();
        for _ in 0..4 {
            let o = o.clone();
            handles.push(std::thread::spawn(move || {
                for _ in 0..1000 {
                    o.add(1);
                }
            }));
        }
        for h in handles {
            h.join().unwrap();
        }
        assert_eq!(o.total(), 4000);
    }
}
