//! The shared best-k score bound of [`crate::topk::topk_tree_bounded`].
//!
//! A best-first search that has seen `k` objects holds a certificate: `k`
//! real objects score at least its k-th best score, so no object scoring
//! strictly below it can be in the top-k. When several searches cover
//! disjoint parts of one corpus (the shards of a scatter-gather), each
//! publishes its certificate here with a `fetch_max`, and every search
//! prunes nodes and objects against the highest certificate published so
//! far — late shards prune against the early shards' results instead of
//! rediscovering them. A single-tree search passes a private bound, which
//! only ever holds its own k-th score.
//!
//! Scores are `f64`; the atomic stores them under the standard
//! order-preserving bit transform (flip the sign bit of positives, all
//! bits of negatives), so `fetch_max` on the `u64` is `max` on the `f64`.

use std::sync::atomic::{AtomicU64, Ordering};

/// Maps `f64` to `u64` such that `a < b ⇔ key(a) < key(b)` (total order,
/// no NaN expected in scores).
#[inline]
fn order_key(f: f64) -> u64 {
    let bits = f.to_bits();
    if bits >> 63 == 0 {
        bits | (1 << 63)
    } else {
        !bits
    }
}

/// Inverse of [`order_key`].
#[inline]
fn from_order_key(key: u64) -> f64 {
    if key >> 63 == 1 {
        f64::from_bits(key & !(1 << 63))
    } else {
        f64::from_bits(!key)
    }
}

/// The shared best-k score bound: rises monotonically, starts at `-inf`.
pub struct SharedBound {
    key: AtomicU64,
}

impl SharedBound {
    /// A bound that prunes nothing yet.
    pub fn new() -> Self {
        SharedBound {
            key: AtomicU64::new(order_key(f64::NEG_INFINITY)),
        }
    }

    /// Publishes a certificate: k objects are known to score ≥ `score`.
    /// Never lowers the bound.
    #[inline]
    pub fn raise(&self, score: f64) {
        self.key.fetch_max(order_key(score), Ordering::Relaxed);
    }

    /// The current bound. Anything scoring *strictly* below this cannot
    /// be in the top-k (ties survive: the merge breaks them by id).
    #[inline]
    pub fn get(&self) -> f64 {
        from_order_key(self.key.load(Ordering::Relaxed))
    }
}

impl Default for SharedBound {
    fn default() -> Self {
        SharedBound::new()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn order_key_is_monotone() {
        let samples = [
            f64::NEG_INFINITY,
            -1e30,
            -1.0,
            -1e-300,
            -0.0,
            0.0,
            1e-300,
            0.5,
            1.0,
            1e30,
            f64::INFINITY,
        ];
        for w in samples.windows(2) {
            assert!(order_key(w[0]) <= order_key(w[1]), "{} !<= {}", w[0], w[1]);
        }
        for &s in &samples {
            assert_eq!(from_order_key(order_key(s)).to_bits(), s.to_bits());
        }
    }

    #[test]
    fn bound_rises_monotonically() {
        let b = SharedBound::new();
        assert_eq!(b.get(), f64::NEG_INFINITY);
        b.raise(0.3);
        assert_eq!(b.get(), 0.3);
        b.raise(0.1); // lower certificate: ignored
        assert_eq!(b.get(), 0.3);
        b.raise(0.9);
        assert_eq!(b.get(), 0.9);
    }

    #[test]
    fn bound_is_shared_across_threads() {
        let b = std::sync::Arc::new(SharedBound::new());
        let mut handles = Vec::new();
        for t in 0..4 {
            let b = b.clone();
            handles.push(std::thread::spawn(move || {
                for i in 0..1000 {
                    b.raise((t * 1000 + i) as f64 / 4000.0);
                }
            }));
        }
        for h in handles {
            h.join().unwrap();
        }
        assert_eq!(b.get(), 3999.0 / 4000.0);
    }
}
