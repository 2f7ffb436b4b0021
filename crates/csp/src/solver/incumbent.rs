//! Cross-thread search hooks: cooperative cancellation and the shared
//! branch-and-bound incumbent.

use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::Arc;

/// A shared flag that cooperatively aborts in-flight searches.
///
/// Cloning shares the flag.  Solvers poll it at their deadline-poll points
/// (every few dozen nodes), so cancellation latency is microseconds, not
/// milliseconds.
#[derive(Debug, Clone, Default)]
pub struct CancelToken(Arc<AtomicBool>);

impl CancelToken {
    /// A fresh, uncancelled token.
    pub fn new() -> Self {
        CancelToken::default()
    }

    /// Requests cancellation; every solver sharing the token aborts at its
    /// next poll point.
    pub fn cancel(&self) {
        self.0.store(true, Ordering::Release);
    }

    /// Whether cancellation was requested.
    pub fn is_cancelled(&self) -> bool {
        self.0.load(Ordering::Acquire)
    }
}

/// A callback invoked every time a [`SharedIncumbent`] bound rises — the
/// subscription seam an async serving layer streams improving solution
/// weights through.
///
/// The callback runs on whichever solver thread raised the bound, so it
/// must be cheap and non-blocking (post to a channel, update an atomic);
/// it must never call back into the solver.  Under racing raises the
/// callbacks may arrive out of order — subscribers keep their own running
/// maximum.  Observation never changes what the solvers compute: the
/// bound itself is raised by the same `fetch_max` with or without an
/// observer attached.
#[derive(Clone)]
pub struct IncumbentObserver(Arc<dyn Fn(f64) + Send + Sync>);

impl IncumbentObserver {
    /// Wraps a callback to be invoked with every new best weight.
    pub fn new(callback: impl Fn(f64) + Send + Sync + 'static) -> Self {
        IncumbentObserver(Arc::new(callback))
    }

    /// Invokes the callback.
    pub fn notify(&self, weight: f64) {
        (self.0)(weight);
    }
}

impl std::fmt::Debug for IncumbentObserver {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str("IncumbentObserver(..)")
    }
}

/// A monotonically increasing `f64` maximum shared between the workers of
/// one branch-and-bound run (the incumbent bound).
///
/// Lock-free: values are stored as order-preserving bit patterns, so
/// raising the maximum is a single `fetch_max`.  An optional
/// [`IncumbentObserver`] ([`SharedIncumbent::maybe_observed`]) is notified
/// after every successful raise.
#[derive(Debug)]
pub struct SharedIncumbent {
    key: AtomicU64,
    observer: Option<IncumbentObserver>,
}

/// Maps an `f64` to a `u64` whose unsigned order matches the `f64` order
/// (sign bit flipped for positives, all bits flipped for negatives).
fn f64_order_key(value: f64) -> u64 {
    let bits = value.to_bits();
    if bits >> 63 == 0 {
        bits | (1 << 63)
    } else {
        !bits
    }
}

/// Inverse of [`f64_order_key`].
fn f64_from_order_key(key: u64) -> f64 {
    if key >> 63 == 1 {
        f64::from_bits(key & !(1 << 63))
    } else {
        f64::from_bits(!key)
    }
}

impl Default for SharedIncumbent {
    fn default() -> Self {
        SharedIncumbent::new()
    }
}

impl SharedIncumbent {
    /// A fresh incumbent at negative infinity (no solution known).
    pub fn new() -> Self {
        SharedIncumbent {
            key: AtomicU64::new(f64_order_key(f64::NEG_INFINITY)),
            observer: None,
        }
    }

    /// A fresh incumbent with an optional observer (`None` behaves exactly
    /// like [`SharedIncumbent::new`]).
    pub fn maybe_observed(observer: Option<IncumbentObserver>) -> Self {
        SharedIncumbent {
            observer,
            ..SharedIncumbent::new()
        }
    }

    /// Offers a solution weight; the stored maximum only ever rises.
    /// Returns `true` when the offer raised the bound.
    pub fn offer(&self, weight: f64) -> bool {
        let key = f64_order_key(weight);
        let raised = self.key.fetch_max(key, Ordering::AcqRel) < key;
        if raised {
            if let Some(observer) = &self.observer {
                observer.notify(weight);
            }
        }
        raised
    }

    /// The best weight offered so far (`-inf` when none).
    pub fn get(&self) -> f64 {
        f64_from_order_key(self.key.load(Ordering::Acquire))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn cancel_token_round_trip() {
        let token = CancelToken::new();
        assert!(!token.is_cancelled());
        let clone = token.clone();
        clone.cancel();
        assert!(token.is_cancelled());
    }

    #[test]
    fn shared_incumbent_is_a_monotone_max() {
        let incumbent = SharedIncumbent::new();
        assert_eq!(incumbent.get(), f64::NEG_INFINITY);
        assert!(incumbent.offer(-3.5));
        assert_eq!(incumbent.get(), -3.5);
        assert!(incumbent.offer(2.0));
        assert!(!incumbent.offer(1.0));
        assert!(!incumbent.offer(2.0));
        assert_eq!(incumbent.get(), 2.0);
    }

    #[test]
    fn f64_order_key_preserves_order() {
        let values = [
            f64::NEG_INFINITY,
            -2.5,
            -0.0,
            0.0,
            1.0e-300,
            7.25,
            f64::INFINITY,
        ];
        for pair in values.windows(2) {
            assert!(f64_order_key(pair[0]) <= f64_order_key(pair[1]));
        }
        for v in values {
            assert_eq!(f64_from_order_key(f64_order_key(v)), v);
        }
    }
}
