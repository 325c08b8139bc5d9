//! Injectable time sources for spans and stopwatches.
//!
//! Everything that measures a duration in this crate reads time
//! through [`TelemetryClock`], never from `Instant::now()` directly.
//! That buys two things: tests can drive time by hand with
//! [`ManualClock`], and the replay modules that ban the wall clock
//! (`#![warn(clippy::disallowed_types)]`) stay clean — the clock
//! lives behind a trait object owned by code outside them, so they
//! record durations that were measured elsewhere instead of naming a
//! wall clock themselves.

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::time::Instant;

/// A shared, thread-safe clock handle as stored by the registry.
pub type SharedClock = Arc<dyn TelemetryClock>;

/// A monotonic nanosecond clock.
///
/// Implementations must be monotone non-decreasing per instance;
/// the absolute origin is arbitrary (only differences are
/// meaningful).
pub trait TelemetryClock: std::fmt::Debug + Send + Sync {
    /// Nanoseconds elapsed since this clock's arbitrary origin.
    fn now_ns(&self) -> u64;
}

/// The production clock: monotonic [`Instant`] anchored at
/// construction time.
#[derive(Debug, Clone)]
pub struct RealClock {
    origin: Instant,
}

impl RealClock {
    /// Creates a clock whose origin is "now".
    pub fn new() -> Self {
        Self {
            origin: Instant::now(),
        }
    }
}

impl Default for RealClock {
    fn default() -> Self {
        Self::new()
    }
}

impl TelemetryClock for RealClock {
    fn now_ns(&self) -> u64 {
        // ~584 years of nanoseconds fit in u64; saturate rather than
        // wrap if a process somehow outlives that.
        self.origin.elapsed().as_nanos().min(u64::MAX as u128) as u64
    }
}

/// A hand-driven clock for deterministic tests: time moves only when
/// the test calls [`ManualClock::advance`] or [`ManualClock::set`].
#[derive(Debug, Default)]
pub struct ManualClock {
    now: AtomicU64,
}

impl ManualClock {
    /// Creates a clock frozen at nanosecond 0.
    pub fn new() -> Self {
        Self::default()
    }

    /// Advances the clock by `ns` nanoseconds.
    pub fn advance(&self, ns: u64) {
        self.now.fetch_add(ns, Ordering::Relaxed);
    }

    /// Jumps the clock to an absolute reading. Callers are expected
    /// to keep it monotone; the clock does not enforce it.
    pub fn set(&self, ns: u64) {
        self.now.store(ns, Ordering::Relaxed);
    }
}

impl TelemetryClock for ManualClock {
    fn now_ns(&self) -> u64 {
        self.now.load(Ordering::Relaxed)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn real_clock_is_monotone() {
        let clock = RealClock::new();
        let a = clock.now_ns();
        let b = clock.now_ns();
        assert!(b >= a);
    }

    #[test]
    fn manual_clock_moves_only_on_demand() {
        let clock = ManualClock::new();
        assert_eq!(clock.now_ns(), 0);
        clock.advance(250);
        assert_eq!(clock.now_ns(), 250);
        clock.advance(50);
        assert_eq!(clock.now_ns(), 300);
        clock.set(1_000);
        assert_eq!(clock.now_ns(), 1_000);
    }

    #[test]
    fn manual_clock_is_usable_as_trait_object() {
        let clock: SharedClock = Arc::new(ManualClock::new());
        assert_eq!(clock.now_ns(), 0);
    }
}
