//! Stage timers.
//!
//! A [`Stopwatch`] times a *sequence* of stages with one clock read
//! per boundary: each [`lap_ns`](Stopwatch::lap_ns) returns the
//! nanoseconds since the previous lap, which the caller records into
//! that stage's histogram. It reads time only through the injected
//! [`TelemetryClock`](crate::TelemetryClock), so deterministic tests
//! can drive it by hand.

use crate::clock::SharedClock;

/// Times consecutive stages of a pipeline with one clock read per
/// stage boundary.
#[derive(Debug)]
pub struct Stopwatch {
    clock: SharedClock,
    last: u64,
}

impl Stopwatch {
    /// Starts a stopwatch now on `clock`.
    pub fn start(clock: SharedClock) -> Self {
        let last = clock.now_ns();
        Self { clock, last }
    }

    /// Nanoseconds since the previous lap (or since start), and
    /// resets the lap origin to now.
    pub fn lap_ns(&mut self) -> u64 {
        let now = self.clock.now_ns();
        let elapsed = now.saturating_sub(self.last);
        self.last = now;
        elapsed
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::clock::ManualClock;
    use std::sync::Arc;

    #[test]
    fn stopwatch_laps_are_disjoint() {
        let clock = Arc::new(ManualClock::new());
        let mut watch = Stopwatch::start(clock.clone() as SharedClock);
        clock.advance(100);
        assert_eq!(watch.lap_ns(), 100);
        clock.advance(250);
        assert_eq!(watch.lap_ns(), 250);
        assert_eq!(watch.lap_ns(), 0);
    }
}
