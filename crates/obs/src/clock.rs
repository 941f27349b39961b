//! Wall and virtual time sources for timers and spans.
//!
//! Every duration in this workspace flows through a [`Clock`], which comes
//! in two flavours:
//!
//! * [`Clock::wall`] — a monotonic wall clock anchored at creation
//!   (`Instant`-based), for real profiling runs;
//! * [`Clock::virtual_ns`] — a **deterministic virtual clock** that advances
//!   by a fixed step on every [`Clock::now_ns`] call. Two runs that make the
//!   same sequence of clock reads observe byte-identical timestamps, so the
//!   1/2/8-thread determinism gate can compare full metric snapshots —
//!   `*_ns` histograms included — instead of stripping them.
//!
//! Cloning shares the underlying time source: clones of a virtual clock
//! advance one shared tick counter, so timestamps stay globally ordered
//! across every component observing the same run.

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::time::Instant;

/// A nanosecond time source: monotonic wall time or deterministic virtual
/// time. See the [module docs](self).
#[derive(Clone, Debug)]
pub enum Clock {
    /// Monotonic wall time, reported as nanoseconds since the anchor.
    Wall {
        /// The instant `now_ns` counts from.
        anchor: Instant,
    },
    /// Deterministic virtual time: every read advances the shared counter
    /// by `step` nanoseconds and returns the advanced value.
    Virtual {
        /// The shared tick counter (nanoseconds).
        ticks: Arc<AtomicU64>,
        /// Nanoseconds added per read.
        step: u64,
    },
}

impl Clock {
    /// A monotonic wall clock anchored at the call.
    pub fn wall() -> Self {
        Clock::Wall {
            anchor: Instant::now(),
        }
    }

    /// A deterministic virtual clock advancing `step` nanoseconds per read
    /// (`step = 0` is clamped to 1 so time always moves forward).
    pub fn virtual_ns(step: u64) -> Self {
        Clock::Virtual {
            ticks: Arc::new(AtomicU64::new(0)),
            step: step.max(1),
        }
    }

    /// The current time in nanoseconds.
    ///
    /// Wall clocks report elapsed time since their anchor; virtual clocks
    /// advance the shared counter and report the advanced value, so every
    /// read observes a strictly larger timestamp than the previous read on
    /// any clone of the same clock.
    pub fn now_ns(&self) -> u64 {
        match self {
            Clock::Wall { anchor } => {
                u64::try_from(anchor.elapsed().as_nanos()).unwrap_or(u64::MAX)
            }
            Clock::Virtual { ticks, step } => ticks
                .fetch_add(*step, Ordering::Relaxed)
                .saturating_add(*step),
        }
    }
}

impl Default for Clock {
    fn default() -> Self {
        Clock::wall()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn wall_clock_is_monotone() {
        let c = Clock::wall();
        let a = c.now_ns();
        let b = c.now_ns();
        assert!(b >= a);
    }

    #[test]
    fn virtual_clock_is_deterministic_and_shared() {
        let c = Clock::virtual_ns(10);
        assert_eq!(c.now_ns(), 10);
        assert_eq!(c.now_ns(), 20);
        // Clones advance the same counter.
        let d = c.clone();
        assert_eq!(d.now_ns(), 30);
        assert_eq!(c.now_ns(), 40);
        // A fresh virtual clock replays the same sequence.
        let e = Clock::virtual_ns(10);
        assert_eq!(e.now_ns(), 10);
    }

    #[test]
    fn zero_step_still_advances() {
        let c = Clock::virtual_ns(0);
        let a = c.now_ns();
        let b = c.now_ns();
        assert!(b > a);
    }
}
