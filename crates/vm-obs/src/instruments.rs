//! Single-atomic instruments: counters and gauges.
//!
//! Both share the registry's enabled flag (an `Arc<AtomicBool>`): a
//! disabled registry turns every mutation into one relaxed load and a
//! predicted-not-taken branch, which is the entire disabled-state cost
//! the bench overhead column measures.

use std::sync::atomic::{AtomicBool, AtomicI64, AtomicU64, Ordering};
use std::sync::Arc;

/// A monotonically increasing counter.
#[derive(Debug)]
pub struct Counter {
    enabled: Arc<AtomicBool>,
    value: AtomicU64,
}

impl Counter {
    pub(crate) fn new(enabled: Arc<AtomicBool>) -> Counter {
        Counter {
            enabled,
            value: AtomicU64::new(0),
        }
    }

    /// Add 1.
    #[inline]
    pub fn inc(&self) {
        self.add(1);
    }

    /// Add `n`.
    #[inline]
    pub fn add(&self, n: u64) {
        if self.enabled.load(Ordering::Relaxed) {
            self.value.fetch_add(n, Ordering::Relaxed);
        }
    }

    /// The current count.
    pub fn get(&self) -> u64 {
        self.value.load(Ordering::Relaxed)
    }
}

/// A gauge: a value that goes up and down (queue depth, active
/// sessions, current lag).
#[derive(Debug)]
pub struct Gauge {
    enabled: Arc<AtomicBool>,
    value: AtomicI64,
}

impl Gauge {
    pub(crate) fn new(enabled: Arc<AtomicBool>) -> Gauge {
        Gauge {
            enabled,
            value: AtomicI64::new(0),
        }
    }

    /// Overwrite the gauge.
    #[inline]
    pub fn set(&self, v: i64) {
        if self.enabled.load(Ordering::Relaxed) {
            self.value.store(v, Ordering::Relaxed);
        }
    }

    /// Add `n` (negative to decrease).
    #[inline]
    pub fn add(&self, n: i64) {
        if self.enabled.load(Ordering::Relaxed) {
            self.value.fetch_add(n, Ordering::Relaxed);
        }
    }

    /// Add 1.
    #[inline]
    pub fn inc(&self) {
        self.add(1);
    }

    /// The current value.
    pub fn get(&self) -> i64 {
        self.value.load(Ordering::Relaxed)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn enabled(on: bool) -> Arc<AtomicBool> {
        Arc::new(AtomicBool::new(on))
    }

    #[test]
    fn counter_counts_and_respects_disable() {
        let flag = enabled(true);
        let c = Counter::new(Arc::clone(&flag));
        c.inc();
        c.add(41);
        assert_eq!(c.get(), 42);
        flag.store(false, Ordering::Relaxed);
        c.add(1000);
        assert_eq!(c.get(), 42, "disabled counter must not move");
    }

    #[test]
    fn gauge_moves_both_ways() {
        let g = Gauge::new(enabled(true));
        g.set(10);
        g.add(-3);
        g.inc();
        assert_eq!(g.get(), 8);
    }

    #[test]
    fn disabled_gauge_is_frozen() {
        let g = Gauge::new(enabled(false));
        g.set(10);
        g.add(5);
        assert_eq!(g.get(), 0);
    }
}
