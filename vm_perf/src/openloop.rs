//! The open-loop sender: requests leave on a schedule, whether or not the
//! previous one has come back. Each request is timed from the moment it was
//! *due*, so a stall charges every request it delayed, and none is dropped.

/// Time as the sender sees it, in seconds; the test substitutes a fake.
pub trait Clock {
    fn now(&self) -> f64;
    fn sleep_until(&mut self, t: f64);
}

/// Wall time from a fixed start.
pub struct WallClock(std::time::Instant);

impl WallClock {
    pub fn start() -> WallClock {
        WallClock(std::time::Instant::now())
    }
}

impl Clock for WallClock {
    fn now(&self) -> f64 {
        self.0.elapsed().as_secs_f64()
    }

    fn sleep_until(&mut self, t: f64) {
        let wait = t - self.now();
        if wait > 0.0 {
            std::thread::sleep(std::time::Duration::from_secs_f64(wait));
        }
    }
}

/// One request of the schedule.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct Sent {
    /// When it should have left, when it left, when its reply was complete.
    pub due: f64,
    pub sent: f64,
    pub done: f64,
    pub ok: bool,
}

impl Sent {
    /// Latency from the due time, milliseconds.
    pub fn latency_ms(&self) -> f64 {
        (self.done - self.due) * 1e3
    }

    /// Did the generator itself run more than a millisecond behind?
    pub fn late(&self) -> bool {
        self.sent - self.due > 1e-3
    }
}

/// Send requests `0..n`, request `i` due at `i * period_s` after the start.
/// A request that is already overdue leaves at once; none is skipped.
pub fn run<C: Clock>(
    n: usize,
    period_s: f64,
    clock: &mut C,
    mut send: impl FnMut(usize, &mut C) -> bool,
) -> Vec<Sent> {
    let start = clock.now();
    (0..n)
        .map(|i| {
            let due = start + i as f64 * period_s;
            clock.sleep_until(due);
            let sent = clock.now();
            let ok = send(i, clock);
            Sent {
                due,
                sent,
                done: clock.now(),
                ok,
            }
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    struct FakeClock(f64);

    impl Clock for FakeClock {
        fn now(&self) -> f64 {
            self.0
        }
        fn sleep_until(&mut self, t: f64) {
            self.0 = self.0.max(t);
        }
    }

    #[test]
    fn a_stalled_send_delays_later_samples_and_drops_none() {
        // Period 10 ms, each send takes 1 ms, except request 3, which stalls
        // for 45 ms.
        let mut clock = FakeClock(100.0);
        let sent = run(10, 0.010, &mut clock, |i, c| {
            c.0 += if i == 3 { 0.045 } else { 0.001 };
            true
        });
        assert_eq!(sent.len(), 10, "no request is dropped");
        let ms: Vec<f64> = sent.iter().map(|s| s.latency_ms().round()).collect();
        // 3 pays its own stall; 4..=7 were due during it and pay the wait
        // (35+1, 26+1, 17+1, 8+1); 8 and 9 are back on schedule.
        assert_eq!(ms, [1.0, 1.0, 1.0, 45.0, 36.0, 27.0, 18.0, 9.0, 1.0, 1.0]);
        let late: Vec<bool> = sent.iter().map(Sent::late).collect();
        assert_eq!(
            late,
            [false, false, false, false, true, true, true, true, false, false]
        );
        for (i, s) in sent.iter().enumerate() {
            assert!((s.due - (100.0 + i as f64 * 0.010)).abs() < 1e-12);
            assert!(s.sent >= s.due);
        }
    }
}
