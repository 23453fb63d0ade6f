//! The scenario catalog: named fault profiles the driver binary and the
//! CI smoke sweep iterate over. A scenario is a row of fault parameters
//! ([`FaultProfile`]), not a hand-written driver.

use crate::proxy::WireFaults;
use crate::rig::{FaultProfile, PairFault, REWARD_KEY_BITS};
use std::time::Duration;

/// A named fault mix. Each scenario fixes *which* fault classes are
/// armed; *where* they strike is drawn from the run seed.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Scenario {
    /// No faults: pipelined ingest, graceful shutdown, recovery — the
    /// harness's own plumbing must hold before anything is injected.
    Baseline,
    /// Wire chaos through the proxy: delays, small-chunk trickle,
    /// per-chunk corruption (killed sessions), connection cuts. The
    /// client retries through reconnects; the server's dedup absorbs
    /// the resulting at-least-once duplicates.
    WireChaos,
    /// One crash with a mid-frame torn WAL tail (plus whole dropped
    /// frames): recovery must truncate exactly the torn bytes and
    /// report them, and the re-driven ops must restore equivalence.
    TornTail,
    /// Several crash/recover generations with frame-boundary fsync-loss
    /// windows: clean truncation, no torn segments, survivors dedup as
    /// duplicates when ops are re-driven.
    CrashLoop,
    /// Gray failure: stalls and one-byte trickle on the wire, an
    /// idle-timeout-armed server reaping silent sessions, a
    /// read-deadline-armed client recovering via reconnect.
    Gray,
    /// Churn: continuous ingest racing memoised investigations and a
    /// retention sweep under mild wire chaos, across crash/recover
    /// generations. The oracle asserts the viewlink memo equals a cold
    /// build at probe points mid-ingest, right after every recovery
    /// (the recovered server must rebuild memo state from scratch,
    /// never trust it stale), and after an evicted minute is fully
    /// resubmitted.
    Churn,
    /// Replication under wire chaos: a primary ships its WAL to one
    /// follower through a chaotic proxy (delays, trickle, corruption,
    /// cuts on the *replication* link). The follower must converge to
    /// oracle equivalence anyway — every lost byte recovered by
    /// catch-up — and its front-end must fence mutations with
    /// `NotPrimary` while serving reads.
    Replica,
    /// Failover torture: synchronous-ack replication, a reward round,
    /// then the primary dies abruptly and the follower is promoted.
    /// Zero acked-write loss (every op the primary acked is in the
    /// promoted buckets, in order), byte-level oracle equivalence,
    /// pre-failover cash redeems exactly once on the new primary, and
    /// the rest of the schedule lands over the wire in epoch 2.
    Failover,
    /// A follower partitioned away mid-stream (connections severed
    /// *and* redials refused) while the primary keeps accepting: the
    /// replica must hold at its stale prefix — never invent state —
    /// then catch all the way up to oracle equivalence once the
    /// partition heals, and mirror a retention sweep over the healed
    /// link.
    LaggingFollower,
}

/// The catalog, in `Scenario` declaration order: name (what
/// `--scenario` accepts) and fault profile per row.
static CATALOG: [(Scenario, &str, FaultProfile); 9] = [
    (
        Scenario::Baseline,
        "baseline",
        FaultProfile {
            pipelined: true,
            ..FaultProfile::NONE
        },
    ),
    (
        Scenario::WireChaos,
        "wire-chaos",
        FaultProfile {
            wire: Some(WireFaults {
                delay_us: (0, 300),
                max_chunk: 256,
                corrupt_prob: 0.002,
                cut_prob: 0.004,
                ..WireFaults::NONE
            }),
            ..FaultProfile::NONE
        },
    ),
    (
        Scenario::TornTail,
        "torn-tail",
        FaultProfile {
            generations: (2, 2),
            tears_mid_frame: true,
            ..FaultProfile::NONE
        },
    ),
    (
        Scenario::CrashLoop,
        "crash-loop",
        FaultProfile {
            generations: (3, 5),
            ..FaultProfile::NONE
        },
    ),
    (
        Scenario::Gray,
        "gray",
        FaultProfile {
            wire: Some(WireFaults {
                max_chunk: 1,
                stall_prob: 0.0003,
                stall_ms: (40, 80),
                ..WireFaults::NONE
            }),
            idle_timeout: Some(Duration::from_millis(30)),
            ..FaultProfile::NONE
        },
    ),
    (
        Scenario::Churn,
        "churn",
        FaultProfile {
            // Milder than wire-chaos: the point is the memo lifecycle
            // under churn, so faults spice the ingest without drowning
            // the run in retries.
            wire: Some(WireFaults {
                delay_us: (0, 200),
                max_chunk: 512,
                corrupt_prob: 0.001,
                cut_prob: 0.003,
                ..WireFaults::NONE
            }),
            generations: (2, 3),
            memo_churn: true,
            ..FaultProfile::NONE
        },
    ),
    (
        Scenario::Replica,
        "replica",
        FaultProfile {
            // The replication stream is high-volume (whole segment
            // frames), so per-chunk rates stay low: corruption kills
            // the session at the envelope checksum and every cut
            // forces a catch-up resync — the paths under test.
            wire: Some(WireFaults {
                delay_us: (0, 200),
                max_chunk: 512,
                corrupt_prob: 0.001,
                cut_prob: 0.002,
                ..WireFaults::NONE
            }),
            proxy_salt: 0x7265_706c,
            pair: Some(PairFault::ChaoticLink),
            key_bits: REWARD_KEY_BITS,
            ..FaultProfile::NONE
        },
    ),
    (
        Scenario::Failover,
        "failover",
        FaultProfile {
            // A clean link: the torture is the crash itself, and the
            // synchronous acks a failover pair runs with must mean what
            // they say.
            pair: Some(PairFault::Failover),
            key_bits: REWARD_KEY_BITS,
            ..FaultProfile::NONE
        },
    ),
    (
        Scenario::LaggingFollower,
        "lagging-follower",
        FaultProfile {
            // A transparent valve: no byte faults, just a listener the
            // driver can sever and slam shut (`set_refusing`) to hold
            // the follower partitioned across its redials.
            wire: Some(WireFaults::NONE),
            proxy_salt: 0x7265_706c,
            pair: Some(PairFault::Partition),
            key_bits: REWARD_KEY_BITS,
            ..FaultProfile::NONE
        },
    ),
];

impl Scenario {
    /// Every scenario, in catalog order.
    pub fn all() -> [Scenario; 9] {
        CATALOG.map(|(scenario, ..)| scenario)
    }

    /// The catalog name (what `--scenario` accepts).
    pub fn name(self) -> &'static str {
        CATALOG[self as usize].1
    }

    /// Parse a catalog name.
    pub fn from_name(name: &str) -> Option<Scenario> {
        Scenario::all().into_iter().find(|s| s.name() == name)
    }

    /// The scenario's fault profile.
    pub fn profile(self) -> &'static FaultProfile {
        &CATALOG[self as usize].2
    }
}

impl std::fmt::Display for Scenario {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.name())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn catalog_rows_sit_at_their_discriminant() {
        // `name`/`profile` index the table by discriminant.
        for (i, (scenario, name, _)) in CATALOG.iter().enumerate() {
            assert_eq!(*scenario as usize, i, "{name} is out of order");
            assert_eq!(Scenario::from_name(name), Some(*scenario));
        }
    }
}
