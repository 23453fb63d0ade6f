//! The scenario catalog: every named run the sweep binary and the smoke
//! test iterate over. A row is a world, a fault profile
//! ([`FaultProfile`]) and an assertion set, not hand-written code:
//! the nine fault rows run the linked world under one fault mix each and
//! assert oracle equivalence; the eight city rows run a city world (and
//! its own assertions) fault-free or under one of the fault rows'
//! profiles.

use crate::proxy::WireFaults;
use crate::rig::{FaultProfile, PairFault, REWARD_KEY_BITS};
use std::time::Duration;

/// A named run. Each scenario fixes *which* world, fault classes and
/// assertions apply; *where* the faults strike is drawn from the run
/// seed.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub enum Scenario {
    // ── Fault rows: the linked world under one fault mix ─────────────
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

    // ── City rows: a city world with its own assertions ─────────────
    /// Dense platoon crawling through downtown: maximal mutual
    /// witnessing, viewmap edge blowup, oracle equivalence.
    RushHour,
    /// A handful of vehicles on long country blocks behind a degraded
    /// wire: linkage starvation and guard-node behavior.
    RuralSparse,
    /// Multi-minute ingest against progressive `evict_minutes_before`
    /// sweeps: retention exactness and memo-vs-cold equivalence.
    RetentionChurn,
    /// Several colluding attackers each launching fake-VP rays at the
    /// investigation site: TrustRank resilience within `lemma2_bound`.
    SybilFlood,
    /// One distant attacker forging a single long fake trajectory
    /// through the site: the paper's Fig. 20 attack, bound-checked.
    ForgedTrajectory,
    /// Many concurrent reward sessions racing blind-sign and redeem:
    /// exactly-once issuance and double-spend defense under contention.
    RedemptionStorm,
    /// The rush-hour world under the `crash-loop` profile: the
    /// platoon's edge blowup must survive several crash/recover
    /// generations with dropped WAL tails.
    RushHourCrashLoop,
    /// The sybil-flood world across the `failover` profile: the
    /// Lemma 2 bound must hold on the promoted follower.
    SybilFloodFailover,
}

/// The `crash-loop` profile, shared with `rush-hour-crash-loop`.
const CRASH_LOOP: FaultProfile = FaultProfile {
    generations: (3, 5),
    ..FaultProfile::NONE
};

/// The `failover` profile, shared with `sybil-flood-failover`. A clean
/// link: the torture is the crash itself, and the synchronous acks a
/// failover pair runs with must mean what they say.
const FAILOVER: FaultProfile = FaultProfile {
    pair: Some(PairFault::Failover),
    key_bits: REWARD_KEY_BITS,
    ..FaultProfile::NONE
};

/// The catalog, in `Scenario` declaration order: name (what
/// `--scenario` accepts), one-line description (what `--list` prints)
/// and fault profile per row.
static CATALOG: [(Scenario, &str, &str, FaultProfile); 17] = [
    (
        Scenario::Baseline,
        "baseline",
        "no faults: pipelined ingest, graceful shutdown, recovery",
        FaultProfile {
            pipelined: true,
            ..FaultProfile::NONE
        },
    ),
    (
        Scenario::WireChaos,
        "wire-chaos",
        "delays, trickle, corruption and cuts on the client link",
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
        "one crash leaving a mid-frame torn WAL tail",
        FaultProfile {
            generations: (2, 2),
            tears_mid_frame: true,
            ..FaultProfile::NONE
        },
    ),
    (
        Scenario::CrashLoop,
        "crash-loop",
        "3-5 crash/recover generations with dropped WAL tails",
        CRASH_LOOP,
    ),
    (
        Scenario::Gray,
        "gray",
        "stalls, one-byte trickle and idle-session reaping",
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
        "ingest racing memoised investigations, a sweep and crashes",
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
        "a follower converging through a chaotic replication link",
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
        "the primary dies, the follower is promoted: no acked write lost",
        FAILOVER,
    ),
    (
        Scenario::LaggingFollower,
        "lagging-follower",
        "a partitioned follower holds its prefix, then catches up",
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
    (
        Scenario::RushHour,
        "rush-hour",
        "dense downtown platoon: viewmap edge blowup + oracle equivalence",
        FaultProfile::NONE,
    ),
    (
        Scenario::RuralSparse,
        "rural-sparse",
        "sparse rural traffic over a degraded link: linkage starvation + guards",
        FaultProfile {
            // A long thin pipe: jittered latency, small fragments,
            // brief stalls — degraded but loss-free, so every request
            // completes without retries. Models a rural cellular uplink.
            wire: Some(WireFaults {
                delay_us: (50, 400),
                max_chunk: 256,
                stall_prob: 0.02,
                stall_ms: (1, 5),
                ..WireFaults::NONE
            }),
            proxy_salt: 0xcafe,
            ..FaultProfile::NONE
        },
    ),
    (
        Scenario::RetentionChurn,
        "retention-churn",
        "multi-minute ingest vs eviction sweeps: memo-vs-cold equivalence",
        FaultProfile::NONE,
    ),
    (
        Scenario::SybilFlood,
        "sybil-flood",
        "colluding Sybil attackers: fake trust bounded by lemma 2",
        FaultProfile::NONE,
    ),
    (
        Scenario::ForgedTrajectory,
        "forged-trajectory",
        "one forged trajectory through the site: bounded + honest top",
        FaultProfile::NONE,
    ),
    (
        Scenario::RedemptionStorm,
        "redemption-storm",
        "concurrent blind-sign/redeem sessions: exactly-once cash",
        FaultProfile {
            // One worker per racing session, and keys wide enough for
            // real blind signatures.
            key_bits: REWARD_KEY_BITS,
            workers: 4,
            ..FaultProfile::NONE
        },
    ),
    (
        Scenario::RushHourCrashLoop,
        "rush-hour-crash-loop",
        "the rush-hour world through crash/recover generations",
        CRASH_LOOP,
    ),
    (
        Scenario::SybilFloodFailover,
        "sybil-flood-failover",
        "the sybil-flood world across a failover: lemma 2 on the promoted follower",
        FAILOVER,
    ),
];

impl Scenario {
    /// Every scenario, in catalog order.
    pub fn all() -> [Scenario; 17] {
        CATALOG.map(|(scenario, ..)| scenario)
    }

    /// The catalog name (what `--scenario` accepts).
    pub fn name(self) -> &'static str {
        CATALOG[self as usize].1
    }

    /// One-line description (what `--list` prints).
    pub fn description(self) -> &'static str {
        CATALOG[self as usize].2
    }

    /// Parse a catalog name.
    pub fn from_name(name: &str) -> Option<Scenario> {
        Scenario::all().into_iter().find(|s| s.name() == name)
    }

    /// The scenario's fault profile.
    pub fn profile(self) -> &'static FaultProfile {
        &CATALOG[self as usize].3
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn catalog_names_are_pinned_unique_and_at_their_discriminant() {
        // Repro lines embed these names; renaming or reordering breaks
        // replayability, and `name`/`profile` index the table by
        // discriminant.
        let names = Scenario::all().map(Scenario::name);
        assert_eq!(
            names,
            [
                "baseline",
                "wire-chaos",
                "torn-tail",
                "crash-loop",
                "gray",
                "churn",
                "replica",
                "failover",
                "lagging-follower",
                "rush-hour",
                "rural-sparse",
                "retention-churn",
                "sybil-flood",
                "forged-trajectory",
                "redemption-storm",
                "rush-hour-crash-loop",
                "sybil-flood-failover",
            ]
        );
        for (i, (scenario, name, ..)) in CATALOG.iter().enumerate() {
            assert_eq!(*scenario as usize, i, "{name} is out of order");
            assert_eq!(Scenario::from_name(name), Some(*scenario));
            assert_eq!(
                names.iter().filter(|n| *n == name).count(),
                1,
                "{name} is not unique"
            );
        }
        assert_eq!(Scenario::from_name("nope"), None);
    }
}
