//! The scenario catalog: every named workload the generator can drive,
//! as rows of world × fault profile (the assertion set per row lives in
//! [`crate::harness`]).

use vm_vopr::rig::{FaultProfile, REWARD_KEY_BITS};
use vm_vopr::{Scenario as Fault, WireFaults};

/// A named end-to-end workload. Each scenario composes the simulation
/// stack differently and carries its own assertion matrix; all of them
/// are deterministic in `(scenario, seed)`.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub enum Scenario {
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
    /// The rush-hour world under vm-vopr's `crash-loop` profile: the
    /// platoon's edge blowup must survive several crash/recover
    /// generations with dropped WAL tails.
    RushHourCrashLoop,
    /// The sybil-flood world across vm-vopr's `failover` profile: the
    /// Lemma 2 bound must hold on the promoted follower.
    SybilFloodFailover,
}

/// The catalog, in declaration order: CLI name and one-line description
/// per row.
const CATALOG: [(Scenario, &str, &str); 8] = [
    (
        Scenario::RushHour,
        "rush-hour",
        "dense downtown platoon: viewmap edge blowup + oracle equivalence",
    ),
    (
        Scenario::RuralSparse,
        "rural-sparse",
        "sparse rural traffic over a degraded link: linkage starvation + guards",
    ),
    (
        Scenario::RetentionChurn,
        "retention-churn",
        "multi-minute ingest vs eviction sweeps: memo-vs-cold equivalence",
    ),
    (
        Scenario::SybilFlood,
        "sybil-flood",
        "colluding Sybil attackers: fake trust bounded by lemma 2",
    ),
    (
        Scenario::ForgedTrajectory,
        "forged-trajectory",
        "one forged trajectory through the site: bounded + honest top",
    ),
    (
        Scenario::RedemptionStorm,
        "redemption-storm",
        "concurrent blind-sign/redeem sessions: exactly-once cash",
    ),
    (
        Scenario::RushHourCrashLoop,
        "rush-hour-crash-loop",
        "the rush-hour world through crash/recover generations",
    ),
    (
        Scenario::SybilFloodFailover,
        "sybil-flood-failover",
        "the sybil-flood world across a failover: lemma 2 on the promoted follower",
    ),
];

impl Scenario {
    /// Every scenario, in catalog order.
    pub fn all() -> [Scenario; 8] {
        CATALOG.map(|(scenario, ..)| scenario)
    }

    /// The CLI name (`--scenario <name>`).
    pub fn name(&self) -> &'static str {
        CATALOG[*self as usize].1
    }

    /// Parse a CLI name.
    pub fn from_name(name: &str) -> Option<Scenario> {
        Self::all().into_iter().find(|s| s.name() == name)
    }

    /// One-line description for `--list` and reports.
    pub fn description(&self) -> &'static str {
        CATALOG[*self as usize].2
    }

    /// The fault profile the scenario's world runs under. The crossed
    /// cells borrow vm-vopr's catalog rows as they are.
    pub fn profile(&self) -> FaultProfile {
        match self {
            Scenario::RushHour
            | Scenario::RetentionChurn
            | Scenario::SybilFlood
            | Scenario::ForgedTrajectory => FaultProfile::NONE,
            Scenario::RuralSparse => FaultProfile {
                wire: Some(WireFaults::rural_link()),
                proxy_salt: 0xcafe,
                ..FaultProfile::NONE
            },
            // One worker per racing session, and keys wide enough for
            // real blind signatures.
            Scenario::RedemptionStorm => FaultProfile {
                key_bits: REWARD_KEY_BITS,
                workers: 4,
                ..FaultProfile::NONE
            },
            Scenario::RushHourCrashLoop => *Fault::CrashLoop.profile(),
            Scenario::SybilFloodFailover => *Fault::Failover.profile(),
        }
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
    fn names_round_trip() {
        for (i, s) in Scenario::all().into_iter().enumerate() {
            assert_eq!(s as usize, i, "{s} sits off its discriminant");
            assert_eq!(Scenario::from_name(s.name()), Some(s));
        }
        assert_eq!(Scenario::from_name("nope"), None);
    }

    #[test]
    fn names_are_stable() {
        // Repro lines embed these names; renaming breaks replayability.
        let names: Vec<&str> = Scenario::all().iter().map(|s| s.name()).collect();
        assert_eq!(
            names,
            [
                "rush-hour",
                "rural-sparse",
                "retention-churn",
                "sybil-flood",
                "forged-trajectory",
                "redemption-storm",
                "rush-hour-crash-loop",
                "sybil-flood-failover"
            ]
        );
    }
}
