//! `vm-vopr` — deterministic full-system simulation for the ViewMap
//! stack (the Viewstamped-Operation-Replicator-style torture harness the
//! storage literature calls a "vopr"): one catalog, one rig, one sweep
//! binary over every scenario.
//!
//! One run wires the real pieces together — [`vm_service::VmClient`]
//! over TCP, [`vm_service::VmService`] workers, a durable
//! [`viewmap_core::server::ViewMapServer`] recovered from a `vm-store`
//! append log — feeds them a seeded world and, depending on the row,
//! tortures them with faults drawn entirely from one `u64` seed: wire
//! faults through [`proxy::ChaosProxy`] (delay, trickle, stalls,
//! corruption, cuts), storage faults through [`vm_store::fault`]
//! (crashes, fsync-loss windows, torn tails), timing faults (idle-session
//! reaping raced against client naps), and replication faults on a
//! `vm-repl` primary→follower pair (a chaotic or partitioned link, an
//! abrupt primary crash followed by [`vm_repl::Follower::promote`]).
//!
//! After every injected crash the store is reopened through real
//! recovery and the surviving system is asserted **state-equivalent**
//! to an in-process oracle ([`vm_bench::oracle::replay`]) fed exactly
//! the accepted operations: same minutes, same bucket orders, same
//! state digest, same viewmap edge checksums, same TrustRank
//! verification outcomes, same index routing, same solicitation board,
//! and a `RecoveryReport` that matches the injury byte for byte. Any
//! failure message embeds the seed; rerunning
//! `cargo run --release -p vm-vopr -- --scenario <s> --seed <n>` replays
//! the identical world and fault plan.
//!
//! # The catalog
//!
//! [`scenario::Scenario`] has 17 rows, each a world, a fault profile
//! ([`rig::FaultProfile`]) and an assertion set:
//!
//! * nine **fault rows** (`baseline` … `lagging-follower`) run 2–3
//!   minutes of Bloom-linked vehicles ([`vm_bench::worlds::linked_minute`])
//!   under one fault mix each;
//! * eight **city rows** run a world from [`world`] — IDM traffic over a
//!   synthetic city, guard VPs, seeded Sybil attackers, rewardable
//!   recordings — and hold it to its own assertions: viewmap edge
//!   blowup, linkage starvation, retention exactness, the paper's
//!   Lemma 2 trust bound, exactly-once cash. Two of them cross a city
//!   world with a fault row's profile (`rush-hour-crash-loop`,
//!   `sybil-flood-failover`).
//!
//! [`rig`] is the generic half — the durable cell and its crash/reopen
//! life-cycle, the accepted-ops ledger, the equivalence check, the
//! failure report; [`harness`] dispatches a row ([`run_seed`]) and keeps
//! the fault choreography, which drives any [`rig::World`]. The sweep
//! front-end is the `vm-vopr` binary (`cargo run -p vm-vopr -- --list`).

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod city;
pub mod harness;
pub mod proxy;
pub mod rig;
pub mod scenario;
pub mod world;

pub use harness::{run_seed, RunReport};
pub use scenario::Scenario;
