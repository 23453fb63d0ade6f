//! `vm-vopr` — deterministic full-system fault simulation for the
//! ViewMap stack (the Viewstamped-Operation-Replicator-style torture
//! harness the storage literature calls a "vopr").
//!
//! One run wires the real pieces together — [`vm_service::VmClient`]
//! over TCP, [`vm_service::VmService`] workers, a durable
//! [`viewmap_core::server::ViewMapServer`] recovered from a `vm-store`
//! append log — and tortures them with faults drawn entirely from one
//! `u64` seed:
//!
//! * **wire faults** ([`proxy::ChaosProxy`]): seeded delay, one-byte
//!   trickle, long stalls (gray failure), per-chunk corruption (which
//!   the frame checksum converts into killed sessions), connection
//!   cuts. Op-level duplicates arise from the client retrying after
//!   ambiguous failures, exercising the server's idempotent dedup.
//! * **storage faults** ([`vm_store::fault`]): process "crash" =
//!   drop-without-sync at seeded op indices, fsync-loss windows (whole
//!   tail frames dropped at frame boundaries), torn writes (a seeded
//!   partial frame prefix left on the WAL tail).
//! * **timing faults**: server-side idle-session reaping raced against
//!   seeded client naps, recovered via
//!   [`vm_service::VmClient::reconnect_with_backoff`].
//! * **replication faults** (the `replica`, `failover`, and
//!   `lagging-follower` scenarios): a `vm-repl` primary→follower pair
//!   with the chaos proxy on the *replication* link — corrupted and
//!   cut shipping streams recovered by catch-up, a partition valve
//!   that refuses redials until the driver heals it, and an abrupt
//!   primary crash followed by [`vm_repl::Follower::promote`], checked
//!   for zero acked-write loss and a reward round whose cash survives
//!   the promotion.
//!
//! After every injected crash the store is reopened through real
//! recovery and the surviving system is asserted **state-equivalent**
//! to an in-process oracle fed exactly the accepted operations: same
//! minutes, same bucket orders, same state digest, same viewmap edge
//! checksums, same TrustRank verification outcomes, same index routing,
//! same solicitation board, and a `RecoveryReport` that matches the
//! injury byte for byte. Any failure message embeds the seed; rerunning
//! `vm-vopr --scenario <s> --seed <n>` replays the identical fault
//! plan.
//!
//! The catalog lives in [`scenario::Scenario`] — each scenario is a row
//! of fault parameters ([`rig::FaultProfile`]) — and the sweep driver is
//! the `vm-vopr` binary (`cargo run -p vm-vopr -- --help`).
//!
//! The generic half of the harness — the durable cell and its
//! crash/reopen life-cycle, the accepted-ops ledger, the oracle and its
//! equivalence check, the failure report, the CLI sweep — is [`rig`],
//! which `vm-scenario` builds its city workloads on too; [`harness`]
//! keeps the fault choreography and can drive any [`rig::World`], so a
//! workload crate gets "its world under this fault profile" by passing
//! both to [`harness::run_world`].

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod harness;
pub mod proxy;
pub mod rig;
pub mod scenario;

pub use harness::{run_seed, RunReport};
pub use proxy::{ChaosProxy, WireFaults};
pub use scenario::Scenario;
