//! # vm-scenario — city-in-a-box workloads
//!
//! A scenario-driven workload generator for the ViewMap stack. Each
//! named scenario composes the simulation crates (road networks from
//! `vm-geo`, IDM car-following from `vm-mobility`, DSRC witnessing
//! from `vm-radio`, protocol rounds from `vm-sim`, adversaries from
//! `viewmap-core::attack`) into a deterministic world, drives it over
//! the **real wire** (`VmClient` → `vm-service` → durable
//! [`vm_store::PersistentServer`]), and checks a scenario-specific
//! assertion matrix against an in-process oracle plus the `vm-obs`
//! telemetry snapshot. The cell, ledger, oracle and failure report are
//! [`vm_vopr::rig`]'s — the same rig the fault simulator runs on — so a
//! catalog row can put its world under any of `vm-vopr`'s fault
//! profiles (`rush-hour-crash-loop`, `sybil-flood-failover`).
//!
//! Every failure prints a copy-pasteable repro line:
//!
//! ```text
//! cargo run --release -p vm-scenario -- --scenario sybil-flood --seed 17
//! ```
//!
//! The catalog (world × fault profile per row) lives in
//! [`catalog::Scenario`]; world generation in [`world`]; the assertion
//! sets in [`harness`].

#![forbid(unsafe_code)]

pub mod catalog;
pub mod harness;
pub mod world;

pub use catalog::Scenario;
pub use harness::{run_seed, RunReport};
