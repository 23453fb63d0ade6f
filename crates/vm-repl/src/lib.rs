//! `vm-repl` — primary→follower replication for ViewMap cells: WAL
//! log shipping, follower catch-up, and explicit promotion.
//!
//! A single ViewMap cell is already durable (`vm-store`) and already
//! serves concurrent traffic (`vm-service`); what it cannot survive is
//! the machine under it. This crate replicates a cell by shipping the
//! one artifact that already defines its state bit-exactly — the
//! append log's segment frames — to follower cells that replay them
//! through the server's normal recovery path:
//!
//! * [`wire`] — the replication messages: vm-service frames (`0x20`
//!   opcode range) whose `FRAMES` payloads carry one run of raw
//!   `vm-store` segment frames back to back, so the disk codec doubles
//!   as the wire codec and a follower checks shipped records with the
//!   one rule recovery uses ([`vm_store::scan`]).
//! * [`primary`] — [`primary::ReplHub`] (listener, follower sessions,
//!   op numbering, ack watermark) and [`primary::ReplicatedWal`], the
//!   store-backed `VpWal` that ships the bytes of every committed
//!   append once they are written. [`primary::Primary`] bundles a
//!   durable server with a hub.
//! * [`follower`] — [`follower::Follower`]: a durable replica that
//!   dials the primary, positions catch-up with per-minute cursors
//!   from its own log, scans and applies the stream (injuries
//!   quarantine the connection, never the store), acks applied ops,
//!   and [`follower::Follower::promote`]s into a byte-equivalent
//!   serving primary of the next epoch.
//!
//! The replication group shares one RSA signing identity (the
//! `vm-store` keyfile / `open_with_key`): a promoted follower redeems
//! cash the failed primary minted, so the paper's reward economy
//! survives failover. Role fencing on the serving side is
//! [`vm_service::RoleCell`] — follower front-ends reject mutations
//! with `NotPrimary` until promotion flips them live.
//!
//! Determinism is load-bearing end to end: shipping is serialized
//! under one stream mutex (per-minute order = bucket order = replay
//! order), reconnect jitter is seeded, and the vopr `replica` /
//! `failover` / `lagging-follower` scenarios replay whole
//! crash-and-promote histories from a single seed and check the
//! promoted follower against an in-process oracle.
//!
//! See `ARCHITECTURE.md` §8 for the protocol spec and the
//! equivalence argument.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod follower;
pub mod primary;
pub mod wire;

pub use follower::{Follower, FollowerConfig};
pub use primary::{Primary, ReplHub, ReplicatedWal, ReplicationConfig};
pub use wire::{ReplMsg, WireError};
