//! # ViewMap — full-system reproduction of NSDI '17
//!
//! *"ViewMap: Sharing Private In-Vehicle Dashcam Videos"* (Kim, Lim, Yu,
//! Kim, Kim, Lee — Hanyang University, NSDI 2017), rebuilt as a Rust
//! workspace: the protocol itself plus every substrate its evaluation
//! rests on.
//!
//! This facade crate re-exports the workspace members under one roof and
//! hosts the runnable examples and cross-crate integration tests:
//!
//! * [`core`] — view digests, view profiles, guard VPs,
//!   viewmap construction (the bounds table + region-lazy viewlink
//!   memo `ViewMapServer::investigate` serves every site from, whose
//!   splice is also the cold build's linker),
//!   TrustRank verification, solicitation, blind-signature rewarding,
//!   the tracking adversary, attack toolkit.
//! * [`crypto`] — SHA-256, big integers, RSA blind signatures
//!   (all from scratch).
//! * [`geo`] — planar geometry, road networks, routing, building
//!   fields, spatial indices.
//! * [`mobility`] — the SUMO-substitute traffic simulator.
//! * [`radio`] — the DSRC channel model with LOS/NLOS structure.
//! * [`sim`] — the integrated protocol simulation (ns-3
//!   substitute) and the controlled linkage experiments.
//! * [`vision`] — realtime license-plate blurring.
//! * [`store`] — the durable append-log VP store with crash
//!   recovery (`ViewMapServer::open`).
//! * [`service`] — the concurrent TCP front-end (wire
//!   protocol, worker-pool server, pipelining client, role fencing).
//! * [`repl`] — primary→follower replication: WAL log
//!   shipping, acked commit watermark, catch-up, promotion.
//! * [`obs`] — the zero-dependency telemetry core: counters,
//!   gauges, log-bucketed latency histograms, registry snapshots
//!   (the `STATS` wire exposition), and the structured event journal.
//!
//! ## Example
//!
//! ```
//! use viewmap::core::types::GeoPos;
//! use viewmap::core::vp::exchange_minute;
//! use rand::{rngs::StdRng, SeedableRng};
//!
//! // Two vehicles drive side by side for a minute, exchanging view
//! // digests over DSRC; their view profiles end up mutually viewlinked.
//! let mut rng = StdRng::seed_from_u64(7);
//! let (a, b) = exchange_minute(
//!     &mut rng,
//!     0,
//!     |s| GeoPos::new(s as f64 * 12.0, 0.0),
//!     |s| GeoPos::new(s as f64 * 12.0, 40.0),
//! );
//! let (a, b) = (a.profile.into_stored(), b.profile.into_stored());
//! assert!(a.mutually_linked(&b));
//! ```

#![forbid(unsafe_code)]

pub use viewmap_core as core;
pub use vm_crypto as crypto;
pub use vm_geo as geo;
pub use vm_mobility as mobility;
pub use vm_obs as obs;
pub use vm_radio as radio;
pub use vm_repl as repl;
pub use vm_service as service;
pub use vm_sim as sim;
pub use vm_store as store;
pub use vm_vision as vision;

pub mod dashcam;
pub use dashcam::{Dashcam, DashcamConfig, MinuteOutput};
