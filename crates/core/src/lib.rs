//! ViewMap — the core protocol from *"ViewMap: Sharing Private In-Vehicle
//! Dashcam Videos"* (NSDI '17), implemented in full.
//!
//! ViewMap lets authorities collect dashcam video evidence around an
//! incident while (a) keeping uploaders anonymous, (b) rejecting
//! location/time-cheating fakes automatically, and (c) paying untraceable
//! rewards. The moving parts, and where they live here:
//!
//! | Paper concept | Module |
//! |---|---|
//! | View digests (per-second cascaded fingerprints, Fig. 4) | [`vd`] |
//! | View profiles (1-min summaries + neighbor Bloom filter) | [`vp`] |
//! | Neighbor VD acceptance rules | [`neighbor`] |
//! | Guard VPs / path obfuscation (§5.1.2) | [`guard`] |
//! | Anonymous upload (Tor substitute) | [`upload`] |
//! | Server: sharded VP database (`VpId`-indexed), boards, ledger (§4) | [`server`] |
//! | Viewmap construction (§5.2.1), zero-copy `Arc` members + per-second spatial grid | [`viewmap`] |
//! | The investigation path's per-minute structures: admission bounds table + region-lazy viewlink memo (bit-identical to the cold build) | [`maintained`] |
//! | TrustRank verification (§5.2.2, Alg. 1) on the CSR gather engine | [`trustrank`] |
//! | Video solicitation & hash validation (§5.2.3) | [`solicit`] |
//! | Untraceable rewarding (§5.3, App. A) | [`reward`] |
//! | Durable-storage seam (append-log WAL contract) | [`wal`] |
//! | Tracking adversary (§6.2.2) | [`tracker`] |
//! | Fake-VP attack toolkit & synthetic viewmaps (§6.3) | [`attack`] |
//! | Closed-form analyses (α rule, Bloom false linkage, overhead) | [`analysis`] |
//!
//! # Scale engineering
//!
//! The investigation hot path is built for city-scale populations
//! (10⁵+ VPs per minute). A viewmap's graph takes one form, a flat
//! [`trustrank::CsrGraph`] that the viewlink memo extracts its rows
//! into, and TrustRank runs over it as one serial gather-style power
//! iteration. Viewmap construction has one linker, the viewlink memo
//! ([`maintained`]): each member is spliced in through a bounding-circle
//! candidate grid with conservative fixed-point and temporal-segment
//! prefilters, then the exact shared-second scan and the two-way Bloom
//! test over SHA-NI-accelerated keys cached on the stored VP. The
//! server's VP store is striped across [`server::DB_SHARDS`] locks with
//! an O(1) `VpId → minute` index; [`server::ViewMapServer::submit_batch`]
//! amortizes stripe locking and Bloom screening across whole-minute
//! batches while staying state-indistinguishable from sequential
//! submission. Link keys are precomputed at ingest only by
//! [`server::ViewMapServer::submit_batch_warm`] and
//! [`server::ViewMapServer::submit_trusted_batch`]; on every other
//! path, log replay included, they hash lazily, the first time the memo
//! links the VP. Durability
//! attaches through the [`wal::VpWal`] seam: the `vm-store` crate's
//! minute-bucketed append-log segments mirror every accepted VP (group
//! commit under the committing shard's lock), and its recovery path
//! replays a directory of segments back into a state-equivalent server
//! — see `vm-store`'s crate docs for the record format and
//! crash-recovery invariants. The `vm-bench` crate keeps the naive
//! reference engines these paths are compared against, and its
//! `parallel_equivalence` suite is the determinism harness holding
//! parallel/batch paths equal to their sequential counterparts; timings
//! are `vm_perf`'s business.
//!
//! # Quick start
//!
//! ```
//! use viewmap_core::vd::VdChain;
//! use viewmap_core::types::GeoPos;
//!
//! // A dashcam records a 1-min video; every second it extends the
//! // cascaded digest chain with the newly recorded chunk and broadcasts
//! // the resulting view digest over DSRC.
//! let secret = [7u8; 8];
//! let mut chain = VdChain::new(secret, 0, GeoPos::new(10.0, 20.0));
//! for sec in 0..60 {
//!     let chunk = vec![0u8; 1024]; // video bytes for this second
//!     let vd = chain.extend(&chunk, GeoPos::new(10.0 + sec as f64, 20.0));
//!     assert_eq!(vd.encode().len(), 72); // the paper's 72-byte VD message
//! }
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod analysis;
pub mod attack;
pub mod bloom;
pub mod guard;
pub mod maintained;
pub mod neighbor;
pub mod par;
pub mod reward;
pub mod server;
pub mod solicit;
pub mod tracker;
pub mod trustrank;
pub mod types;
pub mod upload;
pub mod vd;
pub mod viewmap;
pub mod vp;
pub mod wal;

pub use bloom::BloomFilter;
pub use maintained::MaintainedViewmap;
pub use types::{GeoPos, MinuteId, VpId, DSRC_RADIUS_M, SECONDS_PER_VP};
pub use vd::{VdChain, ViewDigest};
pub use viewmap::{Viewmap, ViewmapConfig};
pub use vp::{StoredVp, ViewProfile, VpBuilder, VpKind};
