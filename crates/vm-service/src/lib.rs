//! `vm-service` — the concurrent network front-end for the ViewMap
//! server.
//!
//! The paper's ViewMap system is a *service*: many uploader vehicles
//! submit view profiles concurrently while investigators build and
//! verify viewmaps against the same store. The core crate's
//! lock-striped [`viewmap_core::server::ViewMapServer`] and its warm
//! batch-ingest machinery were built for exactly that workload; this
//! crate puts a TCP wire in front of them:
//!
//! * [`proto`] — the length-framed, checksummed binary wire format:
//!   frame layout, opcodes, typed error codes, and the request/reply
//!   codecs. VP records on the wire are the storage codec's bytes
//!   ([`vm_store::codec`]), so upload bandwidth gets the same ~3.5×
//!   delta compression the append log gets and the system has exactly
//!   one canonical VP codec.
//! * [`server`] — [`server::VmService`]: a `std::net::TcpListener`
//!   accept loop plus a bounded worker pool fanned out through the
//!   workspace's shared [`viewmap_core::par`] scoped-thread helpers.
//!   Every VP arrives as one `SUBMIT` frame; pipelined submits on one
//!   session are coalesced into one `submit_batch_warm` call, so the
//!   network path rides the per-(minute, batch) stripe locking and
//!   parallel link-key precompute instead of paying per-frame locking.
//!   That coalesced run is the service's only way into server ingest.
//! * [`client`] — [`client::VmClient`]: a blocking client with
//!   windowed pipelining, used by the examples, the multi-client
//!   integration suite, the fault and scenario rigs, and `vm_perf`.
//! * [`role`] — replication role/epoch state ([`role::RoleCell`]).
//!   A front-end spawned over a **follower** replica
//!   ([`server::VmService::spawn_with_role`]) serves reads —
//!   investigate, public-key, total-VPs — from the replica state but
//!   rejects every mutating opcode with
//!   [`proto::ErrorCode::NotPrimary`]; promoting the cell flips live
//!   sessions to full service without a listener restart.
//!
//! The front-end serves **anonymous public traffic** only: there is no
//! wire operation for trusted (authority) VPs and none for posting
//! rewards — both stay on the in-process authority surface. A wire VP
//! is committed untrusted whatever its record's `trusted` byte says. A
//! recovered-from-disk server (`ViewMapServer::open` from `vm-store`)
//! drops in unchanged: the service holds an `Arc<ViewMapServer>` and
//! never cares where the state came from.
//!
//! See `ARCHITECTURE.md` at the repository root for the full wire
//! format specification and the concurrency model the service leans
//! on.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod client;
pub mod proto;
pub mod role;
pub mod server;

pub use client::{ClientConfig, ClientError, VmClient};
pub use proto::{ErrorCode, Frame, FrameError, Reply, Request};
pub use role::{Role, RoleCell};
pub use server::{ServiceConfig, ServiceHandle, VmService};
