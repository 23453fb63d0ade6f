//! The pinned surface: every symbol of the repository the benchmark calls
//! that is not part of the wire client (`vm_service::{VmClient, VmService,
//! ServiceConfig, RoleCell}` and the reply types they return) is named in
//! this file and nowhere else. A later change that renames or merges one of
//! these entry points edits this file only — and is preceded by a
//! `benchmark` issue, because it changes what the ladder rungs mean.
//!
//! Deliberately absent: `investigate_maintained`, `build_viewmap_maintained`,
//! `Viewmap::build_profiled` and the other variants ROADMAP item 1 plans to
//! collapse. Maintained-graph numbers are read from the cell's STATS text, so
//! they light up by themselves once the wire path uses that graph.

use rand::rngs::StdRng;
use rand::SeedableRng;
use std::net::SocketAddr;
use std::path::Path;
use std::sync::Arc;
use viewmap_core::reward::{PendingCash, Wallet};
use viewmap_core::server::ViewMapServer;
use viewmap_core::upload::AnonymousSubmission;
use viewmap_core::viewmap::{Viewmap, ViewmapConfig};
use vm_crypto::{BlindedMessage, RsaKeyPair, RsaPublicKey, Signature};
use vm_repl::{Follower, FollowerConfig, Primary, ReplicationConfig};
use vm_service::proto::{Frame, Request};
use vm_service::RoleCell;
use vm_store::{Fsync, PersistentServer, StoreConfig};

pub use viewmap_core::bloom::BloomFilter;
pub use viewmap_core::reward::Cash;
pub use viewmap_core::types::{GeoPos, MinuteId, VpId};
pub use viewmap_core::vd::ViewDigest;
pub use viewmap_core::viewmap::Site;
pub use viewmap_core::vp::StoredVp;
pub use vm_crypto::Digest16;

/// The durability policy of every cell the benchmark opens: the OS page
/// cache, no fsync. The numbers are the CPU cost of the durable path.
const STORE: StoreConfig = StoreConfig {
    fsync: Fsync::Never,
};

fn anonymous(vps: Vec<StoredVp>) -> impl Iterator<Item = AnonymousSubmission> {
    vps.into_iter()
        .map(|vp| AnonymousSubmission { session_id: 0, vp })
}

fn accepted<E>(results: Vec<Result<(), E>>) -> usize {
    results.iter().filter(|r| r.is_ok()).count()
}

/// The cell's signing key.
#[derive(Clone)]
pub struct Key(RsaKeyPair);

impl Key {
    /// A key of `bits` bits from `seed`.
    pub fn generate(seed: u64, bits: usize) -> Key {
        Key(RsaKeyPair::generate(&mut StdRng::seed_from_u64(seed), bits))
    }

    /// Two closures over a full-domain hash of `msg`: one raw RSA signature,
    /// and one verification of such a signature.
    pub fn signer_and_verifier(
        &self,
        msg: &[u8],
    ) -> (impl Fn() -> bool + '_, impl Fn() -> bool + '_) {
        let hashed = self.0.public().fdh(msg);
        let sig = self.0.sign_raw(&hashed).expect("hash is in range");
        let to_sign = hashed.clone();
        (
            move || self.0.sign_raw(&to_sign).is_ok(),
            move || self.0.public().verify_hashed(&sig, &hashed),
        )
    }
}

/// One `ViewMapServer`, shared with whatever front-end serves it.
#[derive(Clone)]
pub struct Server(Arc<ViewMapServer>);

impl Server {
    /// An in-memory server (no log).
    pub fn in_memory(key: &Key) -> Server {
        Server(Arc::new(ViewMapServer::with_key(
            key.0.clone(),
            ViewmapConfig::default(),
        )))
    }

    /// A server on a `vm-store` log in `dir`, under the operator's key.
    pub fn open_durable(key: &Key, dir: &Path) -> std::io::Result<Server> {
        let (srv, _) =
            ViewMapServer::open_with_key(key.0.clone(), ViewmapConfig::default(), dir, STORE)?;
        Ok(Server(Arc::new(srv)))
    }

    /// Cold re-open of the log in `dir` under the key file beside it; also
    /// returns the records recovered.
    pub fn reopen_durable(dir: &Path) -> std::io::Result<(Server, usize)> {
        // The key file exists, so neither the generator nor the size is used.
        let mut unused = StdRng::seed_from_u64(0);
        let (srv, report) =
            ViewMapServer::open(&mut unused, 512, ViewmapConfig::default(), dir, STORE)?;
        Ok((Server(Arc::new(srv)), report.records))
    }

    /// The handle a `VmService` front-end serves.
    pub fn shared(&self) -> Arc<ViewMapServer> {
        Arc::clone(&self.0)
    }

    /// `submit`, one VP; was it stored?
    pub fn submit(&self, vp: StoredVp) -> bool {
        self.0
            .submit(AnonymousSubmission { session_id: 0, vp })
            .is_ok()
    }

    /// `submit_batch` (no key warm); VPs stored.
    pub fn submit_batch(&self, vps: Vec<StoredVp>) -> usize {
        accepted(self.0.submit_batch(anonymous(vps)))
    }

    /// `submit_batch_warm`; VPs stored.
    pub fn submit_batch_warm(&self, vps: Vec<StoredVp>) -> usize {
        accepted(self.0.submit_batch_warm(anonymous(vps)))
    }

    /// `submit_trusted_batch`, the authority channel; VPs stored.
    pub fn submit_trusted_batch(&self, vps: Vec<StoredVp>) -> usize {
        accepted(self.0.submit_trusted_batch(vps))
    }

    /// `build_viewmap` for a site of one minute.
    pub fn build_viewmap(&self, minute: MinuteId, site: Site) -> Graph {
        Graph(self.0.build_viewmap(minute, site))
    }

    /// `investigate`: build, verify, post; the ids posted.
    pub fn investigate(&self, minute: MinuteId, site: Site) -> Vec<VpId> {
        self.0.investigate(minute, site)
    }

    /// `post_reward`: the review outcome that makes a VP claimable.
    pub fn post_reward(&self, id: VpId, units: usize) {
        self.0.post_reward(id, units);
    }

    /// `state_digest` of everything stored.
    pub fn state_digest(&self) -> u64 {
        self.0.state_digest()
    }

    /// `total_vps` stored.
    pub fn total_vps(&self) -> usize {
        self.0.total_vps()
    }
}

/// A built viewmap.
pub struct Graph(Viewmap);

impl Graph {
    /// `Viewmap::len`.
    pub fn members(&self) -> usize {
        self.0.len()
    }

    /// `Viewmap::edge_count`.
    pub fn edges(&self) -> usize {
        self.0.edge_count()
    }

    /// `Viewmap::verify_counted`: the ids marked and the TrustRank
    /// iterations.
    pub fn verify(&self, site: &Site) -> (Vec<VpId>, usize) {
        let (_, ids, iterations) = self.0.verify_counted(site, &ViewmapConfig::default());
        (ids, iterations)
    }
}

/// A `vm-repl` primary: a durable server whose log ships to followers.
pub struct PrimaryCell(Primary);

impl PrimaryCell {
    /// `Primary::open` on `dir` with default (asynchronous) shipping; also
    /// returns the records recovered.
    pub fn open(dir: &Path, key: &Key) -> std::io::Result<(PrimaryCell, usize)> {
        let (primary, report) = Primary::open(
            dir,
            key.0.clone(),
            ViewmapConfig::default(),
            STORE,
            ReplicationConfig::default(),
            "127.0.0.1:0",
        )?;
        Ok((PrimaryCell(primary), report.records))
    }

    /// The serving server.
    pub fn server(&self) -> Server {
        Server(Arc::clone(self.0.server()))
    }

    /// Where followers dial.
    pub fn repl_addr(&self) -> SocketAddr {
        self.0.repl_addr()
    }

    /// `ReplHub::follower_count`.
    pub fn follower_count(&self) -> usize {
        self.0.hub().follower_count()
    }

    /// `ReplHub::watermark`: the op every live follower has acked.
    pub fn watermark(&self) -> u64 {
        self.0.hub().watermark()
    }

    /// `ReplHub::shipped_ops`.
    pub fn shipped_ops(&self) -> u64 {
        self.0.hub().shipped_ops()
    }
}

/// A `vm-repl` follower: a durable replica applying its primary's stream.
pub struct FollowerCell(Follower);

impl FollowerCell {
    /// `Follower::open` on `dir`, dialing `primary`.
    pub fn open(dir: &Path, key: &Key, primary: SocketAddr) -> std::io::Result<FollowerCell> {
        let (follower, _) = Follower::open(
            dir,
            key.0.clone(),
            ViewmapConfig::default(),
            STORE,
            primary,
            FollowerConfig::default(),
        )?;
        Ok(FollowerCell(follower))
    }

    /// The replica server.
    pub fn server(&self) -> Server {
        Server(Arc::clone(self.0.server()))
    }

    /// The role cell a `spawn_with_role` front-end is fenced by.
    pub fn role(&self) -> Arc<RoleCell> {
        Arc::clone(self.0.role())
    }

    /// `Follower::promote`: stop replicating, start serving.
    pub fn promote(self) -> std::io::Result<Server> {
        let (server, _epoch) = self.0.promote()?;
        Ok(Server(server))
    }
}

/// The codec rung of the ladder: what one SUBMIT costs to put on and take off
/// the wire, with no socket in between.
pub mod codec {
    use super::{Frame, Request, StoredVp};

    /// Append the SUBMIT frame of `vp` to `out`.
    pub fn encode_submit(vp: &StoredVp, request_id: u32, out: &mut Vec<u8>) {
        let req = Request::Submit(vp.clone());
        Frame {
            request_id,
            opcode: req.opcode(),
            payload: req.encode_payload(),
        }
        .encode(out);
    }

    /// Decode the SUBMIT frame at the front of `buf`; the VP and the bytes
    /// consumed.
    pub fn decode_submit(buf: &[u8]) -> Option<(StoredVp, usize)> {
        let (frame, used) = Frame::decode(buf).ok()??;
        match Request::decode(frame.opcode, &frame.payload).ok()? {
            Request::Submit(vp) => Some((vp, used)),
            _ => None,
        }
    }
}

/// `Digest16::hash_many`, the multi-buffer SHA-256 the key warm rides.
pub fn hash_many(msgs: &[&[u8]]) -> Vec<Digest16> {
    Digest16::hash_many(msgs)
}

/// The owner's side of the reward protocol (`core::reward::Wallet`).
#[derive(Default)]
pub struct Purse(Wallet);

/// Blinded messages waiting for the signer.
pub struct Pending(Vec<PendingCash>);

impl Purse {
    /// `Wallet::prepare`: `n` random messages, blinded for `pk`.
    pub fn prepare(
        &self,
        rng: &mut StdRng,
        pk: &RsaPublicKey,
        n: usize,
    ) -> (Pending, Vec<BlindedMessage>) {
        let (pending, blinded) = self.0.prepare(rng, pk, n);
        (Pending(pending), blinded)
    }

    /// `Wallet::accept_signed`: unblind and verify; the cash minted.
    pub fn accept(
        &mut self,
        pk: &RsaPublicKey,
        pending: Pending,
        signed: &[Signature],
    ) -> Vec<Cash> {
        let before = self.0.cash.len();
        self.0.accept_signed(pk, pending.0, signed);
        self.0.cash.split_off(before)
    }
}
