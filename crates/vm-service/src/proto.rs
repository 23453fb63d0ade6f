//! The vm-service wire format: length-framed, checksummed binary frames
//! carrying typed requests and replies.
//!
//! # Frame layout
//!
//! Every message — request or reply, either direction — travels in one
//! frame:
//!
//! ```text
//! frame (16 B header + body) :=
//!   ┌──────────────┬──────────────┬───────────────────┬────────────┐
//!   │ magic "VMS1" │ body_len u32 │ checksum64 u64 LE │ body bytes │
//!   │ (4 B)        │ LE (4 B)     │ of body           │ (body_len) │
//!   └──────────────┴──────────────┴───────────────────┴────────────┘
//! body := request_id u32 LE | opcode u8 | payload
//! ```
//!
//! The checksum is [`vm_crypto::checksum64`] — the same 64-bit SHA-256
//! prefix the storage layer stamps on append-log records — so a torn or
//! corrupted frame is indistinguishable from "no frame here" and the
//! connection fails loudly instead of dispatching garbage. `request_id`
//! is chosen by the client and echoed verbatim in the reply; replies on
//! one connection arrive in request order (the server is serial per
//! session), so the id is a cross-check, not a reordering mechanism.
//!
//! # Opcodes
//!
//! | op | request | payload |
//! |---|---|---|
//! | `0x01` | `SUBMIT` | one VP record ([`vm_store::codec`] bytes) |
//! | `0x02` | *retired* | answered [`ErrorCode::UnknownOpcode`]; never reused |
//! | `0x03` | `INVESTIGATE` | `u64 minute`, `f64 x`, `f64 y`, `f64 radius_m` |
//! | `0x04` | `SOLICIT` | 16 B VP id |
//! | `0x05` | `UPLOAD_VIDEO` | 16 B VP id, `u32 n`, n × (`u32 len`, chunk) |
//! | `0x06` | `CLAIM_REWARD` | 16 B VP id, 8 B secret `Q_u` |
//! | `0x07` | `BLIND_SIGN` | 16 B VP id, 8 B secret, `u32 n`, n × (`u32 len`, big-endian value) |
//! | `0x08` | `REDEEM` | 32 B cash message, `u32 len`, big-endian signature |
//! | `0x09` | `PUBLIC_KEY` | empty |
//! | `0x0A` | `TOTAL_VPS` | empty |
//! | `0x0B` | `STATS` | empty |
//!
//! | op | reply | payload |
//! |---|---|---|
//! | `0x80` | `OK` | request-specific (see [`Reply`]) |
//! | `0x81` | `ERR` | `u16` [`ErrorCode`], `u32 len`, UTF-8 detail |
//!
//! VP records on the wire reuse the storage codec
//! ([`vm_store::codec::encode_record`] /
//! [`vm_store::codec::decode_record`]), which itself rides
//! [`viewmap_core::vd::ViewDigest::encode_store`]: the same bit-exact,
//! delta-compressed bytes the append log persists are what uploader
//! sessions send, so a VP costs ~1.5 KB on the wire instead of 5.3 KB
//! flat and the server has exactly one canonical VP codec to harden.
//!
//! There is deliberately **no** wire operation for trusted (authority)
//! VPs: those enter through the in-process authority channel
//! ([`viewmap_core::server::ViewMapServer::submit_trusted_batch`]), not
//! the anonymous public front-end — a network peer must never be able
//! to mint trust anchors. The record's own `trusted` byte does not
//! change that: the server commits every wire `SUBMIT` as anonymous and
//! clears the flag whatever the byte says.

use std::io::{BufRead, Write};
use viewmap_core::reward::Cash;
use viewmap_core::server::SubmitError;
use viewmap_core::solicit::{UploadError, VideoUpload};
use viewmap_core::types::{GeoPos, MinuteId, VpId};
use viewmap_core::viewmap::Site;
use viewmap_core::vp::StoredVp;
use vm_crypto::{BigUint, BlindedMessage, Digest16, Signature};

/// Frame magic: "VMS1".
pub const FRAME_MAGIC: [u8; 4] = *b"VMS1";

/// Bytes before the body: magic, body length, checksum.
pub const FRAME_HEADER_BYTES: usize = 16;

/// Body bytes before the payload: request id + opcode.
pub const BODY_PREFIX_BYTES: usize = 5;

/// Hard cap on one frame's body. Large enough for a long video upload
/// (`UPLOAD_VIDEO`) or a big blind-signing request (`BLIND_SIGN`), small
/// enough that a corrupted or hostile length field cannot make the peer
/// allocate gigabytes. A VP travels one per `SUBMIT` frame (~1.5 KB), so
/// ingest never comes near it.
pub const MAX_BODY_BYTES: usize = 64 << 20;

// ── request opcodes ────────────────────────────────────────────────────

/// Submit one anonymized VP.
pub const OP_SUBMIT: u8 = 0x01;
/// Build + verify the viewmap for a minute around a site.
pub const OP_INVESTIGATE: u8 = 0x03;
/// Post a solicitation for a VP id.
pub const OP_SOLICIT: u8 = 0x04;
/// Upload a solicited video.
pub const OP_UPLOAD_VIDEO: u8 = 0x05;
/// Prove ownership of a rewarded VP, learn the award amount.
pub const OP_CLAIM_REWARD: u8 = 0x06;
/// Have the server blind-sign cash messages for a rewarded VP.
pub const OP_BLIND_SIGN: u8 = 0x07;
/// Redeem one unit of cash.
pub const OP_REDEEM: u8 = 0x08;
/// Fetch the system public key (modulus + exponent).
pub const OP_PUBLIC_KEY: u8 = 0x09;
/// Total VPs stored (liveness / smoke probe).
pub const OP_TOTAL_VPS: u8 = 0x0A;
/// Fetch the node's telemetry snapshot as versioned text exposition
/// (`vm_obs` format: `name{label="v"} value` lines). Read-only — served
/// by followers too, so an operator can scrape a fenced node.
pub const OP_STATS: u8 = 0x0B;

// ── reply opcodes ──────────────────────────────────────────────────────

/// Success reply; payload depends on the request opcode.
pub const OP_OK: u8 = 0x80;
/// Typed error reply: `u16` code + UTF-8 detail.
pub const OP_ERR: u8 = 0x81;

/// Why a frame failed to parse. Any of these on a live connection means
/// the byte stream is corrupt or foreign; the peer closes it.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum FrameError {
    /// The first four bytes are not [`FRAME_MAGIC`].
    BadMagic,
    /// The declared body length exceeds [`MAX_BODY_BYTES`].
    TooLarge,
    /// The body checksum does not match — torn or corrupted frame.
    BadChecksum,
    /// The body is shorter than the request-id + opcode prefix.
    BadBody,
}

impl std::fmt::Display for FrameError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            FrameError::BadMagic => write!(f, "bad frame magic"),
            FrameError::TooLarge => write!(f, "frame body exceeds {MAX_BODY_BYTES} bytes"),
            FrameError::BadChecksum => write!(f, "frame checksum mismatch"),
            FrameError::BadBody => write!(f, "frame body shorter than its fixed prefix"),
        }
    }
}

impl std::error::Error for FrameError {}

/// One wire frame: an opcode-tagged payload stamped with the client's
/// request id.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Frame {
    /// Client-chosen id, echoed in the reply.
    pub request_id: u32,
    /// One of the `OP_*` constants.
    pub opcode: u8,
    /// Opcode-specific payload bytes.
    pub payload: Vec<u8>,
}

impl Frame {
    /// Append the encoded frame to `out`.
    pub fn encode(&self, out: &mut Vec<u8>) {
        encode_frame(self.request_id, self.opcode, &[&self.payload], out);
    }

    /// Try to decode one frame from the front of `buf`.
    ///
    /// Returns `Ok(None)` when `buf` holds only a strict prefix of a
    /// frame (more bytes needed), `Ok(Some((frame, consumed)))` on
    /// success, and `Err` when the bytes can never become a valid frame
    /// (bad magic, oversized length, checksum mismatch).
    pub fn decode(buf: &[u8]) -> Result<Option<(Frame, usize)>, FrameError> {
        let Some((body_len, declared)) = check_header(buf)? else {
            return Ok(None);
        };
        let Some(body) = buf.get(FRAME_HEADER_BYTES..FRAME_HEADER_BYTES + body_len) else {
            return Ok(None);
        };
        let (request_id, opcode) = check_body(body, declared)?;
        Ok(Some((
            Frame {
                request_id,
                opcode,
                payload: body[BODY_PREFIX_BYTES..].to_vec(),
            },
            FRAME_HEADER_BYTES + body_len,
        )))
    }

    /// Write the frame to `w` (buffered by the caller; not flushed).
    pub fn write_to(&self, w: &mut impl Write) -> std::io::Result<()> {
        let mut buf =
            Vec::with_capacity(FRAME_HEADER_BYTES + BODY_PREFIX_BYTES + self.payload.len());
        self.encode(&mut buf);
        w.write_all(&buf)
    }

    /// Read one frame from `r`. Returns `Ok(None)` on a clean EOF at a
    /// frame boundary; EOF mid-frame or an invalid frame is an
    /// `InvalidData` error (the connection is not recoverable).
    pub fn read_from(r: &mut impl BufRead) -> std::io::Result<Option<Frame>> {
        let mut header = [0u8; FRAME_HEADER_BYTES];
        let mut filled = 0usize;
        while filled < header.len() {
            let n = r.read(&mut header[filled..])?;
            if n == 0 {
                if filled == 0 {
                    return Ok(None);
                }
                return Err(invalid_data("connection closed mid-frame"));
            }
            filled += n;
        }
        let (body_len, declared) = check_header(&header)
            .map_err(invalid_data)?
            .expect("a whole header");
        let mut body = vec![0u8; body_len];
        r.read_exact(&mut body)?;
        let (request_id, opcode) = check_body(&body, declared).map_err(invalid_data)?;
        body.drain(..BODY_PREFIX_BYTES);
        Ok(Some(Frame {
            request_id,
            opcode,
            payload: body,
        }))
    }
}

/// Append one frame whose payload is `parts` back to back: the header,
/// the body prefix and the checksum are written in place around them,
/// so a payload assembled from several buffers is copied once, into
/// `out`. [`Frame::encode`] is this with a one-part payload.
pub fn encode_frame(request_id: u32, opcode: u8, parts: &[&[u8]], out: &mut Vec<u8>) {
    let body_len = BODY_PREFIX_BYTES + parts.iter().map(|p| p.len()).sum::<usize>();
    assert!(body_len <= MAX_BODY_BYTES, "frame body exceeds the cap");
    out.reserve(FRAME_HEADER_BYTES + body_len);
    out.extend_from_slice(&FRAME_MAGIC);
    out.extend_from_slice(&(body_len as u32).to_le_bytes());
    let sum_at = out.len();
    out.extend_from_slice(&[0u8; 8]);
    let body_at = out.len();
    out.extend_from_slice(&request_id.to_le_bytes());
    out.push(opcode);
    for part in parts {
        out.extend_from_slice(part);
    }
    let sum = vm_crypto::checksum64(&out[body_at..]);
    out[sum_at..sum_at + 8].copy_from_slice(&sum.to_le_bytes());
}

/// The header rules both parsers apply, to the first bytes of a frame:
/// the magic (refused as soon as its four bytes are in), then, once the
/// whole header is, the length cap and the minimum body. Returns the
/// declared body length and checksum, or `None` while the header is
/// incomplete.
fn check_header(prefix: &[u8]) -> Result<Option<(usize, u64)>, FrameError> {
    if prefix.len() >= 4 && prefix[..4] != FRAME_MAGIC {
        return Err(FrameError::BadMagic);
    }
    let Some(header) = prefix.get(..FRAME_HEADER_BYTES) else {
        return Ok(None);
    };
    let body_len = u32::from_le_bytes(header[4..8].try_into().expect("4 bytes")) as usize;
    if body_len > MAX_BODY_BYTES {
        return Err(FrameError::TooLarge);
    }
    if body_len < BODY_PREFIX_BYTES {
        return Err(FrameError::BadBody);
    }
    let declared = u64::from_le_bytes(header[8..16].try_into().expect("8 bytes"));
    Ok(Some((body_len, declared)))
}

/// The body rule both parsers apply: the checksum the header declared.
/// Returns the body's request id and opcode; the payload is the rest.
fn check_body(body: &[u8], declared: u64) -> Result<(u32, u8), FrameError> {
    if vm_crypto::checksum64(body) != declared {
        return Err(FrameError::BadChecksum);
    }
    let request_id = u32::from_le_bytes(body[..4].try_into().expect("4 bytes"));
    Ok((request_id, body[4]))
}

fn invalid_data(e: impl std::fmt::Display) -> std::io::Error {
    std::io::Error::new(std::io::ErrorKind::InvalidData, e.to_string())
}

// ── typed error codes ──────────────────────────────────────────────────

/// Every error the service can return, as a stable wire code.
///
/// Codes are grouped by the server-side error they surface; the gaps
/// between groups leave room for new variants without renumbering.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
#[repr(u16)]
pub enum ErrorCode {
    /// [`SubmitError::Duplicate`].
    Duplicate = 1,
    /// [`SubmitError::MalformedVds`].
    MalformedVds = 2,
    /// [`SubmitError::SuspiciousBloom`].
    SuspiciousBloom = 3,
    /// [`UploadError::NotSolicited`].
    NotSolicited = 10,
    /// [`UploadError::UnknownVp`].
    UnknownVp = 11,
    /// [`UploadError::Chain`] — cascaded-hash validation failed.
    ChainInvalid = 12,
    /// [`viewmap_core::server::RewardError::NotOnBoard`].
    NotOnBoard = 20,
    /// [`viewmap_core::server::RewardError::BadOwnershipProof`].
    BadOwnershipProof = 21,
    /// [`viewmap_core::server::RewardError::BlindedOutOfRange`].
    BlindedOutOfRange = 22,
    /// [`viewmap_core::server::RewardError::SigningFault`].
    SigningFault = 23,
    /// [`viewmap_core::server::RedeemError::BadSignature`].
    BadSignature = 30,
    /// [`viewmap_core::server::RedeemError::DoubleSpend`].
    DoubleSpend = 31,
    /// The frame was valid but its payload did not parse for its opcode.
    BadRequest = 40,
    /// The opcode is not one this server understands.
    UnknownOpcode = 41,
    /// This node is a replication follower: it serves reads but rejects
    /// every mutating opcode. The detail string carries the node's
    /// current epoch; clients should redial the primary (or wait for
    /// this node's promotion).
    NotPrimary = 50,
}

impl ErrorCode {
    /// Decode a wire code.
    pub fn from_u16(v: u16) -> Option<ErrorCode> {
        use ErrorCode::*;
        Some(match v {
            1 => Duplicate,
            2 => MalformedVds,
            3 => SuspiciousBloom,
            10 => NotSolicited,
            11 => UnknownVp,
            12 => ChainInvalid,
            20 => NotOnBoard,
            21 => BadOwnershipProof,
            22 => BlindedOutOfRange,
            23 => SigningFault,
            30 => BadSignature,
            31 => DoubleSpend,
            40 => BadRequest,
            41 => UnknownOpcode,
            50 => NotPrimary,
            _ => return None,
        })
    }
}

impl std::fmt::Display for ErrorCode {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "{self:?}")
    }
}

impl From<SubmitError> for ErrorCode {
    fn from(e: SubmitError) -> Self {
        match e {
            SubmitError::Duplicate => ErrorCode::Duplicate,
            SubmitError::MalformedVds => ErrorCode::MalformedVds,
            SubmitError::SuspiciousBloom => ErrorCode::SuspiciousBloom,
        }
    }
}

impl From<&UploadError> for ErrorCode {
    fn from(e: &UploadError) -> Self {
        match e {
            UploadError::NotSolicited => ErrorCode::NotSolicited,
            UploadError::UnknownVp => ErrorCode::UnknownVp,
            UploadError::Chain(_) => ErrorCode::ChainInvalid,
        }
    }
}

// ── requests ───────────────────────────────────────────────────────────

/// A decoded request.
#[derive(Clone, Debug)]
pub enum Request {
    /// Submit one anonymized VP.
    Submit(StoredVp),
    /// Investigate a minute around a site.
    Investigate {
        /// The minute under investigation.
        minute: MinuteId,
        /// The incident site.
        site: Site,
    },
    /// Post a solicitation.
    Solicit(VpId),
    /// Upload a solicited video.
    UploadVideo(VideoUpload),
    /// Prove ownership of a rewarded VP.
    ClaimReward {
        /// The rewarded VP.
        vp_id: VpId,
        /// The owner secret `Q_u`.
        secret: [u8; 8],
    },
    /// Blind-sign cash messages for a rewarded VP (consumes the board
    /// entry).
    BlindSign {
        /// The rewarded VP.
        vp_id: VpId,
        /// The owner secret `Q_u`.
        secret: [u8; 8],
        /// The blinded cash messages.
        blinded: Vec<BlindedMessage>,
    },
    /// Redeem one unit of cash.
    Redeem(Cash),
    /// Fetch the system public key.
    PublicKey,
    /// Total stored VPs.
    TotalVps,
    /// Fetch the telemetry snapshot (text exposition).
    Stats,
}

impl Request {
    /// The wire opcode for this request.
    pub fn opcode(&self) -> u8 {
        match self {
            Request::Submit(_) => OP_SUBMIT,
            Request::Investigate { .. } => OP_INVESTIGATE,
            Request::Solicit(_) => OP_SOLICIT,
            Request::UploadVideo(_) => OP_UPLOAD_VIDEO,
            Request::ClaimReward { .. } => OP_CLAIM_REWARD,
            Request::BlindSign { .. } => OP_BLIND_SIGN,
            Request::Redeem(_) => OP_REDEEM,
            Request::PublicKey => OP_PUBLIC_KEY,
            Request::TotalVps => OP_TOTAL_VPS,
            Request::Stats => OP_STATS,
        }
    }

    /// Encode the payload for this request.
    pub fn encode_payload(&self) -> Vec<u8> {
        let mut out = Vec::new();
        match self {
            Request::Submit(vp) => vm_store::codec::encode_record(vp, &mut out),
            Request::Investigate { minute, site } => {
                out.extend_from_slice(&minute.0.to_le_bytes());
                out.extend_from_slice(&site.center.x.to_le_bytes());
                out.extend_from_slice(&site.center.y.to_le_bytes());
                out.extend_from_slice(&site.radius_m.to_le_bytes());
            }
            Request::Solicit(id) => out.extend_from_slice(id.0.as_bytes()),
            Request::UploadVideo(u) => {
                out.extend_from_slice(u.vp_id.0.as_bytes());
                put_u32(&mut out, u.chunks.len() as u32);
                for c in &u.chunks {
                    put_u32(&mut out, c.len() as u32);
                    out.extend_from_slice(c);
                }
            }
            Request::ClaimReward { vp_id, secret } => {
                out.extend_from_slice(vp_id.0.as_bytes());
                out.extend_from_slice(secret);
            }
            Request::BlindSign {
                vp_id,
                secret,
                blinded,
            } => {
                out.extend_from_slice(vp_id.0.as_bytes());
                out.extend_from_slice(secret);
                put_u32(&mut out, blinded.len() as u32);
                for b in blinded {
                    put_bytes(&mut out, &b.0.to_bytes_be());
                }
            }
            Request::Redeem(cash) => {
                out.extend_from_slice(&cash.message);
                put_bytes(&mut out, &cash.signature.0.to_bytes_be());
            }
            Request::PublicKey | Request::TotalVps | Request::Stats => {}
        }
        out
    }

    /// Decode a request payload for `opcode`. `Err` carries the typed
    /// code the server replies with ([`ErrorCode::BadRequest`] /
    /// [`ErrorCode::UnknownOpcode`]).
    pub fn decode(opcode: u8, payload: &[u8]) -> Result<Request, ErrorCode> {
        let mut buf = payload;
        let req = match opcode {
            OP_SUBMIT => Request::Submit(decode_vp(payload)?),
            OP_INVESTIGATE => {
                let minute = MinuteId(get_u64(&mut buf)?);
                let x = get_f64(&mut buf)?;
                let y = get_f64(&mut buf)?;
                let radius_m = get_f64(&mut buf)?;
                expect_empty(buf)?;
                Request::Investigate {
                    minute,
                    site: Site {
                        center: GeoPos::new(x, y),
                        radius_m,
                    },
                }
            }
            OP_SOLICIT => {
                let id = get_vp_id(&mut buf)?;
                expect_empty(buf)?;
                Request::Solicit(id)
            }
            OP_UPLOAD_VIDEO => {
                let vp_id = get_vp_id(&mut buf)?;
                let n = get_u32(&mut buf)? as usize;
                let mut chunks = Vec::with_capacity(n.min(4096));
                for _ in 0..n {
                    let len = get_u32(&mut buf)? as usize;
                    chunks.push(take(&mut buf, len)?.to_vec());
                }
                expect_empty(buf)?;
                Request::UploadVideo(VideoUpload { vp_id, chunks })
            }
            OP_CLAIM_REWARD => {
                let vp_id = get_vp_id(&mut buf)?;
                let secret = get_secret(&mut buf)?;
                expect_empty(buf)?;
                Request::ClaimReward { vp_id, secret }
            }
            OP_BLIND_SIGN => {
                let vp_id = get_vp_id(&mut buf)?;
                let secret = get_secret(&mut buf)?;
                let n = get_u32(&mut buf)? as usize;
                let mut blinded = Vec::with_capacity(n.min(4096));
                for _ in 0..n {
                    blinded.push(BlindedMessage(get_biguint(&mut buf)?));
                }
                expect_empty(buf)?;
                Request::BlindSign {
                    vp_id,
                    secret,
                    blinded,
                }
            }
            OP_REDEEM => {
                let mut message = [0u8; 32];
                message.copy_from_slice(take(&mut buf, 32)?);
                let signature = Signature(get_biguint(&mut buf)?);
                expect_empty(buf)?;
                Request::Redeem(Cash { message, signature })
            }
            OP_PUBLIC_KEY => {
                expect_empty(buf)?;
                Request::PublicKey
            }
            OP_TOTAL_VPS => {
                expect_empty(buf)?;
                Request::TotalVps
            }
            OP_STATS => {
                expect_empty(buf)?;
                Request::Stats
            }
            _ => return Err(ErrorCode::UnknownOpcode),
        };
        Ok(req)
    }
}

// ── replies ────────────────────────────────────────────────────────────

/// A decoded reply. `OK` payloads are request-specific; the client
/// decodes against the opcode it sent.
#[derive(Clone, Debug, PartialEq)]
pub enum Reply {
    /// Success with no payload (submit / solicit / upload / redeem).
    Ok,
    /// Verified VP ids from an investigation.
    VpIds(Vec<VpId>),
    /// Award amount from a reward claim.
    Units(u64),
    /// Blind signatures.
    Signatures(Vec<Signature>),
    /// System public key as big-endian modulus + exponent bytes.
    PublicKey {
        /// RSA modulus `n`, big-endian.
        n: Vec<u8>,
        /// Public exponent `e`, big-endian.
        e: Vec<u8>,
    },
    /// A counter (total VPs).
    Count(u64),
    /// The telemetry snapshot's text exposition.
    Stats(String),
    /// Typed failure.
    Err(ErrorCode, String),
}

impl Reply {
    /// The wire opcode for this reply.
    pub fn opcode(&self) -> u8 {
        match self {
            Reply::Err(..) => OP_ERR,
            _ => OP_OK,
        }
    }

    /// Encode the payload for this reply.
    pub fn encode_payload(&self) -> Vec<u8> {
        let mut out = Vec::new();
        match self {
            Reply::Ok => {}
            Reply::VpIds(ids) => {
                put_u32(&mut out, ids.len() as u32);
                for id in ids {
                    out.extend_from_slice(id.0.as_bytes());
                }
            }
            Reply::Units(u) => out.extend_from_slice(&u.to_le_bytes()),
            Reply::Signatures(sigs) => {
                put_u32(&mut out, sigs.len() as u32);
                for s in sigs {
                    put_bytes(&mut out, &s.0.to_bytes_be());
                }
            }
            Reply::PublicKey { n, e } => {
                put_bytes(&mut out, n);
                put_bytes(&mut out, e);
            }
            Reply::Count(c) => out.extend_from_slice(&c.to_le_bytes()),
            Reply::Stats(text) => put_bytes(&mut out, text.as_bytes()),
            Reply::Err(code, detail) => {
                out.extend_from_slice(&(*code as u16).to_le_bytes());
                put_bytes(&mut out, detail.as_bytes());
            }
        }
        out
    }

    /// Decode a reply to a request that was sent with `request_opcode`.
    pub fn decode(request_opcode: u8, reply_opcode: u8, payload: &[u8]) -> Option<Reply> {
        let mut buf = payload;
        if reply_opcode == OP_ERR {
            let code = ErrorCode::from_u16(u16::from_le_bytes(
                take(&mut buf, 2).ok()?.try_into().expect("2 bytes"),
            ))?;
            let detail = String::from_utf8(get_bytes(&mut buf).ok()?).ok()?;
            expect_empty(buf).ok()?;
            return Some(Reply::Err(code, detail));
        }
        if reply_opcode != OP_OK {
            return None;
        }
        let reply = match request_opcode {
            OP_SUBMIT | OP_SOLICIT | OP_UPLOAD_VIDEO | OP_REDEEM => Reply::Ok,
            OP_INVESTIGATE => {
                let n = get_u32(&mut buf).ok()? as usize;
                let mut ids = Vec::with_capacity(n.min(65536));
                for _ in 0..n {
                    ids.push(get_vp_id(&mut buf).ok()?);
                }
                Reply::VpIds(ids)
            }
            OP_CLAIM_REWARD => Reply::Units(get_u64(&mut buf).ok()?),
            OP_BLIND_SIGN => {
                let n = get_u32(&mut buf).ok()? as usize;
                let mut sigs = Vec::with_capacity(n.min(4096));
                for _ in 0..n {
                    sigs.push(Signature(get_biguint(&mut buf).ok()?));
                }
                Reply::Signatures(sigs)
            }
            OP_PUBLIC_KEY => {
                let n = get_bytes(&mut buf).ok()?;
                let e = get_bytes(&mut buf).ok()?;
                Reply::PublicKey { n, e }
            }
            OP_TOTAL_VPS => Reply::Count(get_u64(&mut buf).ok()?),
            OP_STATS => Reply::Stats(String::from_utf8(get_bytes(&mut buf).ok()?).ok()?),
            _ => return None,
        };
        expect_empty(buf).ok()?;
        Some(reply)
    }
}

// ── payload primitives ─────────────────────────────────────────────────

fn put_u32(out: &mut Vec<u8>, v: u32) {
    out.extend_from_slice(&v.to_le_bytes());
}

/// Length-prefixed byte string.
fn put_bytes(out: &mut Vec<u8>, bytes: &[u8]) {
    put_u32(out, bytes.len() as u32);
    out.extend_from_slice(bytes);
}

fn take<'a>(buf: &mut &'a [u8], n: usize) -> Result<&'a [u8], ErrorCode> {
    if buf.len() < n {
        return Err(ErrorCode::BadRequest);
    }
    let (head, rest) = buf.split_at(n);
    *buf = rest;
    Ok(head)
}

fn get_u32(buf: &mut &[u8]) -> Result<u32, ErrorCode> {
    Ok(u32::from_le_bytes(take(buf, 4)?.try_into().expect("4")))
}

fn get_u64(buf: &mut &[u8]) -> Result<u64, ErrorCode> {
    Ok(u64::from_le_bytes(take(buf, 8)?.try_into().expect("8")))
}

fn get_f64(buf: &mut &[u8]) -> Result<f64, ErrorCode> {
    Ok(f64::from_le_bytes(take(buf, 8)?.try_into().expect("8")))
}

fn get_bytes(buf: &mut &[u8]) -> Result<Vec<u8>, ErrorCode> {
    let len = get_u32(buf)? as usize;
    Ok(take(buf, len)?.to_vec())
}

fn get_vp_id(buf: &mut &[u8]) -> Result<VpId, ErrorCode> {
    let mut b = [0u8; 16];
    b.copy_from_slice(take(buf, 16)?);
    Ok(VpId(Digest16(b)))
}

fn get_secret(buf: &mut &[u8]) -> Result<[u8; 8], ErrorCode> {
    let mut s = [0u8; 8];
    s.copy_from_slice(take(buf, 8)?);
    Ok(s)
}

fn get_biguint(buf: &mut &[u8]) -> Result<BigUint, ErrorCode> {
    Ok(BigUint::from_bytes_be(&get_bytes(buf)?))
}

fn decode_vp(bytes: &[u8]) -> Result<StoredVp, ErrorCode> {
    vm_store::codec::decode_record(bytes).map_err(|_| ErrorCode::BadRequest)
}

fn expect_empty(buf: &[u8]) -> Result<(), ErrorCode> {
    if buf.is_empty() {
        Ok(())
    } else {
        Err(ErrorCode::BadRequest)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn frame(request_id: u32, opcode: u8, payload: &[u8]) -> Vec<u8> {
        let mut out = Vec::new();
        Frame {
            request_id,
            opcode,
            payload: payload.to_vec(),
        }
        .encode(&mut out);
        out
    }

    #[test]
    fn frame_roundtrips_through_slice_and_reader() {
        let bytes = frame(7, OP_INVESTIGATE, b"payload bytes");
        let (f, consumed) = Frame::decode(&bytes).unwrap().unwrap();
        assert_eq!(consumed, bytes.len());
        assert_eq!((f.request_id, f.opcode), (7, OP_INVESTIGATE));
        assert_eq!(f.payload, b"payload bytes");

        let mut reader = std::io::BufReader::new(&bytes[..]);
        let g = Frame::read_from(&mut reader).unwrap().unwrap();
        assert_eq!(f, g);
        assert!(
            Frame::read_from(&mut reader).unwrap().is_none(),
            "clean EOF"
        );
    }

    #[test]
    fn bad_magic_and_oversize_and_short_body_rejected() {
        let mut bytes = frame(1, OP_SUBMIT, b"x");
        bytes[0] ^= 0xff;
        assert_eq!(Frame::decode(&bytes), Err(FrameError::BadMagic));

        let mut oversize = frame(1, OP_SUBMIT, b"x");
        oversize[4..8].copy_from_slice(&(MAX_BODY_BYTES as u32 + 1).to_le_bytes());
        assert_eq!(Frame::decode(&oversize), Err(FrameError::TooLarge));

        let mut short = frame(1, OP_SUBMIT, b"");
        short[4..8].copy_from_slice(&2u32.to_le_bytes());
        assert_eq!(Frame::decode(&short), Err(FrameError::BadBody));
    }

    #[test]
    fn error_codes_roundtrip() {
        for code in [
            ErrorCode::Duplicate,
            ErrorCode::MalformedVds,
            ErrorCode::SuspiciousBloom,
            ErrorCode::NotSolicited,
            ErrorCode::UnknownVp,
            ErrorCode::ChainInvalid,
            ErrorCode::NotOnBoard,
            ErrorCode::BadOwnershipProof,
            ErrorCode::BlindedOutOfRange,
            ErrorCode::SigningFault,
            ErrorCode::BadSignature,
            ErrorCode::DoubleSpend,
            ErrorCode::BadRequest,
            ErrorCode::UnknownOpcode,
            ErrorCode::NotPrimary,
        ] {
            assert_eq!(ErrorCode::from_u16(code as u16), Some(code));
        }
        assert_eq!(ErrorCode::from_u16(999), None);
    }

    #[test]
    fn err_reply_roundtrips() {
        let r = Reply::Err(ErrorCode::Duplicate, "already stored".into());
        let back = Reply::decode(OP_SUBMIT, r.opcode(), &r.encode_payload()).unwrap();
        assert_eq!(back, r);
    }

    #[test]
    fn unknown_opcode_is_typed() {
        assert!(matches!(
            Request::decode(0x7f, &[]),
            Err(ErrorCode::UnknownOpcode)
        ));
    }
}
