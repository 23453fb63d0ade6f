//! The replication wire protocol: typed messages over the service's
//! frame codec, carrying the store's segment frames verbatim.
//!
//! Replication adds **no third codec**. The outer envelope is the
//! vm-service frame ([`vm_service::proto::Frame`]: magic `VMS1`,
//! length, checksum64, `request_id | opcode | payload`) with
//! replication opcodes in the `0x20` range and `request_id` pinned to
//! 0 — a replication link is a dedicated connection, not a pipelined
//! session, so there is nothing to correlate. A [`ReplMsg::Frames`]
//! payload carries one run of raw **segment frames** back to back — the
//! exact bytes [`vm_store`] wrote to disk (`VMR1` header +
//! delta-compressed body each, self-delimiting by the header's length)
//! — so the follower checks shipped records with the one rule recovery
//! applies to its own log ([`vm_store::scan`]), and the runs shipped
//! for a minute concatenate to the primary's segment bytes.
//!
//! # Messages
//!
//! | op | message | direction | payload |
//! |---|---|---|---|
//! | `0x20` | `HELLO` | follower → primary | `epoch u64`, `n u32`, n × (`minute u64`, `records u64`) |
//! | `0x21` | `FRAMES` | primary → follower | `op u64`, `minute u64`, segment frames back to back (the rest of the payload) |
//! | `0x22` | `EVICT` | primary → follower | `op u64`, `cutoff u64` |
//! | `0x23` | `ACK` | follower → primary | `op u64` |
//! | `0x24` | `HELLO_OK` | primary → follower | `epoch u64` |
//!
//! `HELLO` carries the follower's **per-minute cursors** — how many
//! committed records its own log already holds for each minute — which
//! is all the primary needs to stream exactly the missing tail of each
//! segment ([`vm_store::tail_frames`]). Cursors make catch-up robust
//! to retention: an evicted minute simply has no segment left to tail.
//! Overlap (a cursor behind what was actually shipped) is safe because
//! the follower applies through the server's replay path, whose dedup
//! rejects records it already holds *before* they reach its log.
//!
//! # One encoder
//!
//! Every message is encoded by one function, the service's envelope
//! writer ([`vm_service::proto::encode_frame`]), which takes the payload
//! as slices and writes the header, body prefix and checksum in place
//! around them. The primary's outbox calls it through `encode_op` with
//! the store's own segment bytes, so a shipped run is copied once, into
//! the outbox; [`ReplMsg::encode`] and [`ReplMsg::write_to`] (the
//! handshake and `ACK`s) are the same call.
//!
//! `op` numbers are assigned by the primary, monotonically per hub
//! lifetime, one per shipped message; `ACK` echoes the highest op the
//! follower has fully applied (scanned, replayed, logged). The
//! primary's commit watermark is the smallest acked op across live
//! followers.

use std::io::{BufRead, Write};
use vm_service::proto::{encode_frame, Frame, BODY_PREFIX_BYTES, FRAME_HEADER_BYTES};

/// Follower → primary: identify, prove epoch, describe what's held.
pub const OP_REPL_HELLO: u8 = 0x20;
/// Primary → follower: one op's run of raw segment frames.
pub const OP_REPL_FRAMES: u8 = 0x21;
/// Primary → follower: a retention sweep to mirror.
pub const OP_REPL_EVICT: u8 = 0x22;
/// Follower → primary: highest fully-applied op.
pub const OP_REPL_ACK: u8 = 0x23;
/// Primary → follower: stream accepted; primary's epoch.
pub const OP_REPL_HELLO_OK: u8 = 0x24;

/// One typed replication message.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum ReplMsg {
    /// Follower's epoch plus per-minute `(minute, committed records)`
    /// cursors for catch-up positioning.
    Hello {
        /// The follower's current epoch.
        epoch: u64,
        /// `(minute, committed record count)` for every minute the
        /// follower's own log holds.
        cursors: Vec<(u64, u64)>,
    },
    /// Primary accepts the stream.
    HelloOk {
        /// The primary's epoch (must be ≥ the follower's).
        epoch: u64,
    },
    /// Raw segment frames for one minute, in bucket order.
    Frames {
        /// This message's op number.
        op: u64,
        /// The minute every carried frame belongs to.
        minute: u64,
        /// Segment frames (`VMR1` header + body) back to back, disk
        /// bytes verbatim.
        frames: Vec<u8>,
    },
    /// Mirror `evict_minutes_before(cutoff)`.
    Evict {
        /// This message's op number.
        op: u64,
        /// Exclusive minute cutoff.
        cutoff: u64,
    },
    /// Highest op the follower has fully applied.
    Ack {
        /// The op number.
        op: u64,
    },
}

/// A replication message that failed to parse. The connection is not
/// recoverable; the receiver drops it and (for a follower) resyncs.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct WireError(pub String);

impl std::fmt::Display for WireError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "replication wire error: {}", self.0)
    }
}

impl std::error::Error for WireError {}

fn err(msg: impl Into<String>) -> WireError {
    WireError(msg.into())
}

fn take_u32(buf: &[u8], at: &mut usize) -> Result<u32, WireError> {
    let bytes = buf
        .get(*at..*at + 4)
        .ok_or_else(|| err("truncated u32"))?
        .try_into()
        .expect("4 bytes");
    *at += 4;
    Ok(u32::from_le_bytes(bytes))
}

fn take_u64(buf: &[u8], at: &mut usize) -> Result<u64, WireError> {
    let bytes = buf
        .get(*at..*at + 8)
        .ok_or_else(|| err("truncated u64"))?
        .try_into()
        .expect("8 bytes");
    *at += 8;
    Ok(u64::from_le_bytes(bytes))
}

impl ReplMsg {
    /// The message's opcode.
    pub fn opcode(&self) -> u8 {
        match self {
            ReplMsg::Hello { .. } => OP_REPL_HELLO,
            ReplMsg::HelloOk { .. } => OP_REPL_HELLO_OK,
            ReplMsg::Frames { .. } => OP_REPL_FRAMES,
            ReplMsg::Evict { .. } => OP_REPL_EVICT,
            ReplMsg::Ack { .. } => OP_REPL_ACK,
        }
    }

    /// Append the message to `out` as one service frame (request id 0).
    pub fn encode(&self, out: &mut Vec<u8>) {
        match self {
            ReplMsg::Hello { epoch, cursors } => {
                let n = (cursors.len() as u32).to_le_bytes();
                let cursors: Vec<u8> = cursors
                    .iter()
                    .flat_map(|(minute, records)| [minute.to_le_bytes(), records.to_le_bytes()])
                    .flatten()
                    .collect();
                encode_frame(0, OP_REPL_HELLO, &[&epoch.to_le_bytes(), &n, &cursors], out)
            }
            ReplMsg::HelloOk { epoch } => {
                encode_frame(0, OP_REPL_HELLO_OK, &[&epoch.to_le_bytes()], out)
            }
            ReplMsg::Frames { op, minute, frames } => {
                encode_op(OP_REPL_FRAMES, *op, *minute, frames, out)
            }
            ReplMsg::Evict { op, cutoff } => encode_op(OP_REPL_EVICT, *op, *cutoff, &[], out),
            ReplMsg::Ack { op } => encode_frame(0, OP_REPL_ACK, &[&op.to_le_bytes()], out),
        }
    }

    /// Parse a service frame back into a typed message. A `FRAMES`
    /// message keeps the frame's payload, its op/minute prefix dropped
    /// in place, instead of copying the segment bytes out of it.
    pub fn from_frame(frame: Frame) -> Result<ReplMsg, WireError> {
        if frame.opcode == OP_REPL_FRAMES {
            let mut frames = frame.payload;
            let mut at = 0usize;
            let op = take_u64(&frames, &mut at)?;
            let minute = take_u64(&frames, &mut at)?;
            frames.drain(..at);
            return Ok(ReplMsg::Frames { op, minute, frames });
        }
        let buf = frame.payload.as_slice();
        let mut at = 0usize;
        let msg = match frame.opcode {
            OP_REPL_HELLO => {
                let epoch = take_u64(buf, &mut at)?;
                let n = take_u32(buf, &mut at)? as usize;
                if n > buf.len() / 16 + 1 {
                    return Err(err(format!("hello cursor count {n} exceeds payload")));
                }
                let mut cursors = Vec::with_capacity(n);
                for _ in 0..n {
                    let minute = take_u64(buf, &mut at)?;
                    let records = take_u64(buf, &mut at)?;
                    cursors.push((minute, records));
                }
                ReplMsg::Hello { epoch, cursors }
            }
            OP_REPL_HELLO_OK => ReplMsg::HelloOk {
                epoch: take_u64(buf, &mut at)?,
            },
            OP_REPL_EVICT => ReplMsg::Evict {
                op: take_u64(buf, &mut at)?,
                cutoff: take_u64(buf, &mut at)?,
            },
            OP_REPL_ACK => ReplMsg::Ack {
                op: take_u64(buf, &mut at)?,
            },
            other => return Err(err(format!("unknown replication opcode {other:#04x}"))),
        };
        if at != buf.len() {
            return Err(err(format!(
                "trailing garbage: {} of {} payload bytes consumed",
                at,
                buf.len()
            )));
        }
        Ok(msg)
    }

    /// Write the message as one service frame and flush: the handshake
    /// and `ACK`s, one small message at a time.
    pub fn write_to(&self, w: &mut impl Write) -> std::io::Result<()> {
        let mut buf = Vec::new();
        self.encode(&mut buf);
        w.write_all(&buf)?;
        w.flush()
    }

    /// Read one message. `Ok(None)` is a clean EOF at a frame boundary.
    pub fn read_from(r: &mut impl BufRead) -> std::io::Result<Option<ReplMsg>> {
        let Some(frame) = Frame::read_from(r)? else {
            return Ok(None);
        };
        ReplMsg::from_frame(frame)
            .map(Some)
            .map_err(|e| std::io::Error::new(std::io::ErrorKind::InvalidData, e))
    }
}

/// Append one op-numbered message to `out`: `FRAMES` (`word` is the
/// minute, `rest` the segment frames) or `EVICT` (`word` is the cutoff,
/// `rest` empty). The primary's outbox encodes with this directly, so a
/// shipped run is copied once, from the store's bytes into the outbox.
pub(crate) fn encode_op(opcode: u8, op: u64, word: u64, rest: &[u8], out: &mut Vec<u8>) {
    encode_frame(
        0,
        opcode,
        &[&op.to_le_bytes(), &word.to_le_bytes(), rest],
        out,
    );
}

/// Envelope and `op | word` prefix bytes of an op-numbered message.
pub(crate) const OP_MSG_OVERHEAD: usize = FRAME_HEADER_BYTES + BODY_PREFIX_BYTES + 16;

/// Ceiling on segment-frame bytes per `FRAMES` message (a lone larger
/// frame travels alone): a long catch-up tail or a large append ships
/// as several messages rather than one giant payload (the outer codec's
/// `MAX_BODY_BYTES` is 64 MiB; staying far under it keeps per-message
/// buffers cache-friendly on both ends).
pub const MAX_FRAMES_MSG_BYTES: usize = 2 << 20;

#[cfg(test)]
mod tests {
    use super::*;
    use viewmap_core::bloom::BloomFilter;
    use viewmap_core::types::{GeoPos, MinuteId, VpId, SECONDS_PER_VP};
    use viewmap_core::vd::ViewDigest;
    use viewmap_core::vp::StoredVp;

    fn vp(tag: u64, minute: u64) -> StoredVp {
        let mut id = [0u8; 16];
        id[..8].copy_from_slice(&tag.to_le_bytes());
        id[8..].copy_from_slice(&minute.to_le_bytes());
        let vp_id = VpId(vm_crypto::Digest16(id));
        let start = minute * SECONDS_PER_VP;
        let vds: Vec<ViewDigest> = (1..=SECONDS_PER_VP as u16)
            .map(|seq| ViewDigest {
                seq,
                flags: 0,
                time: start + seq as u64,
                loc: GeoPos::new(seq as f64 * 8.0, tag as f64),
                file_size: seq as u64 * 64,
                initial_loc: GeoPos::new(0.0, tag as f64),
                vp_id,
                hash: vm_crypto::Digest16(id),
            })
            .collect();
        StoredVp::new(vp_id, vds, BloomFilter::default(), false)
    }

    fn segment_frames(vps: &[StoredVp]) -> Vec<u8> {
        let mut frames = vm_store::Frames::default();
        frames.push(&vps.iter().collect::<Vec<_>>());
        frames.bytes().to_vec()
    }

    #[test]
    fn every_message_round_trips() {
        let msgs = [
            ReplMsg::Hello {
                epoch: 7,
                cursors: vec![(0, 12), (9, 1)],
            },
            ReplMsg::HelloOk { epoch: 7 },
            ReplMsg::Frames {
                op: 41,
                minute: 9,
                frames: segment_frames(&[vp(1, 9), vp(2, 9)]),
            },
            ReplMsg::Evict { op: 42, cutoff: 5 },
            ReplMsg::Ack { op: 41 },
        ];
        for msg in msgs {
            let mut wire = Vec::new();
            msg.write_to(&mut wire).unwrap();
            let mut r = std::io::BufReader::new(wire.as_slice());
            assert_eq!(ReplMsg::read_from(&mut r).unwrap().unwrap(), msg);
            assert!(ReplMsg::read_from(&mut r).unwrap().is_none(), "clean EOF");
        }
    }

    #[test]
    fn shipped_frames_are_disk_bytes_and_scan_like_a_segment() {
        let vps = [vp(3, 4), vp(5, 4)];
        let bytes = segment_frames(&vps);
        let msg = ReplMsg::Frames {
            op: 1,
            minute: 4,
            frames: bytes.clone(),
        };
        let mut wire = Vec::new();
        msg.encode(&mut wire);
        let (frame, _) = Frame::decode(&wire).unwrap().unwrap();
        assert_eq!(
            &frame.payload[16..],
            &bytes[..],
            "payload tail is disk bytes"
        );
        let ReplMsg::Frames { frames, .. } = ReplMsg::from_frame(frame).unwrap() else {
            panic!("FRAMES parses as FRAMES");
        };
        let scanned = vm_store::scan(&frames, MinuteId(4));
        assert!(scanned.injury.is_none());
        assert_eq!(
            segment_frames(&scanned.records),
            bytes,
            "scan→re-frame is bit-identical"
        );
        assert_eq!(
            vm_store::scan(&frames, MinuteId(5)).injury,
            Some(vm_store::Injury::ForeignMinute(MinuteId(4)))
        );
    }

    #[test]
    fn garbage_frames_error_instead_of_parsing() {
        let frame = Frame {
            request_id: 0,
            opcode: OP_REPL_FRAMES,
            payload: vec![1, 2, 3],
        };
        assert!(ReplMsg::from_frame(frame).is_err());
        let frame = Frame {
            request_id: 0,
            opcode: 0x55,
            payload: Vec::new(),
        };
        assert!(ReplMsg::from_frame(frame).is_err());
        // An ACK with trailing bytes is a framing bug, not an ack.
        let mut payload = 9u64.to_le_bytes().to_vec();
        payload.push(0);
        let frame = Frame {
            request_id: 0,
            opcode: OP_REPL_ACK,
            payload,
        };
        assert!(ReplMsg::from_frame(frame).is_err());
    }

    #[test]
    fn every_message_encodes_as_a_service_frame_of_its_payload() {
        let run = segment_frames(&[vp(1, 9), vp(2, 9), vp(3, 9)]);
        let le =
            |words: &[u64]| -> Vec<u8> { words.iter().flat_map(|w| w.to_le_bytes()).collect() };
        let cases = [
            (
                ReplMsg::Hello {
                    epoch: 7,
                    cursors: vec![(0, 12), (9, 1)],
                },
                [le(&[7]), 2u32.to_le_bytes().to_vec(), le(&[0, 12, 9, 1])].concat(),
            ),
            (
                ReplMsg::Hello {
                    epoch: 3,
                    cursors: Vec::new(),
                },
                [le(&[3]), 0u32.to_le_bytes().to_vec()].concat(),
            ),
            (ReplMsg::HelloOk { epoch: 7 }, le(&[7])),
            (
                ReplMsg::Frames {
                    op: 41,
                    minute: 9,
                    frames: run.clone(),
                },
                [le(&[41, 9]), run].concat(),
            ),
            (ReplMsg::Evict { op: 42, cutoff: 5 }, le(&[42, 5])),
            (ReplMsg::Ack { op: 41 }, le(&[41])),
        ];
        for (msg, payload) in cases {
            let mut in_place = Vec::new();
            msg.encode(&mut in_place);
            let mut whole = Vec::new();
            Frame {
                request_id: 0,
                opcode: msg.opcode(),
                payload,
            }
            .encode(&mut whole);
            assert_eq!(in_place, whole, "{msg:?}");
        }
    }
}
