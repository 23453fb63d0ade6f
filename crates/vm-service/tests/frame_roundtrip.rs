//! Wire-format property suite: frames must round-trip bit-exactly,
//! every strict prefix must read as "need more bytes" (never a decode,
//! never a panic), and any corruption of the checksummed region must be
//! rejected. These are the invariants the session loop leans on when it
//! treats a frame error as connection corruption.

use proptest::prelude::*;
use vm_service::proto::{
    Frame, FrameError, Reply, Request, BODY_PREFIX_BYTES, FRAME_HEADER_BYTES, OP_INVESTIGATE,
    OP_SUBMIT,
};

fn encode(frame: &Frame) -> Vec<u8> {
    let mut out = Vec::new();
    frame.encode(&mut out);
    out
}

proptest! {
    /// Arbitrary payload bytes survive encode → decode exactly, and the
    /// decoder consumes exactly one frame.
    #[test]
    fn arbitrary_frames_roundtrip(
        request_id in any::<u32>(),
        opcode in any::<u8>(),
        payload in proptest::collection::vec(any::<u8>(), 0..2048),
    ) {
        let frame = Frame { request_id, opcode, payload };
        let bytes = encode(&frame);
        prop_assert_eq!(bytes.len(), FRAME_HEADER_BYTES + BODY_PREFIX_BYTES + frame.payload.len());
        let (back, consumed) = Frame::decode(&bytes).unwrap().expect("complete frame decodes");
        prop_assert_eq!(consumed, bytes.len());
        prop_assert_eq!(back, frame);
    }

    /// Every strict prefix is "incomplete", not an error and not a
    /// short decode — the streaming reader must keep waiting, whatever
    /// byte the cut lands on.
    #[test]
    fn every_strict_prefix_is_incomplete(
        request_id in any::<u32>(),
        payload in proptest::collection::vec(any::<u8>(), 0..256),
        frac in 0.0f64..1.0,
    ) {
        let bytes = encode(&Frame { request_id, opcode: OP_SUBMIT, payload });
        let cut = ((bytes.len() as f64) * frac) as usize; // < len: strict prefix
        prop_assert_eq!(Frame::decode(&bytes[..cut]), Ok(None), "cut at {}", cut);
    }

    /// Flipping any bit inside the checksum or body region makes the
    /// frame undecodable (checksum mismatch), and two frames back to
    /// back still decode the *second* cleanly after the first is
    /// consumed — corruption never silently yields wrong payload bytes.
    #[test]
    fn corrupted_checksum_or_body_is_rejected(
        request_id in any::<u32>(),
        payload in proptest::collection::vec(any::<u8>(), 0..512),
        pos_seed in any::<u64>(),
        bit in 0u8..8,
    ) {
        let frame = Frame { request_id, opcode: OP_INVESTIGATE, payload };
        let mut bytes = encode(&frame);
        // Corrupt anywhere from the checksum field onward (offset 8).
        let lo = 8usize;
        let pos = lo + (pos_seed as usize) % (bytes.len() - lo);
        bytes[pos] ^= 1u8 << bit;
        prop_assert_eq!(
            Frame::decode(&bytes),
            Err(FrameError::BadChecksum),
            "flip at byte {} bit {}", pos, bit
        );
    }

    /// Pipelined frames decode in sequence: each decode consumes exactly
    /// one frame and leaves the rest intact.
    #[test]
    fn back_to_back_frames_decode_in_order(
        ids in proptest::collection::vec(any::<u32>(), 1..8),
        payload in proptest::collection::vec(any::<u8>(), 0..64),
    ) {
        let mut stream = Vec::new();
        for &id in &ids {
            Frame { request_id: id, opcode: OP_SUBMIT, payload: payload.clone() }
                .encode(&mut stream);
        }
        let mut rest: &[u8] = &stream;
        for &id in &ids {
            let (frame, consumed) = Frame::decode(rest).unwrap().expect("frame");
            prop_assert_eq!(frame.request_id, id);
            prop_assert_eq!(&frame.payload, &payload);
            rest = &rest[consumed..];
        }
        prop_assert!(rest.is_empty());
    }
}

/// Structured request payloads round-trip through their codecs (the
/// frame layer is covered above; this pins the payload layer for a
/// realistic VP record and the investigate geometry).
#[test]
fn submit_and_investigate_requests_roundtrip() {
    use rand::rngs::StdRng;
    use rand::SeedableRng;
    use viewmap_core::types::{GeoPos, MinuteId};
    use viewmap_core::viewmap::Site;

    let mut rng = StdRng::seed_from_u64(1);
    let (fin, _) = viewmap_core::vp::exchange_minute(
        &mut rng,
        0,
        |s| GeoPos::new(s as f64 * 9.0, 0.0),
        |s| GeoPos::new(s as f64 * 9.0, 30.0),
    );
    let vp = fin.profile.into_stored();
    let req = Request::Submit(vp.clone());
    let decoded = Request::decode(req.opcode(), &req.encode_payload()).expect("decodes");
    match decoded {
        Request::Submit(back) => {
            assert_eq!(back.id, vp.id);
            assert_eq!(back.vds.len(), vp.vds.len());
            assert_eq!(back.bloom.as_bytes(), vp.bloom.as_bytes());
        }
        other => panic!("wrong variant: {other:?}"),
    }

    let req = Request::Investigate {
        minute: MinuteId(17),
        site: Site {
            center: GeoPos::new(1234.5, -6.75),
            radius_m: 200.0,
        },
    };
    match Request::decode(req.opcode(), &req.encode_payload()).expect("decodes") {
        Request::Investigate { minute, site } => {
            assert_eq!(minute, MinuteId(17));
            assert_eq!(site.center.x.to_bits(), 1234.5f64.to_bits());
            assert_eq!(site.center.y.to_bits(), (-6.75f64).to_bits());
            assert_eq!(site.radius_m.to_bits(), 200.0f64.to_bits());
        }
        other => panic!("wrong variant: {other:?}"),
    }
}

/// Reply payloads round-trip for every OK shape.
#[test]
fn replies_roundtrip() {
    use viewmap_core::types::VpId;
    use vm_crypto::{BigUint, Digest16, Signature};
    use vm_service::proto::{
        ErrorCode, OP_BLIND_SIGN, OP_CLAIM_REWARD, OP_PUBLIC_KEY, OP_TOTAL_VPS,
    };

    let cases: Vec<(u8, Reply)> = vec![
        (OP_SUBMIT, Reply::Ok),
        (
            OP_INVESTIGATE,
            Reply::VpIds(vec![VpId(Digest16([7; 16])), VpId(Digest16([9; 16]))]),
        ),
        (OP_CLAIM_REWARD, Reply::Units(3)),
        (
            OP_BLIND_SIGN,
            Reply::Signatures(vec![Signature(BigUint::from_u64(123456789))]),
        ),
        (
            OP_PUBLIC_KEY,
            Reply::PublicKey {
                n: vec![1, 2, 3],
                e: vec![1, 0, 1],
            },
        ),
        (OP_TOTAL_VPS, Reply::Count(42)),
        (
            OP_SUBMIT,
            Reply::Err(ErrorCode::SuspiciousBloom, "nope".into()),
        ),
        (
            RETIRED_SUBMIT_BATCH,
            Reply::Err(ErrorCode::UnknownOpcode, "opcode 0x02".into()),
        ),
    ];
    for (req_op, reply) in cases {
        let back = Reply::decode(req_op, reply.opcode(), &reply.encode_payload())
            .unwrap_or_else(|| panic!("reply for {req_op:#04x} decodes"));
        assert_eq!(back, reply);
    }
    // The retired opcode has no request and no OK reply shape.
    assert_eq!(
        Request::decode(RETIRED_SUBMIT_BATCH, &[0; 4]).err(),
        Some(ErrorCode::UnknownOpcode)
    );
    assert_eq!(
        Reply::decode(RETIRED_SUBMIT_BATCH, Reply::Ok.opcode(), &[]),
        None
    );
}

/// The opcode the removed batch-submit request used. Retired, never
/// reused.
const RETIRED_SUBMIT_BATCH: u8 = 0x02;

/// A live session answers a retired-opcode frame with a typed
/// `UnknownOpcode` error and keeps serving the frames after it.
#[test]
fn retired_opcode_is_typed_and_the_session_survives() {
    use rand::rngs::StdRng;
    use rand::SeedableRng;
    use std::io::{BufReader, Write};
    use std::sync::Arc;
    use viewmap_core::server::ViewMapServer;
    use viewmap_core::viewmap::ViewmapConfig;
    use vm_service::proto::{ErrorCode, OP_TOTAL_VPS};
    use vm_service::{ServiceConfig, VmService};

    let mut rng = StdRng::seed_from_u64(2);
    let server = Arc::new(ViewMapServer::new(&mut rng, 512, ViewmapConfig::default()));
    let svc = VmService::spawn(server, "127.0.0.1:0", ServiceConfig::default()).expect("spawn");
    let mut conn = std::net::TcpStream::connect(svc.addr()).expect("connect");
    let mut reader = BufReader::new(conn.try_clone().expect("clone"));
    // Both frames go out before either reply is read: one pipelined run.
    let frames = [
        Frame {
            request_id: 1,
            opcode: RETIRED_SUBMIT_BATCH,
            payload: vec![0; 4],
        },
        Frame {
            request_id: 2,
            opcode: OP_TOTAL_VPS,
            payload: Vec::new(),
        },
    ];
    for f in &frames {
        conn.write_all(&encode(f)).expect("write");
    }
    for f in &frames {
        let reply = Frame::read_from(&mut reader)
            .expect("read")
            .expect("reply frame");
        assert_eq!(reply.request_id, f.request_id);
        let decoded = Reply::decode(f.opcode, reply.opcode, &reply.payload).expect("decodes");
        match f.opcode {
            RETIRED_SUBMIT_BATCH => {
                assert!(matches!(decoded, Reply::Err(ErrorCode::UnknownOpcode, _)))
            }
            _ => assert_eq!(decoded, Reply::Count(0)),
        }
    }
}
