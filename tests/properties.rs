//! Property-based tests (proptest) on the core data structures and
//! protocol invariants, spanning crates.

use proptest::prelude::*;
use viewmap::core::bloom::BloomFilter;
use viewmap::core::types::{GeoPos, VpId};
use viewmap::core::vd::{verify_chain, VdChain, ViewDigest};
use viewmap::crypto::{BigUint, Digest16};

proptest! {
    // ── SHA-256 / digests ────────────────────────────────────────────

    #[test]
    fn sha256_incremental_equals_oneshot(data in proptest::collection::vec(any::<u8>(), 0..512), split in 0usize..512) {
        let split = split.min(data.len());
        let mut h = viewmap::crypto::Sha256::new();
        h.update(&data[..split]);
        h.update(&data[split..]);
        prop_assert_eq!(h.finalize(), viewmap::crypto::sha256(&data));
    }

    #[test]
    fn digest16_is_deterministic_and_sensitive(a in proptest::collection::vec(any::<u8>(), 1..64)) {
        let d1 = Digest16::hash(&a);
        let d2 = Digest16::hash(&a);
        prop_assert_eq!(d1, d2);
        let mut b = a.clone();
        b[0] ^= 1;
        prop_assert_ne!(Digest16::hash(&b), d1);
    }

    // ── BigUint ring axioms ──────────────────────────────────────────

    #[test]
    fn bigint_add_commutes(a in any::<u128>(), b in any::<u128>()) {
        let ba = BigUint::from_bytes_be(&a.to_be_bytes());
        let bb = BigUint::from_bytes_be(&b.to_be_bytes());
        prop_assert_eq!(ba.add(&bb), bb.add(&ba));
    }

    #[test]
    fn bigint_mul_distributes(a in any::<u64>(), b in any::<u64>(), c in any::<u64>()) {
        let (ba, bb, bc) = (BigUint::from_u64(a), BigUint::from_u64(b), BigUint::from_u64(c));
        let left = ba.mul(&bb.add(&bc));
        let right = ba.mul(&bb).add(&ba.mul(&bc));
        prop_assert_eq!(left, right);
    }

    #[test]
    fn bigint_div_rem_reconstructs(a in any::<u128>(), b in 1u64..) {
        let ba = BigUint::from_bytes_be(&a.to_be_bytes());
        let bb = BigUint::from_u64(b);
        let (q, r) = ba.div_rem(&bb);
        prop_assert!(r < bb);
        prop_assert_eq!(q.mul(&bb).add(&r), ba);
    }

    #[test]
    fn bigint_bytes_roundtrip(bytes in proptest::collection::vec(any::<u8>(), 0..40)) {
        let n = BigUint::from_bytes_be(&bytes);
        let back = BigUint::from_bytes_be(&n.to_bytes_be());
        prop_assert_eq!(n, back);
    }

    #[test]
    fn bigint_shift_roundtrip(a in any::<u128>(), s in 0usize..100) {
        let n = BigUint::from_bytes_be(&a.to_be_bytes());
        prop_assert_eq!(n.shl(s).shr(s), n);
    }

    // ── Bloom filter ─────────────────────────────────────────────────

    #[test]
    fn bloom_never_false_negative(keys in proptest::collection::vec(any::<u64>(), 1..300)) {
        let mut f = BloomFilter::default();
        for k in &keys {
            f.insert(&Digest16::hash(&k.to_le_bytes()));
        }
        for k in &keys {
            prop_assert!(f.contains(&Digest16::hash(&k.to_le_bytes())));
        }
    }

    #[test]
    fn bloom_wire_roundtrip_preserves_queries(keys in proptest::collection::vec(any::<u64>(), 0..100)) {
        let mut f = BloomFilter::default();
        for k in &keys {
            f.insert(&Digest16::hash(&k.to_le_bytes()));
        }
        let g = BloomFilter::from_bytes(f.as_bytes().to_vec(), f.k());
        for probe in 0u64..200 {
            let key = Digest16::hash(&probe.to_le_bytes());
            prop_assert_eq!(f.contains(&key), g.contains(&key));
        }
    }

    // ── View digests / cascaded chain ────────────────────────────────

    #[test]
    fn vd_wire_roundtrip(secret in any::<[u8; 8]>(), t0 in 0u64..1_000_000, chunks in proptest::collection::vec(proptest::collection::vec(any::<u8>(), 1..64), 1..20)) {
        let mut chain = VdChain::new(secret, t0, GeoPos::new(1.0, 2.0));
        for (i, c) in chunks.iter().enumerate() {
            let vd = chain.extend(c, GeoPos::new(i as f64, 2.0));
            let decoded = ViewDigest::decode(&vd.encode()).expect("decodes");
            prop_assert_eq!(decoded.seq, vd.seq);
            prop_assert_eq!(decoded.time, vd.time);
            prop_assert_eq!(decoded.file_size, vd.file_size);
            prop_assert_eq!(decoded.vp_id, vd.vp_id);
            prop_assert_eq!(decoded.hash, vd.hash);
        }
    }

    #[test]
    fn chain_verifies_iff_untampered(secret in any::<[u8; 8]>(), chunks in proptest::collection::vec(proptest::collection::vec(any::<u8>(), 1..32), 2..20), flip in 0usize..1000) {
        let mut chain = VdChain::new(secret, 0, GeoPos::new(0.0, 0.0));
        let vds: Vec<ViewDigest> = chunks
            .iter()
            .map(|c| chain.extend(c, GeoPos::new(0.0, 0.0)))
            .collect();
        let id = VpId::from_secret(&secret);
        prop_assert!(verify_chain(id, &vds, &chunks).is_ok());
        // Flip one bit somewhere in the chunks → must fail.
        let mut tampered = chunks.clone();
        let ci = flip % tampered.len();
        let bi = (flip / tampered.len()) % tampered[ci].len();
        tampered[ci][bi] ^= 0x80;
        prop_assert!(verify_chain(id, &vds, &tampered).is_err());
    }

    // ── Geometry / routing ───────────────────────────────────────────

    #[test]
    fn route_positions_monotone_along_arc(s1 in 0.0f64..500.0, s2 in 0.0f64..500.0) {
        use viewmap::geo::{Point, RoadNetwork, Router, NodeId};
        let net = RoadNetwork::from_links(
            vec![
                Point::new(0.0, 0.0),
                Point::new(250.0, 0.0),
                Point::new(500.0, 0.0),
            ],
            &[(0, 1), (1, 2)],
        );
        let route = Router::new(&net).route(NodeId(0), NodeId(2)).expect("path");
        let (lo, hi) = if s1 <= s2 { (s1, s2) } else { (s2, s1) };
        let p_lo = route.position_at(lo);
        let p_hi = route.position_at(hi);
        prop_assert!(p_lo.x <= p_hi.x + 1e-9);
    }

    #[test]
    fn grid_index_agrees_with_brute_force(points in proptest::collection::vec((0.0f64..1000.0, 0.0f64..1000.0), 1..80), q in (0.0f64..1000.0, 0.0f64..1000.0), r in 1.0f64..400.0) {
        use viewmap::geo::{GridIndex, Point};
        let pts: Vec<Point> = points.iter().map(|&(x, y)| Point::new(x, y)).collect();
        let grid = GridIndex::build(100.0, pts.iter().cloned().enumerate());
        let qp = Point::new(q.0, q.1);
        let mut got = grid.query_radius(&qp, r);
        got.sort_unstable();
        let expect: Vec<usize> = pts
            .iter()
            .enumerate()
            .filter(|(_, p)| p.distance(&qp) <= r)
            .map(|(i, _)| i)
            .collect();
        prop_assert_eq!(got, expect);
    }

    // ── Trust scores ─────────────────────────────────────────────────

    #[test]
    fn trustrank_scores_bounded_and_seeded(n in 2usize..40, edges in proptest::collection::vec((0usize..40, 0usize..40), 1..120)) {
        use viewmap::core::trustrank::{trust_scores, CsrGraph};
        let mut adj = vec![Vec::new(); n];
        for &(a, b) in &edges {
            let (a, b) = (a % n, b % n);
            if a != b && !adj[a].contains(&b) {
                adj[a].push(b);
                adj[b].push(a);
            }
        }
        let (scores, _) = trust_scores(&CsrGraph::from_adj(&adj), &[0], 0.8, 1e-10, 1000);
        for &s in &scores {
            prop_assert!((0.0..=1.0 + 1e-9).contains(&s));
        }
        // The seed always retains its base inflow.
        prop_assert!(scores[0] >= 0.2 * (1.0 - 0.8));
    }
}
