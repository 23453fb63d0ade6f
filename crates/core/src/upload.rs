//! Anonymous VP upload — the Tor substitute (Section 5.1.2).
//!
//! Vehicles upload actual and guard VPs "whenever connected", over an
//! anonymity network, *constantly changing sessions* so the server cannot
//! group VPs by session id. What the privacy evaluation needs from the
//! transport is exactly that property: the server sees a bag of VPs with
//! fresh, meaningless session ids and no stable uploader handle. This
//! module enforces it by construction: submissions are batched, each batch
//! is shuffled and re-stamped with a random session id per VP.

use crate::vp::{StoredVp, ViewProfile, VpKind};
use rand::Rng;

/// A VP as it arrives at the server: anonymized, session-stamped.
#[derive(Clone, Debug)]
pub struct AnonymousSubmission {
    /// Random per-submission session id (never reused deliberately).
    pub session_id: u64,
    /// The uploaded VP (server form).
    pub vp: StoredVp,
}

/// The anonymity channel between vehicles and the server.
#[derive(Clone, Debug, Default)]
pub struct AnonymousChannel {
    pending: Vec<StoredVp>,
}

impl AnonymousChannel {
    /// New, empty channel.
    pub fn new() -> Self {
        Self::default()
    }

    /// Queue a VP for upload. Guard VPs are uploaded and then deleted on
    /// the vehicle; the channel is the last place the `kind` tag exists —
    /// it is erased here (converted to the wire/server form).
    pub fn enqueue(&mut self, vp: ViewProfile) {
        debug_assert!(
            vp.kind != VpKind::Trusted,
            "trusted VPs are submitted through the authority channel"
        );
        self.pending.push(vp.into_stored());
    }

    /// Flush the queue: shuffle submission order and stamp each VP with a
    /// fresh random session id.
    pub fn flush<R: Rng + ?Sized>(&mut self, rng: &mut R) -> Vec<AnonymousSubmission> {
        let mut batch = std::mem::take(&mut self.pending);
        // Fisher–Yates shuffle.
        for i in (1..batch.len()).rev() {
            let j = rng.gen_range(0..=i);
            batch.swap(i, j);
        }
        batch
            .into_iter()
            .map(|vp| AnonymousSubmission {
                session_id: rng.gen(),
                vp,
            })
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::types::GeoPos;
    use crate::vp::exchange_minute;
    use rand::rngs::StdRng;
    use rand::SeedableRng;
    use std::collections::HashSet;

    fn some_profiles(n: usize, seed: u64) -> Vec<ViewProfile> {
        let mut rng = StdRng::seed_from_u64(seed);
        (0..n)
            .map(|i| {
                let (fa, _) = exchange_minute(
                    &mut rng,
                    0,
                    move |s| GeoPos::new(i as f64 * 10.0 + s as f64, 0.0),
                    move |s| GeoPos::new(i as f64 * 10.0 + s as f64, 30.0),
                );
                fa.profile
            })
            .collect()
    }

    #[test]
    fn flush_empties_queue() {
        let mut ch = AnonymousChannel::new();
        for p in some_profiles(5, 1) {
            ch.enqueue(p);
        }
        let mut rng = StdRng::seed_from_u64(2);
        assert_eq!(ch.flush(&mut rng).len(), 5);
        assert!(ch.flush(&mut rng).is_empty(), "a flush empties the queue");
    }

    #[test]
    fn session_ids_are_unique_across_batches() {
        let mut ch = AnonymousChannel::new();
        let mut rng = StdRng::seed_from_u64(3);
        let mut seen = HashSet::new();
        for round in 0..10 {
            for p in some_profiles(8, 100 + round) {
                ch.enqueue(p);
            }
            for sub in ch.flush(&mut rng) {
                assert!(seen.insert(sub.session_id), "session id reuse");
            }
        }
        assert_eq!(seen.len(), 80);
    }

    #[test]
    fn batch_order_is_shuffled() {
        let profiles = some_profiles(20, 4);
        let original_ids: Vec<_> = profiles.iter().map(|p| p.id()).collect();
        let mut ch = AnonymousChannel::new();
        for p in profiles {
            ch.enqueue(p);
        }
        let mut rng = StdRng::seed_from_u64(5);
        let flushed_ids: Vec<_> = ch.flush(&mut rng).iter().map(|s| s.vp.id).collect();
        assert_ne!(original_ids, flushed_ids, "order must not be preserved");
        let a: HashSet<_> = original_ids.into_iter().collect();
        let b: HashSet<_> = flushed_ids.into_iter().collect();
        assert_eq!(a, b, "same set of VPs");
    }

    #[test]
    fn kind_tag_does_not_survive_the_channel() {
        // StoredVp has no guard/actual distinction — compile-time property;
        // here we check `trusted` is false for normal uploads.
        let mut ch = AnonymousChannel::new();
        for p in some_profiles(3, 6) {
            ch.enqueue(p);
        }
        let mut rng = StdRng::seed_from_u64(7);
        for sub in ch.flush(&mut rng) {
            assert!(!sub.vp.trusted);
        }
    }
}
