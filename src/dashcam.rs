//! A ViewMap-enabled dashcam: the full on-vehicle stack.
//!
//! Ties together the pieces the paper's prototype runs on a Raspberry Pi
//! (Section 7.1, Fig. 18): per-frame realtime license-plate blurring
//! (`vm-vision`), the per-second cascaded view-digest chain and neighbor
//! table (`viewmap-core`), guard-VP fabrication at each minute boundary,
//! and ring-buffer segment storage with evidence holds (`vm-vision`'s
//! [`SegmentStore`]).
//!
//! One [`Dashcam::record_second`] call = one simulated second: blur the
//! frame, append the anonymized bytes to the current segment, extend the
//! hash chain, and return the VD to broadcast over DSRC.

use rand::Rng;
use viewmap_core::guard::{create_guards, Directions, GuardConfig};
use viewmap_core::neighbor::Accept;
use viewmap_core::types::{GeoPos, SECONDS_PER_VP};
use viewmap_core::vd::ViewDigest;
use viewmap_core::vp::{FinalizedMinute, ViewProfile, VpBuilder, VpKind};
use vm_vision::{BlurPipeline, Segment, SegmentStore};

/// Dashcam configuration.
#[derive(Clone, Copy, Debug)]
pub struct DashcamConfig {
    /// SD-card capacity in bytes (64 GB keeps 2–3 weeks of video per the
    /// paper; tests use much smaller values).
    pub storage_bytes: usize,
    /// Guard-VP rate α.
    pub alpha: f64,
    /// Frame width in pixels.
    pub width: usize,
    /// Frame height in pixels.
    pub height: usize,
}

impl Default for DashcamConfig {
    fn default() -> Self {
        DashcamConfig {
            storage_bytes: 64 * 1024 * 1024 * 1024,
            alpha: 0.1,
            width: 640,
            height: 480,
        }
    }
}

/// Everything a dashcam produced at a minute boundary.
pub struct MinuteOutput {
    /// The finalized actual VP (plus secret and neighbor records).
    pub finalized: FinalizedMinute,
    /// Guard VPs to upload and then forget.
    pub guards: Vec<ViewProfile>,
    /// Minutes evicted from the ring buffer to make room.
    pub evicted_minutes: Vec<u64>,
}

/// A ViewMap-enabled dashcam.
pub struct Dashcam {
    cfg: DashcamConfig,
    pipeline: BlurPipeline,
    store: SegmentStore,
    builder: Option<VpBuilder>,
    current_chunks: Vec<Vec<u8>>,
    current_minute: u64,
}

impl Dashcam {
    /// Power on the dashcam.
    pub fn new(cfg: DashcamConfig) -> Self {
        Dashcam {
            pipeline: BlurPipeline::new(),
            store: SegmentStore::new(cfg.storage_bytes),
            builder: None,
            current_chunks: Vec::with_capacity(SECONDS_PER_VP as usize),
            current_minute: 0,
            cfg,
        }
    }

    /// Plates blurred so far (diagnostics).
    pub fn plates_blurred(&self) -> usize {
        self.pipeline.plates_blurred
    }

    /// The on-board segment store.
    pub fn storage(&self) -> &SegmentStore {
        &self.store
    }

    /// Record one second: blur the raw camera frame, store the anonymized
    /// bytes, extend the cascaded chain, and return the VD to broadcast.
    ///
    /// `time` is the absolute second; a new VP (and secret) starts
    /// automatically on each minute boundary.
    pub fn record_second<R: Rng + ?Sized>(
        &mut self,
        rng: &mut R,
        raw_frame: &[u8],
        loc: GeoPos,
        time: u64,
    ) -> ViewDigest {
        if self.builder.is_none() {
            self.current_minute = time / SECONDS_PER_VP;
            self.builder = Some(VpBuilder::new(
                rng,
                self.current_minute * SECONDS_PER_VP,
                loc,
                VpKind::Actual,
            ));
            self.current_chunks.clear();
        }
        // Realtime visual anonymization happens *before* the bytes are
        // hashed or stored — only content-anonymized video exists in
        // ViewMap (Section 4, "visual anonymization").
        let (blurred, _timings) = self
            .pipeline
            .process(raw_frame, self.cfg.width, self.cfg.height);
        let chunk = blurred.data;
        let vd = self
            .builder
            .as_mut()
            .expect("builder initialized above")
            .record_second(&chunk, loc);
        self.current_chunks.push(chunk);
        vd
    }

    /// Offer a neighbor's broadcast VD.
    pub fn hear_vd(&mut self, vd: ViewDigest, now: u64, my_loc: GeoPos) -> Accept {
        match self.builder.as_mut() {
            Some(b) => b.accept_neighbor_vd(vd, now, my_loc),
            None => Accept::Rejected(viewmap_core::neighbor::RejectReason::StaleTime),
        }
    }

    /// Finish the minute: finalize the VP, fabricate guard VPs, and file
    /// the anonymized segment into the ring buffer.
    ///
    /// Panics if nothing was recorded this minute.
    pub fn end_minute<R: Rng + ?Sized, D: Directions>(
        &mut self,
        rng: &mut R,
        directions: &D,
    ) -> MinuteOutput {
        let builder = self.builder.take().expect("a minute is in progress");
        let mut finalized = builder.finalize();
        let guard_cfg = GuardConfig {
            alpha: self.cfg.alpha,
            ..GuardConfig::default()
        };
        let guards = if self.cfg.alpha > 0.0 {
            create_guards(rng, &mut finalized, directions, &guard_cfg)
        } else {
            Vec::new()
        };
        let segment = Segment {
            minute: self.current_minute,
            chunks: std::mem::take(&mut self.current_chunks),
            protected: false,
        };
        let evicted_minutes = self.store.insert(segment).unwrap_or_else(|seg| {
            // A full card of protected evidence: drop the new segment
            // (the VP still exists; the video is simply not retained).
            drop(seg);
            Vec::new()
        });
        MinuteOutput {
            finalized,
            guards,
            evicted_minutes,
        }
    }

    /// Answer a solicitation: if the segment for `minute` is still on the
    /// card, place an evidence hold and return its chunks for upload.
    pub fn answer_solicitation(&mut self, minute: u64) -> Option<Vec<Vec<u8>>> {
        self.store.protect(minute);
        self.store.get(minute).map(|s| s.chunks.clone())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::SeedableRng;
    use viewmap_core::guard::StraightLine;
    use viewmap_core::solicit::{validate_upload, VideoUpload};
    use vm_vision::SyntheticScene;

    fn small_cfg() -> DashcamConfig {
        DashcamConfig {
            storage_bytes: 3 * 60 * 64 * 48, // three minutes of 64×48 frames
            alpha: 0.1,
            width: 64,
            height: 48,
        }
    }

    fn drive_minute(
        cam: &mut Dashcam,
        rng: &mut StdRng,
        start: u64,
        other: Option<&mut Dashcam>,
    ) -> MinuteOutput {
        let scene = SyntheticScene::generate(rng, 64, 48, 1);
        let mut other = other;
        for s in 0..SECONDS_PER_VP {
            let t = start + s + 1;
            let loc = GeoPos::new((start + s) as f64 * 10.0, 0.0);
            let vd = cam.record_second(rng, &scene.frame.data, loc, start + s);
            if let Some(o) = other.as_deref_mut() {
                let oloc = GeoPos::new((start + s) as f64 * 10.0, 40.0);
                let ovd = o.record_second(rng, &scene.frame.data, oloc, start + s);
                o.hear_vd(vd, t, oloc);
                cam.hear_vd(ovd, t, loc);
            }
        }
        cam.end_minute(rng, &StraightLine)
    }

    #[test]
    fn recorded_minute_validates_against_its_own_vp() {
        let mut rng = StdRng::seed_from_u64(1);
        let mut cam = Dashcam::new(small_cfg());
        let out = drive_minute(&mut cam, &mut rng, 0, None);
        let vp = out.finalized.profile.clone().into_stored();
        let chunks = cam.answer_solicitation(0).expect("segment retained");
        let upload = VideoUpload {
            vp_id: vp.id,
            chunks,
        };
        assert_eq!(validate_upload(&vp, &upload), Ok(()));
    }

    #[test]
    fn two_dashcams_in_range_link() {
        let mut rng = StdRng::seed_from_u64(2);
        let mut a = Dashcam::new(small_cfg());
        let mut b = Dashcam::new(small_cfg());
        let out_a = drive_minute(&mut a, &mut rng, 0, Some(&mut b));
        let out_b = b.end_minute(&mut rng, &StraightLine);
        let sa = out_a.finalized.profile.into_stored();
        let sb = out_b.finalized.profile.into_stored();
        assert!(sa.mutually_linked(&sb));
        // Guards were fabricated for the observed neighbor.
        assert_eq!(out_a.guards.len(), 1);
    }

    #[test]
    fn ring_buffer_rolls_over_and_holds_evidence() {
        let mut rng = StdRng::seed_from_u64(3);
        let mut cam = Dashcam::new(small_cfg());
        let mut outputs = Vec::new();
        for m in 0..5 {
            outputs.push(drive_minute(&mut cam, &mut rng, m * 60, None));
        }
        // Capacity is 3 minutes: the first two minutes were evicted.
        assert!(cam.storage().len() <= 3);
        assert!(cam.answer_solicitation(0).is_none(), "minute 0 overwritten");
        // Minute 4 is present; soliciting it places an evidence hold.
        assert!(cam.answer_solicitation(4).is_some());
        let mut rng2 = StdRng::seed_from_u64(4);
        for m in 5..8 {
            drive_minute(&mut cam, &mut rng2, m * 60, None);
        }
        assert!(
            cam.storage().get(4).is_some(),
            "evidence-held minute must survive rollover"
        );
    }

    #[test]
    fn frames_are_anonymized_before_hashing() {
        // The chunk committed by the VD chain is the *blurred* frame:
        // validate that the stored segment differs from the raw frame
        // wherever a plate was.
        let mut rng = StdRng::seed_from_u64(5);
        let mut cam = Dashcam::new(DashcamConfig {
            storage_bytes: 32 * 1024 * 1024, // one 640×480 minute is ~18 MB
            alpha: 0.0,
            width: 640,
            height: 480,
        });
        let scene = SyntheticScene::generate(&mut rng, 640, 480, 2);
        cam.record_second(&mut rng, &scene.frame.data, GeoPos::new(0.0, 0.0), 0);
        for s in 1..SECONDS_PER_VP {
            cam.record_second(&mut rng, &scene.frame.data, GeoPos::new(s as f64, 0.0), s);
        }
        let _ = cam.end_minute(&mut rng, &StraightLine);
        assert!(cam.plates_blurred() > 0, "plates should have been found");
        let stored = cam.storage().get(0).expect("segment stored");
        assert_ne!(
            stored.chunks[0], scene.frame.data,
            "stored bytes must be the anonymized frame"
        );
    }
}
