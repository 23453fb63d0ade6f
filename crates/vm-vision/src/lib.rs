//! Realtime license-plate blurring — the OpenCV-on-Raspberry-Pi
//! substitute (Section 6.2.1, Table 1, Fig. 3).
//!
//! ViewMap-enabled dashcams blur license plates *while recording*: post
//! processing would open the door to posterior fabrication, and realtime
//! visual anonymization addresses the bystander-privacy concerns that make
//! dashcams contentious. The pipeline has the same three stages the paper
//! times: (i) grab the frame from the camera buffer (I/O), (ii) localize
//! plate-like regions and blur them (Blur), (iii) write the anonymized
//! frame to the video file (I/O).
//!
//! Frames are synthetic: gradient-noise backgrounds with embedded
//! high-contrast striped rectangles at the Korean plate aspect ratio
//! (520:110 ≈ 4.7:1 — the paper tunes localization parameters for South
//! Korean plates).

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod blur;
pub mod detect;
pub mod frame;
pub mod pipeline;
pub mod storage;

pub use blur::box_blur_region;
pub use detect::{detect_plates, DetectParams, Region};
pub use frame::{Frame, PlateSpec, SyntheticScene};
pub use pipeline::{BlurPipeline, PlatformProfile, StageTimings};
pub use storage::{Segment, SegmentStore};
