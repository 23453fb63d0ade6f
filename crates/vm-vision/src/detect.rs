//! Plate localization: threshold → connected components → geometric
//! filters (area, aspect ratio), the standard front half of automatic
//! license plate recognition, with parameters tuned for Korean plates
//! (footnote 7 of the paper).

use crate::frame::Frame;

/// A detected region (bounding box).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct Region {
    /// Left edge.
    pub x: usize,
    /// Top edge.
    pub y: usize,
    /// Width.
    pub w: usize,
    /// Height.
    pub h: usize,
}

impl Region {
    /// Grow by `margin` pixels on each side, clamped to frame bounds.
    pub fn expanded(&self, margin: usize, width: usize, height: usize) -> Region {
        let x = self.x.saturating_sub(margin);
        let y = self.y.saturating_sub(margin);
        Region {
            x,
            y,
            w: (self.x + self.w + margin).min(width) - x,
            h: (self.y + self.h + margin).min(height) - y,
        }
    }
}

/// Localization parameters.
#[derive(Clone, Copy, Debug)]
pub struct DetectParams {
    /// Brightness threshold for plate candidate pixels.
    pub threshold: u8,
    /// Minimum candidate area in pixels.
    pub min_area: usize,
    /// Maximum candidate area in pixels.
    pub max_area: usize,
    /// Accepted aspect-ratio band (Korean plates are 520:110 ≈ 4.7).
    pub aspect: (f64, f64),
    /// Minimum fraction of the bounding box covered by bright pixels.
    pub min_fill: f64,
}

impl Default for DetectParams {
    fn default() -> Self {
        DetectParams {
            threshold: 180,
            min_area: 120,
            max_area: 20_000,
            aspect: (2.8, 7.0),
            min_fill: 0.45,
        }
    }
}

/// Find plate-like regions in a frame.
pub fn detect_plates(frame: &Frame, params: &DetectParams) -> Vec<Region> {
    let (w, h) = (frame.width, frame.height);
    // Threshold mask.
    let mask: Vec<bool> = frame.data.iter().map(|&p| p >= params.threshold).collect();
    // Connected components via BFS flood fill (4-connectivity).
    let mut label = vec![u32::MAX; w * h];
    let mut regions = Vec::new();
    let mut queue = std::collections::VecDeque::new();
    let mut next_label = 0u32;
    for start in 0..w * h {
        if !mask[start] || label[start] != u32::MAX {
            continue;
        }
        let this = next_label;
        next_label += 1;
        label[start] = this;
        queue.push_back(start);
        let (mut min_x, mut min_y, mut max_x, mut max_y) = (w, h, 0usize, 0usize);
        let mut count = 0usize;
        while let Some(idx) = queue.pop_front() {
            let (x, y) = (idx % w, idx / w);
            min_x = min_x.min(x);
            max_x = max_x.max(x);
            min_y = min_y.min(y);
            max_y = max_y.max(y);
            count += 1;
            let mut visit = |nidx: usize| {
                if mask[nidx] && label[nidx] == u32::MAX {
                    label[nidx] = this;
                    queue.push_back(nidx);
                }
            };
            if x > 0 {
                visit(idx - 1);
            }
            if x + 1 < w {
                visit(idx + 1);
            }
            if y > 0 {
                visit(idx - w);
            }
            if y + 1 < h {
                visit(idx + w);
            }
        }
        let bw = max_x - min_x + 1;
        let bh = max_y - min_y + 1;
        let area = bw * bh;
        if area < params.min_area || area > params.max_area {
            continue;
        }
        let aspect = bw as f64 / bh as f64;
        if aspect < params.aspect.0 || aspect > params.aspect.1 {
            continue;
        }
        if (count as f64) < params.min_fill * area as f64 {
            continue;
        }
        regions.push(Region {
            x: min_x,
            y: min_y,
            w: bw,
            h: bh,
        });
    }
    regions
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::frame::SyntheticScene;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    /// Intersection-over-union of two regions: how a detection is scored
    /// against a ground-truth plate.
    fn iou(a: &Region, b: &Region) -> f64 {
        let x0 = a.x.max(b.x);
        let y0 = a.y.max(b.y);
        let x1 = (a.x + a.w).min(b.x + b.w);
        let y1 = (a.y + a.h).min(b.y + b.h);
        if x1 <= x0 || y1 <= y0 {
            return 0.0;
        }
        let inter = ((x1 - x0) * (y1 - y0)) as f64;
        let union = (a.w * a.h + b.w * b.h) as f64 - inter;
        inter / union
    }

    #[test]
    fn detects_embedded_plates() {
        let rng = StdRng::seed_from_u64(1);
        let mut found_total = 0usize;
        let mut plates_total = 0usize;
        for seed in 0..10u64 {
            let mut r = StdRng::seed_from_u64(seed);
            let scene = SyntheticScene::generate(&mut r, 640, 480, 2);
            let regions = detect_plates(&scene.frame, &DetectParams::default());
            for p in &scene.plates {
                plates_total += 1;
                let gt = Region {
                    x: p.x,
                    y: p.y,
                    w: p.w,
                    h: p.h,
                };
                if regions.iter().any(|r| iou(r, &gt) > 0.5) {
                    found_total += 1;
                }
            }
        }
        let _ = rng;
        let recall = found_total as f64 / plates_total as f64;
        assert!(
            recall > 0.9,
            "recall {recall} ({found_total}/{plates_total})"
        );
    }

    #[test]
    fn empty_scene_has_few_false_positives() {
        let mut fp = 0usize;
        for seed in 100..110u64 {
            let mut r = StdRng::seed_from_u64(seed);
            let scene = SyntheticScene::generate(&mut r, 640, 480, 0);
            fp += detect_plates(&scene.frame, &DetectParams::default()).len();
        }
        assert!(fp <= 2, "false positives {fp}");
    }

    #[test]
    fn wrong_aspect_regions_rejected() {
        // A bright square (aspect 1.0) must not be classified as a plate.
        let mut frame = crate::frame::Frame::new(200, 200);
        for y in 50..100 {
            for x in 50..100 {
                frame.set(x, y, 255);
            }
        }
        assert!(detect_plates(&frame, &DetectParams::default()).is_empty());
    }

    #[test]
    fn tiny_specks_rejected() {
        let mut frame = crate::frame::Frame::new(100, 100);
        for x in 10..20 {
            frame.set(x, 10, 255);
            frame.set(x, 11, 255);
        }
        assert!(detect_plates(&frame, &DetectParams::default()).is_empty());
    }

    #[test]
    fn iou_and_expand() {
        let a = Region {
            x: 0,
            y: 0,
            w: 10,
            h: 10,
        };
        let b = Region {
            x: 5,
            y: 0,
            w: 10,
            h: 10,
        };
        assert!((iou(&a, &b) - 50.0 / 150.0).abs() < 1e-12);
        let far = Region {
            x: 50,
            y: 50,
            w: 5,
            h: 5,
        };
        assert_eq!(iou(&a, &far), 0.0);
        let e = a.expanded(3, 100, 100);
        assert_eq!((e.x, e.y, e.w, e.h), (0, 0, 13, 13));
    }
}
