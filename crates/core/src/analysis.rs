//! Closed-form analyses from Section 6 of the paper.

use crate::bloom;
use crate::vd::VD_WIRE_BYTES;

/// The paper's guard-VP coverage rule (Section 6.2.2):
/// `P_t = [1 − {1 − (1−α)^m}^m]^t` — the probability that some vehicle
/// remains uncovered by others' guard VPs through `t` minutes, for
/// guard rate `α` and `m` mutually neighboring vehicles. The design target
/// is `P_t < 0.01`; α = 0.1 achieves it within a 5-minute drive.
pub fn uncovered_prob(alpha: f64, m: usize, t_minutes: u32) -> f64 {
    assert!((0.0..=1.0).contains(&alpha));
    let m_f = m as f64;
    let covered_one = 1.0 - (1.0 - alpha).powf(m_f); // one vehicle covered
    let all_covered = covered_one.powf(m_f);
    (1.0 - all_covered).powi(t_minutes as i32)
}

/// VP creation volume per vehicle-minute: one actual VP plus ⌈α·m⌉ guard
/// VPs (Fig. 9).
pub fn vp_volume_per_minute(alpha: f64, m: usize) -> usize {
    if m == 0 {
        1
    } else {
        1 + (alpha * m as f64).ceil() as usize
    }
}

/// Storage overhead of one VP in bytes: 60 VDs + Bloom filter + secret
/// (Section 6.1: 4584 bytes).
pub fn vp_storage_bytes() -> usize {
    60 * VD_WIRE_BYTES + bloom::DEFAULT_M_BITS / 8 + 8
}

/// Storage overhead relative to a video of `video_bytes` (Section 6.1:
/// < 0.01% of a 50 MB 1-min video).
pub fn storage_overhead_ratio(video_bytes: u64) -> f64 {
    vp_storage_bytes() as f64 / video_bytes as f64
}

/// Re-export of the Bloom false-linkage closed form (Fig. 14).
pub use crate::bloom::{false_linkage_rate, optimal_k};

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn alpha_point_one_meets_design_target() {
        // The paper: α = 0.1 keeps P_t below 0.01 within 5 minutes of
        // driving (for a sufficiently interactive neighborhood).
        let p5 = uncovered_prob(0.1, 50, 5);
        assert!(p5 < 0.01, "P_5 = {p5}");
    }

    #[test]
    fn uncovered_prob_decreases_with_time_and_alpha() {
        assert!(uncovered_prob(0.1, 30, 10) < uncovered_prob(0.1, 30, 5));
        assert!(uncovered_prob(0.5, 30, 5) < uncovered_prob(0.1, 30, 5));
    }

    #[test]
    fn uncovered_prob_boundaries() {
        // α = 0: nobody is ever covered → P_t = 1 for any t ≥ 1.
        assert_eq!(uncovered_prob(0.0, 10, 3), 1.0);
        // α = 1: everyone covered every minute → P_t = 0.
        assert_eq!(uncovered_prob(1.0, 10, 3), 0.0);
    }

    #[test]
    fn vp_volume_matches_fig9_shape() {
        // Fig. 9: VPs per minute grows linearly in m, steeper for larger α.
        assert_eq!(vp_volume_per_minute(0.1, 0), 1);
        assert_eq!(vp_volume_per_minute(0.1, 20), 3);
        assert_eq!(vp_volume_per_minute(0.1, 200), 21);
        assert_eq!(vp_volume_per_minute(0.5, 200), 101);
        assert_eq!(vp_volume_per_minute(0.9, 200), 181);
        for m in 1..100 {
            assert!(vp_volume_per_minute(0.9, m) >= vp_volume_per_minute(0.1, m));
        }
    }

    #[test]
    fn storage_is_exactly_4584_bytes() {
        assert_eq!(vp_storage_bytes(), 4584);
    }

    #[test]
    fn storage_overhead_below_one_hundredth_percent() {
        let ratio = storage_overhead_ratio(50 * 1024 * 1024);
        assert!(ratio < 1e-4, "ratio {ratio}");
    }
}
