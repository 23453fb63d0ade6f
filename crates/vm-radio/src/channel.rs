//! Path loss, shadowing, and the RSSI→PDR curve.
//!
//! Shadowing is split into a *slow* component (sampled once per
//! vehicle-pair per minute — obstruction geometry barely changes within a
//! 1-min VP window, and the channel is reciprocal) and a *fast* per-beacon
//! component. This split is what makes per-minute VP-linkage probabilities
//! behave like the paper's field measurements: a blocked minute stays
//! blocked instead of being rescued by one lucky beacon out of sixty.

use rand::Rng;

/// What stands between transmitter and receiver.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Blockage {
    /// Clear line of sight.
    Los,
    /// Obstructed by vehicle traffic (trucks, buses between the two).
    Vehicle,
    /// Obstructed by a building / bridge / tunnel wall.
    Building,
}

/// Channel model parameters.
///
/// Defaults are calibrated so the model reproduces the paper's field
/// observations: open-road VP linkage ≳ 99% out to 400 m (Fig. 15),
/// building NLOS linkage ≈ 0 beyond a few tens of meters with occasional
/// very-short-range exceptions (Table 2), and a fluctuating PDR in the
/// −100..−80 dBm band (Fig. 16).
#[derive(Clone, Copy, Debug)]
pub struct ChannelParams {
    /// Transmit power in dBm (the paper sets 14 dBm, after \[17\]).
    pub tx_power_dbm: f64,
    /// Reference path loss at 1 m for 5.9 GHz, dB.
    pub pl0_db: f64,
    /// Path-loss exponent under LOS.
    pub exponent: f64,
    /// Extra attenuation when a building blocks the path, dB.
    pub building_penalty_db: f64,
    /// Extra attenuation when vehicle traffic blocks the path, dB.
    pub vehicle_penalty_db: f64,
    /// Slow (per-pair, per-minute) shadowing σ under LOS, dB.
    pub shadow_sigma_los_db: f64,
    /// Slow shadowing σ when obstructed, dB.
    pub shadow_sigma_nlos_db: f64,
    /// Fast per-beacon fading σ, dB.
    pub fast_sigma_db: f64,
    /// RSSI at which the PDR curve crosses 50%, dBm.
    pub pdr_midpoint_dbm: f64,
    /// Logistic width of the PDR transition, dB.
    pub pdr_width_db: f64,
    /// Hard reception cutoff (DSRC radio range), meters.
    pub max_range_m: f64,
}

impl Default for ChannelParams {
    fn default() -> Self {
        ChannelParams {
            tx_power_dbm: 14.0,
            pl0_db: 47.86, // free space at 1 m, 5.9 GHz
            exponent: 2.1,
            building_penalty_db: 38.0,
            vehicle_penalty_db: 20.0,
            shadow_sigma_los_db: 2.0,
            shadow_sigma_nlos_db: 6.0,
            fast_sigma_db: 1.5,
            pdr_midpoint_dbm: -91.0,
            pdr_width_db: 3.0,
            max_range_m: 400.0,
        }
    }
}

/// The DSRC channel: maps (distance, blockage) to RSSI samples and
/// delivery outcomes.
#[derive(Clone, Copy, Debug, Default)]
pub struct Channel {
    /// Model parameters.
    pub params: ChannelParams,
}

impl Channel {
    /// Channel with explicit parameters.
    pub fn new(params: ChannelParams) -> Self {
        Channel { params }
    }

    /// Deterministic mean path loss in dB for a distance and blockage.
    pub fn mean_path_loss_db(&self, distance_m: f64, blockage: Blockage) -> f64 {
        let d = distance_m.max(1.0);
        let mut pl = self.params.pl0_db + 10.0 * self.params.exponent * d.log10();
        pl += match blockage {
            Blockage::Los => 0.0,
            Blockage::Vehicle => self.params.vehicle_penalty_db,
            Blockage::Building => self.params.building_penalty_db,
        };
        pl
    }

    /// Slow shadowing standard deviation for a blockage state.
    pub fn slow_sigma_db(&self, blockage: Blockage) -> f64 {
        match blockage {
            Blockage::Los => self.params.shadow_sigma_los_db,
            _ => self.params.shadow_sigma_nlos_db,
        }
    }

    /// Sample the slow shadowing term for a vehicle pair (held fixed for a
    /// 1-min VP window; the channel is reciprocal so both directions share
    /// it).
    pub fn sample_slow_shadow<R: Rng + ?Sized>(&self, rng: &mut R, blockage: Blockage) -> f64 {
        gaussian(rng) * self.slow_sigma_db(blockage)
    }

    /// Sample an RSSI in dBm given the slow shadowing term; adds fast
    /// per-beacon fading.
    pub fn sample_rssi_with_shadow<R: Rng + ?Sized>(
        &self,
        rng: &mut R,
        distance_m: f64,
        blockage: Blockage,
        slow_shadow_db: f64,
    ) -> f64 {
        let fast = gaussian(rng) * self.params.fast_sigma_db;
        self.params.tx_power_dbm - self.mean_path_loss_db(distance_m, blockage)
            + slow_shadow_db
            + fast
    }

    /// Packet delivery ratio for an RSSI value (logistic transition).
    pub fn pdr(&self, rssi_dbm: f64) -> f64 {
        let x = (rssi_dbm - self.params.pdr_midpoint_dbm) / self.params.pdr_width_db;
        1.0 / (1.0 + (-x).exp())
    }

    /// Attempt to deliver one beacon under a given slow-shadow term;
    /// returns the sampled RSSI on success.
    pub fn try_deliver_with_shadow<R: Rng + ?Sized>(
        &self,
        rng: &mut R,
        distance_m: f64,
        blockage: Blockage,
        slow_shadow_db: f64,
    ) -> Option<f64> {
        if distance_m > self.params.max_range_m {
            return None;
        }
        let rssi = self.sample_rssi_with_shadow(rng, distance_m, blockage, slow_shadow_db);
        if rng.gen_bool(self.pdr(rssi).clamp(0.0, 1.0)) {
            Some(rssi)
        } else {
            None
        }
    }

    /// Attempt to deliver one beacon with fresh slow shadowing.
    pub fn try_deliver<R: Rng + ?Sized>(
        &self,
        rng: &mut R,
        distance_m: f64,
        blockage: Blockage,
    ) -> Option<f64> {
        let slow = self.sample_slow_shadow(rng, blockage);
        self.try_deliver_with_shadow(rng, distance_m, blockage, slow)
    }

    /// Probability that a full 1-minute, two-way VP linkage succeeds for a
    /// stationary pair at `distance_m` in `blockage` state: both vehicles
    /// must receive at least one of the other's 60 beacons, under one shared
    /// slow-shadow draw.
    pub fn minute_linkage<R: Rng + ?Sized>(
        &self,
        rng: &mut R,
        distance_m: f64,
        blockage: Blockage,
    ) -> bool {
        let slow = self.sample_slow_shadow(rng, blockage);
        let mut a_received = false;
        let mut b_received = false;
        for _ in 0..60 {
            if !a_received
                && self
                    .try_deliver_with_shadow(rng, distance_m, blockage, slow)
                    .is_some()
            {
                a_received = true;
            }
            if !b_received
                && self
                    .try_deliver_with_shadow(rng, distance_m, blockage, slow)
                    .is_some()
            {
                b_received = true;
            }
            if a_received && b_received {
                return true;
            }
        }
        false
    }
}

/// Standard normal sample (Box–Muller).
pub fn gaussian<R: Rng + ?Sized>(rng: &mut R) -> f64 {
    let u1: f64 = rng.gen_range(f64::EPSILON..1.0);
    let u2: f64 = rng.gen_range(0.0..1.0);
    (-2.0 * u1.ln()).sqrt() * (2.0 * std::f64::consts::PI * u2).cos()
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    fn minute_linkage_rate(ch: &Channel, d: f64, b: Blockage, trials: usize, seed: u64) -> f64 {
        let mut rng = StdRng::seed_from_u64(seed);
        let ok = (0..trials)
            .filter(|_| ch.minute_linkage(&mut rng, d, b))
            .count();
        ok as f64 / trials as f64
    }

    #[test]
    fn path_loss_grows_with_distance_and_blockage() {
        let ch = Channel::default();
        assert!(
            ch.mean_path_loss_db(100.0, Blockage::Los) > ch.mean_path_loss_db(10.0, Blockage::Los)
        );
        assert!(
            ch.mean_path_loss_db(100.0, Blockage::Building)
                > ch.mean_path_loss_db(100.0, Blockage::Vehicle)
        );
        assert!(
            ch.mean_path_loss_db(100.0, Blockage::Vehicle)
                > ch.mean_path_loss_db(100.0, Blockage::Los)
        );
    }

    #[test]
    fn pdr_is_monotone_logistic() {
        let ch = Channel::default();
        assert!(ch.pdr(-120.0) < 0.01);
        assert!(ch.pdr(-60.0) > 0.99);
        assert!((ch.pdr(ch.params.pdr_midpoint_dbm) - 0.5).abs() < 1e-12);
        let mut last = 0.0;
        for rssi in -120..-50 {
            let p = ch.pdr(rssi as f64);
            assert!(p >= last);
            last = p;
        }
    }

    #[test]
    fn beyond_max_range_never_delivers() {
        let ch = Channel::default();
        let mut rng = StdRng::seed_from_u64(1);
        for _ in 0..100 {
            assert!(ch.try_deliver(&mut rng, 401.0, Blockage::Los).is_none());
        }
    }

    #[test]
    fn open_road_minute_linkage_near_one_at_400m() {
        // Fig. 15: open-road VLR > 99% out to 400 m.
        let ch = Channel::default();
        let rate = minute_linkage_rate(&ch, 400.0, Blockage::Los, 400, 2);
        assert!(rate > 0.97, "open-road VLR at 400 m: {rate}");
    }

    #[test]
    fn building_blockage_kills_minute_linkage_at_distance() {
        // Table 2: Building/Tunnel/Double-deck NLOS scenarios report 0%.
        let ch = Channel::default();
        let rate = minute_linkage_rate(&ch, 150.0, Blockage::Building, 400, 3);
        assert!(rate < 0.03, "NLOS VLR at 150 m should be ~0, got {rate}");
    }

    #[test]
    fn building_blockage_sometimes_links_when_very_close() {
        // Table 2: Intersection 2 (NLOS) 9%, Parking structure 3% — nonzero
        // only at very short range.
        let ch = Channel::default();
        let near = minute_linkage_rate(&ch, 40.0, Blockage::Building, 600, 4);
        assert!(near > 0.02 && near < 0.40, "close NLOS VLR: {near}");
    }

    #[test]
    fn vehicle_obstruction_reduces_long_range_linkage() {
        // Fig. 17: heavy-traffic minutes at long range often fail to link.
        let ch = Channel::default();
        let veh = minute_linkage_rate(&ch, 300.0, Blockage::Vehicle, 400, 5);
        let los = minute_linkage_rate(&ch, 300.0, Blockage::Los, 400, 6);
        assert!(los > 0.97, "LOS at 300 m: {los}");
        assert!(veh < 0.6, "vehicle-obstructed at 300 m: {veh}");
    }

    #[test]
    fn gray_zone_fluctuates() {
        // Between −100 and −80 dBm per-batch PDR varies (Fig. 16 scatter).
        let ch = Channel::default();
        let mut rng = StdRng::seed_from_u64(7);
        let mut batch_pdrs = Vec::new();
        for _ in 0..30 {
            let slow = ch.sample_slow_shadow(&mut rng, Blockage::Los);
            let ok = (0..50)
                .filter(|_| {
                    ch.try_deliver_with_shadow(&mut rng, 330.0, Blockage::Los, slow)
                        .is_some()
                })
                .count();
            batch_pdrs.push(ok as f64 / 50.0);
        }
        let min = batch_pdrs.iter().cloned().fold(f64::INFINITY, f64::min);
        let max = batch_pdrs.iter().cloned().fold(0.0f64, f64::max);
        assert!(max - min > 0.1, "expected fluctuation, got {min}..{max}");
    }

    #[test]
    fn gaussian_moments() {
        let mut rng = StdRng::seed_from_u64(8);
        let n = 20_000;
        let samples: Vec<f64> = (0..n).map(|_| gaussian(&mut rng)).collect();
        let mean = samples.iter().sum::<f64>() / n as f64;
        let var = samples.iter().map(|x| (x - mean) * (x - mean)).sum::<f64>() / n as f64;
        assert!(mean.abs() < 0.05, "mean {mean}");
        assert!((var - 1.0).abs() < 0.08, "var {var}");
    }

    #[test]
    fn rssi_decomposition_is_consistent() {
        let ch = Channel::default();
        let mut rng = StdRng::seed_from_u64(9);
        // With zero slow shadow and the fast term's sigma small, the RSSI
        // concentrates around tx - PL.
        let expect = ch.params.tx_power_dbm - ch.mean_path_loss_db(100.0, Blockage::Los);
        let mean: f64 = (0..2000)
            .map(|_| ch.sample_rssi_with_shadow(&mut rng, 100.0, Blockage::Los, 0.0))
            .sum::<f64>()
            / 2000.0;
        assert!((mean - expect).abs() < 0.2, "mean {mean} vs {expect}");
    }
}
