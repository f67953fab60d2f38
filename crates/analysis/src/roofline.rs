//! Roofline models.
//!
//! The standard roofline model bounds attainable performance by
//! `P = min(F, B · I)` where `F` is the peak compute throughput, `B` the peak
//! memory bandwidth and `I` the arithmetic intensity (Section 3.4). The
//! multi-tier extension adds the bandwidth of additional memory tiers: using
//! both tiers concurrently raises the aggregate bandwidth ceiling, while a
//! given local-to-remote access ratio interpolates between the local-only and
//! aggregate slopes (the "memory roofline" the paper builds on).

use serde::{Deserialize, Serialize};

/// A measured point to place on the roofline (one application phase).
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct RooflinePoint {
    /// Label, e.g. `"HPL-p2"`.
    pub label: String,
    /// Arithmetic intensity in flop/byte.
    pub arithmetic_intensity: f64,
    /// Achieved performance in flop/s.
    pub achieved_flops: f64,
}

impl RooflinePoint {
    /// Fraction of the attainable roofline performance this point reaches.
    pub fn efficiency(&self, roofline: &Roofline) -> f64 {
        let attainable = roofline.attainable(self.arithmetic_intensity);
        if attainable == 0.0 {
            return 0.0;
        }
        (self.achieved_flops / attainable).min(1.0)
    }
}

/// Single-tier roofline model.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct Roofline {
    /// Peak compute throughput in flop/s.
    pub peak_flops: f64,
    /// Peak memory bandwidth in bytes/s.
    pub peak_bandwidth: f64,
}

impl Roofline {
    /// Creates a roofline model.
    pub fn new(peak_flops: f64, peak_bandwidth: f64) -> Self {
        assert!(peak_flops > 0.0 && peak_bandwidth > 0.0);
        Self {
            peak_flops,
            peak_bandwidth,
        }
    }

    /// Attainable performance at arithmetic intensity `ai`:
    /// `min(F, B · I)`.
    pub fn attainable(&self, ai: f64) -> f64 {
        (self.peak_bandwidth * ai).min(self.peak_flops)
    }

    /// The ridge point: the arithmetic intensity at which the model switches
    /// from memory bound to compute bound.
    pub fn ridge_point(&self) -> f64 {
        self.peak_flops / self.peak_bandwidth
    }

    /// Whether a point of the given intensity is memory bound.
    pub fn is_memory_bound(&self, ai: f64) -> bool {
        ai < self.ridge_point()
    }

    /// Samples the roofline at logarithmically spaced intensities, handy for
    /// printing the curve of Figure 5.
    pub fn curve(&self, ai_min: f64, ai_max: f64, points: usize) -> Vec<(f64, f64)> {
        assert!(points >= 2 && ai_min > 0.0 && ai_max > ai_min);
        let log_min = ai_min.ln();
        let log_max = ai_max.ln();
        (0..points)
            .map(|i| {
                let ai = (log_min + (log_max - log_min) * i as f64 / (points - 1) as f64).exp();
                (ai, self.attainable(ai))
            })
            .collect()
    }
}

/// Two-tier (local + pool) roofline model.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct MultiTierRoofline {
    /// Peak compute throughput in flop/s.
    pub peak_flops: f64,
    /// Local-tier bandwidth in bytes/s.
    pub local_bandwidth: f64,
    /// Pool-tier (remote) bandwidth in bytes/s.
    pub remote_bandwidth: f64,
}

impl MultiTierRoofline {
    /// Creates the model.
    pub fn new(peak_flops: f64, local_bandwidth: f64, remote_bandwidth: f64) -> Self {
        assert!(peak_flops > 0.0 && local_bandwidth > 0.0 && remote_bandwidth >= 0.0);
        Self {
            peak_flops,
            local_bandwidth,
            remote_bandwidth,
        }
    }

    /// Roofline using both tiers concurrently (the dashed line of Figure 5):
    /// the aggregate bandwidth ceiling.
    pub fn aggregate(&self) -> Roofline {
        Roofline::new(
            self.peak_flops,
            self.local_bandwidth + self.remote_bandwidth,
        )
    }

    /// Effective memory bandwidth when a fraction `remote_access_ratio` of
    /// the traffic goes to the pool and the two tiers stream concurrently:
    /// the slower of "local traffic at local bandwidth" and "remote traffic
    /// at remote bandwidth" determines the time, so
    /// `B_eff = 1 / max(local_share / B_local, remote_share / B_remote)`.
    pub fn effective_bandwidth(&self, remote_access_ratio: f64) -> f64 {
        let r = remote_access_ratio.clamp(0.0, 1.0);
        let local_time = (1.0 - r) / self.local_bandwidth;
        let remote_time = if self.remote_bandwidth > 0.0 {
            r / self.remote_bandwidth
        } else if r > 0.0 {
            return 0.0;
        } else {
            0.0
        };
        1.0 / local_time.max(remote_time).max(f64::MIN_POSITIVE)
    }

    /// The remote access ratio that maximises the effective bandwidth: the
    /// balanced split where each tier is kept busy in proportion to its
    /// bandwidth — the paper's `R^remote_BW` reference point.
    pub fn optimal_remote_access_ratio(&self) -> f64 {
        self.remote_bandwidth / (self.local_bandwidth + self.remote_bandwidth)
    }

    /// Attainable performance at a given intensity and remote access ratio.
    pub fn attainable(&self, ai: f64, remote_access_ratio: f64) -> f64 {
        (self.effective_bandwidth(remote_access_ratio) * ai).min(self.peak_flops)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn testbed() -> Roofline {
        Roofline::new(460.0e9, 73.0e9)
    }

    #[test]
    fn attainable_is_min_of_compute_and_memory() {
        let r = testbed();
        // Memory bound region.
        assert!((r.attainable(1.0) - 73.0e9).abs() < 1.0);
        // Compute bound region.
        assert!((r.attainable(100.0) - 460.0e9).abs() < 1.0);
        // Exactly at the ridge both limits agree.
        let ridge = r.ridge_point();
        assert!((r.attainable(ridge) - 460.0e9).abs() < 1.0);
        assert!(r.is_memory_bound(ridge * 0.5));
        assert!(!r.is_memory_bound(ridge * 2.0));
    }

    #[test]
    fn curve_is_monotone_nondecreasing() {
        let r = testbed();
        let curve = r.curve(0.01, 1000.0, 64);
        assert_eq!(curve.len(), 64);
        for w in curve.windows(2) {
            assert!(w[1].1 >= w[0].1 - 1e-6);
        }
    }

    #[test]
    fn point_efficiency_is_bounded() {
        let r = testbed();
        let p = RooflinePoint {
            label: "HPL-p2".into(),
            arithmetic_intensity: 16.0,
            achieved_flops: 300.0e9,
        };
        let e = p.efficiency(&r);
        assert!(e > 0.0 && e <= 1.0);
    }

    #[test]
    fn aggregate_roofline_raises_the_memory_ceiling() {
        let m = MultiTierRoofline::new(460.0e9, 73.0e9, 34.0e9);
        let local = Roofline::new(460.0e9, 73.0e9);
        let agg = m.aggregate();
        assert!(agg.attainable(1.0) > local.attainable(1.0));
        assert!((agg.attainable(1.0) - 107.0e9).abs() < 1.0);
        // Compute ceiling unchanged.
        assert_eq!(agg.attainable(1e6), local.attainable(1e6));
    }

    #[test]
    fn effective_bandwidth_peaks_at_balanced_ratio() {
        let m = MultiTierRoofline::new(460.0e9, 73.0e9, 34.0e9);
        let opt = m.optimal_remote_access_ratio();
        assert!((opt - 34.0 / 107.0).abs() < 1e-9);
        let at_opt = m.effective_bandwidth(opt);
        assert!((at_opt - 107.0e9).abs() / 107.0e9 < 1e-6);
        // Any other ratio is worse.
        assert!(m.effective_bandwidth(0.0) < at_opt);
        assert!(m.effective_bandwidth(0.8) < at_opt);
        // All-local equals the local bandwidth.
        assert!((m.effective_bandwidth(0.0) - 73.0e9).abs() < 1.0);
    }

    #[test]
    fn zero_remote_bandwidth_degenerates_gracefully() {
        let m = MultiTierRoofline::new(100.0e9, 50.0e9, 0.0);
        assert_eq!(m.effective_bandwidth(0.5), 0.0);
        assert!((m.effective_bandwidth(0.0) - 50.0e9).abs() < 1.0);
    }

    #[test]
    #[should_panic]
    fn rejects_nonpositive_peaks() {
        let _ = Roofline::new(0.0, 1.0);
    }
}
