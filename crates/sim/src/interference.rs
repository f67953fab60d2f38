//! Background interference on the memory-pool link.
//!
//! The paper injects interference with LBench at configurable levels of
//! intensity (LoI = fraction of the peak raw link traffic) and, for the
//! scheduling study, varies the level over time as co-located jobs come and
//! go. [`InterferenceProfile`] captures both shapes.

use serde::{Deserialize, Serialize};

/// One epoch of a time-varying interference schedule.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct InterferenceEpoch {
    /// Start time of the epoch (seconds of simulated application time).
    pub start_s: f64,
    /// Level of interference during the epoch, 0–1 of peak raw link traffic.
    pub loi: f64,
}

/// Background interference experienced by the application on the pool link.
#[derive(Debug, Clone, Default, PartialEq, Serialize, Deserialize)]
pub enum InterferenceProfile {
    /// No co-running jobs on the pool (the paper's `LoI = 0` baseline).
    #[default]
    Idle,
    /// Constant level of interference (fraction of peak raw link traffic).
    Constant(f64),
    /// Piecewise-constant schedule; epochs must be sorted by start time and
    /// the first epoch should start at 0.
    Schedule(Vec<InterferenceEpoch>),
}

impl InterferenceProfile {
    /// Constant interference at `percent` of the peak link traffic (the
    /// paper's notation: `LoI = 10, 20, ...`).
    pub fn constant_percent(percent: f64) -> Self {
        InterferenceProfile::Constant(percent / 100.0)
    }

    /// Builds a schedule from `(start_s, loi)` pairs.
    pub fn schedule(epochs: Vec<(f64, f64)>) -> Self {
        let mut eps: Vec<InterferenceEpoch> = epochs
            .into_iter()
            .map(|(start_s, loi)| InterferenceEpoch { start_s, loi })
            .collect();
        eps.sort_by(|a, b| a.start_s.partial_cmp(&b.start_s).unwrap());
        InterferenceProfile::Schedule(eps)
    }

    /// Level of interference at simulated time `t_s`.
    pub fn loi_at(&self, t_s: f64) -> f64 {
        match self {
            InterferenceProfile::Idle => 0.0,
            InterferenceProfile::Constant(l) => l.clamp(0.0, 1.0),
            InterferenceProfile::Schedule(epochs) => {
                let mut current = 0.0;
                for e in epochs {
                    if e.start_s <= t_s {
                        current = e.loi;
                    } else {
                        break;
                    }
                }
                current.clamp(0.0, 1.0)
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn idle_is_zero() {
        assert_eq!(InterferenceProfile::Idle.loi_at(3.0), 0.0);
        assert_eq!(InterferenceProfile::default(), InterferenceProfile::Idle);
    }

    #[test]
    fn constant_percent_conversion() {
        let p = InterferenceProfile::constant_percent(30.0);
        assert!((p.loi_at(0.0) - 0.3).abs() < 1e-12);
        assert!((p.loi_at(100.0) - 0.3).abs() < 1e-12);
    }

    #[test]
    fn constant_is_clamped() {
        assert_eq!(InterferenceProfile::Constant(1.7).loi_at(0.0), 1.0);
        assert_eq!(InterferenceProfile::Constant(-0.2).loi_at(0.0), 0.0);
    }

    #[test]
    fn schedule_lookup_follows_epochs() {
        let p = InterferenceProfile::schedule(vec![(0.0, 0.1), (10.0, 0.4), (20.0, 0.0)]);
        assert!((p.loi_at(0.0) - 0.1).abs() < 1e-12);
        assert!((p.loi_at(9.99) - 0.1).abs() < 1e-12);
        assert!((p.loi_at(10.0) - 0.4).abs() < 1e-12);
        assert!((p.loi_at(25.0) - 0.0).abs() < 1e-12);
    }

    #[test]
    fn schedule_sorts_unordered_epochs() {
        let p = InterferenceProfile::schedule(vec![(10.0, 0.5), (0.0, 0.2)]);
        assert!((p.loi_at(5.0) - 0.2).abs() < 1e-12);
        assert!((p.loi_at(15.0) - 0.5).abs() < 1e-12);
    }

    #[test]
    fn before_first_epoch_is_idle() {
        let p = InterferenceProfile::schedule(vec![(5.0, 0.5)]);
        assert_eq!(p.loi_at(1.0), 0.0);
    }
}
