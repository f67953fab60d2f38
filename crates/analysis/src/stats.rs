//! Descriptive statistics for experiment results.

use serde::{Deserialize, Serialize};

/// The five-number summary behind the box plots of Figure 13.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct FiveNumberSummary {
    /// Minimum.
    pub min: f64,
    /// 25th percentile.
    pub q1: f64,
    /// Median.
    pub median: f64,
    /// 75th percentile.
    pub q3: f64,
    /// Maximum.
    pub max: f64,
}

impl FiveNumberSummary {
    /// Total range.
    pub fn range(&self) -> f64 {
        self.max - self.min
    }
}

/// Arithmetic mean (0 for an empty slice).
pub fn mean(values: &[f64]) -> f64 {
    if values.is_empty() {
        return 0.0;
    }
    values.iter().sum::<f64>() / values.len() as f64
}

/// Linear-interpolated percentile (`p` in 0–100). Panics on an empty slice.
pub fn percentile(values: &[f64], p: f64) -> f64 {
    assert!(!values.is_empty(), "percentile of empty slice");
    assert!(
        (0.0..=100.0).contains(&p),
        "percentile must be within 0..=100"
    );
    let mut sorted: Vec<f64> = values.to_vec();
    sorted.sort_by(|a, b| a.partial_cmp(b).unwrap());
    if sorted.len() == 1 {
        return sorted[0];
    }
    let rank = p / 100.0 * (sorted.len() - 1) as f64;
    let lo = rank.floor() as usize;
    let hi = rank.ceil() as usize;
    let frac = rank - lo as f64;
    sorted[lo] * (1.0 - frac) + sorted[hi] * frac
}

/// Computes the five-number summary of a sample. Panics on an empty slice.
pub fn five_number_summary(values: &[f64]) -> FiveNumberSummary {
    assert!(!values.is_empty(), "summary of empty slice");
    FiveNumberSummary {
        min: percentile(values, 0.0),
        q1: percentile(values, 25.0),
        median: percentile(values, 50.0),
        q3: percentile(values, 75.0),
        max: percentile(values, 100.0),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn mean_of_simple_values() {
        assert_eq!(mean(&[1.0, 2.0, 3.0]), 2.0);
        assert_eq!(mean(&[]), 0.0);
    }

    #[test]
    fn percentile_interpolates() {
        let v = [1.0, 2.0, 3.0, 4.0];
        assert_eq!(percentile(&v, 0.0), 1.0);
        assert_eq!(percentile(&v, 100.0), 4.0);
        assert_eq!(percentile(&v, 50.0), 2.5);
        assert_eq!(percentile(&[42.0], 75.0), 42.0);
    }

    #[test]
    fn percentile_is_order_invariant() {
        let a = [5.0, 1.0, 3.0, 2.0, 4.0];
        let b = [1.0, 2.0, 3.0, 4.0, 5.0];
        assert_eq!(percentile(&a, 25.0), percentile(&b, 25.0));
        assert_eq!(percentile(&a, 50.0), 3.0);
    }

    #[test]
    fn five_number_summary_is_ordered() {
        let values: Vec<f64> = (1..=100).map(|i| i as f64).collect();
        let s = five_number_summary(&values);
        assert!(s.min <= s.q1 && s.q1 <= s.median && s.median <= s.q3 && s.q3 <= s.max);
        assert_eq!(s.min, 1.0);
        assert_eq!(s.max, 100.0);
        assert!((s.median - 50.5).abs() < 1e-9);
        assert_eq!(s.range(), 99.0);
    }

    #[test]
    #[should_panic(expected = "empty slice")]
    fn summary_of_empty_slice_panics() {
        let _ = five_number_summary(&[]);
    }

    #[test]
    #[should_panic(expected = "within 0..=100")]
    fn percentile_rejects_out_of_range() {
        let _ = percentile(&[1.0], 150.0);
    }
}
