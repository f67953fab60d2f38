//! Page-granular access histograms and the cumulative-distribution transform
//! behind the paper's memory bandwidth-capacity scaling curves (Figure 6).

use serde::{Deserialize, Serialize};
use std::collections::BTreeMap;

/// Histogram of access counts per page.
///
/// Pages are identified by their global page index in the engine's virtual
/// address space. The histogram is the raw material for the
/// bandwidth-capacity scaling curve: pages sorted by hotness vs the cumulative
/// share of accesses they receive.
#[derive(Debug, Clone, Default, PartialEq, Serialize, Deserialize)]
pub struct PageHistogram {
    counts: BTreeMap<u64, u64>,
}

/// One point on the cumulative bandwidth-capacity scaling curve.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct ScalingPoint {
    /// Fraction of the memory footprint considered (hottest pages first), 0–1.
    pub footprint_fraction: f64,
    /// Fraction of all memory accesses landing in those pages, 0–1.
    pub access_fraction: f64,
}

impl PageHistogram {
    /// Creates an empty histogram.
    pub fn new() -> Self {
        Self::default()
    }

    /// Records `n` accesses to page `page`.
    pub fn record(&mut self, page: u64, n: u64) {
        *self.counts.entry(page).or_insert(0) += n;
    }

    /// Number of distinct pages touched.
    pub fn touched_pages(&self) -> usize {
        self.counts.len()
    }

    /// Total number of recorded accesses.
    pub fn total_accesses(&self) -> u64 {
        self.counts.values().sum()
    }

    /// Access count of one page (0 if never touched).
    pub fn count(&self, page: u64) -> u64 {
        self.counts.get(&page).copied().unwrap_or(0)
    }

    /// Merges another histogram into this one.
    pub fn merge(&mut self, other: &PageHistogram) {
        for (&page, &n) in &other.counts {
            self.record(page, n);
        }
    }

    /// Iterator over `(page, count)` pairs in ascending page order.
    pub fn iter(&self) -> impl Iterator<Item = (u64, u64)> + '_ {
        self.counts.iter().map(|(&p, &c)| (p, c))
    }

    /// Builds the cumulative distribution of accesses over the footprint
    /// (pages sorted hottest-first), sampled at `samples` evenly spaced
    /// footprint fractions plus the origin.
    ///
    /// `footprint_pages` is the denominator for the footprint axis; pass the
    /// total number of allocated pages to reproduce the paper's curves (pages
    /// that are allocated but never accessed stretch the curve to the right).
    pub fn scaling_curve(&self, footprint_pages: u64, samples: usize) -> Vec<ScalingPoint> {
        assert!(samples >= 1, "at least one sample point is required");
        let mut sorted: Vec<u64> = self.counts.values().copied().collect();
        sorted.sort_unstable_by(|a, b| b.cmp(a));
        let total: u64 = sorted.iter().sum();
        let footprint = footprint_pages.max(sorted.len() as u64).max(1);

        let mut curve = Vec::with_capacity(samples + 1);
        curve.push(ScalingPoint {
            footprint_fraction: 0.0,
            access_fraction: 0.0,
        });
        if total == 0 {
            for i in 1..=samples {
                curve.push(ScalingPoint {
                    footprint_fraction: i as f64 / samples as f64,
                    access_fraction: 0.0,
                });
            }
            return curve;
        }

        // Prefix sums of sorted counts.
        let mut prefix = Vec::with_capacity(sorted.len() + 1);
        prefix.push(0u64);
        for c in &sorted {
            prefix.push(prefix.last().unwrap() + c);
        }

        for i in 1..=samples {
            let frac = i as f64 / samples as f64;
            let pages = (frac * footprint as f64).round() as usize;
            let covered = pages.min(sorted.len());
            let acc = prefix[covered];
            curve.push(ScalingPoint {
                footprint_fraction: frac,
                access_fraction: acc as f64 / total as f64,
            });
        }
        curve
    }

    /// Fraction of the footprint needed to cover `access_target` (0–1) of all
    /// accesses; a concise skewness measure ("x% of pages receive y% of
    /// accesses").
    pub fn footprint_for_access_share(&self, footprint_pages: u64, access_target: f64) -> f64 {
        let curve = self.scaling_curve(footprint_pages, 1000);
        for p in &curve {
            if p.access_fraction >= access_target {
                return p.footprint_fraction;
            }
        }
        1.0
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn empty_histogram_curve_is_flat() {
        let h = PageHistogram::new();
        let curve = h.scaling_curve(10, 4);
        assert_eq!(curve.len(), 5);
        assert!(curve.iter().all(|p| p.access_fraction == 0.0));
    }

    #[test]
    fn uniform_accesses_give_linear_curve() {
        let mut h = PageHistogram::new();
        for p in 0..100 {
            h.record(p, 10);
        }
        let curve = h.scaling_curve(100, 10);
        for pt in &curve {
            assert!((pt.access_fraction - pt.footprint_fraction).abs() < 0.02);
        }
    }

    #[test]
    fn skewed_accesses_give_concave_curve() {
        let mut h = PageHistogram::new();
        // One hot page with 90% of accesses, 9 cold pages share the rest.
        h.record(0, 900);
        for p in 1..10 {
            h.record(p, 100 / 9 + 1);
        }
        let frac = h.footprint_for_access_share(10, 0.85);
        assert!(
            frac <= 0.2,
            "hot page should cover 85% of accesses, got {frac}"
        );
    }

    #[test]
    fn curve_is_monotonic_and_bounded() {
        let mut h = PageHistogram::new();
        for p in 0..37 {
            h.record(p, (p * 13 + 1) % 97);
        }
        let curve = h.scaling_curve(50, 20);
        for w in curve.windows(2) {
            assert!(w[1].access_fraction >= w[0].access_fraction);
            assert!(w[1].footprint_fraction >= w[0].footprint_fraction);
        }
        assert!((curve.last().unwrap().access_fraction - 1.0).abs() < 1e-9);
    }

    #[test]
    fn merge_adds_counts() {
        let mut a = PageHistogram::new();
        a.record(1, 5);
        let mut b = PageHistogram::new();
        b.record(1, 3);
        b.record(2, 7);
        a.merge(&b);
        assert_eq!(a.count(1), 8);
        assert_eq!(a.count(2), 7);
        assert_eq!(a.total_accesses(), 15);
        assert_eq!(a.touched_pages(), 2);
    }

    #[test]
    fn unallocated_footprint_stretches_curve() {
        let mut h = PageHistogram::new();
        h.record(0, 100);
        // Footprint of 10 pages, only 1 touched: 10% of footprint covers all accesses.
        let f = h.footprint_for_access_share(10, 0.99);
        assert!(f <= 0.11, "got {f}");
    }
}
