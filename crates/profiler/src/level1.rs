//! Level 1: general (system-independent) memory characteristics.
//!
//! Answers the questions of Section 4 of the paper: where does the
//! application sit on the roofline, how is its memory traffic distributed
//! over its footprint (the bandwidth-capacity scaling curve of Figure 6), and
//! how suitable is hardware prefetching (accuracy, coverage, excess traffic
//! and performance gain — Figures 7 and 8).

use crate::runner::{run_workload, RunOptions};
use dismem_sim::{MachineConfig, RunReport};
use dismem_trace::histogram::ScalingPoint;
use dismem_workloads::Workload;
use serde::{Deserialize, Serialize};

/// Roofline point of one phase.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct PhasePoint {
    /// Label in the paper's convention (`"HPL-p2"`).
    pub label: String,
    /// Phase name as reported by the workload.
    pub phase: String,
    /// Arithmetic intensity in flops per DRAM byte.
    pub arithmetic_intensity: f64,
    /// Achieved throughput in Gflop/s.
    pub gflops: f64,
    /// Achieved DRAM bandwidth in GB/s.
    pub bandwidth_gbs: f64,
    /// Phase runtime in seconds.
    pub runtime_s: f64,
}

/// Prefetch suitability metrics (Figure 8).
#[derive(Debug, Clone, Copy, Serialize, Deserialize)]
pub struct PrefetchMetrics {
    /// Fraction of prefetched lines that were used (Equation 1).
    pub accuracy: f64,
    /// Fraction of L2 fills that were prefetched (Equation 2).
    pub coverage: f64,
    /// Extra DRAM traffic caused by prefetching, relative to the
    /// prefetch-disabled run (the paper's "excessive prefetch traffic").
    pub excess_traffic: f64,
    /// Speedup obtained from prefetching: `t_off / t_on - 1`.
    pub performance_gain: f64,
}

/// Traffic-over-time series for Figure 7.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct TimelineSeries {
    /// Bucket duration in seconds.
    pub bucket_s: f64,
    /// L2 cache lines fetched per bucket with prefetching enabled.
    pub with_prefetch: Vec<u64>,
    /// L2 cache lines fetched per bucket with prefetching disabled.
    pub without_prefetch: Vec<u64>,
}

/// The complete Level-1 report for one workload.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct Level1Report {
    /// Workload name.
    pub workload: String,
    /// Input description.
    pub input: String,
    /// Peak memory footprint in bytes.
    pub footprint_bytes: u64,
    /// Roofline points, one per phase.
    pub phases: Vec<PhasePoint>,
    /// Whole-run arithmetic intensity.
    pub arithmetic_intensity: f64,
    /// Whole-run achieved DRAM bandwidth in GB/s.
    pub bandwidth_gbs: f64,
    /// Bandwidth-capacity scaling curve (cumulative access share vs
    /// footprint share).
    pub scaling_curve: Vec<ScalingPoint>,
    /// Prefetch suitability metrics.
    pub prefetch: PrefetchMetrics,
    /// Traffic timelines with and without prefetching.
    pub timeline: TimelineSeries,
}

impl Level1Report {
    /// Fraction of the footprint that receives `share` (0–1) of all accesses —
    /// a skewness summary of the scaling curve.
    pub fn footprint_for_access_share(&self, share: f64) -> f64 {
        for p in &self.scaling_curve {
            if p.access_fraction >= share {
                return p.footprint_fraction;
            }
        }
        1.0
    }
}

/// Number of buckets used for the traffic timelines.
const TIMELINE_BUCKETS: usize = 60;

fn timeline_buckets(report: &RunReport, buckets: usize, bucket_s: f64) -> Vec<u64> {
    let mut out = vec![0u64; buckets];
    if bucket_s <= 0.0 {
        return out;
    }
    for sample in &report.timeline {
        let idx = ((sample.start_s / bucket_s) as usize).min(buckets - 1);
        out[idx] += sample.counters.l2_lines_in;
    }
    out
}

/// Runs the Level-1 profiling protocol: one run with prefetching enabled and
/// one with it disabled, both with an unbounded local tier (matching the
/// paper's Level-1 setup, which uses only node-local memory).
pub fn level1_profile(workload: &dyn Workload, base_config: &MachineConfig) -> Level1Report {
    let mut config = base_config.clone();
    config.local.capacity_bytes = None;
    config.pool.capacity_bytes = None;

    let with_pf = run_workload(
        workload,
        &RunOptions::new(config.clone().with_prefetch(true)),
    );
    let without_pf = run_workload(workload, &RunOptions::new(config.with_prefetch(false)));

    let line = with_pf.config.cache.line_bytes;
    let phases = with_pf
        .phases
        .iter()
        .enumerate()
        .map(|(i, p)| PhasePoint {
            label: format!("{}-p{}", workload.name(), i + 1),
            phase: p.name.clone(),
            arithmetic_intensity: p.arithmetic_intensity(),
            gflops: p.gflops(),
            bandwidth_gbs: p.dram_bandwidth_gbs(),
            runtime_s: p.runtime_s,
        })
        .collect();

    let traffic_on = with_pf.total.bytes_dram(line) as f64;
    let traffic_off = without_pf.total.bytes_dram(line) as f64;
    let excess_traffic = if traffic_off > 0.0 {
        (traffic_on - traffic_off) / traffic_off
    } else {
        0.0
    };
    let performance_gain = if with_pf.total_runtime_s > 0.0 {
        without_pf.total_runtime_s / with_pf.total_runtime_s - 1.0
    } else {
        0.0
    };
    let prefetch = PrefetchMetrics {
        accuracy: with_pf.total.prefetch_accuracy(),
        coverage: with_pf.total.prefetch_coverage(),
        excess_traffic,
        performance_gain,
    };

    let total_pages = with_pf
        .peak_footprint_bytes
        .div_ceil(dismem_trace::PAGE_SIZE);
    let scaling_curve = with_pf.page_histogram.scaling_curve(total_pages, 100);

    let longest = with_pf.total_runtime_s.max(without_pf.total_runtime_s);
    let bucket_s = longest / TIMELINE_BUCKETS as f64;
    let timeline = TimelineSeries {
        bucket_s,
        with_prefetch: timeline_buckets(&with_pf, TIMELINE_BUCKETS, bucket_s),
        without_prefetch: timeline_buckets(&without_pf, TIMELINE_BUCKETS, bucket_s),
    };

    Level1Report {
        workload: workload.name().to_string(),
        input: workload.input_description(),
        footprint_bytes: with_pf.peak_footprint_bytes,
        phases,
        arithmetic_intensity: with_pf.total.arithmetic_intensity(line),
        bandwidth_gbs: if with_pf.total_runtime_s > 0.0 {
            with_pf.total.bytes_dram(line) as f64 / with_pf.total_runtime_s / 1e9
        } else {
            0.0
        },
        scaling_curve,
        prefetch,
        timeline,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use dismem_workloads::WorkloadKind;

    fn profile(kind: WorkloadKind) -> Level1Report {
        let w = kind.instantiate_tiny();
        level1_profile(w.as_ref(), &MachineConfig::test_config())
    }

    #[test]
    fn hpl_has_higher_intensity_than_hypre() {
        let hpl = profile(WorkloadKind::Hpl);
        let hypre = profile(WorkloadKind::Hypre);
        // Compare the compute phases (p2) — the paper's Figure 5 ordering.
        let hpl_p2 = &hpl.phases[1];
        let hypre_p2 = &hypre.phases[1];
        assert!(
            hpl_p2.arithmetic_intensity > hypre_p2.arithmetic_intensity,
            "HPL {} vs Hypre {}",
            hpl_p2.arithmetic_intensity,
            hypre_p2.arithmetic_intensity
        );
    }

    #[test]
    fn streaming_workload_has_good_prefetch_metrics() {
        let hypre = profile(WorkloadKind::Hypre);
        assert!(
            hypre.prefetch.accuracy > 0.6,
            "accuracy {}",
            hypre.prefetch.accuracy
        );
        assert!(
            hypre.prefetch.coverage > 0.4,
            "coverage {}",
            hypre.prefetch.coverage
        );
        assert!(hypre.prefetch.performance_gain >= 0.0);
    }

    #[test]
    fn random_lookup_workload_has_poor_prefetch_coverage() {
        let xs = profile(WorkloadKind::XsBench);
        let hypre = profile(WorkloadKind::Hypre);
        assert!(
            xs.prefetch.coverage < hypre.prefetch.coverage,
            "XSBench coverage {} should be below Hypre {}",
            xs.prefetch.coverage,
            hypre.prefetch.coverage
        );
    }

    #[test]
    fn scaling_curve_is_monotonic_and_complete() {
        let bfs = profile(WorkloadKind::Bfs);
        let curve = &bfs.scaling_curve;
        assert!(curve.len() > 10);
        for w in curve.windows(2) {
            assert!(w[1].access_fraction >= w[0].access_fraction - 1e-12);
        }
        assert!((curve.last().unwrap().access_fraction - 1.0).abs() < 1e-9);
        // Labels follow the paper's convention.
        assert!(bfs.phases[0].label.starts_with("BFS-p1"));
    }

    #[test]
    fn timeline_has_traffic_in_some_buckets() {
        let hpl = profile(WorkloadKind::Hpl);
        let on: u64 = hpl.timeline.with_prefetch.iter().sum();
        let off: u64 = hpl.timeline.without_prefetch.iter().sum();
        assert!(on > 0 && off > 0);
        assert!(hpl.timeline.bucket_s > 0.0);
    }

    #[test]
    fn footprint_share_helper_is_sane() {
        let xs = profile(WorkloadKind::XsBench);
        let f = xs.footprint_for_access_share(0.9);
        assert!(f > 0.0 && f <= 1.0);
    }
}
