//! Execution-time model.
//!
//! Time is computed per *chunk* of work (a bounded amount of flops and DRAM
//! traffic) using an extended roofline: a chunk takes as long as its slowest
//! resource — compute, local-tier bandwidth, pool bandwidth (reduced by link
//! interference), or exposed miss latency (demand misses not covered by the
//! prefetcher, divided by the node's memory-level parallelism and inflated by
//! link queueing for pool misses). This is the quantitative backbone behind
//! the paper's observations that interference sensitivity grows with pool
//! traffic and shrinks with arithmetic intensity (Section 6.1), and that
//! prefetching is performance-critical for HPC workloads (Section 4.2).

use crate::config::MachineConfig;
use crate::counters::Counters;
use crate::link::LinkModel;
use serde::{Deserialize, Serialize};

/// Per-chunk timing breakdown.
#[derive(Debug, Clone, Copy, Default, PartialEq, Serialize, Deserialize)]
pub struct TimeBreakdown {
    /// Time the chunk would take if only compute mattered.
    pub compute_s: f64,
    /// Time to move the chunk's local-tier traffic at local bandwidth.
    pub local_bw_s: f64,
    /// Time to move the chunk's pool traffic at the interference-reduced
    /// pool bandwidth.
    pub pool_bw_s: f64,
    /// Time to cover exposed demand-miss latency (MLP-limited).
    pub latency_s: f64,
    /// The resulting chunk duration: the maximum of the four components.
    pub total_s: f64,
    /// Link utilization used for the queueing model (background + own).
    pub link_utilization: f64,
}

impl TimeBreakdown {
    /// Name of the dominating component.
    pub fn bottleneck(&self) -> &'static str {
        let m = self.total_s;
        if m == 0.0 {
            "idle"
        } else if self.compute_s >= m {
            "compute"
        } else if self.pool_bw_s >= m {
            "pool-bandwidth"
        } else if self.local_bw_s >= m {
            "local-bandwidth"
        } else {
            "latency"
        }
    }
}

/// Levels of interference [`TimingModel::chunk_times`] solves together: the
/// width of one block of lanes, whose state lives in stack arrays.
const LANES: usize = 8;

/// The chunk-level timing model.
#[derive(Debug, Clone)]
pub struct TimingModel {
    config: MachineConfig,
    link: LinkModel,
}

impl TimingModel {
    /// Creates a timing model for a machine configuration.
    pub fn new(config: MachineConfig) -> Self {
        let link = LinkModel::new(config.link);
        Self { config, link }
    }

    /// The link model.
    pub fn link(&self) -> &LinkModel {
        &self.link
    }

    /// Computes the duration of a chunk of work under a background level of
    /// interference `loi` (0–1 of peak raw link traffic).
    ///
    /// The latency component is solved self-consistently: the queueing delay
    /// on the pool link depends on the link utilization, which in turn depends
    /// on how long the chunk takes. The equation `t = max(t_base, t_lat(t))`
    /// has a unique solution because `t_lat` decreases as `t` grows; it is
    /// found by bisection. This is the one-lane case of
    /// [`chunk_times`](Self::chunk_times).
    pub fn chunk_time(&self, chunk: &Counters, loi: f64) -> TimeBreakdown {
        let mut out = [TimeBreakdown::default()];
        self.chunk_times(chunk, &[loi], &mut out);
        out[0]
    }

    /// Computes the duration of one chunk under each level of interference in
    /// `lois`, writing `chunk_time(chunk, lois[i])` to `out[i]`.
    ///
    /// The levels ("lanes") are solved in blocks of eight, whose bisections
    /// advance in lockstep. A lane whose bracket is open runs the same
    /// operations in the same order as a lone call, a lane whose bracket is
    /// empty takes its latency at `t_base` whether or not its block bisects,
    /// and no lane reads its neighbours, so each result is bit-identical to
    /// the one-lane call wherever the lane sits; the lanes only share the
    /// processor, which overlaps their independent division chains.
    ///
    /// # Panics
    ///
    /// If `lois` and `out` differ in length.
    pub fn chunk_times(&self, chunk: &Counters, lois: &[f64], out: &mut [TimeBreakdown]) {
        assert_eq!(
            lois.len(),
            out.len(),
            "one output per level of interference"
        );
        let line = self.config.cache.line_bytes;
        // Page-migration traffic competes for the same tier bandwidth as the
        // application's accesses (each migrated page is read from one tier
        // and written to the other), and its raw bytes are already part of
        // `link_raw_bytes`, so migrations also queue on the pool link. Their
        // latency is never exposed to the core: migrations are asynchronous
        // background copies.
        let bytes_local = (chunk.bytes_local(line) + chunk.migration_lines_local * line) as f64;
        let bytes_pool = (chunk.bytes_pool(line) + chunk.migration_lines_pool * line) as f64;

        let compute_s = chunk.flops as f64 / self.config.peak_flops;
        let local_bw_s = bytes_local / self.config.local.bandwidth_bps;

        let local_latency_total =
            chunk.demand_dram_lines_local as f64 * self.config.local.latency_s;
        let pool_demand_lines = chunk.demand_dram_lines_pool as f64;
        let raw_bytes = chunk.link_raw_bytes as f64;

        // Latency term as a function of the assumed chunk duration `t`.
        let latency_at = |t: f64, loi: f64| -> (f64, f64) {
            let raw_rate = if t > 0.0 { raw_bytes / t } else { 0.0 };
            let utilization = self.link.utilization(raw_rate, loi);
            let pool_latency = self
                .link
                .effective_latency(self.config.pool.latency_s, utilization);
            let lat = (local_latency_total + pool_demand_lines * pool_latency) / self.config.mlp;
            (lat, utilization)
        };

        // Bracket the fixed point: at `lo` the residual is non-negative, at
        // `hi` (latency computed with the utilization cap) it is non-positive.
        let worst_latency = self
            .link
            .effective_latency(self.config.pool.latency_s, f64::INFINITY);
        let lat_upper = (local_latency_total + pool_demand_lines * worst_latency) / self.config.mlp;

        for (lois, out) in lois.chunks(LANES).zip(out.chunks_mut(LANES)) {
            // A partial block repeats its last level in the spare lanes, whose
            // results are dropped.
            let mut loi = [lois[lois.len() - 1]; LANES];
            loi[..lois.len()].copy_from_slice(lois);
            let pool_bw_s = loi.map(|loi| {
                bytes_pool
                    / self
                        .link
                        .available_data_bandwidth(self.config.pool.bandwidth_bps, loi)
            });
            let t_base = pool_bw_s.map(|pool_bw_s| compute_s.max(local_bw_s).max(pool_bw_s));
            let mut lo = t_base;
            let mut hi = t_base.map(|t_base| t_base.max(lat_upper));
            let bisects: [bool; LANES] = std::array::from_fn(|l| hi[l] > 0.0 && lo[l] < hi[l]);
            let mut latency_s = [0.0; LANES];
            let mut utilization = [0.0; LANES];
            // A block with any open bracket takes all 60 steps in every
            // lane, and a step selects its new bracket instead of branching,
            // so the lanes advance side by side. A lane with an empty bracket
            // bisects harmlessly; its latency is taken at `t_base` below, so
            // a block whose brackets are all empty skips the steps.
            let steps = if bisects.contains(&true) { 60 } else { 0 };
            for _ in 0..steps {
                for l in 0..LANES {
                    let mid = 0.5 * (lo[l] + hi[l]);
                    let (lat, util) = latency_at(mid, loi[l]);
                    latency_s[l] = lat;
                    utilization[l] = util;
                    let above = t_base[l].max(lat) > mid;
                    lo[l] = if above { mid } else { lo[l] };
                    hi[l] = if above { hi[l] } else { mid };
                }
            }
            for (l, out) in out.iter_mut().enumerate() {
                if !bisects[l] {
                    (latency_s[l], utilization[l]) = latency_at(t_base[l].max(1e-30), loi[l]);
                }
                *out = TimeBreakdown {
                    compute_s,
                    local_bw_s,
                    pool_bw_s: pool_bw_s[l],
                    latency_s: latency_s[l],
                    total_s: t_base[l].max(latency_s[l]),
                    link_utilization: utilization[l],
                };
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn model() -> TimingModel {
        TimingModel::new(MachineConfig::skylake_testbed())
    }

    fn local_streaming_chunk() -> Counters {
        // 64 MiB of local traffic, fully prefetched (no exposed demand misses),
        // negligible flops.
        Counters {
            flops: 1_000_000,
            dram_lines_local: 1_048_576,
            l2_lines_in: 1_048_576,
            pf_issued: 1_048_576,
            ..Default::default()
        }
    }

    fn pool_streaming_chunk() -> Counters {
        Counters {
            flops: 1_000_000,
            dram_lines_pool: 1_048_576,
            link_raw_bytes: (1_048_576u64 * 64) * 85 / 34,
            ..Default::default()
        }
    }

    #[test]
    fn local_streaming_is_bandwidth_bound() {
        let m = model();
        let b = m.chunk_time(&local_streaming_chunk(), 0.0);
        let expected = (1_048_576.0 * 64.0) / 73.0e9;
        assert!((b.total_s - expected).abs() / expected < 1e-9);
        assert_eq!(b.bottleneck(), "local-bandwidth");
    }

    #[test]
    fn compute_bound_chunk_ignores_interference() {
        let m = model();
        let chunk = Counters {
            flops: 10_000_000_000,
            dram_lines_local: 1000,
            dram_lines_pool: 1000,
            link_raw_bytes: 1000 * 64 * 85 / 34,
            ..Default::default()
        };
        let t0 = m.chunk_time(&chunk, 0.0).total_s;
        let t50 = m.chunk_time(&chunk, 0.5).total_s;
        assert_eq!(m.chunk_time(&chunk, 0.0).bottleneck(), "compute");
        assert!(
            (t50 - t0).abs() / t0 < 1e-9,
            "compute-bound time must not change"
        );
    }

    #[test]
    fn pool_streaming_slows_down_with_interference() {
        let m = model();
        let chunk = pool_streaming_chunk();
        let t0 = m.chunk_time(&chunk, 0.0).total_s;
        let t25 = m.chunk_time(&chunk, 0.25).total_s;
        let t50 = m.chunk_time(&chunk, 0.5).total_s;
        assert!(t25 > t0);
        assert!(t50 > t25);
    }

    #[test]
    fn exposed_misses_cost_more_on_the_pool() {
        let m = model();
        let local = Counters {
            demand_dram_lines_local: 100_000,
            dram_lines_local: 100_000,
            ..Default::default()
        };
        let pool = Counters {
            demand_dram_lines_pool: 100_000,
            dram_lines_pool: 100_000,
            link_raw_bytes: 100_000 * 64 * 85 / 34,
            ..Default::default()
        };
        let tl = m.chunk_time(&local, 0.0);
        let tp = m.chunk_time(&pool, 0.0);
        assert!(tp.latency_s > tl.latency_s);
    }

    #[test]
    fn unprefetched_stream_is_slower_than_prefetched() {
        let m = model();
        let prefetched = local_streaming_chunk();
        let mut demand = prefetched;
        demand.pf_issued = 0;
        demand.demand_dram_lines_local = demand.dram_lines_local;
        let tp = m.chunk_time(&prefetched, 0.0).total_s;
        let td = m.chunk_time(&demand, 0.0).total_s;
        assert!(
            td > tp * 1.2,
            "exposing miss latency must cost noticeably more: {td} vs {tp}"
        );
    }

    #[test]
    fn latency_term_grows_with_interference_queueing() {
        let m = model();
        let chunk = Counters {
            demand_dram_lines_pool: 500_000,
            dram_lines_pool: 500_000,
            link_raw_bytes: 500_000 * 64 * 85 / 34,
            ..Default::default()
        };
        let b0 = m.chunk_time(&chunk, 0.0);
        let b50 = m.chunk_time(&chunk, 0.5);
        assert!(b50.latency_s > b0.latency_s * 1.5);
        assert!(b50.link_utilization > b0.link_utilization);
    }

    #[test]
    fn empty_chunk_takes_no_time() {
        let m = model();
        let b = m.chunk_time(&Counters::default(), 0.3);
        assert_eq!(b.total_s, 0.0);
        assert_eq!(b.bottleneck(), "idle");
    }

    #[test]
    fn migration_traffic_extends_the_bandwidth_terms() {
        let m = model();
        let base = pool_streaming_chunk();
        let mut with_migrations = base;
        // A big burst of migrations: a page's worth of lines on both tiers
        // per migrated page.
        with_migrations.migration_lines_pool = 2_000_000;
        with_migrations.migration_lines_local = 2_000_000;
        let t0 = m.chunk_time(&base, 0.0);
        let t1 = m.chunk_time(&with_migrations, 0.0);
        assert!(
            t1.pool_bw_s > t0.pool_bw_s * 2.0,
            "migration bytes must consume pool bandwidth"
        );
        assert!(t1.local_bw_s > t0.local_bw_s);
        assert!(t1.total_s > t0.total_s);
        // A migration-only chunk still takes time.
        let migration_only = Counters {
            migration_lines_local: 100_000,
            migration_lines_pool: 100_000,
            link_raw_bytes: 100_000 * 64 * 85 / 34,
            ..Default::default()
        };
        assert!(m.chunk_time(&migration_only, 0.0).total_s > 0.0);
    }

    /// Bits of every `TimeBreakdown` field for three chunks at LoI 0, 0.3 and
    /// 0.5, recorded from the scalar bisection that `chunk_times` replaced.
    /// Any drift in the bisection's arithmetic changes some of them.
    #[test]
    fn chunk_time_bits_are_frozen() {
        let pool_latency_bound = Counters {
            demand_dram_lines_pool: 500_000,
            dram_lines_pool: 500_000,
            link_raw_bytes: 500_000 * 64 * 85 / 34,
            ..Default::default()
        };
        let mixed = Counters {
            flops: 300_000_000,
            dram_lines_local: 200_000,
            dram_lines_pool: 300_000,
            demand_dram_lines_local: 50_000,
            demand_dram_lines_pool: 120_000,
            writeback_lines_local: 10_000,
            writeback_lines_pool: 20_000,
            link_raw_bytes: 320_000 * 64 * 85 / 34,
            migration_lines_local: 4096,
            migration_lines_pool: 4096,
            ..Default::default()
        };
        // Fields in order: compute, local bandwidth, pool bandwidth, latency,
        // total, link utilization.
        #[rustfmt::skip]
        let expected: [(Counters, f64, [u64; 6]); 9] = [
            (pool_streaming_chunk(), 0.0, [0x3ec23c7155a45b40, 0, 0x3f602b5680248db9, 0, 0x3f602b5680248db9, 0x3fee666666666666]),
            (pool_streaming_chunk(), 0.3, [0x3ec23c7155a45b40, 0, 0x3f625fcb05fafe24, 0, 0x3f625fcb05fafe24, 0x3fee666666666666]),
            (pool_streaming_chunk(), 0.5, [0x3ec23c7155a45b40, 0, 0x3f64362c202db127, 0, 0x3f64362c202db127, 0x3fee666666666666]),
            (pool_latency_bound, 0.0, [0, 0, 0x3f4ed7291499b871, 0x3f68f28c25bf58f3, 0x3f68f28c25bf58f3, 0x3fd3c78bcbaab376]),
            (pool_latency_bound, 0.3, [0, 0, 0x3f5185e2fa401186, 0x3f71d1d1d1d1d1d3, 0x3f71d1d1d1d1d1d3, 0x3fe085d754155869]),
            (pool_latency_bound, 0.5, [0, 0, 0x3f534679ace01346, 0x3f78f28c25bf58f4, 0x3f78f28c25bf58f4, 0x3fe4f1e2f2eaacde]),
            (mixed, 0.0, [0x3f455ed4d05c9af0, 0x3f289a2fe6817b20, 0x3f43fd94716d3137, 0x3f530e622bbf8cb1, 0x3f530e622bbf8cb1, 0x3fe09287be2df7bd]),
            (mixed, 0.3, [0x3f455ed4d05c9af0, 0x3f289a2fe6817b20, 0x3f46b76e80e4cf33, 0x3f5ad11c45c00781, 0x3f5ad11c45c00781, 0x3fe5605d3ee89b9d]),
            (mixed, 0.5, [0x3f455ed4d05c9af0, 0x3f289a2fe6817b20, 0x3f48fcf98dc87d85, 0x3f62964f6d7b4bbd, 0x3f62964f6d7b4bbd, 0x3fe87ecb453947fc]),
        ];
        let m = model();
        for (chunk, loi, bits) in expected {
            let b = m.chunk_time(&chunk, loi);
            let got = [
                b.compute_s,
                b.local_bw_s,
                b.pool_bw_s,
                b.latency_s,
                b.total_s,
                b.link_utilization,
            ]
            .map(f64::to_bits);
            assert_eq!(got, bits, "chunk {chunk:?} at LoI {loi}");
        }
    }
}
