//! Machine configuration: tier, link, cache, prefetcher and timing parameters.
//!
//! The default configuration, [`MachineConfig::skylake_testbed`], reproduces
//! the paper's emulation platform: a dual-socket Intel Xeon (Skylake-X) where
//! socket 0 is the compute node, socket 1's DRAM is the memory pool, and the
//! UPI interconnect is the pool link (intra-socket 73 GB/s / 111 ns,
//! inter-socket 34 GB/s / 202 ns, raw link saturation around 85 GB/s).

use serde::{Deserialize, Serialize};

/// Parameters of one memory tier.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct TierParams {
    /// Human-readable tier name.
    pub name: String,
    /// Usable capacity in bytes; `None` means unbounded (used for Level-1
    /// profiling runs where everything fits locally).
    pub capacity_bytes: Option<u64>,
    /// Sustainable bandwidth in bytes per second.
    pub bandwidth_bps: f64,
    /// Idle (unloaded) access latency in seconds.
    pub latency_s: f64,
}

impl TierParams {
    /// Node-local DDR tier of the paper's testbed.
    pub fn local_ddr() -> Self {
        Self {
            name: "local-ddr".to_string(),
            capacity_bytes: None,
            bandwidth_bps: 73.0e9,
            latency_s: 111.0e-9,
        }
    }

    /// Rack-level memory-pool tier of the paper's testbed (remote socket DRAM
    /// reached over UPI in the emulation).
    pub fn memory_pool() -> Self {
        Self {
            name: "memory-pool".to_string(),
            capacity_bytes: None,
            bandwidth_bps: 34.0e9,
            latency_s: 202.0e-9,
        }
    }

    /// Returns a copy with the given capacity.
    pub fn with_capacity(mut self, bytes: u64) -> Self {
        self.capacity_bytes = Some(bytes);
        self
    }
}

/// Parameters of the link between the compute node and the memory pool.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct LinkParams {
    /// Peak payload (data) bandwidth in bytes per second.
    pub data_bandwidth_bps: f64,
    /// Peak raw link traffic in bytes per second, including protocol overhead
    /// (the paper observes saturation at ~85 GB/s while payload peaks at
    /// ~34 GB/s).
    pub raw_bandwidth_bps: f64,
    /// Maximum utilization used when computing queueing delay, to keep the
    /// M/M/1-style factor finite.
    pub max_utilization: f64,
    /// How strongly background interference eats into the payload bandwidth
    /// the application can still extract from the link (0 = not at all,
    /// 1 = strict partitioning). A single node cannot saturate the link on
    /// its own — its concurrency is limited — so an interferer consuming
    /// LoI of the raw bandwidth removes only part of the application's
    /// achievable payload rate; the rest of the impact arrives as queueing
    /// latency. Calibrated against the paper's Figure 10.
    pub bandwidth_contention_factor: f64,
}

impl LinkParams {
    /// UPI link of the paper's testbed.
    pub fn upi() -> Self {
        Self {
            data_bandwidth_bps: 34.0e9,
            raw_bandwidth_bps: 85.0e9,
            max_utilization: 0.95,
            bandwidth_contention_factor: 0.4,
        }
    }

    /// Ratio of raw link traffic to payload traffic (protocol overhead).
    pub fn protocol_overhead(&self) -> f64 {
        self.raw_bandwidth_bps / self.data_bandwidth_bps
    }
}

/// Cache hierarchy parameters.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct CacheParams {
    /// L2 capacity in bytes (per simulated node aggregate).
    pub l2_bytes: u64,
    /// L2 associativity.
    pub l2_ways: u32,
    /// Last-level cache capacity in bytes.
    pub llc_bytes: u64,
    /// LLC associativity.
    pub llc_ways: u32,
    /// Cache line size in bytes.
    pub line_bytes: u64,
}

impl CacheParams {
    /// Skylake-X-like hierarchy: 1 MiB L2 per core (scaled), 16.5 MiB shared
    /// non-inclusive LLC (modelled as 16 MiB).
    pub fn skylake() -> Self {
        Self {
            l2_bytes: 1 << 20,
            l2_ways: 16,
            llc_bytes: 16 << 20,
            llc_ways: 16,
            line_bytes: 64,
        }
    }

    /// A hierarchy scaled down proportionally to the reduced problem sizes of
    /// the proxy workloads, preserving the paper's footprint-to-cache ratio
    /// (the real testbed runs multi-GiB problems against a ~16 MiB LLC; the
    /// proxies run tens-of-MiB problems against a 2 MiB LLC).
    pub fn scaled_emulation() -> Self {
        Self {
            l2_bytes: 256 * 1024,
            l2_ways: 8,
            llc_bytes: 2 << 20,
            llc_ways: 16,
            line_bytes: 64,
        }
    }

    /// A deliberately small hierarchy for fast unit tests.
    pub fn tiny() -> Self {
        Self {
            l2_bytes: 8 * 1024,
            l2_ways: 4,
            llc_bytes: 64 * 1024,
            llc_ways: 8,
            line_bytes: 64,
        }
    }

    /// Number of L2 sets.
    pub fn l2_sets(&self) -> usize {
        (self.l2_bytes / (self.line_bytes * self.l2_ways as u64)) as usize
    }

    /// Number of LLC sets.
    pub fn llc_sets(&self) -> usize {
        (self.llc_bytes / (self.line_bytes * self.llc_ways as u64)) as usize
    }
}

/// Hardware stream-prefetcher parameters (the L2 prefetcher the paper toggles
/// via MSR 0x1a4).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct PrefetchParams {
    /// Whether hardware prefetching is enabled.
    pub enabled: bool,
    /// Number of consecutive lines fetched ahead once a stream is confirmed.
    pub degree: u32,
    /// Number of sequential accesses needed to confirm a stream.
    pub trigger: u32,
    /// Maximum number of concurrently tracked streams.
    pub max_streams: usize,
}

impl Default for PrefetchParams {
    fn default() -> Self {
        Self {
            enabled: true,
            degree: 4,
            trigger: 2,
            max_streams: 32,
        }
    }
}

impl PrefetchParams {
    /// Prefetching disabled (the paper's "w.o Prefetch" configuration).
    pub fn disabled() -> Self {
        Self {
            enabled: false,
            ..Default::default()
        }
    }
}

/// Complete machine configuration.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct MachineConfig {
    /// Peak floating-point throughput in flop/s.
    pub peak_flops: f64,
    /// Number of cores on the compute node (informational; the timing model
    /// works with node-aggregate quantities).
    pub cores: u32,
    /// Node-aggregate memory-level parallelism: how many demand misses can be
    /// outstanding simultaneously. Determines how much latency un-prefetched
    /// misses expose.
    pub mlp: f64,
    /// Node-local memory tier.
    pub local: TierParams,
    /// Memory-pool tier.
    pub pool: TierParams,
    /// Link between node and pool.
    pub link: LinkParams,
    /// Cache hierarchy.
    pub cache: CacheParams,
    /// Hardware prefetcher.
    pub prefetch: PrefetchParams,
    /// Timing-chunk granularity in DRAM-traffic bytes: counters are folded
    /// into execution time whenever this much traffic has accumulated.
    pub chunk_bytes: u64,
    /// Timing-chunk granularity in flops.
    pub chunk_flops: u64,
}

impl MachineConfig {
    /// The paper's emulated disaggregated-memory platform.
    pub fn skylake_testbed() -> Self {
        Self {
            peak_flops: 460.0e9,
            cores: 12,
            mlp: 48.0,
            local: TierParams::local_ddr(),
            pool: TierParams::memory_pool(),
            link: LinkParams::upi(),
            cache: CacheParams::skylake(),
            prefetch: PrefetchParams::default(),
            chunk_bytes: 4 << 20,
            chunk_flops: 32_000_000,
        }
    }

    /// The experiment configuration used by the benchmark harnesses: the
    /// paper's testbed bandwidth/latency/link figures with a cache hierarchy
    /// scaled down in proportion to the proxy workloads' reduced footprints
    /// (see [`CacheParams::scaled_emulation`]).
    pub fn scaled_testbed() -> Self {
        Self {
            cache: CacheParams::scaled_emulation(),
            chunk_bytes: 2 << 20,
            chunk_flops: 16_000_000,
            ..Self::skylake_testbed()
        }
    }

    /// A small, fast configuration for unit tests: tiny caches and coarse
    /// chunks so tests run in microseconds.
    pub fn test_config() -> Self {
        Self {
            peak_flops: 100.0e9,
            cores: 4,
            mlp: 16.0,
            local: TierParams::local_ddr(),
            pool: TierParams::memory_pool(),
            link: LinkParams::upi(),
            cache: CacheParams::tiny(),
            prefetch: PrefetchParams::default(),
            chunk_bytes: 64 * 1024,
            chunk_flops: 1_000_000,
        }
    }

    /// Sets the local-tier capacity in bytes.
    pub fn with_local_capacity(mut self, bytes: u64) -> Self {
        self.local.capacity_bytes = Some(bytes);
        self
    }

    /// Sets the pool-tier capacity in bytes.
    pub fn with_pool_capacity(mut self, bytes: u64) -> Self {
        self.pool.capacity_bytes = Some(bytes);
        self
    }

    /// Configures the tiers so that the local tier holds `local_fraction`
    /// (0–1) of `footprint_bytes` and the pool holds the rest (uncapped).
    ///
    /// This mirrors the paper's `setup_waste` step: local capacity is reduced
    /// to 75 / 50 / 25 % of the application's peak usage so the remainder
    /// spills to the pool.
    pub fn with_pooling(mut self, footprint_bytes: u64, local_fraction: f64) -> Self {
        assert!(
            (0.0..=1.0).contains(&local_fraction),
            "local_fraction must be within [0, 1], got {local_fraction}"
        );
        let local = (footprint_bytes as f64 * local_fraction).round() as u64;
        // Round up to whole pages so the capacity is usable.
        let page = dismem_trace::PAGE_SIZE;
        let local = local.div_ceil(page) * page;
        self.local.capacity_bytes = Some(local);
        self.pool.capacity_bytes = None;
        self
    }

    /// Enables or disables the hardware prefetcher.
    pub fn with_prefetch(mut self, enabled: bool) -> Self {
        self.prefetch.enabled = enabled;
        self
    }

    /// Whether a run under `other` walks the caches exactly as one under
    /// this configuration: equal cache geometry, prefetcher and chunk sizes.
    /// Tier capacities, bandwidths, latencies, the link and the timing
    /// parameters may differ, because the walk never reads them; such
    /// configurations can share one walk (see [`crate::Machine::lockstep`]).
    pub fn shares_walk_with(&self, other: &MachineConfig) -> bool {
        self.cache == other.cache
            && self.prefetch == other.prefetch
            && self.chunk_bytes == other.chunk_bytes
            && self.chunk_flops == other.chunk_flops
    }

    /// Stable content digest of this configuration.
    ///
    /// FNV-1a over the serialized JSON form: any field change — tier
    /// capacities, link figures, cache geometry, prefetcher — changes the
    /// digest. The campaign journal stamps every record with the digest of
    /// the spec it ran under, so `resume_campaign` can reject records written
    /// by a process with a different machine configuration instead of
    /// silently mixing incomparable results.
    pub fn config_digest(&self) -> u64 {
        let mut json = String::new();
        serde::Serialize::serialize_json(self, &mut json);
        dismem_trace::fnv1a64(json.as_bytes())
    }

    /// Ridge point of the machine's roofline (flops per byte of local DRAM
    /// traffic at which it becomes compute bound).
    pub fn ridge_point(&self) -> f64 {
        self.peak_flops / self.local.bandwidth_bps
    }
}

impl Default for MachineConfig {
    fn default() -> Self {
        Self::skylake_testbed()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn skylake_testbed_matches_paper_numbers() {
        let c = MachineConfig::skylake_testbed();
        assert_eq!(c.local.bandwidth_bps, 73.0e9);
        assert_eq!(c.pool.bandwidth_bps, 34.0e9);
        assert!((c.local.latency_s - 111e-9).abs() < 1e-12);
        assert!((c.pool.latency_s - 202e-9).abs() < 1e-12);
        assert_eq!(c.link.raw_bandwidth_bps, 85.0e9);
    }

    #[test]
    fn protocol_overhead_is_positive() {
        let l = LinkParams::upi();
        assert!(l.protocol_overhead() > 1.0);
    }

    #[test]
    fn cache_set_counts() {
        let c = CacheParams::skylake();
        assert_eq!(c.l2_sets(), (1 << 20) / (64 * 16));
        assert_eq!(c.llc_sets(), (16 << 20) / (64 * 16));
        let t = CacheParams::tiny();
        assert_eq!(
            t.l2_sets() * t.l2_ways as usize * t.line_bytes as usize,
            8 * 1024
        );
    }

    #[test]
    fn with_pooling_sets_local_capacity() {
        let fp = 100 * dismem_trace::PAGE_SIZE;
        let c = MachineConfig::skylake_testbed().with_pooling(fp, 0.25);
        let cap = c.local.capacity_bytes.unwrap();
        assert_eq!(cap, 25 * dismem_trace::PAGE_SIZE);
        assert!(c.pool.capacity_bytes.is_none());
    }

    #[test]
    #[should_panic(expected = "local_fraction")]
    fn with_pooling_rejects_bad_fraction() {
        let _ = MachineConfig::skylake_testbed().with_pooling(1000, 1.5);
    }

    #[test]
    fn ridge_point_and_latency_bandwidth() {
        let c = MachineConfig::skylake_testbed();
        assert!(c.ridge_point() > 1.0 && c.ridge_point() < 20.0);
    }

    #[test]
    fn scaled_testbed_keeps_memory_figures_but_shrinks_caches() {
        let full = MachineConfig::skylake_testbed();
        let scaled = MachineConfig::scaled_testbed();
        assert_eq!(scaled.local.bandwidth_bps, full.local.bandwidth_bps);
        assert_eq!(scaled.pool.latency_s, full.pool.latency_s);
        assert!(scaled.cache.llc_bytes < full.cache.llc_bytes);
        assert!(scaled.cache.l2_bytes < full.cache.l2_bytes);
        assert!(scaled.cache.l2_sets() > 0 && scaled.cache.llc_sets() > 0);
    }

    #[test]
    fn prefetch_disabled_constructor() {
        assert!(!PrefetchParams::disabled().enabled);
        assert!(PrefetchParams::default().enabled);
    }

    #[test]
    fn config_digest_is_stable_and_field_sensitive() {
        let a = MachineConfig::test_config();
        let b = MachineConfig::test_config();
        assert_eq!(a.config_digest(), b.config_digest());
        let c = MachineConfig::test_config().with_local_capacity(1 << 20);
        assert_ne!(a.config_digest(), c.config_digest());
        let d = MachineConfig::test_config().with_prefetch(false);
        assert_ne!(a.config_digest(), d.config_digest());
    }
}
