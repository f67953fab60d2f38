//! The performance-counter set produced by the simulator.
//!
//! The names mirror the hardware events the paper's profiler programs on the
//! Skylake testbed (`PF_L2_DATA_RD`/`PF_L2_RFO`, `L2_LINES_IN`,
//! `USELESS_HWPF`, `OFFCORE_RESPONSE:LOCAL_DRAM`/`REMOTE_DRAM`, UPI traffic),
//! and the derived metrics use the same formulas (Equations 1 and 2).

use serde::{Deserialize, Serialize};

/// Counter values accumulated over a phase or a whole run.
#[derive(Debug, Clone, Copy, Default, PartialEq, Serialize, Deserialize)]
pub struct Counters {
    /// Floating-point operations executed.
    pub flops: u64,
    /// Demand cache-line references issued by the core (reads).
    pub demand_read_lines: u64,
    /// Demand cache-line references issued by the core (writes / RFO).
    pub demand_write_lines: u64,
    /// Demand references that missed L2.
    pub l2_demand_misses: u64,
    /// Lines filled into L2 from any source (demand + prefetch), the
    /// `L2_LINES_IN.ALL` event.
    pub l2_lines_in: u64,
    /// Prefetch requests issued by the L2 hardware prefetcher
    /// (`PF_L2_DATA_RD + PF_L2_RFO`).
    pub pf_issued: u64,
    /// Prefetched lines that were later hit by a demand access.
    pub pf_useful: u64,
    /// Prefetched lines evicted (or left over) without ever being used
    /// (`USELESS_HWPF`).
    pub useless_hwpf: u64,
    /// Lines read from the local tier (demand + prefetch LLC misses).
    pub dram_lines_local: u64,
    /// Lines read from the pool tier.
    pub dram_lines_pool: u64,
    /// Demand (non-prefetch) LLC misses served by the local tier; these expose
    /// their full latency to the core.
    pub demand_dram_lines_local: u64,
    /// Demand LLC misses served by the pool tier.
    pub demand_dram_lines_pool: u64,
    /// Dirty lines written back to the local tier.
    pub writeback_lines_local: u64,
    /// Dirty lines written back to the pool tier.
    pub writeback_lines_pool: u64,
    /// Raw traffic placed on the pool link in bytes (payload × protocol
    /// overhead), the analogue of the UPI `sktXtraffic` counters. Includes
    /// the raw bytes of page migrations, which cross the link by definition.
    pub link_raw_bytes: u64,
    /// Cache lines moved through the local tier by page migrations (every
    /// promotion/demotion reads one side and writes the other, so each
    /// migrated page adds a page's worth of lines to *both* tiers). Kept
    /// separate from the access counters so the paper's remote-access and
    /// prefetch metrics stay application-traffic-only.
    pub migration_lines_local: u64,
    /// Cache lines moved through the pool tier by page migrations.
    pub migration_lines_pool: u64,
}

impl Counters {
    /// Adds another counter set into this one.
    pub fn add(&mut self, other: &Counters) {
        self.flops += other.flops;
        self.demand_read_lines += other.demand_read_lines;
        self.demand_write_lines += other.demand_write_lines;
        self.l2_demand_misses += other.l2_demand_misses;
        self.l2_lines_in += other.l2_lines_in;
        self.pf_issued += other.pf_issued;
        self.pf_useful += other.pf_useful;
        self.useless_hwpf += other.useless_hwpf;
        self.dram_lines_local += other.dram_lines_local;
        self.dram_lines_pool += other.dram_lines_pool;
        self.demand_dram_lines_local += other.demand_dram_lines_local;
        self.demand_dram_lines_pool += other.demand_dram_lines_pool;
        self.writeback_lines_local += other.writeback_lines_local;
        self.writeback_lines_pool += other.writeback_lines_pool;
        self.link_raw_bytes += other.link_raw_bytes;
        self.migration_lines_local += other.migration_lines_local;
        self.migration_lines_pool += other.migration_lines_pool;
    }

    /// Field-wise difference `self - earlier`. Every counter is monotonically
    /// non-decreasing over a run, so the subtraction never underflows when
    /// `earlier` is a snapshot taken before `self`; the replay engine uses
    /// this to fingerprint per-window counter deltas.
    pub fn delta_from(&self, earlier: &Counters) -> Counters {
        Counters {
            flops: self.flops - earlier.flops,
            demand_read_lines: self.demand_read_lines - earlier.demand_read_lines,
            demand_write_lines: self.demand_write_lines - earlier.demand_write_lines,
            l2_demand_misses: self.l2_demand_misses - earlier.l2_demand_misses,
            l2_lines_in: self.l2_lines_in - earlier.l2_lines_in,
            pf_issued: self.pf_issued - earlier.pf_issued,
            pf_useful: self.pf_useful - earlier.pf_useful,
            useless_hwpf: self.useless_hwpf - earlier.useless_hwpf,
            dram_lines_local: self.dram_lines_local - earlier.dram_lines_local,
            dram_lines_pool: self.dram_lines_pool - earlier.dram_lines_pool,
            demand_dram_lines_local: self.demand_dram_lines_local - earlier.demand_dram_lines_local,
            demand_dram_lines_pool: self.demand_dram_lines_pool - earlier.demand_dram_lines_pool,
            writeback_lines_local: self.writeback_lines_local - earlier.writeback_lines_local,
            writeback_lines_pool: self.writeback_lines_pool - earlier.writeback_lines_pool,
            link_raw_bytes: self.link_raw_bytes - earlier.link_raw_bytes,
            migration_lines_local: self.migration_lines_local - earlier.migration_lines_local,
            migration_lines_pool: self.migration_lines_pool - earlier.migration_lines_pool,
        }
    }

    /// Total demand cache-line references.
    pub fn demand_lines(&self) -> u64 {
        self.demand_read_lines + self.demand_write_lines
    }

    /// Bytes transferred from the local tier (reads + writebacks), given the
    /// cache-line size.
    pub fn bytes_local(&self, line_bytes: u64) -> u64 {
        (self.dram_lines_local + self.writeback_lines_local) * line_bytes
    }

    /// Bytes transferred from/to the pool tier (reads + writebacks).
    pub fn bytes_pool(&self, line_bytes: u64) -> u64 {
        (self.dram_lines_pool + self.writeback_lines_pool) * line_bytes
    }

    /// Total DRAM traffic in bytes across both tiers.
    pub fn bytes_dram(&self, line_bytes: u64) -> u64 {
        self.bytes_local(line_bytes) + self.bytes_pool(line_bytes)
    }

    /// Arithmetic intensity in flops per byte of DRAM traffic
    /// (`AI = FLOPS / (Byte_LM + Byte_RM)`).
    pub fn arithmetic_intensity(&self, line_bytes: u64) -> f64 {
        let bytes = self.bytes_dram(line_bytes);
        if bytes == 0 {
            return f64::INFINITY;
        }
        self.flops as f64 / bytes as f64
    }

    /// Ratio of memory accesses (bytes) served by the pool tier — the paper's
    /// remote access ratio `R^remote_access`.
    pub fn remote_access_ratio(&self, line_bytes: u64) -> f64 {
        let total = self.bytes_dram(line_bytes);
        if total == 0 {
            return 0.0;
        }
        self.bytes_pool(line_bytes) as f64 / total as f64
    }

    /// Prefetch accuracy (Equation 1): fraction of prefetched lines that were
    /// actually used.
    pub fn prefetch_accuracy(&self) -> f64 {
        if self.pf_issued == 0 {
            return 0.0;
        }
        (self.pf_issued - self.useless_hwpf.min(self.pf_issued)) as f64 / self.pf_issued as f64
    }

    /// Prefetch coverage (Equation 2): fraction of L2 line fills that were
    /// prefetched instead of demanded.
    pub fn prefetch_coverage(&self) -> f64 {
        let useless = self.useless_hwpf.min(self.pf_issued);
        let denom = self.l2_lines_in.saturating_sub(useless);
        if denom == 0 {
            return 0.0;
        }
        (self.pf_issued - useless) as f64 / denom as f64
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample() -> Counters {
        Counters {
            flops: 1000,
            demand_read_lines: 80,
            demand_write_lines: 20,
            l2_demand_misses: 40,
            l2_lines_in: 100,
            pf_issued: 60,
            pf_useful: 50,
            useless_hwpf: 10,
            dram_lines_local: 70,
            dram_lines_pool: 30,
            demand_dram_lines_local: 25,
            demand_dram_lines_pool: 15,
            writeback_lines_local: 5,
            writeback_lines_pool: 5,
            link_raw_bytes: 8960,
            migration_lines_local: 64,
            migration_lines_pool: 64,
        }
    }

    #[test]
    fn add_accumulates_all_fields() {
        let mut a = sample();
        a.add(&sample());
        assert_eq!(a.flops, 2000);
        assert_eq!(a.l2_lines_in, 200);
        assert_eq!(a.link_raw_bytes, 17920);
        assert_eq!(a.demand_lines(), 200);
    }

    #[test]
    fn byte_accounting() {
        let c = sample();
        assert_eq!(c.bytes_local(64), (70 + 5) * 64);
        assert_eq!(c.bytes_pool(64), (30 + 5) * 64);
        assert_eq!(c.bytes_dram(64), 110 * 64);
    }

    #[test]
    fn arithmetic_intensity_formula() {
        let c = sample();
        let ai = c.arithmetic_intensity(64);
        assert!((ai - 1000.0 / (110.0 * 64.0)).abs() < 1e-12);
        let empty = Counters::default();
        assert!(empty.arithmetic_intensity(64).is_infinite());
    }

    #[test]
    fn remote_access_ratio_formula() {
        let c = sample();
        let r = c.remote_access_ratio(64);
        assert!((r - 35.0 / 110.0).abs() < 1e-12);
        assert_eq!(Counters::default().remote_access_ratio(64), 0.0);
    }

    #[test]
    fn prefetch_accuracy_and_coverage_formulas() {
        let c = sample();
        // accuracy = (60 - 10) / 60
        assert!((c.prefetch_accuracy() - 50.0 / 60.0).abs() < 1e-12);
        // coverage = (60 - 10) / (100 - 10)
        assert!((c.prefetch_coverage() - 50.0 / 90.0).abs() < 1e-12);
    }

    #[test]
    fn prefetch_metrics_degenerate_cases() {
        let c = Counters::default();
        assert_eq!(c.prefetch_accuracy(), 0.0);
        assert_eq!(c.prefetch_coverage(), 0.0);
        // More useless than issued must not underflow.
        let weird = Counters {
            pf_issued: 5,
            useless_hwpf: 9,
            l2_lines_in: 4,
            ..Default::default()
        };
        assert_eq!(weird.prefetch_accuracy(), 0.0);
        assert_eq!(weird.prefetch_coverage(), 0.0);
    }
}
