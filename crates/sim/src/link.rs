//! Model of the link between the compute node and the memory pool.
//!
//! The link is the shared resource behind the paper's Level-3 analysis:
//! multiple nodes attached to the same pool compete for it, so a background
//! "level of interference" (LoI, a fraction of the peak raw link traffic)
//! both reduces the bandwidth available to the application and inflates the
//! access latency through queueing.

use crate::config::LinkParams;
use serde::{Deserialize, Serialize};

/// Link bandwidth/latency model.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct LinkModel {
    params: LinkParams,
}

impl LinkModel {
    /// Creates a link model.
    pub fn new(params: LinkParams) -> Self {
        Self { params }
    }

    /// Underlying parameters.
    pub fn params(&self) -> &LinkParams {
        &self.params
    }

    /// Raw link traffic produced by `payload_bytes` of pool data, including
    /// protocol overhead.
    pub fn raw_bytes(&self, payload_bytes: u64) -> u64 {
        (payload_bytes as f64 * self.params.protocol_overhead()).round() as u64
    }

    /// Payload bandwidth available to the application when interferers keep
    /// the link `background_loi` (0–1) busy.
    ///
    /// The interferer's traffic removes only
    /// `bandwidth_contention_factor × LoI` of the application's achievable
    /// payload rate (a single node cannot saturate the link on its own; most
    /// of the remaining impact shows up as queueing latency instead). The
    /// result never drops below 5% of the peak: even a fully saturated link
    /// keeps draining requests.
    pub fn available_data_bandwidth(&self, pool_bandwidth_bps: f64, background_loi: f64) -> f64 {
        let peak = pool_bandwidth_bps.min(self.params.data_bandwidth_bps);
        let share = (1.0
            - self.params.bandwidth_contention_factor * background_loi.clamp(0.0, 1.0))
        .max(0.05);
        peak * share
    }

    /// Total link utilization (0–max_utilization) from the background LoI and
    /// the application's own raw traffic rate.
    pub fn utilization(&self, app_raw_bytes_per_s: f64, background_loi: f64) -> f64 {
        let app = app_raw_bytes_per_s / self.params.raw_bandwidth_bps;
        (background_loi.clamp(0.0, 1.0) + app.max(0.0)).min(self.params.max_utilization)
    }

    /// M/M/1-style queueing multiplier applied to the pool latency at a given
    /// link utilization: `1 / (1 - rho)`, with `rho` capped at
    /// `max_utilization` so the factor stays finite.
    pub fn queueing_factor(&self, utilization: f64) -> f64 {
        let rho = utilization.clamp(0.0, self.params.max_utilization);
        1.0 / (1.0 - rho)
    }

    /// Effective pool access latency at a given link utilization.
    pub fn effective_latency(&self, base_latency_s: f64, utilization: f64) -> f64 {
        base_latency_s * self.queueing_factor(utilization)
    }

    /// Raw link traffic of migrating `pages` whole pages between the tiers.
    /// Every promotion and demotion crosses the link (one side of the copy is
    /// always the pool), so the payload is `pages × PAGE_SIZE` plus protocol
    /// overhead.
    pub fn migration_raw_bytes(&self, pages: u64) -> u64 {
        self.raw_bytes(pages * dismem_trace::PAGE_SIZE)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn link() -> LinkModel {
        LinkModel::new(LinkParams::upi())
    }

    #[test]
    fn raw_bytes_include_protocol_overhead() {
        let l = link();
        let raw = l.raw_bytes(1_000_000);
        assert!(raw > 1_000_000);
        assert_eq!(raw, (1_000_000.0_f64 * (85.0 / 34.0)).round() as u64);
    }

    #[test]
    fn available_bandwidth_decreases_with_loi() {
        let l = link();
        let b0 = l.available_data_bandwidth(34.0e9, 0.0);
        let b50 = l.available_data_bandwidth(34.0e9, 0.5);
        let b100 = l.available_data_bandwidth(34.0e9, 1.0);
        assert_eq!(b0, 34.0e9);
        // Contention factor 0.4: a 50% interferer removes 20% of the payload
        // bandwidth the node can extract.
        assert!((b50 - 34.0e9 * 0.8).abs() < 1.0);
        assert!(b100 > 0.0, "bandwidth floor keeps the link draining");
        assert!(b0 > b50 && b50 > b100);
    }

    #[test]
    fn available_bandwidth_capped_by_link_not_tier() {
        let l = link();
        // Tier faster than the link: the link is the limit.
        assert_eq!(l.available_data_bandwidth(100.0e9, 0.0), 34.0e9);
    }

    #[test]
    fn queueing_factor_monotonic_and_capped() {
        let l = link();
        assert!((l.queueing_factor(0.0) - 1.0).abs() < 1e-12);
        assert!(l.queueing_factor(0.5) > l.queueing_factor(0.25));
        let at_cap = l.queueing_factor(0.95);
        let beyond = l.queueing_factor(2.0);
        assert_eq!(at_cap, beyond, "utilization must be capped");
        assert!(at_cap <= 21.0);
    }

    #[test]
    fn utilization_combines_background_and_app() {
        let l = link();
        let u = l.utilization(8.5e9, 0.3);
        assert!((u - 0.4).abs() < 1e-9);
        assert!(l.utilization(1e12, 0.5) <= 0.95);
    }

    #[test]
    fn effective_latency_grows_with_utilization() {
        let l = link();
        let base = 202e-9;
        assert!((l.effective_latency(base, 0.0) - base).abs() < 1e-15);
        assert!(l.effective_latency(base, 0.5) > 1.9 * base);
    }

    #[test]
    fn migration_raw_bytes_charges_whole_pages_with_overhead() {
        let l = link();
        let raw = l.migration_raw_bytes(10);
        assert_eq!(raw, l.raw_bytes(10 * dismem_trace::PAGE_SIZE));
        assert!(raw > 10 * dismem_trace::PAGE_SIZE);
    }
}
