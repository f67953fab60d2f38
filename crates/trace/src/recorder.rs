//! A lightweight [`MemoryEngine`] implementation that records events without
//! simulating a memory system. Used for workload unit tests and for computing
//! footprint/access statistics independent of any machine model.

use crate::access::{pages_for, AccessKind, PAGE_SIZE};
use crate::alloc::{AllocationRecord, ObjectHandle, PlacementPolicy};
use crate::engine::MemoryEngine;
use crate::histogram::PageHistogram;
use crate::phase::{PhaseId, PhaseRecord};
use serde::{Deserialize, Serialize};

/// Per-phase statistics captured by the recorder.
#[derive(Debug, Clone, Default, Serialize, Deserialize)]
pub struct PhaseStats {
    /// Phase tag.
    pub name: String,
    /// Bytes read by demand accesses.
    pub bytes_read: u64,
    /// Bytes written by demand accesses.
    pub bytes_written: u64,
    /// Floating-point operations.
    pub flops: u64,
    /// Number of access events (bulk accesses count once).
    pub access_events: u64,
}

impl PhaseStats {
    /// Arithmetic intensity of the phase in flops per byte of traffic
    /// (before any cache filtering).
    pub fn arithmetic_intensity(&self) -> f64 {
        let bytes = self.bytes_read + self.bytes_written;
        if bytes == 0 {
            return 0.0;
        }
        self.flops as f64 / bytes as f64
    }
}

/// Aggregate statistics over a recorded run.
#[derive(Debug, Clone, Default, Serialize, Deserialize)]
pub struct TraceStats {
    /// Total bytes read.
    pub bytes_read: u64,
    /// Total bytes written.
    pub bytes_written: u64,
    /// Total floating-point operations.
    pub total_flops: u64,
    /// Per-phase breakdown, in phase-start order.
    pub phases: Vec<PhaseStats>,
    /// Peak total bytes of live allocations observed during the run.
    pub peak_footprint_bytes: u64,
    /// Bytes of live allocations at the end of the run.
    pub final_footprint_bytes: u64,
    /// Number of allocations performed.
    pub allocation_count: usize,
}

/// In-memory trace recorder.
///
/// Addresses are assigned by a page-aligned bump allocator so page-level
/// histograms can be computed without a real address-space model.
#[derive(Debug, Default)]
pub struct TraceRecorder {
    allocations: Vec<AllocationRecord>,
    /// Base address of each allocation, indexed by handle.
    bases: Vec<u64>,
    next_addr: u64,
    live_bytes: u64,
    peak_bytes: u64,
    phases: Vec<PhaseStats>,
    phase_records: Vec<PhaseRecord>,
    current_phase: Option<usize>,
    /// Stats accumulated outside any phase.
    ambient: PhaseStats,
    histogram: PageHistogram,
}

impl TraceRecorder {
    /// Creates an empty recorder.
    pub fn new() -> Self {
        Self::default()
    }

    /// Aggregate statistics of everything recorded so far.
    pub fn stats(&self) -> TraceStats {
        let mut bytes_read = self.ambient.bytes_read;
        let mut bytes_written = self.ambient.bytes_written;
        let mut total_flops = self.ambient.flops;
        for p in &self.phases {
            bytes_read += p.bytes_read;
            bytes_written += p.bytes_written;
            total_flops += p.flops;
        }
        TraceStats {
            bytes_read,
            bytes_written,
            total_flops,
            phases: self.phases.clone(),
            peak_footprint_bytes: self.peak_bytes,
            final_footprint_bytes: self.live_bytes,
            allocation_count: self.allocations.len(),
        }
    }

    /// Allocation records in allocation order.
    pub fn allocations(&self) -> &[AllocationRecord] {
        &self.allocations
    }

    /// Phase records in start order.
    pub fn phase_records(&self) -> &[PhaseRecord] {
        &self.phase_records
    }

    /// Page access histogram over the whole run.
    pub fn histogram(&self) -> &PageHistogram {
        &self.histogram
    }

    fn current(&mut self) -> &mut PhaseStats {
        match self.current_phase {
            Some(i) => &mut self.phases[i],
            None => &mut self.ambient,
        }
    }
}

impl MemoryEngine for TraceRecorder {
    fn alloc_with_policy(
        &mut self,
        name: &str,
        site: &str,
        bytes: u64,
        policy: PlacementPolicy,
    ) -> ObjectHandle {
        let handle = ObjectHandle(self.allocations.len() as u32);
        let record =
            AllocationRecord::new(handle, name, site, bytes, self.allocations.len(), policy);
        self.allocations.push(record);
        self.bases.push(self.next_addr);
        self.next_addr += pages_for(bytes) * PAGE_SIZE;
        self.live_bytes += bytes;
        self.peak_bytes = self.peak_bytes.max(self.live_bytes);
        handle
    }

    fn free(&mut self, handle: ObjectHandle) {
        let rec = &mut self.allocations[handle.index()];
        assert!(!rec.freed, "double free of object {}", rec.name);
        rec.freed = true;
        self.live_bytes = self.live_bytes.saturating_sub(rec.bytes);
    }

    fn phase_start(&mut self, name: &str) {
        assert!(
            self.current_phase.is_none(),
            "phase_start while phase '{}' is still open",
            self.phases[self.current_phase.unwrap()].name
        );
        let id = PhaseId(self.phases.len() as u32);
        self.phase_records.push(PhaseRecord::new(id, name));
        self.phases.push(PhaseStats {
            name: name.to_string(),
            ..Default::default()
        });
        self.current_phase = Some(self.phases.len() - 1);
    }

    fn phase_end(&mut self) {
        assert!(
            self.current_phase.is_some(),
            "phase_end without phase_start"
        );
        self.current_phase = None;
    }

    fn access(&mut self, handle: ObjectHandle, offset: u64, bytes: u64, kind: AccessKind) {
        let rec = &self.allocations[handle.index()];
        debug_assert!(
            offset + bytes <= pages_for(rec.bytes) * PAGE_SIZE,
            "access past end of object {} (offset {offset} + {bytes} > {})",
            rec.name,
            rec.bytes
        );
        let base = self.bases[handle.index()];
        let addr = base + offset;
        // Page histogram at page granularity.
        if bytes > 0 {
            let first = addr / PAGE_SIZE;
            let last = (addr + bytes - 1) / PAGE_SIZE;
            for page in first..=last {
                self.histogram.record(page, 1);
            }
        }
        let stats = self.current();
        stats.access_events += 1;
        match kind {
            AccessKind::Read => stats.bytes_read += bytes,
            AccessKind::Write => stats.bytes_written += bytes,
        }
    }

    fn flops(&mut self, n: u64) {
        self.current().flops += n;
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn footprint_tracking_with_free() {
        let mut rec = TraceRecorder::new();
        let a = rec.alloc("A", "t", 10_000);
        let _b = rec.alloc("B", "t", 20_000);
        rec.free(a);
        let stats = rec.stats();
        assert_eq!(stats.peak_footprint_bytes, 30_000);
        assert_eq!(stats.final_footprint_bytes, 20_000);
        assert_eq!(stats.allocation_count, 2);
    }

    #[test]
    #[should_panic(expected = "double free")]
    fn double_free_panics() {
        let mut rec = TraceRecorder::new();
        let a = rec.alloc("A", "t", 100);
        rec.free(a);
        rec.free(a);
    }

    #[test]
    fn phase_attribution() {
        let mut rec = TraceRecorder::new();
        let a = rec.alloc("A", "t", 4096);
        rec.flops(5); // ambient
        rec.phase_start("p1");
        rec.read(a, 0, 1024);
        rec.flops(100);
        rec.phase_end();
        rec.phase_start("p2");
        rec.write(a, 0, 2048);
        rec.phase_end();

        let stats = rec.stats();
        assert_eq!(stats.phases.len(), 2);
        assert_eq!(stats.phases[0].bytes_read, 1024);
        assert_eq!(stats.phases[0].flops, 100);
        assert_eq!(stats.phases[1].bytes_written, 2048);
        assert_eq!(stats.total_flops, 105);
    }

    #[test]
    #[should_panic(expected = "phase_start while phase")]
    fn nested_phase_panics() {
        let mut rec = TraceRecorder::new();
        rec.phase_start("a");
        rec.phase_start("b");
    }

    #[test]
    #[should_panic(expected = "phase_end without")]
    fn unbalanced_phase_end_panics() {
        let mut rec = TraceRecorder::new();
        rec.phase_end();
    }

    #[test]
    fn arithmetic_intensity() {
        let p = PhaseStats {
            bytes_read: 50,
            bytes_written: 50,
            flops: 400,
            ..Default::default()
        };
        assert!((p.arithmetic_intensity() - 4.0).abs() < 1e-12);
        let empty = PhaseStats::default();
        assert_eq!(empty.arithmetic_intensity(), 0.0);
    }

    #[test]
    fn histogram_separates_objects_by_page() {
        let mut rec = TraceRecorder::new();
        let a = rec.alloc("A", "t", PAGE_SIZE);
        let b = rec.alloc("B", "t", PAGE_SIZE);
        rec.read(a, 0, 8);
        rec.read(b, 0, 8);
        rec.read(b, 64, 8);
        assert_eq!(rec.histogram().touched_pages(), 2);
        assert_eq!(rec.histogram().total_accesses(), 3);
    }
}
