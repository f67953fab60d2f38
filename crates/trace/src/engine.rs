//! The [`MemoryEngine`] trait: the contract between proxy workloads and the
//! memory-system backends that execute them.
//!
//! Workloads express their behaviour as a sequence of allocations, phase
//! markers, memory accesses and floating-point operations. A backend — the
//! full simulator in `dismem-sim`, or the lightweight [`crate::TraceRecorder`]
//! — interprets that sequence and accumulates whatever metrics it cares about.

use crate::access::AccessKind;
use crate::alloc::{ObjectHandle, PlacementPolicy};

/// Abstract memory system driven by a workload.
///
/// The five required methods are the primitive event types; the provided
/// methods are convenience patterns (sequential streams, strided sweeps,
/// object initialization) that every workload uses.
pub trait MemoryEngine {
    /// Allocates `bytes` bytes with an explicit placement policy and returns a
    /// handle to the new object. `name` identifies the object (for reports)
    /// and `site` the allocation site in the workload.
    fn alloc_with_policy(
        &mut self,
        name: &str,
        site: &str,
        bytes: u64,
        policy: PlacementPolicy,
    ) -> ObjectHandle;

    /// Frees a previously allocated object. Freed local pages become available
    /// to later allocations — the mechanism exploited by the BFS case study.
    fn free(&mut self, handle: ObjectHandle);

    /// Starts a new profiled phase (the paper's `pf_start("tag")`).
    fn phase_start(&mut self, name: &str);

    /// Ends the current profiled phase (the paper's `pf_stop()`).
    fn phase_end(&mut self);

    /// Accesses `bytes` bytes of `handle` starting at `offset`.
    ///
    /// Large contiguous ranges are interpreted as a sequential stream; the
    /// backend walks the covered cache lines.
    fn access(&mut self, handle: ObjectHandle, offset: u64, bytes: u64, kind: AccessKind);

    /// Records `n` floating-point operations attributed to the current phase.
    fn flops(&mut self, n: u64);

    // ---------------------------------------------------------------------
    // Bulk access API
    // ---------------------------------------------------------------------
    //
    // Semantically these are exactly the per-access loops their default
    // bodies spell out; a backend may override them to process the covered
    // cache lines in one batched pass (the simulator walks each element's
    // lines in a single call and hands every DRAM transaction straight to
    // its placements). Overrides must be observationally identical to the
    // defaults — the workspace property tests compare both paths bit for bit.
    //
    // Run geometry matters for backend fast paths: the simulator's
    // steady-state replay engine detects long sequential streams, and it
    // sees *whole runs* most cheaply when a workload expresses one logical
    // stream as one `access_range` call (or as back-to-back calls whose
    // ranges are exactly contiguous and of the same access kind — the
    // detector's streak tracking survives call boundaries, so chunked
    // streams still engage). Prefer one bulk call per logical run over
    // per-element `access` loops; for scattered elements, prefer
    // `gather_batch`/`strided_batch`, where an element contiguous with the
    // one before continues the detector's streak.

    /// Bulk contiguous access: identical to [`MemoryEngine::access`], but
    /// explicitly marks the range as one batch for backends with a bulk fast
    /// path.
    #[allow(clippy::disallowed_methods, reason = "defined as the per-element loop")]
    fn access_range(&mut self, handle: ObjectHandle, offset: u64, bytes: u64, kind: AccessKind) {
        self.access(handle, offset, bytes, kind);
    }

    /// Bulk scattered access: identical to calling [`MemoryEngine::access`]
    /// once per offset, in order, with `elem_bytes` bytes each.
    #[allow(clippy::disallowed_methods, reason = "defined as the per-element loop")]
    fn gather_batch(
        &mut self,
        handle: ObjectHandle,
        offsets: &[u64],
        elem_bytes: u64,
        kind: AccessKind,
    ) {
        for &off in offsets {
            self.access(handle, off, elem_bytes, kind);
        }
    }

    /// Bulk strided sweep: identical to calling [`MemoryEngine::access`] for
    /// `count` elements of `elem_bytes` bytes, `stride_bytes` apart, starting
    /// at `start`.
    #[allow(clippy::disallowed_methods, reason = "defined as the per-element loop")]
    fn strided_batch(
        &mut self,
        handle: ObjectHandle,
        start: u64,
        count: u64,
        elem_bytes: u64,
        stride_bytes: u64,
        kind: AccessKind,
    ) {
        let mut offset = start;
        for _ in 0..count {
            self.access(handle, offset, elem_bytes, kind);
            offset += stride_bytes;
        }
    }

    // ---------------------------------------------------------------------
    // Provided convenience API
    // ---------------------------------------------------------------------

    /// Allocates with the default first-touch policy.
    fn alloc(&mut self, name: &str, site: &str, bytes: u64) -> ObjectHandle {
        self.alloc_with_policy(name, site, bytes, PlacementPolicy::FirstTouch)
    }

    /// Reads `bytes` bytes at `offset`.
    #[allow(clippy::disallowed_methods, reason = "one scalar access, not a loop")]
    fn read(&mut self, handle: ObjectHandle, offset: u64, bytes: u64) {
        self.access(handle, offset, bytes, AccessKind::Read);
    }

    /// Writes `bytes` bytes at `offset`.
    #[allow(clippy::disallowed_methods, reason = "one scalar access, not a loop")]
    fn write(&mut self, handle: ObjectHandle, offset: u64, bytes: u64) {
        self.access(handle, offset, bytes, AccessKind::Write);
    }

    /// Sequentially writes the whole object, modelling its initialization.
    /// Under first-touch placement this is what binds pages to tiers.
    fn touch(&mut self, handle: ObjectHandle, bytes: u64) {
        self.access_range(handle, 0, bytes, AccessKind::Write);
    }

    /// Strided sweep over `count` elements of `elem_bytes` bytes separated by
    /// `stride_bytes`, starting at `start`. Routed through
    /// [`MemoryEngine::strided_batch`] so batched backends see the whole
    /// sweep at once.
    fn strided(
        &mut self,
        handle: ObjectHandle,
        start: u64,
        count: u64,
        elem_bytes: u64,
        stride_bytes: u64,
        kind: AccessKind,
    ) {
        self.strided_batch(handle, start, count, elem_bytes, stride_bytes, kind);
    }

    /// Reads a set of scattered element offsets (e.g. gather of graph
    /// neighbours or Monte-Carlo table lookups).
    fn gather(&mut self, handle: ObjectHandle, offsets: &[u64], elem_bytes: u64) {
        self.gather_batch(handle, offsets, elem_bytes, AccessKind::Read);
    }

    /// Writes a set of scattered element offsets.
    fn scatter(&mut self, handle: ObjectHandle, offsets: &[u64], elem_bytes: u64) {
        self.gather_batch(handle, offsets, elem_bytes, AccessKind::Write);
    }

    /// Runs `body` bracketed by `phase_start(name)` / `phase_end()`.
    fn phase<F: FnOnce(&mut Self)>(&mut self, name: &str, body: F)
    where
        Self: Sized,
    {
        self.phase_start(name);
        body(self);
        self.phase_end();
    }
}

#[cfg(test)]
#[allow(clippy::disallowed_methods, reason = "tests compare defaults to loops")]
mod tests {
    use super::*;
    use crate::recorder::TraceRecorder;

    #[test]
    fn provided_helpers_emit_expected_events() {
        let mut rec = TraceRecorder::new();
        let h = rec.alloc("A", "test", 4096);
        rec.phase_start("p1");
        rec.touch(h, 4096);
        rec.strided(h, 0, 4, 8, 64, AccessKind::Read);
        rec.gather(h, &[0, 128, 256], 8);
        rec.scatter(h, &[512], 8);
        rec.flops(10);
        rec.phase_end();

        let stats = rec.stats();
        // touch = 4096 write bytes + scatter 8 bytes
        assert_eq!(stats.bytes_written, 4096 + 8);
        // strided 4*8 + gather 3*8
        assert_eq!(stats.bytes_read, 32 + 24);
        assert_eq!(stats.total_flops, 10);
        assert_eq!(stats.phases.len(), 1);
    }

    #[test]
    fn bulk_defaults_match_per_access_loops() {
        // The default bulk implementations must be indistinguishable from the
        // spelled-out per-access loops.
        let mut bulk = TraceRecorder::new();
        let hb = bulk.alloc("A", "test", 8192);
        bulk.access_range(hb, 0, 4096, AccessKind::Write);
        bulk.gather_batch(hb, &[0, 256, 4096], 8, AccessKind::Read);
        bulk.strided_batch(hb, 64, 4, 8, 128, AccessKind::Write);

        let mut manual = TraceRecorder::new();
        let hm = manual.alloc("A", "test", 8192);
        manual.access(hm, 0, 4096, AccessKind::Write);
        for off in [0u64, 256, 4096] {
            manual.access(hm, off, 8, AccessKind::Read);
        }
        for i in 0..4u64 {
            manual.access(hm, 64 + i * 128, 8, AccessKind::Write);
        }

        let (b, m) = (bulk.stats(), manual.stats());
        assert_eq!(b.bytes_read, m.bytes_read);
        assert_eq!(b.bytes_written, m.bytes_written);
        assert_eq!(
            bulk.histogram()
                .iter()
                .collect::<std::collections::BTreeMap<_, _>>(),
            manual
                .histogram()
                .iter()
                .collect::<std::collections::BTreeMap<_, _>>()
        );
    }

    #[test]
    fn phase_closure_brackets_events() {
        let mut rec = TraceRecorder::new();
        let h = rec.alloc("A", "test", 64);
        rec.phase("compute", |e| {
            e.read(h, 0, 64);
        });
        assert_eq!(rec.stats().phases.len(), 1);
        assert_eq!(rec.stats().phases[0].name, "compute");
    }
}
