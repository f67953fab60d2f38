//! A forwarding [`MemoryEngine`] that times every call a workload makes into
//! the simulated machine, and the simulation runs built on it.

use crate::trace::{now_s, span};
use dismem_sim::{InterferenceProfile, Machine, MachineConfig, RunReport, TieringSpec};
use dismem_trace::{AccessKind, MemoryEngine, ObjectHandle, PlacementPolicy};
use dismem_workloads::Workload;
use std::ops::AddAssign;

/// Host time spent inside the machine, per kind of engine call, plus what the
/// machine reports about the run afterwards.
#[derive(Debug, Clone, Copy, Default)]
pub struct EngineTimes {
    /// Simulation runs these times cover.
    pub runs: u64,
    /// `access_range` and single `access` calls.
    pub access_range_s: f64,
    /// `gather_batch` calls.
    pub gather_s: f64,
    /// `strided_batch` calls.
    pub strided_s: f64,
    /// `phase_start` and `phase_end` calls.
    pub phase_s: f64,
    /// `alloc_with_policy`, `free` and `flops` calls.
    pub other_s: f64,
    /// `Machine::finish`.
    pub finish_s: f64,
    /// `Workload::run`, engine calls included.
    pub workload_run_s: f64,
    /// Demand cache-line references of the runs.
    pub demand_lines: u64,
    pub replay_windows: u64,
    pub replay_window_pages: u64,
    pub replay_passes: u64,
    pub replay_stride_elements: u64,
}

impl EngineTimes {
    /// Host time inside engine calls (`finish` excluded).
    pub fn engine_s(&self) -> f64 {
        self.access_range_s + self.gather_s + self.strided_s + self.phase_s + self.other_s
    }
}

impl AddAssign for EngineTimes {
    fn add_assign(&mut self, o: EngineTimes) {
        self.runs += o.runs;
        self.access_range_s += o.access_range_s;
        self.gather_s += o.gather_s;
        self.strided_s += o.strided_s;
        self.phase_s += o.phase_s;
        self.other_s += o.other_s;
        self.finish_s += o.finish_s;
        self.workload_run_s += o.workload_run_s;
        self.demand_lines += o.demand_lines;
        self.replay_windows += o.replay_windows;
        // Window size is a property of the cache geometry, not a sum.
        self.replay_window_pages = self.replay_window_pages.max(o.replay_window_pages);
        self.replay_passes += o.replay_passes;
        self.replay_stride_elements += o.replay_stride_elements;
    }
}

struct TimedEngine<'a> {
    machine: &'a mut Machine,
    times: EngineTimes,
}

fn timed<R>(slot: &mut f64, f: impl FnOnce() -> R) -> R {
    let start = now_s();
    let out = f();
    *slot += now_s() - start;
    out
}

impl MemoryEngine for TimedEngine<'_> {
    fn alloc_with_policy(
        &mut self,
        name: &str,
        site: &str,
        bytes: u64,
        policy: PlacementPolicy,
    ) -> ObjectHandle {
        let m = &mut *self.machine;
        timed(&mut self.times.other_s, || {
            m.alloc_with_policy(name, site, bytes, policy)
        })
    }

    fn free(&mut self, handle: ObjectHandle) {
        let m = &mut *self.machine;
        timed(&mut self.times.other_s, || m.free(handle))
    }

    fn phase_start(&mut self, name: &str) {
        let m = &mut *self.machine;
        timed(&mut self.times.phase_s, || m.phase_start(name))
    }

    fn phase_end(&mut self) {
        let m = &mut *self.machine;
        timed(&mut self.times.phase_s, || m.phase_end())
    }

    fn access(&mut self, handle: ObjectHandle, offset: u64, bytes: u64, kind: AccessKind) {
        let m = &mut *self.machine;
        timed(&mut self.times.access_range_s, || {
            m.access(handle, offset, bytes, kind)
        })
    }

    fn flops(&mut self, n: u64) {
        let m = &mut *self.machine;
        timed(&mut self.times.other_s, || m.flops(n))
    }

    fn access_range(&mut self, handle: ObjectHandle, offset: u64, bytes: u64, kind: AccessKind) {
        let m = &mut *self.machine;
        timed(&mut self.times.access_range_s, || {
            m.access_range(handle, offset, bytes, kind)
        })
    }

    fn gather_batch(
        &mut self,
        handle: ObjectHandle,
        offsets: &[u64],
        elem_bytes: u64,
        kind: AccessKind,
    ) {
        let m = &mut *self.machine;
        timed(&mut self.times.gather_s, || {
            m.gather_batch(handle, offsets, elem_bytes, kind)
        })
    }

    fn strided_batch(
        &mut self,
        handle: ObjectHandle,
        start: u64,
        count: u64,
        elem_bytes: u64,
        stride_bytes: u64,
        kind: AccessKind,
    ) {
        let m = &mut *self.machine;
        timed(&mut self.times.strided_s, || {
            m.strided_batch(handle, start, count, elem_bytes, stride_bytes, kind)
        })
    }
}

/// How the machine walks the cache for a run.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Pipeline {
    /// The per-line reference pipeline.
    PerLine,
    /// The batched line walk without replay.
    Batched,
    /// The default: batched walk with steady-state replay.
    Replay,
}

/// What a timed run is: the machine setting it differs in from the default.
pub struct RunSpec<'a> {
    pub config: MachineConfig,
    pub tiering: Option<&'a TieringSpec>,
    pub pipeline: Pipeline,
}

impl RunSpec<'_> {
    /// A run as `dismem_profiler::run_workload` makes it: prefetch on, idle
    /// pool, default pipeline.
    pub fn profiled(mut config: MachineConfig) -> RunSpec<'static> {
        config.prefetch.enabled = true;
        RunSpec {
            config,
            tiering: None,
            pipeline: Pipeline::Replay,
        }
    }
}

/// Simulates `workload` on a fresh machine with every engine call timed.
/// With [`RunSpec::profiled`] the report equals `run_workload`'s, and with a
/// tiering spec it equals `run_with_tiering`'s.
pub fn timed_run(workload: &dyn Workload, spec: &RunSpec<'_>) -> (RunReport, EngineTimes) {
    span("sim.run", workload.name(), || {
        let mut machine = Machine::new(spec.config.clone());
        machine.set_interference(InterferenceProfile::Idle);
        if let Some(tiering) = spec.tiering {
            machine.set_tiering_spec(tiering);
        }
        match spec.pipeline {
            Pipeline::PerLine => machine.set_batched_access(false),
            Pipeline::Batched => machine.set_replay(false),
            Pipeline::Replay => {}
        }
        let mut engine = TimedEngine {
            machine: &mut machine,
            times: EngineTimes {
                runs: 1,
                ..EngineTimes::default()
            },
        };
        let start = now_s();
        span("workloads.run", workload.name(), || {
            workload.run(&mut engine)
        });
        let mut times = engine.times;
        times.workload_run_s = now_s() - start;
        let finish_start = now_s();
        let report = span("sim.finish", workload.name(), || machine.finish());
        times.finish_s = now_s() - finish_start;
        times.demand_lines = report.total.demand_lines();
        times.replay_windows = machine.replay_windows();
        times.replay_window_pages = machine.replay_window_pages();
        times.replay_passes = machine.replay_passes();
        times.replay_stride_elements = machine.replay_stride_elements();
        (report, times)
    })
}
