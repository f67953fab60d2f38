//! Inputs generated from the command-line seed, and small statistics.

use dismem_trace::MemoryEngine;
use dismem_workloads::{
    Bfs, BfsParams, InputScale, NekRs, NekRsParams, SuperLu, SuperLuParams, Workload, WorkloadKind,
    XsBench, XsBenchParams,
};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Arc;

/// The seed at which every input equals the committed one, so outputs can be
/// checked against the committed artifacts byte for byte.
pub const DEFAULT_SEED: u64 = 0;

/// A committed seed value moved by the benchmark seed (unchanged at
/// [`DEFAULT_SEED`]).
pub fn derive_seed(seed: u64, committed: u64) -> u64 {
    if seed == DEFAULT_SEED {
        return committed;
    }
    // splitmix64 finalizer: nearby benchmark seeds give unrelated inputs.
    let mut z = seed.wrapping_add(0x9E37_79B9_7F4A_7C15);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    committed ^ z ^ (z >> 31)
}

/// A paper workload at `scale` whose random inputs (R-MAT graph, lookups,
/// gather pattern, supernode structure) are drawn from `seed`. HPL and Hypre
/// have no random inputs. The R-MAT graph, which `Bfs` would otherwise
/// generate at its first run, is generated here, so that set-up pays for it.
pub fn paper_workload(kind: WorkloadKind, scale: InputScale, seed: u64) -> Box<dyn Workload> {
    match kind {
        WorkloadKind::Bfs => {
            let p = BfsParams::bench(scale);
            let bfs = Bfs::new(BfsParams {
                seed: derive_seed(seed, p.seed),
                ..p
            });
            bfs.graph();
            Box::new(bfs)
        }
        WorkloadKind::XsBench => {
            let p = XsBenchParams::bench(scale);
            Box::new(XsBench::new(XsBenchParams {
                seed: derive_seed(seed, p.seed),
                ..p
            }))
        }
        WorkloadKind::NekRs => {
            let p = NekRsParams::bench(scale);
            Box::new(NekRs::new(NekRsParams {
                seed: derive_seed(seed, p.seed),
                ..p
            }))
        }
        WorkloadKind::SuperLu => {
            let p = SuperLuParams::bench(scale);
            Box::new(SuperLu::new(SuperLuParams {
                seed: derive_seed(seed, p.seed),
                ..p
            }))
        }
        WorkloadKind::Hpl | WorkloadKind::Hypre => kind.instantiate(scale),
    }
}

/// Number of `Workload::run` calls of the workloads sharing it.
pub type RunCount = Arc<AtomicUsize>;

/// Forwards to a workload and counts its runs. One run is one simulation:
/// the cell of `study-x1`.
struct CountedWorkload {
    inner: Box<dyn Workload>,
    runs: RunCount,
}

/// Wraps `inner` so that its runs are counted in `runs`.
pub fn counted(inner: Box<dyn Workload>, runs: &RunCount) -> Box<dyn Workload> {
    Box::new(CountedWorkload {
        inner,
        runs: runs.clone(),
    })
}

/// The runs counted so far; resets the count.
pub fn take_runs(runs: &RunCount) -> usize {
    runs.swap(0, Ordering::Relaxed)
}

impl Workload for CountedWorkload {
    fn name(&self) -> &'static str {
        self.inner.name()
    }

    fn description(&self) -> &'static str {
        self.inner.description()
    }

    fn parallelization(&self) -> &'static str {
        self.inner.parallelization()
    }

    fn input_description(&self) -> String {
        self.inner.input_description()
    }

    fn expected_footprint_bytes(&self) -> u64 {
        self.inner.expected_footprint_bytes()
    }

    fn run(&self, engine: &mut dyn MemoryEngine) {
        self.inner.run(engine);
        self.runs.fetch_add(1, Ordering::Relaxed);
    }
}

/// Median of `values`, the mean of the middle two when their number is even
/// (0 when empty).
pub fn median(values: &[f64]) -> f64 {
    let mut sorted = values.to_vec();
    sorted.sort_by(f64::total_cmp);
    match sorted.len() {
        0 => 0.0,
        n if n % 2 == 1 => sorted[n / 2],
        n => (sorted[n / 2 - 1] + sorted[n / 2]) / 2.0,
    }
}

/// Nearest-rank percentile, `q` in (0, 1] (0 when empty).
pub fn percentile(values: &[f64], q: f64) -> f64 {
    if values.is_empty() {
        return 0.0;
    }
    let mut sorted = values.to_vec();
    sorted.sort_by(f64::total_cmp);
    let rank = (q * sorted.len() as f64).ceil() as usize;
    sorted[rank.clamp(1, sorted.len()) - 1]
}

/// Runs `jobs` on `threads` scoped workers, each pulling the next job in
/// order; results come back in job order.
pub fn run_pool<J: Sync, R: Send>(
    jobs: &[J],
    threads: usize,
    f: impl Fn(&J) -> R + Sync,
) -> Vec<R> {
    let next = std::sync::atomic::AtomicUsize::new(0);
    let results: Vec<std::sync::Mutex<Option<R>>> =
        jobs.iter().map(|_| std::sync::Mutex::new(None)).collect();
    std::thread::scope(|scope| {
        for _ in 0..threads.max(1) {
            scope.spawn(|| loop {
                let i = next.fetch_add(1, std::sync::atomic::Ordering::Relaxed);
                let Some(job) = jobs.get(i) else { break };
                let out = f(job);
                *results[i].lock().expect("result slot poisoned") = Some(out);
            });
        }
    });
    results
        .into_iter()
        .map(|slot| {
            slot.into_inner()
                .expect("result slot poisoned")
                .expect("every job ran")
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn default_seed_keeps_committed_values() {
        assert_eq!(derive_seed(DEFAULT_SEED, 0xB55), 0xB55);
        assert_ne!(derive_seed(1, 0xB55), 0xB55);
        assert_ne!(derive_seed(1, 0xB55), derive_seed(2, 0xB55));
    }

    #[test]
    fn percentiles_and_medians() {
        let v: Vec<f64> = (1..=100).map(f64::from).collect();
        assert_eq!(percentile(&v, 0.99), 99.0);
        assert_eq!(percentile(&v, 0.5), 50.0);
        assert_eq!(median(&v), 50.5);
        assert_eq!(median(&[3.0]), 3.0);
    }

    #[test]
    fn pool_returns_results_in_job_order() {
        let jobs: Vec<u64> = (0..20).collect();
        let doubled: Vec<u64> = (0..20).map(|j| j * 2).collect();
        assert_eq!(run_pool(&jobs, 2, |j| j * 2), doubled);
    }
}
