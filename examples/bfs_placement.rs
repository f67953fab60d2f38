//! Case study 1 (paper Section 7.1): guide BFS data-placement optimization
//! with the Level-2 analysis and verify the improvement.
//!
//! ```sh
//! cargo run --release --example bfs_placement
//! ```

use dismem::core::bfs_placement_study;
use dismem::sim::MachineConfig;
use dismem::workloads::{BfsOptimization, BfsParams};

fn main() {
    let machine = MachineConfig::scaled_testbed();
    // A small R-MAT instance so the example also runs quickly in debug builds;
    // `cargo bench --bench paper` renders Figure 12 from the full-size runs.
    let params = BfsParams {
        log_vertices: 15,
        avg_degree: 8,
        sources: 1,
        optimization: BfsOptimization::Baseline,
        seed: 0xB55,
    };

    println!("Running BFS placement case study (3 variants x 2 pooling configurations)...\n");
    let study = bfs_placement_study(params, &machine, &[0.5, 0.75], &[0.0, 25.0, 50.0]);

    for v in &study.variants {
        println!(
            "{:>3.0}% pooled  {:<22}  runtime {:>8.3} ms   remote access {:>5.1}%   Parents remote {:>5.1}%",
            v.pooled_fraction * 100.0,
            v.optimization,
            v.runtime_s * 1e3,
            100.0 * v.remote_access_ratio,
            100.0 * v.parents_remote_ratio,
        );
    }

    for pooled in [0.5, 0.75] {
        println!(
            "\nAt {:.0}% pooled: the two source changes cut the remote access ratio by {:.0} \
             percentage points and speed BFS up by {:.1}% (paper: 99% -> 50% remote access and \
             ~13% speedup at 75% pooled).",
            pooled * 100.0,
            study.remote_access_reduction(pooled).unwrap_or(0.0),
            study.speedup_percent(pooled).unwrap_or(0.0),
        );
    }
}
