//! Dynamic-tiering policy campaign: static pinning vs hot-page promotion vs
//! periodic rebalancing on the phase-shifting working-set workload.
//!
//! The arena is interleaved 1:1 across the tiers (the static best-effort
//! placement when only half of the footprint fits locally) and the hot
//! region moves every phase. A dynamic policy pays page-sized migration
//! traffic on the pool link to keep the hot region in node-local DRAM;
//! static placement pays pool latency on every pass instead.
//!
//! Writes `CAMPAIGN_tiering.json` into the results directory (the committed
//! copy at the repository root is regenerated from this example).
//!
//! ```sh
//! cargo run --release --example dynamic_tiering
//! ```

use dismem::sched::{default_specs, sweep_tiering_policies, CampaignConfig};
use dismem::sim::MachineConfig;
use dismem::trace::PAGE_SIZE;
use dismem::workloads::{InputScale, PhaseShift, PhaseShiftParams, Workload};

fn main() {
    let params = PhaseShiftParams::bench(InputScale::X1);
    let workload = PhaseShift::new(params);
    // Local capacity = the interleaved half of the arena (plus slack for the
    // accumulator), so static placement is exactly the 1:1 interleave and a
    // promotion policy must demote cold pages to make room.
    let arena_pages = params.arena_bytes / PAGE_SIZE;
    let config =
        MachineConfig::scaled_testbed().with_local_capacity((arena_pages / 2 + 16) * PAGE_SIZE);
    // One hotness epoch per sweep pass (64 Ki lines), promotion threshold at
    // half a pass's per-page line count.
    let specs = default_specs(65_536, 16.0);
    let campaign = CampaignConfig {
        runs: 50,
        epochs_per_run: 8,
        seed: 7,
    };

    println!(
        "workload: {} ({})",
        workload.name(),
        workload.input_description()
    );
    println!(
        "{:<20} {:>12} {:>9} {:>9} {:>9} {:>9} {:>11} {:>11}",
        "policy", "runtime", "speedup", "loaded", "remote%", "promos", "demos", "migrated"
    );
    let sweep = sweep_tiering_policies(&workload, &config, &specs, &campaign);
    for o in &sweep.outcomes {
        println!(
            "{:<20} {:>9.3} ms {:>8.2}x {:>8.2}x {:>8.1}% {:>9} {:>11} {:>8.2} MiB",
            o.policy,
            o.runtime_s * 1e3,
            o.speedup_vs_static,
            o.loaded_speedup_vs_static,
            o.remote_access_ratio * 100.0,
            o.tiering.promotions,
            o.tiering.demotions,
            o.tiering.migrated_bytes as f64 / (1 << 20) as f64,
        );
    }
    println!(
        "\nHot-promotion pays {:.2} MiB of raw link traffic in migrations and in exchange \
         serves the moving working set from node-local DRAM; static interleave keeps paying \
         pool latency on every pass.",
        sweep
            .outcomes
            .iter()
            .map(|o| o.migration_link_raw_bytes)
            .max()
            .unwrap_or(0) as f64
            / (1 << 20) as f64
    );

    let dir = std::env::var("DISMEM_RESULTS_DIR").unwrap_or_else(|_| "target".to_string());
    let path = std::path::Path::new(&dir).join("CAMPAIGN_tiering.json");
    let json = serde_json::to_string_pretty(&sweep).expect("the sweep serializes");
    if let Err(e) = std::fs::create_dir_all(&dir).and_then(|()| std::fs::write(&path, json)) {
        eprintln!("could not write {}: {e}", path.display());
        std::process::exit(1);
    }
    println!("[results written to {}]", path.display());
}
