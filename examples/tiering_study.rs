//! Dynamic tiering for the six paper workloads, end to end.
//!
//! The `dynamic_tiering` campaign proved the mechanism on the synthetic
//! `PhaseShift` workload; this study turns it into the paper-shaped
//! conclusion layer. Every paper application (HPL, Hypre, NekRS, BFS,
//! SuperLU, XSBench) is re-simulated under the pooled configurations of the
//! paper's `setup_waste` step (75 / 50 / 25 % of the footprint locally) for
//! each tiering policy (static / hot-promote / periodic-rebalance), each
//! placement is priced under the Monte Carlo interference campaign, and the
//! measured phase-dwell (epochs a hot working set stays put before it moves)
//! feeds the migrate-vs-interleave guidance rule — so each workload's
//! [`dismem::core::Guidance`] answers not just *where* to place data but
//! whether to move it at runtime.
//!
//! Each workload walks once: the walk serves all nine (capacity × policy)
//! placements of its matrix ([`sweep_tiering_matrix`]), and the matrix's
//! static 50%-local run is the one the placement and deployment guidance is
//! read from. The study runs sequentially, about 5 s for the six X1
//! workloads on a 2-vCPU host.
//!
//! Writes `CAMPAIGN_tiering_workloads.json` into the results directory (the
//! committed copy at the repository root is regenerated from this example).
//! Exits non-zero, naming the workload, when a workload's static 50%-local
//! run failed, since its guidance cannot be derived.
//!
//! ```sh
//! cargo run --release --example tiering_study            # full X1 inputs
//! DISMEM_QUICK=1 cargo run --release --example tiering_study   # smoke
//! ```

use dismem::core::{derive_guidance, Guidance};
use dismem::sched::{default_specs, sweep_tiering_matrix, CampaignConfig, WorkloadTieringStudy};
use dismem::sim::{MachineConfig, TieringSpec};
use dismem::workloads::{InputScale, Workload, WorkloadKind};
use dismem_profiler::level2::level2_from_report;
use dismem_profiler::level3::{level3_from_report, PAPER_LOI_LEVELS};
use serde::Serialize;

/// The paper's `setup_waste` local-capacity points.
const LOCAL_FRACTIONS: [f64; 3] = [0.75, 0.5, 0.25];
/// The fraction guidance is derived at (the paper's mid pooling point).
const GUIDANCE_FRACTION: f64 = 0.5;

/// One workload's study: the policy × capacity matrix plus the combined
/// guidance (placement priority, deployment advice, migration advice).
#[derive(Serialize)]
struct WorkloadEntry {
    study: WorkloadTieringStudy,
    guidance: Guidance,
}

/// The committed campaign: all six paper workloads.
#[derive(Serialize)]
struct Campaign {
    scale: String,
    local_fractions: Vec<f64>,
    policies: Vec<String>,
    workloads: Vec<WorkloadEntry>,
}

/// Policy specs scaled to one workload: a hotness epoch is an eighth of a
/// full-footprint sweep (several epochs per compute phase on every proxy),
/// and the promotion threshold is a quarter page of traffic per epoch.
fn specs_for(workload: &dyn Workload) -> Vec<TieringSpec> {
    let footprint_lines = workload.expected_footprint_bytes() / 64;
    let epoch_lines = (footprint_lines / 8).max(2_048);
    default_specs(epoch_lines, 16.0)
}

fn main() {
    let quick = dismem_bench::is_quick();
    let scale = InputScale::X1;
    let config = MachineConfig::scaled_testbed();
    let campaign = CampaignConfig {
        runs: if quick { 10 } else { 30 },
        epochs_per_run: 8,
        seed: 7,
    };

    let suite: Vec<Box<dyn Workload>> = if quick {
        WorkloadKind::all()
            .into_iter()
            .map(|kind| kind.instantiate_tiny())
            .collect()
    } else {
        WorkloadKind::instantiate_all(scale)
    };

    let guidance_cell = LOCAL_FRACTIONS
        .iter()
        .position(|&fraction| fraction == GUIDANCE_FRACTION)
        .expect("the guidance fraction is a matrix fraction");
    let mut entries = Vec::new();
    for workload in &suite {
        let specs = specs_for(workload.as_ref());
        let (study, runs) = sweep_tiering_matrix(
            workload.as_ref(),
            &config,
            &LOCAL_FRACTIONS,
            &specs,
            &campaign,
        );

        // Placement and deployment guidance from the paper's three-level
        // methodology at the mid pooling point, extended with the
        // dwell-derived migration advice measured by the dynamic policies.
        // Levels 2 and 3 share the matrix's static run at that point.
        let name = workload.name();
        let reference = specs
            .iter()
            .position(|spec| matches!(spec, TieringSpec::Static))
            .expect("the matrix sweeps the static policy");
        let Some(pooled) = runs[guidance_cell].get(reference) else {
            let failures = &study.cells[guidance_cell].sweep.failed_policies;
            let error = failures.first().map_or("", |f| f.error.as_str());
            eprintln!(
                "{name}: the static {:.0}%-local run failed, so no guidance: {error}",
                GUIDANCE_FRACTION * 100.0
            );
            std::process::exit(1);
        };
        let level2 = level2_from_report(name, GUIDANCE_FRACTION, pooled);
        let level3 = level3_from_report(name, GUIDANCE_FRACTION, pooled, &PAPER_LOI_LEVELS);
        let mut guidance = derive_guidance(&level2, &level3);
        if let Some(measured) = study.measured_at(GUIDANCE_FRACTION) {
            guidance = guidance.with_migration_advice(&measured.tiering);
        }

        print_study(&study, &guidance);
        entries.push(WorkloadEntry { study, guidance });
    }

    println!("\n== migrate-vs-interleave guidance (dwell-derived) ==");
    for e in &entries {
        let measured = e.study.measured_at(GUIDANCE_FRACTION);
        println!(
            "{:<10} advice: {:<12} (mean dwell {:>5.1} epochs, {} shifts, best dynamic speedup {:.2}x)",
            e.study.workload,
            e.guidance
                .migration
                .map_or("<unmeasured>".to_string(), |a| format!("{a:?}")),
            measured.map_or(0.0, |o| o.mean_dwell_epochs),
            measured.map_or(0, |o| o.tiering.hot_set_shifts),
            e.study.best_speedup_vs_static(),
        );
    }

    let campaign_out = Campaign {
        scale: if quick {
            "tiny".into()
        } else {
            scale.label().into()
        },
        local_fractions: LOCAL_FRACTIONS.to_vec(),
        policies: entries
            .first()
            .map(|e| {
                e.study.cells[0]
                    .sweep
                    .outcomes
                    .iter()
                    .map(|o| o.policy.clone())
                    .collect()
            })
            .unwrap_or_default(),
        workloads: entries,
    };
    let dir = std::env::var("DISMEM_RESULTS_DIR").unwrap_or_else(|_| "target".to_string());
    let path = std::path::Path::new(&dir).join("CAMPAIGN_tiering_workloads.json");
    let json = serde_json::to_string_pretty(&campaign_out).expect("the campaign serializes");
    if let Err(e) = std::fs::create_dir_all(&dir).and_then(|()| std::fs::write(&path, json)) {
        eprintln!("could not write {}: {e}", path.display());
        std::process::exit(1);
    }
    println!("\n[results written to {}]", path.display());
}

fn print_study(study: &WorkloadTieringStudy, guidance: &Guidance) {
    println!(
        "\n== {} ({}, footprint {:.1} MiB) ==",
        study.workload,
        study.input,
        study.footprint_bytes as f64 / (1 << 20) as f64
    );
    println!(
        "{:<8} {:<20} {:>12} {:>9} {:>9} {:>9} {:>10} {:>8}",
        "local", "policy", "runtime", "speedup", "loaded", "remote%", "migrated", "dwell"
    );
    for cell in &study.cells {
        for o in &cell.sweep.outcomes {
            println!(
                "{:<8} {:<20} {:>9.3} ms {:>8.2}x {:>8.2}x {:>8.1}% {:>7.2} MiB {:>8.1}",
                format!("{:.0}%", cell.local_fraction * 100.0),
                o.policy,
                o.runtime_s * 1e3,
                o.speedup_vs_static,
                o.loaded_speedup_vs_static,
                o.remote_access_ratio * 100.0,
                o.tiering.migrated_bytes as f64 / (1 << 20) as f64,
                o.mean_dwell_epochs,
            );
        }
    }
    for note in &guidance.notes {
        println!("  note: {note}");
    }
}
