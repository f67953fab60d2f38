//! Fault-tolerant fleet campaigns, end to end: journal, crash, resume,
//! shards, quarantine.
//!
//! Runs the same tiny fleet grid several ways and proves the
//! crash-consistency contract by byte-comparing the serialized reports:
//!
//! 1. an uninterrupted **reference** run;
//! 2. a run **killed** mid-flight with a torn final journal record, then
//!    **resumed** — the resumed report must be bit-identical to (1);
//! 3. three **shards** run against independent journals, merged with
//!    [`dismem::sched::merge_shard_journals`], then resumed warm (zero
//!    re-runs) — again bit-identical to (1);
//! 4. a run with one permanently **poisoned** cell, which is retried up to
//!    the spec's attempt bound and then quarantined into `failed_cells`
//!    instead of aborting the campaign.
//!
//! Any mismatch makes the example exit non-zero, so CI can run it as a
//! smoke test. Journals and the final report land in `DISMEM_RESULTS_DIR`
//! (default `target/`).
//!
//! ```sh
//! cargo run --release --example resumable_campaign                # full tiny grid
//! DISMEM_QUICK=1 cargo run --release --example resumable_campaign # CI smoke
//! ```

use dismem::sched::{
    merge_shard_journals, resume_campaign, run_fleet_campaign, CampaignError, CampaignReport,
    FaultPlan, FleetSpec, Shard, SimCellRunner,
};
use dismem::sim::MachineConfig;
use std::path::{Path, PathBuf};

/// A journal path inside the results directory, cleared of any previous run
/// (fresh campaigns refuse non-empty journals by design).
fn fresh_journal(dir: &Path, name: &str) -> PathBuf {
    let path = dir.join(name);
    let _ = std::fs::remove_file(&path);
    path
}

fn report_json(report: &CampaignReport) -> String {
    serde_json::to_string(report).expect("campaign report serializes")
}

/// Serialized report with the resume diagnostics cleared: a resume over a
/// torn tail reports the drop (`dropped_torn_tail`), so the bit-identity
/// comparison against the clean reference normalizes the diagnostic fields
/// and checks them explicitly instead.
fn report_json_normalized(report: &CampaignReport) -> String {
    let mut normalized = report.clone();
    normalized.rejected_records = 0;
    normalized.dropped_torn_tail = false;
    report_json(&normalized)
}

fn main() {
    let quick = dismem_bench::is_quick();
    let config = MachineConfig::scaled_testbed();
    let spec = if quick {
        FleetSpec {
            workloads: vec!["BFS".into(), "XSBench".into()],
            capacities_permille: vec![250, 750],
            ..FleetSpec::tiny_grid(&config)
        }
    } else {
        FleetSpec::tiny_grid(&config)
    };
    let runner = if quick {
        SimCellRunner::quick(config)
    } else {
        SimCellRunner::new(config)
    };

    let dir =
        PathBuf::from(std::env::var("DISMEM_RESULTS_DIR").unwrap_or_else(|_| "target".to_string()));
    if let Err(e) = std::fs::create_dir_all(&dir) {
        eprintln!("could not create results dir {}: {e}", dir.display());
        std::process::exit(1);
    }
    let cells = spec.cells();
    println!(
        "fleet grid: {} cells ({} workloads x {} policies x {} capacities), spec digest {}",
        cells.len(),
        spec.workloads.len(),
        spec.policies.len(),
        spec.capacities_permille.len(),
        spec.digest_hex(),
    );
    let mut failures: Vec<String> = Vec::new();

    // 1. The uninterrupted reference.
    let reference_path = fresh_journal(&dir, "FLEET_reference.jsonl");
    let reference =
        match run_fleet_campaign(&spec, &runner, &reference_path, None, &FaultPlan::none()) {
            Ok(report) => report,
            Err(e) => {
                eprintln!("reference run failed: {e}");
                std::process::exit(1);
            }
        };
    let reference_json = report_json(&reference);
    println!(
        "reference:   {} cells completed, {} quarantined",
        reference.completed.len(),
        reference.failed_cells.len()
    );

    // 2. Crash mid-campaign (with the final record torn, as an unclean
    //    filesystem would leave it), then resume.
    let crash_path = fresh_journal(&dir, "FLEET_crash.jsonl");
    let kill_after = (cells.len() as u64 / 3).max(1);
    let crash_fault = FaultPlan::kill_after(kill_after).with_torn_final_record();
    match run_fleet_campaign(&spec, &runner, &crash_path, None, &crash_fault) {
        Err(CampaignError::Interrupted { cells_journaled }) => {
            println!(
                "crash run:   killed after {cells_journaled} journaled cells (final record torn)"
            );
        }
        Ok(_) => failures.push("crash run unexpectedly completed".into()),
        Err(e) => failures.push(format!("crash run failed in an unexpected way: {e}")),
    }
    match resume_campaign(&spec, &runner, &crash_path, None, &FaultPlan::none()) {
        Ok((resumed, stats)) => {
            println!(
                "resume:      replayed {}, re-ran {} (torn tail dropped: {})",
                stats.replayed, stats.reran, stats.torn_tail
            );
            if !resumed.dropped_torn_tail {
                failures.push("resumed report does not surface the torn tail".into());
            }
            if resumed.rejected_records != 0 {
                failures.push(format!(
                    "resume rejected {} records from its own journal",
                    resumed.rejected_records
                ));
            }
            if report_json_normalized(&resumed) != reference_json {
                failures.push("resumed report differs from the reference".into());
            }
        }
        Err(e) => failures.push(format!("resume failed: {e}")),
    }

    // 3. Three shards in three journals, merged, then resumed warm.
    const SHARDS: u32 = 3;
    let shard_paths: Vec<PathBuf> = (0..SHARDS)
        .map(|i| fresh_journal(&dir, &format!("FLEET_shard{i}.jsonl")))
        .collect();
    for (i, path) in shard_paths.iter().enumerate() {
        let shard = Shard::new(i as u32, SHARDS);
        if let Err(e) = run_fleet_campaign(&spec, &runner, path, Some(shard), &FaultPlan::none()) {
            failures.push(format!("shard {i}/{SHARDS} failed: {e}"));
        }
    }
    let merged_path = fresh_journal(&dir, "FLEET_merged.jsonl");
    match merge_shard_journals(&shard_paths, &merged_path, &spec.digest_hex()) {
        Ok(merged_records) => {
            println!("shards:      {SHARDS} shards merged into {merged_records} records");
            match resume_campaign(&spec, &runner, &merged_path, None, &FaultPlan::none()) {
                Ok((merged, stats)) => {
                    if stats.reran != 0 {
                        failures.push(format!(
                            "merged journal was not warm: {} cells re-ran",
                            stats.reran
                        ));
                    }
                    if report_json(&merged) != reference_json {
                        failures.push("merged-shard report differs from the reference".into());
                    }
                }
                Err(e) => failures.push(format!("resume over merged journal failed: {e}")),
            }
        }
        Err(e) => failures.push(format!("shard merge failed: {e}")),
    }

    // 4. Quarantine: one cell panics on every attempt; the campaign still
    //    completes and reports the gap.
    let poison_path = fresh_journal(&dir, "FLEET_poison.jsonl");
    let poisoned_id = cells[cells.len() / 2].id();
    let poison_fault = FaultPlan::none().with_poison_forever(&poisoned_id);
    // The injected panics are caught and quarantined; keep the default hook
    // from spraying their backtraces over the demo output.
    let default_hook = std::panic::take_hook();
    std::panic::set_hook(Box::new(|_| {}));
    let poison_outcome = run_fleet_campaign(&spec, &runner, &poison_path, None, &poison_fault);
    std::panic::set_hook(default_hook);
    match poison_outcome {
        Ok(report) => {
            match report.failed_cells.as_slice() {
                [failed] if failed.key.id() == poisoned_id => {
                    println!(
                        "quarantine:  {} failed after {} attempts ({})",
                        failed.key.id(),
                        failed.attempts,
                        failed.error
                    );
                }
                other => failures.push(format!(
                    "expected exactly the poisoned cell in failed_cells, got {} entries: {other:?}",
                    other.len()
                )),
            }
            if report.completed.len() != cells.len() - 1 {
                failures.push(format!(
                    "poisoned run completed {} of {} healthy cells",
                    report.completed.len(),
                    cells.len() - 1
                ));
            }
        }
        Err(e) => failures.push(format!("poisoned run aborted instead of quarantining: {e}")),
    }

    // Persist the reference report next to the journals.
    let report_path = dir.join("FLEET_campaign.json");
    match serde_json::to_string_pretty(&reference) {
        Ok(json) => {
            if let Err(e) = std::fs::write(&report_path, json) {
                failures.push(format!("could not write {}: {e}", report_path.display()));
            } else {
                println!("[reference report written to {}]", report_path.display());
            }
        }
        Err(e) => failures.push(format!("could not serialize the reference report: {e}")),
    }

    if failures.is_empty() {
        println!(
            "\nAll {} cells agree across crash/resume and shard/merge: the journaled \
             campaign is bit-identical to the uninterrupted reference.",
            cells.len()
        );
    } else {
        eprintln!("\ncrash-consistency contract VIOLATED:");
        for f in &failures {
            eprintln!("  - {f}");
        }
        std::process::exit(1);
    }
}
