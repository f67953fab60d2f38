//! Flight-recorded dynamic-tiering run: one workload, full observability.
//!
//! Runs the phase-shifting working-set workload under the hot-promotion
//! policy with a `dismem::trace::FlightRecorder` attached, then:
//!
//! 1. proves the recorder is **read-only** by byte-comparing the recorded
//!    run's report against an unrecorded run of the same configuration;
//! 2. proves the trace itself is **deterministic** by recording the run
//!    twice and byte-comparing the JSONL exports;
//! 3. **self-validates** the JSONL stream against the committed schema
//!    (`docs/TRACE_SCHEMA.json`) with [`validate_jsonl`];
//! 4. writes both exporter outputs — `TRACE_tiering_run.jsonl` and
//!    `TRACE_tiering_run_chrome.json` (openable in Perfetto /
//!    `chrome://tracing`) — into `DISMEM_RESULTS_DIR` (default `target/`);
//! 5. prints the number of events of each kind, and checks that every
//!    simulator emission site fired: an epoch close, a migration, a tier
//!    spill, and a replay window engaging and exiting.
//!
//! Any contract violation makes the example exit non-zero, so CI runs it as
//! a smoke test.
//!
//! ```sh
//! cargo run --release --example traced_tiering_run
//! ```

use dismem::profiler::{run_workload, run_workload_recorded, RunOptions};
use dismem::sim::tiering::HotPromote;
use dismem::sim::{MachineConfig, TieringSpec};
use dismem::trace::{to_chrome_trace, to_jsonl, validate_jsonl, PAGE_SIZE};
use dismem::workloads::{InputScale, PhaseShift, PhaseShiftParams, Workload};
use std::collections::BTreeMap;

/// The simulator's emission sites, by the kind of event each emits; a
/// hot-promote run with a spilled local tier and long streams reaches all
/// of them.
const SIMULATOR_KINDS: [&str; 5] = [
    "EpochClosed",
    "MigrationApplied",
    "TierSpill",
    "ReplayEngaged",
    "ReplayExited",
];

fn main() {
    let params = PhaseShiftParams::bench(InputScale::X1);
    let workload = PhaseShift::new(params);
    let arena_pages = params.arena_bytes / PAGE_SIZE;
    let config =
        MachineConfig::scaled_testbed().with_local_capacity((arena_pages / 2 + 16) * PAGE_SIZE);
    let options = RunOptions::new(config)
        .with_tiering(TieringSpec::HotPromote(HotPromote::new(65_536, 16.0)));

    println!(
        "workload: {} ({}), policy: hot-promote",
        workload.name(),
        workload.input_description()
    );
    let mut failures: Vec<String> = Vec::new();

    // The unrecorded reference, then two recorded runs.
    let reference = run_workload(&workload, &options);
    let (recorded, events) = run_workload_recorded(&workload, &options);
    let (_, events_again) = run_workload_recorded(&workload, &options);

    // 1. Recording is read-only.
    if recorded != reference {
        failures.push("recorded run's report differs from the unrecorded run".into());
    }

    // 2. The trace is deterministic.
    let jsonl = to_jsonl(&events);
    if jsonl != to_jsonl(&events_again) {
        failures.push("repeat recording produced a different trace".into());
    }

    // 3. The stream validates against the committed schema.
    match validate_jsonl(&jsonl) {
        Ok(lines) => println!("trace:    {lines} events, schema-valid"),
        Err(e) => failures.push(format!("trace failed schema validation: {e}")),
    }

    // 4. Both exporter outputs land in the results directory.
    let dir = std::env::var("DISMEM_RESULTS_DIR").unwrap_or_else(|_| "target".to_string());
    let dir = std::path::Path::new(&dir);
    if let Err(e) = std::fs::create_dir_all(dir) {
        eprintln!("could not create results dir {}: {e}", dir.display());
        std::process::exit(1);
    }
    for (name, payload) in [
        ("TRACE_tiering_run.jsonl", &jsonl),
        ("TRACE_tiering_run_chrome.json", &to_chrome_trace(&events)),
    ] {
        let path = dir.join(name);
        if let Err(e) = std::fs::write(&path, payload) {
            failures.push(format!("could not write {}: {e}", path.display()));
        } else {
            println!("[trace written to {}]", path.display());
        }
    }

    // 5. Events per kind; every simulator emission site fired.
    let mut per_kind: BTreeMap<&str, u64> = BTreeMap::new();
    for event in &events {
        *per_kind.entry(event.name()).or_default() += 1;
    }
    println!("\nevents per kind:");
    for (kind, count) in &per_kind {
        println!("  {kind:<18} {count}");
    }
    for kind in SIMULATOR_KINDS {
        if !per_kind.contains_key(kind) {
            failures.push(format!("the tiering run recorded no {kind} event"));
        }
    }

    if failures.is_empty() {
        println!(
            "\nThe recorder observed {} events without changing a single report bit, \
             and both recordings exported byte-identically.",
            events.len()
        );
    } else {
        eprintln!("\nobservability contract VIOLATED:");
        for f in &failures {
            eprintln!("  - {f}");
        }
        std::process::exit(1);
    }
}
