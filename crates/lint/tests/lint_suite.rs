//! Integration suite for `dismem-lint`: each known-bad fixture must produce
//! exactly its expected findings, the workspace itself must scan clean, and
//! reverting a bulk-API fix in a real workload must make the gate fail.

use dismem_lint::{lint_workspace, scan_file_as};
use std::path::{Path, PathBuf};

fn fixture(name: &str) -> String {
    let path = Path::new(env!("CARGO_MANIFEST_DIR"))
        .join("tests/fixtures")
        .join(name);
    std::fs::read_to_string(&path).unwrap_or_else(|e| panic!("read {}: {e}", path.display()))
}

fn rules_of(findings: &[dismem_lint::report::Finding]) -> Vec<&str> {
    findings.iter().map(|f| f.rule.as_str()).collect()
}

fn workspace_root() -> PathBuf {
    Path::new(env!("CARGO_MANIFEST_DIR")).join("../..")
}

// ---------------------------------------------------------------------------
// One fixture per rule family: exact findings, nothing more.
// ---------------------------------------------------------------------------

#[test]
fn bulk_api_fixture_flags_only_the_two_loops() {
    let f = scan_file_as(
        "crates/workloads/src/apps/fixture.rs",
        &fixture("bulk_api_loop.rs"),
    );
    assert_eq!(rules_of(&f), ["bulk-api", "bulk-api"], "{f:?}");
    // The for-loop body and the while-loop body; not the statement-position
    // call, not `impl ... for ...`, not the test module.
    assert_eq!(f[0].line, 9);
    assert_eq!(f[1].line, 14);
}

#[test]
fn recording_fixture_flags_both_calls_but_not_the_fn_item() {
    let f = scan_file_as(
        "crates/sched/src/fixture.rs",
        &fixture("recording_outside.rs"),
    );
    assert_eq!(
        rules_of(&f),
        ["single-recording-point", "single-recording-point"],
        "{f:?}"
    );
    assert_eq!(f[0].line, 6);
    assert_eq!(f[1].line, 7);
}

#[test]
fn counters_fixture_flags_both_mutations_but_not_reads_or_flops() {
    let f = scan_file_as(
        "crates/sched/src/fixture.rs",
        &fixture("counters_mutation.rs"),
    );
    assert_eq!(
        rules_of(&f),
        ["single-recording-point", "single-recording-point"],
        "{f:?}"
    );
    assert!(f[0].message.contains("dram_lines_pool"));
    assert!(f[1].message.contains("demand_read_lines"));
}

#[test]
fn replay_reset_fixture_flags_the_unaudited_rebind() {
    let f = scan_file_as("crates/sched/src/fixture.rs", &fixture("replay_reset.rs"));
    assert_eq!(rules_of(&f), ["replay-reset"], "{f:?}");
    assert_eq!(f[0].line, 6);
}

#[test]
fn migration_apply_path_is_the_only_sanctioned_rebind_site() {
    let path = workspace_root().join("crates/sim/src/machine.rs");
    let src = std::fs::read_to_string(path).expect("read machine.rs");
    // On its audited path the migration apply's rebind is sanctioned...
    assert!(
        scan_file_as("crates/sim/src/machine.rs", &src)
            .iter()
            .all(|f| f.rule != "replay-reset"),
        "machine.rs migration path must be on the audit list"
    );
    // ...but the same code moved anywhere else trips the rule.
    let f = scan_file_as("crates/sim/src/tiering.rs", &src);
    assert!(
        f.iter().any(|f| f.rule == "replay-reset"),
        "rebind_page outside the audit list must be flagged: {f:?}"
    );
}

#[test]
fn hash_iteration_fixture_flags_escape_and_loop_but_not_sorted_uses() {
    let f = scan_file_as("crates/sim/src/fixture.rs", &fixture("hash_iteration.rs"));
    assert_eq!(rules_of(&f), ["hash-iteration", "hash-iteration"], "{f:?}");
    assert_eq!(f[0].line, 11); // keys().collect() escaping unsorted
    assert_eq!(f[1].line, 15); // for-loop over &self.heat
}

#[test]
fn hash_iteration_does_not_apply_outside_report_affecting_crates() {
    let f = scan_file_as(
        "crates/analysis/src/fixture.rs",
        &fixture("hash_iteration.rs"),
    );
    assert!(f.is_empty(), "{f:?}");
}

#[test]
fn wall_clock_fixture_flags_import_and_use_but_not_tests_or_strings() {
    let f = scan_file_as("crates/core/src/fixture.rs", &fixture("wall_clock.rs"));
    assert_eq!(rules_of(&f), ["wall-clock", "wall-clock"], "{f:?}");
    assert_eq!(f[0].line, 5);
    assert_eq!(f[1].line, 8);
}

#[test]
fn wall_clock_is_exempt_in_the_bench_crate() {
    let f = scan_file_as("crates/bench/src/fixture.rs", &fixture("wall_clock.rs"));
    assert!(f.is_empty(), "{f:?}");
}

#[test]
fn unseeded_random_fixture_flags_ambient_rng_but_not_seeded() {
    let f = scan_file_as(
        "crates/workloads/src/fixture.rs",
        &fixture("unseeded_random.rs"),
    );
    assert_eq!(
        rules_of(&f),
        ["unseeded-random", "unseeded-random"],
        "{f:?}"
    );
    assert_eq!(f[0].line, 5);
    assert_eq!(f[1].line, 6);
}

#[test]
fn missing_forbid_fixture_flags_the_crate_root() {
    let f = scan_file_as("crates/demo/src/lib.rs", &fixture("missing_forbid.rs"));
    assert_eq!(rules_of(&f), ["unsafe-audit"], "{f:?}");
    assert_eq!(f[0].line, 1);
    assert!(f[0].message.contains("forbid(unsafe_code)"));
}

#[test]
fn forbid_check_only_applies_to_crate_roots() {
    let f = scan_file_as("crates/demo/src/inner.rs", &fixture("missing_forbid.rs"));
    assert!(f.is_empty(), "{f:?}");
}

#[test]
fn first_party_unsafe_is_flagged_even_with_a_safety_comment() {
    let f = scan_file_as(
        "crates/sim/src/fixture.rs",
        &fixture("first_party_unsafe.rs"),
    );
    assert_eq!(rules_of(&f), ["unsafe-audit"], "{f:?}");
}

#[test]
fn vendor_unsafe_needs_a_safety_comment() {
    let f = scan_file_as("vendor/stub/src/lib.rs", &fixture("vendor_unsafe.rs"));
    assert_eq!(rules_of(&f), ["unsafe-audit"], "{f:?}");
    assert!(f[0].message.contains("SAFETY"));
    // Only the undocumented block; the documented one is sanctioned.
    assert_eq!(f[0].line, 13);
}

#[test]
fn panic_policy_fixture_flags_unwrap_and_expect_but_not_combinators() {
    let f = scan_file_as("crates/sched/src/campaign.rs", &fixture("panic_policy.rs"));
    assert_eq!(rules_of(&f), ["panic-policy", "panic-policy"], "{f:?}");
    assert_eq!(f[0].line, 6); // .unwrap()
    assert_eq!(f[1].line, 8); // .expect(...)
    assert!(f[0].message.contains("quarantine"));
}

#[test]
fn panic_policy_covers_the_journal_and_fault_modules_too() {
    for rel in ["crates/sched/src/journal.rs", "crates/sched/src/fault.rs"] {
        let f = scan_file_as(rel, &fixture("panic_policy.rs"));
        assert_eq!(
            rules_of(&f),
            ["panic-policy", "panic-policy"],
            "{rel}: {f:?}"
        );
    }
}

#[test]
fn panic_policy_does_not_apply_outside_the_campaign_modules() {
    let f = scan_file_as("crates/sched/src/tiering.rs", &fixture("panic_policy.rs"));
    assert!(f.is_empty(), "{f:?}");
    let f = scan_file_as("crates/sim/src/machine.rs", &fixture("panic_policy.rs"));
    assert!(f.is_empty(), "{f:?}");
}

#[test]
fn adding_an_unwrap_to_the_real_campaign_module_fails_the_gate() {
    let path = workspace_root().join("crates/sched/src/campaign.rs");
    let src = std::fs::read_to_string(path).expect("read campaign.rs");
    // The committed quarantine path is panic-free outside tests.
    assert!(
        scan_file_as("crates/sched/src/campaign.rs", &src)
            .iter()
            .all(|f| f.rule != "panic-policy"),
        "committed campaign.rs must satisfy panic-policy"
    );
    // The way a regressing patch would: swallow the journal error.
    let regressed = src.replacen(
        "writer.append(&record)?;",
        "writer.append(&record).unwrap();",
        1,
    );
    assert_ne!(regressed, src, "revert target must exist in campaign.rs");
    let f = scan_file_as("crates/sched/src/campaign.rs", &regressed);
    assert!(
        f.iter().any(|f| f.rule == "panic-policy"),
        "unwrap on the journal append must trip panic-policy: {f:?}"
    );
}

#[test]
fn trace_hygiene_fixture_flags_both_emissions_but_not_the_fn_item() {
    let f = scan_file_as(
        "crates/profiler/src/fixture.rs",
        &fixture("trace_hygiene.rs"),
    );
    assert_eq!(rules_of(&f), ["trace-hygiene", "trace-hygiene"], "{f:?}");
    assert_eq!(f[0].line, 6); // rec.record_event(...)
    assert_eq!(f[1].line, 7); // bare emit(...)
    assert!(f[0].message.contains("sanctioned trace emission points"));
}

#[test]
fn trace_hygiene_exempts_the_sanctioned_sites_and_the_trace_crate() {
    for rel in [
        "crates/sim/src/machine.rs",
        "crates/sim/src/tiering.rs",
        "crates/sim/src/replay.rs",
        "crates/sched/src/campaign.rs",
        "crates/sched/src/journal.rs",
        "crates/trace/src/flight.rs",
    ] {
        let f = scan_file_as(rel, &fixture("trace_hygiene.rs"));
        assert!(f.iter().all(|f| f.rule != "trace-hygiene"), "{rel}: {f:?}");
    }
}

#[test]
fn moving_the_machine_emission_sites_off_the_audit_list_fails_the_gate() {
    let path = workspace_root().join("crates/sim/src/machine.rs");
    let src = std::fs::read_to_string(path).expect("read machine.rs");
    assert!(
        src.contains("record_event"),
        "machine.rs lost its emissions"
    );
    // On the audit list the chunk-close/migration emissions are sanctioned...
    assert!(
        scan_file_as("crates/sim/src/machine.rs", &src)
            .iter()
            .all(|f| f.rule != "trace-hygiene"),
        "machine.rs emission sites must be on the audit list"
    );
    // ...but the same code moved anywhere else trips the rule.
    let f = scan_file_as("crates/profiler/src/runner.rs", &src);
    assert!(
        f.iter().any(|f| f.rule == "trace-hygiene"),
        "record_event outside the audit list must be flagged: {f:?}"
    );
}

// ---------------------------------------------------------------------------
// The allow mechanism.
// ---------------------------------------------------------------------------

#[test]
fn justified_allows_suppress_in_a_report_affecting_crate() {
    let f = scan_file_as("crates/sim/src/fixture.rs", &fixture("allowed_clean.rs"));
    assert!(f.is_empty(), "{f:?}");
}

#[test]
fn justified_allows_suppress_in_a_workload_crate() {
    let f = scan_file_as(
        "crates/workloads/src/fixture.rs",
        &fixture("allowed_clean.rs"),
    );
    assert!(f.is_empty(), "{f:?}");
}

#[test]
fn an_allow_without_a_reason_suppresses_nothing_and_is_itself_flagged() {
    let mut f = scan_file_as(
        "crates/core/src/fixture.rs",
        &fixture("allow_missing_reason.rs"),
    );
    f.sort_by(|a, b| a.rule.cmp(&b.rule));
    assert_eq!(rules_of(&f), ["allow-syntax", "wall-clock"], "{f:?}");
}

// ---------------------------------------------------------------------------
// The workspace itself is the ultimate fixture: it must be clean, and
// reverting a real bulk-API fix must break the gate.
// ---------------------------------------------------------------------------

#[test]
fn workspace_scans_clean_under_deny_all() {
    let report = lint_workspace(&workspace_root()).expect("workspace scan");
    assert!(
        report.is_clean(),
        "workspace has lint findings:\n{}",
        report.to_json()
    );
    // Sanity: the scan actually visited the workspace, not an empty dir.
    assert!(report.files_scanned > 50, "{} files", report.files_scanned);
}

#[test]
fn reverting_the_bfs_bulk_api_fix_fails_the_gate() {
    let path = workspace_root().join("crates/workloads/src/apps/bfs.rs");
    let src = std::fs::read_to_string(path).expect("read bfs.rs");
    assert!(src.contains("access_range"), "bfs.rs lost its bulk calls");
    // Undo the bulk-API conversion the way a regressing patch would.
    let reverted = src.replace(".access_range(", ".access(");
    let f = scan_file_as("crates/workloads/src/apps/bfs.rs", &reverted);
    assert!(
        f.iter().any(|f| f.rule == "bulk-api"),
        "reverted bfs.rs should trip the bulk-api rule: {f:?}"
    );
    // The committed file, by contrast, is clean.
    assert!(scan_file_as("crates/workloads/src/apps/bfs.rs", &src).is_empty());
}

#[test]
fn reverting_the_lbench_bulk_api_fix_fails_the_gate() {
    let path = workspace_root().join("crates/lbench/src/kernel.rs");
    let src = std::fs::read_to_string(path).expect("read kernel.rs");
    let reverted = src.replace(".access_range(", ".access(");
    let f = scan_file_as("crates/lbench/src/kernel.rs", &reverted);
    assert!(
        f.iter().any(|f| f.rule == "bulk-api"),
        "reverted kernel.rs should trip the bulk-api rule: {f:?}"
    );
    assert!(scan_file_as("crates/lbench/src/kernel.rs", &src).is_empty());
}

// ---------------------------------------------------------------------------
// Report shape.
// ---------------------------------------------------------------------------

#[test]
fn report_json_is_machine_readable_and_sorted() {
    let report = lint_workspace(&workspace_root()).expect("workspace scan");
    let json = report.to_json();
    assert!(json.contains("\"tool\": \"dismem-lint\""));
    assert!(json.contains("\"files_scanned\""));
    assert!(json.contains("\"findings\""));
    let windows: Vec<_> = report.findings.windows(2).collect();
    for w in windows {
        assert!(
            (&w[0].file, w[0].line, &w[0].rule) <= (&w[1].file, w[1].line, &w[1].rule),
            "findings not sorted"
        );
    }
}
