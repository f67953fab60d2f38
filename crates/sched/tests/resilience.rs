//! Fault-injection suite for the fleet-campaign crash-consistency contract.
//!
//! Every test here asserts *full-report bit-identity*: the serialized JSON of
//! a resumed / sharded / quarantined campaign must equal the uninterrupted
//! sequential reference byte for byte. That is the strongest form of the
//! contract — it proves the journal round-trip (including floats), the
//! deterministic work queue, and the id-sorted report construction all agree.

use dismem_core::{fnv1a64, CellKey};
use dismem_sched::{
    load_journal, merge_shard_journals, resume_campaign, run_fleet_campaign, CampaignError,
    CampaignReport, CellMetrics, CellRunner, FaultPlan, FleetSpec, JournalError, JournalRecord,
    JournalWriter, LoadedJournal, Shard, SimCellRunner, SnapshotCache, SnapshotStats,
};
use dismem_sim::MachineConfig;
use proptest::prelude::*;
use serde_json::{ParseErrorKind, MAX_DEPTH};
use std::path::{Path, PathBuf};

fn temp_journal(name: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("dismem-resilience-{}", std::process::id()));
    std::fs::create_dir_all(&dir).expect("create temp dir");
    let path = dir.join(format!("{name}.jsonl"));
    let _ = std::fs::remove_file(&path);
    path
}

/// Cheap, fully deterministic runner: metrics are pure functions of the cell
/// id, with non-trivial fractional parts so the float round-trip is actually
/// exercised (an integral value would serialize trivially).
struct SyntheticRunner;

impl CellRunner for SyntheticRunner {
    fn run(&self, key: &CellKey) -> Result<CellMetrics, String> {
        let h = fnv1a64(key.id().as_bytes());
        let base = 1.0 + (h % 1000) as f64 / 997.0;
        Ok(CellMetrics {
            trials: 8,
            mean_runtime_s: base * 1.234_567_890_123_456_7,
            min_runtime_s: base,
            q1_runtime_s: base * 1.1,
            median_runtime_s: base * 1.2,
            q3_runtime_s: base * 1.3,
            max_runtime_s: base * 1.7,
            remote_access_ratio: (h % 997) as f64 / 997.0,
        })
    }
}

/// 3 workloads × 2 policies × 2 capacities × 2 seeds = 24 cells.
fn spec() -> FleetSpec {
    FleetSpec {
        workloads: vec!["A".to_string(), "B".to_string(), "C".to_string()],
        scales: vec!["tiny".to_string()],
        policies: vec!["baseline".to_string(), "aware".to_string()],
        capacities_permille: vec![250, 750],
        links: vec!["upi".to_string()],
        seeds: vec![1, 2],
        max_attempts: 3,
        config_digest: 0xABCD,
    }
}

const CELLS: u64 = 24;

fn json(report: &CampaignReport) -> String {
    serde_json::to_string(report).expect("serialize report")
}

/// Serialized form with the resume-diagnostic fields cleared: a resume that
/// legitimately dropped records (torn tail, foreign digests) reports those
/// drops — and a warm-started campaign reports its memo activity —
/// so comparisons against a fresh-run reference normalize them away and
/// assert the diagnostics explicitly instead.
fn json_normalized(report: &CampaignReport) -> String {
    let mut normalized = report.clone();
    normalized.rejected_records = 0;
    normalized.dropped_torn_tail = false;
    normalized.snapshot = SnapshotStats::default();
    json(&normalized)
}

/// The uninterrupted sequential reference report and its serialized form.
fn reference(name: &str) -> String {
    let path = temp_journal(&format!("{name}-reference"));
    let report = run_fleet_campaign(&spec(), &SyntheticRunner, &path, None, &FaultPlan::none())
        .expect("reference run");
    assert_eq!(report.completed.len() as u64, CELLS);
    assert!(report.failed_cells.is_empty());
    json(&report)
}

// ---------------------------------------------------------------------------
// Kill and resume.
// ---------------------------------------------------------------------------

#[test]
fn resume_after_kill_is_bit_identical_to_uninterrupted_run() {
    let expected = reference("kill-fixed");
    let path = temp_journal("kill-fixed");
    let killed = run_fleet_campaign(
        &spec(),
        &SyntheticRunner,
        &path,
        None,
        &FaultPlan::kill_after(7),
    );
    match killed {
        Err(CampaignError::Interrupted { cells_journaled }) => assert_eq!(cells_journaled, 7),
        other => panic!("expected Interrupted, got {other:?}"),
    }
    let (report, stats) =
        resume_campaign(&spec(), &SyntheticRunner, &path, None, &FaultPlan::none())
            .expect("resume");
    assert_eq!(stats.replayed, 7);
    assert_eq!(stats.reran, CELLS - 7);
    assert!(!stats.torn_tail);
    assert_eq!(
        json(&report),
        expected,
        "resumed report must be bit-identical"
    );
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(8))]

    #[test]
    fn resume_after_random_kill_matches_reference(k in 1u64..CELLS) {
        let expected = reference(&format!("kill-prop-{k}"));
        let path = temp_journal(&format!("kill-prop-{k}"));
        let killed = run_fleet_campaign(
            &spec(),
            &SyntheticRunner,
            &path,
            None,
            &FaultPlan::kill_after(k),
        );
        prop_assert!(matches!(
            killed,
            Err(CampaignError::Interrupted { cells_journaled }) if cells_journaled == k
        ));
        let (report, stats) =
            resume_campaign(&spec(), &SyntheticRunner, &path, None, &FaultPlan::none())
                .expect("resume");
        prop_assert_eq!(stats.replayed, k);
        prop_assert_eq!(stats.reran, CELLS - k);
        prop_assert_eq!(json(&report), expected);
    }
}

#[test]
fn resume_is_idempotent() {
    let path = temp_journal("idempotent");
    let report = run_fleet_campaign(&spec(), &SyntheticRunner, &path, None, &FaultPlan::none())
        .expect("fresh run");
    let (again, stats) =
        resume_campaign(&spec(), &SyntheticRunner, &path, None, &FaultPlan::none())
            .expect("resume of complete journal");
    assert_eq!(stats.reran, 0);
    assert_eq!(stats.replayed, CELLS);
    assert_eq!(json(&again), json(&report));
}

#[test]
fn fresh_run_refuses_a_nonempty_journal() {
    let path = temp_journal("nonempty");
    run_fleet_campaign(&spec(), &SyntheticRunner, &path, None, &FaultPlan::none())
        .expect("fresh run");
    let second = run_fleet_campaign(&spec(), &SyntheticRunner, &path, None, &FaultPlan::none());
    assert!(matches!(
        second,
        Err(CampaignError::JournalNotEmpty { records: CELLS })
    ));

    // A torn journal is refused too, and left exactly as it was: the refusal
    // must not repair the tail that a resume would report.
    let torn = temp_journal("nonempty-torn");
    let killed = run_fleet_campaign(
        &spec(),
        &SyntheticRunner,
        &torn,
        None,
        &FaultPlan::kill_after(5).with_torn_final_record(),
    );
    assert!(matches!(killed, Err(CampaignError::Interrupted { .. })));
    let before = std::fs::read(&torn).expect("read torn journal");
    let refused = run_fleet_campaign(&spec(), &SyntheticRunner, &torn, None, &FaultPlan::none());
    assert!(matches!(
        refused,
        Err(CampaignError::JournalNotEmpty { records: 4 })
    ));
    assert_eq!(
        std::fs::read(&torn).expect("reread torn journal"),
        before,
        "a refused fresh run must not touch the journal"
    );
}

// ---------------------------------------------------------------------------
// Torn journals.
// ---------------------------------------------------------------------------

#[test]
fn torn_trailing_record_is_tolerated_and_rerun() {
    let expected = reference("torn-tail");
    let path = temp_journal("torn-tail");
    let killed = run_fleet_campaign(
        &spec(),
        &SyntheticRunner,
        &path,
        None,
        &FaultPlan::kill_after(5).with_torn_final_record(),
    );
    assert!(matches!(killed, Err(CampaignError::Interrupted { .. })));
    let loaded = load_journal(&path).expect("load torn journal");
    assert!(loaded.torn_tail, "final line must be torn");
    assert_eq!(loaded.records.len(), 4, "only the intact records survive");
    let (report, stats) =
        resume_campaign(&spec(), &SyntheticRunner, &path, None, &FaultPlan::none())
            .expect("resume over torn tail");
    assert!(stats.torn_tail);
    assert_eq!(stats.replayed, 4);
    assert_eq!(stats.reran, CELLS - 4, "torn cell must re-run");
    assert!(
        report.dropped_torn_tail,
        "report must surface the torn tail"
    );
    assert_eq!(report.rejected_records, 0);
    assert_eq!(json_normalized(&report), expected);
}

#[test]
fn a_last_record_without_its_newline_resumes_and_stays_loadable() {
    let expected = reference("unterminated");
    let path = temp_journal("unterminated");
    let killed = run_fleet_campaign(
        &spec(),
        &SyntheticRunner,
        &path,
        None,
        &FaultPlan::kill_after(6),
    );
    assert!(matches!(killed, Err(CampaignError::Interrupted { .. })));
    // Six complete records, the last without its `\n`.
    let content = std::fs::read_to_string(&path).expect("read journal");
    let lines: Vec<&str> = content.lines().collect();
    std::fs::write(&path, lines.join("\n")).expect("drop the final newline");
    let (report, stats) =
        resume_campaign(&spec(), &SyntheticRunner, &path, None, &FaultPlan::none())
            .expect("resume over an unterminated record");
    assert!(!stats.torn_tail, "a complete record is not torn");
    assert_eq!(stats.replayed, 6);
    assert_eq!(stats.reran, CELLS - 6);
    assert_eq!(json(&report), expected);
    // The first append must not have been glued onto the sixth record.
    let reloaded = load_journal(&path).expect("the resumed journal loads");
    assert!(!reloaded.torn_tail);
    assert_eq!(reloaded.records.len() as u64, CELLS);
}

#[test]
fn corruption_before_the_final_line_is_an_error() {
    let path = temp_journal("torn-middle");
    let killed = run_fleet_campaign(
        &spec(),
        &SyntheticRunner,
        &path,
        None,
        &FaultPlan::kill_after(6),
    );
    assert!(matches!(killed, Err(CampaignError::Interrupted { .. })));
    // Damage line 3 of 6: durable history has been lost, resume must refuse.
    let content = std::fs::read_to_string(&path).expect("read journal");
    let mut lines: Vec<&str> = content.lines().collect();
    let half = &lines[2][..lines[2].len() / 2];
    lines[2] = half;
    std::fs::write(&path, lines.join("\n")).expect("corrupt journal");
    let resumed = resume_campaign(&spec(), &SyntheticRunner, &path, None, &FaultPlan::none());
    match resumed {
        Err(CampaignError::Journal(JournalError::Corrupt { line, .. })) => assert_eq!(line, 3),
        other => panic!("expected Corrupt at line 3, got {other:?}"),
    }
}

// ---------------------------------------------------------------------------
// Appends.
// ---------------------------------------------------------------------------

/// The record a campaign journals for `key` when it succeeds first time.
fn ok_record(key: &CellKey) -> JournalRecord {
    JournalRecord {
        digest: spec().digest_hex(),
        key: key.clone(),
        attempts: 1,
        status: "ok".to_string(),
        metrics: Some(SyntheticRunner.run(key).expect("synthetic metrics")),
        error: None,
    }
}

/// Each append writes its own line at the end of the journal and nothing
/// else: the file is never replaced, and grows by exactly that line.
#[cfg(unix)]
#[test]
fn appends_grow_the_journal_in_place_by_one_line_each() {
    use std::os::unix::fs::MetadataExt;

    let path = temp_journal("in-place");
    let mut writer = JournalWriter::open(&path).expect("open journal");
    let (mut inode, mut len) = (None, 0u64);
    for key in &spec().cells()[..3] {
        let record = ok_record(key);
        writer.append(&record).expect("append");
        let meta = std::fs::metadata(&path).expect("stat journal");
        let line = serde_json::to_string(&record)
            .expect("serialize record")
            .len() as u64
            + 1;
        assert_eq!(meta.len(), len + line, "the append writes exactly its line");
        assert_eq!(
            *inode.get_or_insert(meta.ino()),
            meta.ino(),
            "no new file is renamed over the journal"
        );
        len = meta.len();
    }
    assert_eq!(writer.len(), 3);
}

#[test]
fn opening_a_torn_journal_repairs_the_tail_before_the_first_append() {
    let path = temp_journal("torn-append");
    let killed = run_fleet_campaign(
        &spec(),
        &SyntheticRunner,
        &path,
        None,
        &FaultPlan::kill_after(5).with_torn_final_record(),
    );
    assert!(matches!(killed, Err(CampaignError::Interrupted { .. })));
    let mut records = load_journal(&path).expect("load torn journal").records;
    assert_eq!(records.len(), 4);
    let mut writer = JournalWriter::open(&path).expect("open torn journal");
    assert_eq!(writer.len(), 4);
    let record = ok_record(&spec().cells()[4]);
    writer.append(&record).expect("append after the repair");
    records.push(record);
    let reloaded = load_journal(&path).expect("reload");
    assert!(!reloaded.torn_tail, "the torn line is gone");
    assert_eq!(reloaded.records, records);
}

// ---------------------------------------------------------------------------
// Digest mismatches.
// ---------------------------------------------------------------------------

#[test]
fn foreign_digest_records_are_rejected_and_their_cells_rerun() {
    let path = temp_journal("digest");
    run_fleet_campaign(&spec(), &SyntheticRunner, &path, None, &FaultPlan::none())
        .expect("run under config A");
    // Same grid, different machine config: every journaled record is foreign.
    let changed = FleetSpec {
        config_digest: 0xEF01,
        ..spec()
    };
    let (report, stats) =
        resume_campaign(&changed, &SyntheticRunner, &path, None, &FaultPlan::none())
            .expect("resume under config B");
    assert_eq!(stats.digest_rejected, CELLS);
    assert_eq!(stats.replayed, 0);
    assert_eq!(stats.reran, CELLS);
    assert_eq!(report.spec_digest, changed.digest_hex());
    assert_eq!(
        report.rejected_records, CELLS,
        "dropped foreign records must be surfaced"
    );
    assert!(!report.dropped_torn_tail);
    // The journal now holds both generations; a further resume under config B
    // replays only its own records and runs nothing.
    let (again, stats) =
        resume_campaign(&changed, &SyntheticRunner, &path, None, &FaultPlan::none())
            .expect("second resume under config B");
    assert_eq!(stats.digest_rejected, CELLS);
    assert_eq!(stats.replayed, CELLS);
    assert_eq!(stats.reran, 0);
    assert_eq!(json(&again), json(&report));
}

#[test]
fn duplicate_records_for_one_cell_are_rejected() {
    let path = temp_journal("duplicate");
    run_fleet_campaign(&spec(), &SyntheticRunner, &path, None, &FaultPlan::none())
        .expect("fresh run");
    // Duplicate the first line, as a buggy external merge would.
    let content = std::fs::read_to_string(&path).expect("read journal");
    let first = content.lines().next().expect("first line").to_string();
    std::fs::write(&path, format!("{first}\n{content}")).expect("duplicate record");
    let resumed = resume_campaign(&spec(), &SyntheticRunner, &path, None, &FaultPlan::none());
    assert!(matches!(
        resumed,
        Err(CampaignError::Journal(JournalError::DuplicateKey(_)))
    ));
}

// ---------------------------------------------------------------------------
// Poison: retry then quarantine.
// ---------------------------------------------------------------------------

#[test]
fn permanently_poisoned_cell_is_quarantined_not_fatal() {
    let path = temp_journal("poison-forever");
    let victim = spec().cells()[5].id();
    let fault = FaultPlan::none().with_poison_forever(&victim);
    let report = run_fleet_campaign(&spec(), &SyntheticRunner, &path, None, &fault)
        .expect("campaign must survive the poisoned cell");
    assert_eq!(report.completed.len() as u64, CELLS - 1);
    assert_eq!(report.failed_cells.len(), 1);
    let failed = &report.failed_cells[0];
    assert_eq!(failed.key.id(), victim);
    assert_eq!(failed.attempts, 3, "all attempts must be consumed");
    assert!(
        failed.error.contains("poisoned cell"),
        "panic message must be preserved: {}",
        failed.error
    );
    assert_eq!(report.total_cells, CELLS);
    // The quarantine is durable: a resume replays it without re-running.
    let (again, stats) =
        resume_campaign(&spec(), &SyntheticRunner, &path, None, &FaultPlan::none())
            .expect("resume");
    assert_eq!(stats.reran, 0);
    assert_eq!(json(&again), json(&report));
}

#[test]
fn transiently_poisoned_cell_heals_on_retry() {
    let path = temp_journal("poison-once");
    let victim = spec().cells()[0].id();
    let fault = FaultPlan::none().with_poison(&victim, 1);
    let report = run_fleet_campaign(&spec(), &SyntheticRunner, &path, None, &fault)
        .expect("campaign with healing cell");
    assert!(report.failed_cells.is_empty());
    let healed = report
        .completed
        .iter()
        .find(|c| c.key.id() == victim)
        .expect("healed cell present");
    assert_eq!(healed.attempts, 2, "first attempt panicked, second healed");
    assert!(report
        .completed
        .iter()
        .filter(|c| c.key.id() != victim)
        .all(|c| c.attempts == 1));
}

// ---------------------------------------------------------------------------
// Shards.
// ---------------------------------------------------------------------------

#[test]
fn shard_partition_is_disjoint_and_covers_the_grid() {
    let cells = spec().cells();
    for count in [1u32, 2, 3, 5] {
        let mut owned = 0usize;
        for i in 0..cells.len() {
            let owners = (0..count).filter(|&s| Shard::new(s, count).owns(i)).count();
            assert_eq!(owners, 1, "cell {i} must have exactly one owner");
            owned += 1;
        }
        assert_eq!(owned, cells.len());
    }
    assert_eq!(Shard::parse("2/5"), Ok(Shard { index: 2, count: 5 }));
    assert!(Shard::parse("5/5").is_err());
    assert!(Shard::parse("0/0").is_err());
    assert!(Shard::parse("nope").is_err());
}

#[test]
fn merged_shards_are_bit_identical_to_the_sequential_reference() {
    let expected = reference("shards");
    let shard_count = 3u32;
    let mut shard_paths = Vec::new();
    for index in 0..shard_count {
        let path = temp_journal(&format!("shards-{index}"));
        let report = run_fleet_campaign(
            &spec(),
            &SyntheticRunner,
            &path,
            Some(Shard::new(index, shard_count)),
            &FaultPlan::none(),
        )
        .expect("shard run");
        assert_eq!(
            report.completed.len() as u64,
            CELLS / u64::from(shard_count)
        );
        shard_paths.push(path);
    }
    let merged_path = temp_journal("shards-merged");
    let merged =
        merge_shard_journals(&shard_paths, &merged_path, &spec().digest_hex()).expect("merge");
    assert_eq!(merged, CELLS);
    let (report, stats) = resume_campaign(
        &spec(),
        &SyntheticRunner,
        &merged_path,
        None,
        &FaultPlan::none(),
    )
    .expect("report from merged journal");
    assert_eq!(stats.reran, 0, "merged shards must cover the whole grid");
    assert_eq!(stats.replayed, CELLS);
    assert_eq!(json(&report), expected, "shard merge must equal sequential");
}

#[test]
fn merge_rejects_overlapping_shards_and_foreign_digests() {
    let path_a = temp_journal("merge-dup-a");
    run_fleet_campaign(
        &spec(),
        &SyntheticRunner,
        &path_a,
        Some(Shard::new(0, 2)),
        &FaultPlan::none(),
    )
    .expect("shard 0");
    // The same shard journal twice: every key duplicates.
    let out = temp_journal("merge-dup-out");
    let dup = merge_shard_journals(
        &[path_a.clone(), path_a.clone()],
        &out,
        &spec().digest_hex(),
    );
    assert!(matches!(dup, Err(JournalError::DuplicateKey(_))));
    // A digest the records were not written under.
    let foreign = merge_shard_journals(&[path_a], &out, "0000000000000000");
    assert!(matches!(foreign, Err(JournalError::DigestMismatch { .. })));
}

// ---------------------------------------------------------------------------
// Flight-recorder integration.
// ---------------------------------------------------------------------------

#[test]
fn traced_campaign_is_bit_identical_and_emits_the_cell_lifecycle() {
    use dismem_sched::campaign::{resume_campaign_traced, run_fleet_campaign_traced};
    use dismem_trace::{FlightRecorder, TraceEvent};

    let plain_path = temp_journal("traced-plain");
    let plain = run_fleet_campaign(
        &spec(),
        &SyntheticRunner,
        &plain_path,
        None,
        &FaultPlan::none(),
    )
    .expect("unrecorded run");

    let victim = spec().cells()[3].id();
    let fault = FaultPlan::none().with_poison(&victim, 1);
    let path = temp_journal("traced");
    let mut recorder = FlightRecorder::new();
    let report = run_fleet_campaign_traced(
        &spec(),
        &SyntheticRunner,
        &path,
        None,
        &fault,
        &mut recorder,
    )
    .expect("traced run");
    // Recording must not perturb the campaign (the healed retry changes the
    // victim's attempt count, so compare against an identically-faulted run).
    let ref_path = temp_journal("traced-ref");
    let unrecorded = run_fleet_campaign(&spec(), &SyntheticRunner, &ref_path, None, &fault)
        .expect("unrecorded faulted run");
    assert_eq!(json(&report), json(&unrecorded));
    assert_eq!(plain.completed.len(), report.completed.len());

    let count = |name: &str| {
        recorder
            .events()
            .iter()
            .filter(|e| e.name() == name)
            .count() as u64
    };
    assert_eq!(count("CampaignCellStarted"), CELLS + 1, "one retry attempt");
    assert_eq!(count("CampaignCellFinished"), CELLS);
    let completed = recorder
        .events()
        .iter()
        .filter(|e| matches!(e, TraceEvent::CampaignCellFinished { ok: true, .. }))
        .count() as u64;
    assert_eq!(completed, CELLS, "every cell finished ok");
    assert_eq!(count("CampaignCellRetried"), 1);
    assert_eq!(count("CampaignCellQuarantined"), 0);

    // Resume under a foreign digest with a recorder: every drop is traced.
    let changed = FleetSpec {
        config_digest: 0x5EED,
        ..spec()
    };
    let mut resume_recorder = FlightRecorder::new();
    let (resumed, stats) = resume_campaign_traced(
        &changed,
        &SyntheticRunner,
        &path,
        None,
        &FaultPlan::none(),
        &mut resume_recorder,
    )
    .expect("traced resume");
    assert_eq!(stats.digest_rejected, CELLS);
    assert_eq!(resumed.rejected_records, CELLS);
    let rejected: Vec<&TraceEvent> = resume_recorder
        .events()
        .iter()
        .filter(|e| e.name() == "JournalRecordRejected")
        .collect();
    assert_eq!(rejected.len() as u64, CELLS);
    for event in rejected {
        if let TraceEvent::JournalRecordRejected { reason, .. } = event {
            assert_eq!(reason, "foreign-digest");
        }
    }
}

// ---------------------------------------------------------------------------
// Hostile journal lines.
// ---------------------------------------------------------------------------

/// A record several MB long loads in time linear in its length: the reader
/// copies each run of plain characters as one slice instead of
/// re-validating the rest of the line for every character.
#[test]
fn a_multi_megabyte_record_loads_in_linear_time() {
    // A quarantined cell's error is the one free-form string a record
    // carries; this one mixes multi-byte characters and escapes.
    let message = "паника ‰ \"quoted\" \\ tab\t".repeat(200_000);
    assert!(message.len() > 5 << 20, "the literal spans several MB");
    let record = JournalRecord {
        digest: spec().digest_hex(),
        key: spec().cells()[0].clone(),
        attempts: 3,
        status: "failed".to_string(),
        metrics: None,
        error: Some(message),
    };
    let path = temp_journal("huge-record");
    let mut writer = JournalWriter::open(&path).expect("open journal");
    writer.append(&record).expect("append the huge record");
    let loaded = load_journal(&path).expect("load the huge record");
    assert!(!loaded.torn_tail);
    assert_eq!(loaded.records, vec![record]);
}

/// A line nested 10⁵ levels deep is a typed error, not a stack overflow that
/// would abort the process: the reader refuses to nest past `MAX_DEPTH`.
#[test]
fn a_deeply_nested_line_is_a_typed_error_not_a_stack_overflow() {
    let deep = "[".repeat(100_000);
    let e = serde_json::parse_value(&deep).expect_err("10^5 levels must be refused");
    assert_eq!(e.kind, ParseErrorKind::TooDeep);
    assert_eq!(
        e.offset, MAX_DEPTH,
        "refused at the first bracket past the cap"
    );
    let at_cap = format!("{}{}", "[".repeat(MAX_DEPTH), "]".repeat(MAX_DEPTH));
    assert!(
        serde_json::parse_value(&at_cap).is_ok(),
        "the cap itself parses"
    );
    let objects = format!(
        "{}1{}",
        "{\"a\":".repeat(MAX_DEPTH + 1),
        "}".repeat(MAX_DEPTH + 1)
    );
    let e = serde_json::parse_value(&objects).expect_err("objects count as levels");
    assert_eq!(e.kind, ParseErrorKind::TooDeep);

    // In a journal, the deep line ahead of an intact record is corruption.
    let path = temp_journal("deep-line");
    run_fleet_campaign(
        &spec(),
        &SyntheticRunner,
        &path,
        None,
        &FaultPlan::kill_after(1),
    )
    .expect_err("killed after one record");
    let intact = std::fs::read_to_string(&path).expect("read journal");
    std::fs::write(&path, format!("{deep}\n{intact}")).expect("prepend the deep line");
    match load_journal(&path) {
        Err(JournalError::Corrupt { line: 1, message }) => {
            assert!(message.contains("nesting"), "{message}")
        }
        other => panic!("expected Corrupt at line 1, got {other:?}"),
    }
}

/// Journals three records, then replaces `from` with `to` on line `line`
/// (1-based).
fn journal_with_edit(name: &str, line: usize, from: &str, to: &str) -> PathBuf {
    let path = temp_journal(name);
    let killed = run_fleet_campaign(
        &spec(),
        &SyntheticRunner,
        &path,
        None,
        &FaultPlan::kill_after(3),
    );
    assert!(matches!(killed, Err(CampaignError::Interrupted { .. })));
    let content = std::fs::read_to_string(&path).expect("read journal");
    let mut lines: Vec<String> = content.lines().map(str::to_string).collect();
    assert!(lines[line - 1].contains(from), "line {line} holds `{from}`");
    lines[line - 1] = lines[line - 1].replacen(from, to, 1);
    std::fs::write(&path, lines.join("\n") + "\n").expect("rewrite journal");
    path
}

/// An integer field past `u32::MAX` is an error, not truncated: 2³² + 250
/// would otherwise load as 250 and replay as the `c250` cell.
#[test]
fn an_out_of_range_integer_before_the_end_is_corruption() {
    let path = journal_with_edit(
        "u32-middle",
        1,
        "\"capacity_permille\":250,",
        "\"capacity_permille\":4294967546,",
    );
    match load_journal(&path) {
        Err(JournalError::Corrupt { line: 1, message }) => {
            assert!(message.contains("capacity_permille"), "{message}")
        }
        other => panic!("expected Corrupt at line 1, got {other:?}"),
    }
}

/// On the final line, the same out-of-range value makes a torn tail: the
/// record is dropped and its cell re-runs.
#[test]
fn an_out_of_range_integer_on_the_final_line_is_a_torn_tail() {
    let path = journal_with_edit(
        "u32-final",
        3,
        "\"attempts\":1,",
        "\"attempts\":4294967297,",
    );
    let loaded = load_journal(&path).expect("load");
    assert!(loaded.torn_tail);
    assert_eq!(loaded.records.len(), 2);
}

// ---------------------------------------------------------------------------
// Hostile bytes.
// ---------------------------------------------------------------------------

/// A valid three-record journal as the writer leaves it: its path, its text
/// and its records.
fn three_record_journal(name: &str) -> (PathBuf, String, Vec<JournalRecord>) {
    let path = temp_journal(name);
    let mut writer = JournalWriter::open(&path).expect("open journal");
    let records: Vec<JournalRecord> = spec().cells()[..3].iter().map(ok_record).collect();
    for record in &records {
        writer.append(record).expect("append");
    }
    let text = std::fs::read_to_string(&path).expect("read journal");
    (path, text, records)
}

/// Writes `bytes` as the journal at `path` and loads it. Whatever the bytes,
/// the result is typed: a panic in the loader or the JSON parser fails the
/// calling test. The parser also runs on the whole text and on each of its
/// lines when the bytes are UTF-8.
fn load_hostile(path: &Path, bytes: &[u8]) -> Result<LoadedJournal, JournalError> {
    std::fs::write(path, bytes).expect("write journal");
    if let Ok(text) = std::str::from_utf8(bytes) {
        let _ = serde_json::parse_value(text);
        for line in text.lines() {
            let _ = serde_json::parse_value(line);
        }
    }
    load_journal(path)
}

/// A process killed anywhere leaves a byte prefix of its journal. Every
/// prefix loads as a prefix of the records, never as corruption, and the
/// tail is torn exactly when the cut falls inside a record's text.
#[test]
fn every_byte_prefix_loads_as_a_prefix_of_the_records() {
    let (path, text, records) = three_record_journal("every-prefix");
    assert!(text.is_ascii(), "every byte prefix is valid UTF-8");
    let newlines: Vec<usize> = text.match_indices('\n').map(|(i, _)| i).collect();
    assert_eq!(newlines.len(), records.len());
    for cut in 0..=text.len() {
        let loaded = load_hostile(&path, &text.as_bytes()[..cut])
            .unwrap_or_else(|e| panic!("cut at byte {cut}: {e}"));
        let complete = newlines.iter().filter(|&&end| end <= cut).count();
        let open_line = complete.checked_sub(1).map_or(0, |i| newlines[i] + 1);
        assert_eq!(loaded.records, records[..complete], "cut at byte {cut}");
        assert_eq!(loaded.torn_tail, cut > open_line, "cut at byte {cut}");
    }
}

/// JSON's structural bytes and the characters of its literals: random text
/// over them reaches further into the parser than uniform random bytes.
const JSON_BYTES: &[u8] = b"{}[]:,\"\\ \n-+.eE0123456789truefalsn";

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    #[test]
    fn random_bytes_load_as_a_typed_result(bytes in prop::collection::vec(any::<u8>(), 0..513)) {
        let _ = load_hostile(&temp_journal("random-bytes"), &bytes);
    }

    #[test]
    fn random_json_text_loads_as_a_typed_result(
        picks in prop::collection::vec(0..JSON_BYTES.len(), 0..513)
    ) {
        let bytes: Vec<u8> = picks.iter().map(|&i| JSON_BYTES[i]).collect();
        let _ = load_hostile(&temp_journal("random-json"), &bytes);
    }
}

/// `line` with the integer value of its first `"name":` field replaced by
/// `value`.
fn with_field(line: &str, name: &str, value: &str) -> String {
    let key = format!("\"{name}\":");
    let start = line
        .find(&key)
        .unwrap_or_else(|| panic!("no `{name}` in {line}"))
        + key.len();
    let len = line[start..]
        .find(|c: char| !c.is_ascii_digit())
        .expect("the value is followed by more of the record");
    format!("{}{value}{}", &line[..start], &line[start + len..])
}

/// An integer field holding a number it cannot represent — out of `f64`
/// range, negative, fractional or 2⁶⁴ — never loads as some other value:
/// before the end the record is corruption, on the final line a torn tail.
#[test]
fn numbers_a_field_cannot_hold_are_rejected_not_converted() {
    let (path, text, records) = three_record_journal("bad-numbers");
    let lines: Vec<&str> = text.lines().collect();
    for field in ["attempts", "seed", "trials"] {
        for value in ["1e400", "-1", "1.5", "18446744073709551616"] {
            for edited in [0, lines.len() - 1] {
                let mut hostile: Vec<String> = lines.iter().map(|l| l.to_string()).collect();
                hostile[edited] = with_field(lines[edited], field, value);
                let bytes = hostile.join("\n") + "\n";
                let context = format!("`{field}` = {value} on line {}", edited + 1);
                match load_hostile(&path, bytes.as_bytes()) {
                    Err(JournalError::Corrupt { line: 1, message }) if edited == 0 => {
                        assert!(message.contains(field), "{context}: {message}")
                    }
                    Ok(loaded) if edited == lines.len() - 1 => {
                        assert!(loaded.torn_tail, "{context}");
                        assert_eq!(loaded.records, records[..edited], "{context}");
                    }
                    other => panic!("{context}: got {other:?}"),
                }
            }
        }
    }
}

/// Bytes that are not UTF-8 ahead of intact records are a typed error
/// (today `JournalError::Io`, from reading the journal as text).
#[test]
fn non_utf8_bytes_are_a_typed_error() {
    let (path, text, _) = three_record_journal("non-utf8");
    let second_line = text.find('\n').expect("three lines") + 1;
    for at in [0, second_line + 10] {
        for bad in [&[0xFF][..], &[0xC3][..], &[0xED, 0xA0, 0x80][..]] {
            let mut bytes = text.clone().into_bytes();
            bytes.splice(at..at, bad.iter().copied());
            assert!(
                load_hostile(&path, &bytes).is_err(),
                "{bad:02x?} at byte {at} must not load"
            );
        }
    }
}

// ---------------------------------------------------------------------------
// Warm-start memo.
// ---------------------------------------------------------------------------

/// 1 workload × 2 policies × 2 seeds sharing one warm prefix: the smallest
/// grid on which the memo amortizes (1 miss + 3 hits).
fn snap_spec() -> FleetSpec {
    FleetSpec {
        workloads: vec!["BFS".to_string()],
        scales: vec!["tiny".to_string()],
        policies: vec!["baseline".to_string(), "aware".to_string()],
        capacities_permille: vec![500],
        links: vec!["upi".to_string()],
        seeds: vec![7, 8],
        max_attempts: 2,
        config_digest: MachineConfig::test_config().config_digest(),
    }
}

fn temp_cache_dir(name: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!(
        "dismem-resilience-{}-cache-{name}",
        std::process::id()
    ));
    let _ = std::fs::remove_dir_all(&dir);
    dir
}

fn warm_runner(dir: &PathBuf) -> SimCellRunner {
    SimCellRunner::quick(MachineConfig::test_config())
        .with_snapshot_cache(SnapshotCache::new(dir).expect("create cache dir"))
}

/// The cold (cache-less) reference report for [`snap_spec`].
fn snap_reference(name: &str) -> CampaignReport {
    let path = temp_journal(&format!("{name}-cold"));
    let runner = SimCellRunner::quick(MachineConfig::test_config());
    let report = run_fleet_campaign(&snap_spec(), &runner, &path, None, &FaultPlan::none())
        .expect("cold reference");
    assert_eq!(report.completed.len(), 4);
    assert_eq!(report.snapshot, SnapshotStats::default());
    report
}

#[test]
fn warm_start_campaign_is_bit_identical_to_cold() {
    let cold = snap_reference("snap-warm");
    let dir = temp_cache_dir("warm");
    let runner = warm_runner(&dir);

    // Fresh memo: the first cell of the prefix misses and stores its
    // report, the other three reuse it.
    let warm_path = temp_journal("snap-warm-warm");
    let warm = run_fleet_campaign(&snap_spec(), &runner, &warm_path, None, &FaultPlan::none())
        .expect("warm campaign");
    assert_eq!(
        warm.snapshot,
        SnapshotStats {
            hits: 3,
            misses: 1,
            fallbacks: 0
        }
    );
    assert_eq!(json_normalized(&warm), json_normalized(&cold));

    // A second campaign on the same runner finds the prefix memoized and
    // hits for every cell — no simulation at all.
    let again_path = temp_journal("snap-warm-again");
    let again = run_fleet_campaign(&snap_spec(), &runner, &again_path, None, &FaultPlan::none())
        .expect("all-hit campaign");
    assert_eq!(
        again.snapshot,
        SnapshotStats {
            hits: 4,
            misses: 0,
            fallbacks: 0
        }
    );
    assert_eq!(json_normalized(&again), json_normalized(&cold));
    std::fs::remove_dir_all(&dir).ok();
}

/// One memo shared by shard campaigns, as a sharded fleet run drives it:
/// the prefix misses once across all shards, and the merged journal resumes
/// to the cold reference byte for byte without re-running a cell.
#[test]
fn shards_sharing_one_memo_miss_once_and_merge_to_the_cold_report() {
    let cold = snap_reference("snap-shards");
    let dir = temp_cache_dir("shards");
    let runner = warm_runner(&dir);
    let spec = snap_spec();
    let mut stats = SnapshotStats::default();
    let mut paths = Vec::new();
    for index in 0..2 {
        let path = temp_journal(&format!("snap-shard-{index}"));
        let shard = Some(Shard::new(index, 2));
        let report = run_fleet_campaign(&spec, &runner, &path, shard, &FaultPlan::none())
            .expect("shard campaign");
        stats.hits += report.snapshot.hits;
        stats.misses += report.snapshot.misses;
        stats.fallbacks += report.snapshot.fallbacks;
        paths.push(path);
    }
    assert_eq!(
        stats,
        SnapshotStats {
            hits: 3,
            misses: 1,
            fallbacks: 0
        }
    );
    let merged = temp_journal("snap-shards-merged");
    merge_shard_journals(&paths, &merged, &spec.digest_hex()).expect("merge shards");
    let (report, resumed) = resume_campaign(&spec, &runner, &merged, None, &FaultPlan::none())
        .expect("resume the merged journal");
    assert_eq!(resumed.reran, 0, "the shards cover the grid");
    assert_eq!(resumed.replayed, 4);
    assert_eq!(json(&report), json(&cold));
    std::fs::remove_dir_all(&dir).ok();
}

// ---------------------------------------------------------------------------
// End to end with the production runner.
// ---------------------------------------------------------------------------

#[test]
fn sim_runner_kill_and_resume_is_bit_identical() {
    let sim_spec = FleetSpec {
        workloads: vec!["BFS".to_string()],
        scales: vec!["tiny".to_string()],
        policies: vec!["baseline".to_string(), "aware".to_string()],
        capacities_permille: vec![500],
        links: vec!["upi".to_string()],
        seeds: vec![7],
        max_attempts: 2,
        config_digest: MachineConfig::test_config().config_digest(),
    };
    let runner = SimCellRunner::quick(MachineConfig::test_config());
    let ref_path = temp_journal("sim-reference");
    let reference = run_fleet_campaign(&sim_spec, &runner, &ref_path, None, &FaultPlan::none())
        .expect("sim reference");
    assert_eq!(reference.completed.len(), 2);

    let path = temp_journal("sim-kill");
    let killed = run_fleet_campaign(&sim_spec, &runner, &path, None, &FaultPlan::kill_after(1));
    assert!(matches!(killed, Err(CampaignError::Interrupted { .. })));
    let (resumed, stats) =
        resume_campaign(&sim_spec, &runner, &path, None, &FaultPlan::none()).expect("sim resume");
    assert_eq!(stats.replayed, 1);
    assert_eq!(stats.reran, 1);
    assert_eq!(
        json(&resumed),
        json(&reference),
        "simulated cells must round-trip the journal bit-identically"
    );
}
