//! Golden-trace tests: the exporter outputs are a committed contract.
//!
//! A fixed event list covering every [`TraceEvent`] variant is exported and
//! compared byte-for-byte against the checked-in golden files, and the JSONL
//! schema constant is compared against `docs/TRACE_SCHEMA.json`. Changing an
//! event's fields, the field order, or either exporter's framing fails these
//! tests — which is the point: downstream tooling parses these formats.

use dismem_trace::{
    schema_json, to_chrome_trace, to_jsonl, validate_jsonl, ReplayMode, TraceEvent, TraceTier,
};

const GOLDEN_JSONL: &str = include_str!("golden/trace.jsonl");
const GOLDEN_CHROME: &str = include_str!("golden/trace_chrome.json");
const COMMITTED_SCHEMA: &str = include_str!("../../../docs/TRACE_SCHEMA.json");

/// One event of every variant, timestamps strictly interleaved the way a
/// real run orders them (walk transitions before the epoch they precede,
/// campaign events on the cell-index clock).
fn golden_events() -> Vec<TraceEvent> {
    let flaky = "XSBench/tiny/random/c250/upi/s53596";
    vec![
        TraceEvent::TierSpill {
            app_lines: 128,
            pages: 4,
        },
        TraceEvent::ReplayEngaged {
            app_lines: 512,
            mode: ReplayMode::Window,
        },
        TraceEvent::ReplayExited {
            app_lines: 1024,
            mode: ReplayMode::Window,
            reason: "pattern-break".into(),
        },
        TraceEvent::EpochClosed {
            epoch: 1,
            app_lines: 2048,
            hot_pages: 12,
            dwell_epochs: 0,
            hot_set_shifts: 1,
            migrated_pages: 2,
        },
        TraceEvent::MigrationApplied {
            epoch: 1,
            app_lines: 2048,
            page: 7,
            from: TraceTier::Pool,
            to: TraceTier::Local,
        },
        TraceEvent::ReplayEngaged {
            app_lines: 2304,
            mode: ReplayMode::Window,
        },
        TraceEvent::ReplayExited {
            app_lines: 2560,
            mode: ReplayMode::Window,
            reason: "pattern-break".into(),
        },
        TraceEvent::EpochClosed {
            epoch: 2,
            app_lines: 4096,
            hot_pages: 9,
            dwell_epochs: 1,
            hot_set_shifts: 2,
            migrated_pages: 0,
        },
        TraceEvent::ReplayEngaged {
            app_lines: 4608,
            mode: ReplayMode::Window,
        },
        TraceEvent::ReplayExited {
            app_lines: 5120,
            mode: ReplayMode::Window,
            reason: "pattern-break".into(),
        },
        TraceEvent::CampaignCellStarted {
            cell_index: 0,
            cell: "BFS/tiny/aware/c500/upi/s53596".into(),
            attempt: 1,
        },
        TraceEvent::CampaignCellFinished {
            cell_index: 0,
            cell: "BFS/tiny/aware/c500/upi/s53596".into(),
            attempt: 1,
            ok: true,
        },
        TraceEvent::CampaignCellStarted {
            cell_index: 1,
            cell: flaky.into(),
            attempt: 1,
        },
        TraceEvent::CampaignCellRetried {
            cell_index: 1,
            cell: flaky.into(),
            attempt: 1,
        },
        TraceEvent::CampaignCellStarted {
            cell_index: 1,
            cell: flaky.into(),
            attempt: 2,
        },
        TraceEvent::CampaignCellFinished {
            cell_index: 1,
            cell: flaky.into(),
            attempt: 2,
            ok: false,
        },
        TraceEvent::CampaignCellQuarantined {
            cell_index: 1,
            cell: flaky.into(),
            attempts: 2,
        },
        TraceEvent::JournalRecordRejected {
            record_index: 5,
            reason: "foreign-digest".into(),
        },
    ]
}

#[test]
fn jsonl_export_matches_the_golden_file() {
    assert_eq!(to_jsonl(&golden_events()), GOLDEN_JSONL);
}

#[test]
fn chrome_export_matches_the_golden_file() {
    assert_eq!(to_chrome_trace(&golden_events()), GOLDEN_CHROME);
}

#[test]
fn golden_jsonl_validates_against_the_schema() {
    assert_eq!(
        validate_jsonl(GOLDEN_JSONL),
        Ok(golden_events().len() as u64)
    );
}

/// Hostile input: every byte prefix of the golden stream. A cut where a
/// line's text ends (before or after its newline) validates the complete
/// lines; a cut inside a line is an error, never a panic.
#[test]
fn every_prefix_of_the_golden_jsonl_validates_or_errs() {
    let bytes = GOLDEN_JSONL.as_bytes();
    for cut in 0..=bytes.len() {
        let prefix = &GOLDEN_JSONL[..cut];
        let at_line_end = cut == 0 || bytes[cut - 1] == b'\n' || bytes.get(cut) == Some(&b'\n');
        let result = std::panic::catch_unwind(|| validate_jsonl(prefix))
            .unwrap_or_else(|_| panic!("validate_jsonl panicked on the {cut}-byte prefix"));
        if at_line_end {
            assert_eq!(result, Ok(prefix.lines().count() as u64), "cut at {cut}");
        } else {
            assert!(result.is_err(), "cut at {cut} inside a line: {result:?}");
        }
    }
}

#[test]
fn committed_schema_file_is_current() {
    assert_eq!(
        schema_json(),
        COMMITTED_SCHEMA,
        "docs/TRACE_SCHEMA.json is stale; regenerate it from schema_json()"
    );
}

#[test]
fn repeated_exports_are_byte_identical() {
    let events = golden_events();
    assert_eq!(to_jsonl(&events), to_jsonl(&events));
    assert_eq!(to_chrome_trace(&events), to_chrome_trace(&events));
}

#[test]
fn golden_stream_covers_every_event_variant() {
    let mut names: Vec<&str> = golden_events().iter().map(TraceEvent::name).collect();
    names.sort_unstable();
    names.dedup();
    assert_eq!(names.len(), 10, "golden stream must cover all variants");
}
