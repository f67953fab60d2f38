//! Trace exporters: JSON-lines and Chrome trace-event format.
//!
//! Both exporters are pure functions of the event list, so a recorded run
//! exports byte-identically every time. The JSONL schema is the committed
//! contract (`docs/TRACE_SCHEMA.json`, asserted equal to [`schema_json`] by
//! the golden-trace tests), and [`validate_jsonl`] checks an emitted stream
//! against it — CI runs the validation on every `traced_tiering_run`
//! example output.

use crate::flight::TraceEvent;
use serde_json::JsonValue;

/// Event vocabulary: variant name → required payload fields, in
/// serialization order. This table *is* the JSONL schema; [`validate_jsonl`]
/// and [`schema_json`] both derive from it.
const EVENT_FIELDS: &[(&str, &[&str])] = &[
    (
        "EpochClosed",
        &[
            "epoch",
            "app_lines",
            "hot_pages",
            "dwell_epochs",
            "hot_set_shifts",
            "migrated_pages",
        ],
    ),
    (
        "MigrationApplied",
        &["epoch", "app_lines", "page", "from", "to"],
    ),
    ("ReplayEngaged", &["app_lines", "mode"]),
    ("ReplayExited", &["app_lines", "mode", "reason"]),
    ("TierSpill", &["app_lines", "pages"]),
    ("CampaignCellStarted", &["cell_index", "cell", "attempt"]),
    (
        "CampaignCellFinished",
        &["cell_index", "cell", "attempt", "ok"],
    ),
    ("CampaignCellRetried", &["cell_index", "cell", "attempt"]),
    (
        "CampaignCellQuarantined",
        &["cell_index", "cell", "attempts"],
    ),
    ("JournalRecordRejected", &["record_index", "reason"]),
];

/// Export events as JSON lines: one `{"seq":N,"event":{...}}` object per
/// line, `seq` counting from 0 in emission order.
pub fn to_jsonl(events: &[TraceEvent]) -> String {
    let mut out = String::new();
    for (seq, event) in events.iter().enumerate() {
        out.push_str("{\"seq\":");
        out.push_str(&seq.to_string());
        out.push_str(",\"event\":");
        out.push_str(&serde_json::to_string(event).unwrap_or_default());
        out.push_str("}\n");
    }
    out
}

/// The committed JSONL schema as pretty JSON: the line envelope plus the
/// event vocabulary with each variant's required fields.
pub fn schema_json() -> String {
    let mut out = String::new();
    out.push_str("{\n  \"format\": \"dismem-trace-jsonl\",\n  \"version\": 1,\n");
    out.push_str("  \"line\": [\"seq\", \"event\"],\n  \"events\": {\n");
    for (i, (name, fields)) in EVENT_FIELDS.iter().enumerate() {
        out.push_str("    \"");
        out.push_str(name);
        out.push_str("\": [");
        for (j, f) in fields.iter().enumerate() {
            if j > 0 {
                out.push_str(", ");
            }
            out.push('"');
            out.push_str(f);
            out.push('"');
        }
        out.push(']');
        if i + 1 < EVENT_FIELDS.len() {
            out.push(',');
        }
        out.push('\n');
    }
    out.push_str("  }\n}\n");
    out
}

/// Validate a JSONL stream against the schema: every line must parse, carry
/// the `{"seq":N,"event":{...}}` envelope with consecutive `seq` values,
/// and each event must be exactly one known variant with exactly its
/// required fields. Returns the number of validated lines.
pub fn validate_jsonl(jsonl: &str) -> Result<u64, String> {
    let mut validated = 0u64;
    for (lineno, line) in jsonl.lines().enumerate() {
        let value = serde_json::parse_value(line)
            .map_err(|e| format!("line {}: not valid JSON: {e}", lineno + 1))?;
        let seq = value
            .get("seq")
            .and_then(JsonValue::as_u64)
            .ok_or_else(|| format!("line {}: missing integer \"seq\"", lineno + 1))?;
        if seq != lineno as u64 {
            return Err(format!("line {}: seq {seq} is not consecutive", lineno + 1));
        }
        let event = value
            .get("event")
            .ok_or_else(|| format!("line {}: missing \"event\"", lineno + 1))?;
        let members = match event {
            JsonValue::Object(members) if members.len() == 1 => members,
            _ => {
                return Err(format!(
                    "line {}: event must be a single-variant object",
                    lineno + 1
                ))
            }
        };
        let (variant, payload) = &members[0];
        let required = EVENT_FIELDS
            .iter()
            .find(|(name, _)| name == variant)
            .map(|(_, fields)| *fields)
            .ok_or_else(|| format!("line {}: unknown event \"{variant}\"", lineno + 1))?;
        let payload_members = match payload {
            JsonValue::Object(members) => members,
            _ => {
                return Err(format!(
                    "line {}: {variant} payload must be an object",
                    lineno + 1
                ))
            }
        };
        let got: Vec<&str> = payload_members.iter().map(|(k, _)| k.as_str()).collect();
        if got != *required {
            return Err(format!(
                "line {}: {variant} fields {got:?} do not match schema {required:?}",
                lineno + 1
            ));
        }
        validated += 1;
    }
    Ok(validated)
}

/// Export events in Chrome trace-event format (the JSON Array Format plus
/// `displayTimeUnit`), openable directly in Perfetto / `chrome://tracing`.
///
/// Simulated clocks map onto the trace timebase as microseconds:
/// application DRAM lines for simulator tracks, the cell index for the
/// campaign track. Thread lanes: 1 = tiering (epochs as complete spans,
/// migrations and spills as instants), 2 = replay transitions (instants),
/// 3 = campaign cells (finished cells as unit spans, everything else as
/// instants).
pub fn to_chrome_trace(events: &[TraceEvent]) -> String {
    let mut entries: Vec<String> = Vec::new();
    let mut last_epoch_close: u64 = 0;
    for event in events {
        let ts = event.timestamp();
        let args = payload_json(event);
        match event {
            TraceEvent::EpochClosed { app_lines, .. } => {
                let dur = app_lines.saturating_sub(last_epoch_close).max(1);
                entries.push(format!(
                    "{{\"name\":\"epoch\",\"ph\":\"X\",\"pid\":1,\"tid\":1,\
                     \"ts\":{last_epoch_close},\"dur\":{dur},\"args\":{args}}}"
                ));
                last_epoch_close = *app_lines;
            }
            TraceEvent::MigrationApplied { .. } => {
                entries.push(instant("migration", 1, ts, &args));
            }
            TraceEvent::TierSpill { .. } => {
                entries.push(instant("spill", 1, ts, &args));
            }
            TraceEvent::ReplayEngaged { .. } => {
                entries.push(instant("replay-engaged", 2, ts, &args));
            }
            TraceEvent::ReplayExited { .. } => {
                entries.push(instant("replay-exited", 2, ts, &args));
            }
            TraceEvent::CampaignCellFinished { cell, .. } => {
                entries.push(format!(
                    "{{\"name\":{},\"ph\":\"X\",\"pid\":1,\"tid\":3,\
                     \"ts\":{ts},\"dur\":1,\"args\":{args}}}",
                    json_str(cell)
                ));
            }
            TraceEvent::CampaignCellStarted { .. } => {
                entries.push(instant("cell-started", 3, ts, &args));
            }
            TraceEvent::CampaignCellRetried { .. } => {
                entries.push(instant("cell-retried", 3, ts, &args));
            }
            TraceEvent::CampaignCellQuarantined { .. } => {
                entries.push(instant("cell-quarantined", 3, ts, &args));
            }
            TraceEvent::JournalRecordRejected { .. } => {
                entries.push(instant("record-rejected", 3, ts, &args));
            }
        }
    }
    let mut out = String::from("{\"displayTimeUnit\":\"ms\",\"traceEvents\":[");
    for (i, e) in entries.iter().enumerate() {
        if i > 0 {
            out.push(',');
        }
        out.push('\n');
        out.push_str(e);
    }
    out.push_str("\n]}\n");
    out
}

fn instant(name: &str, tid: u32, ts: u64, args: &str) -> String {
    format!(
        "{{\"name\":\"{name}\",\"ph\":\"i\",\"s\":\"t\",\"pid\":1,\"tid\":{tid},\
         \"ts\":{ts},\"args\":{args}}}"
    )
}

fn json_str(s: &str) -> String {
    serde_json::to_string(&s).unwrap_or_default()
}

/// The payload object of an externally tagged event: `{"Name":{...}}`
/// without the tag envelope.
fn payload_json(event: &TraceEvent) -> String {
    let tagged = serde_json::to_string(event).unwrap_or_default();
    match tagged.find(':') {
        Some(colon) if tagged.ends_with('}') => tagged[colon + 1..tagged.len() - 1].to_string(),
        _ => tagged,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::flight::{ReplayMode, TraceTier};

    fn sample() -> Vec<TraceEvent> {
        vec![
            TraceEvent::TierSpill {
                app_lines: 10,
                pages: 2,
            },
            TraceEvent::ReplayEngaged {
                app_lines: 20,
                mode: ReplayMode::Window,
            },
            TraceEvent::EpochClosed {
                epoch: 1,
                app_lines: 64,
                hot_pages: 3,
                dwell_epochs: 0,
                hot_set_shifts: 0,
                migrated_pages: 1,
            },
            TraceEvent::MigrationApplied {
                epoch: 1,
                app_lines: 64,
                page: 5,
                from: TraceTier::Pool,
                to: TraceTier::Local,
            },
        ]
    }

    #[test]
    fn jsonl_round_trips_the_schema() {
        let jsonl = to_jsonl(&sample());
        assert_eq!(validate_jsonl(&jsonl), Ok(4));
    }

    #[test]
    fn validation_rejects_foreign_fields() {
        let bad = "{\"seq\":0,\"event\":{\"TierSpill\":{\"app_lines\":1}}}";
        assert!(validate_jsonl(bad).is_err());
        let unknown = "{\"seq\":0,\"event\":{\"Mystery\":{}}}";
        assert!(validate_jsonl(unknown).is_err());
        let gap = "{\"seq\":1,\"event\":{\"TierSpill\":{\"app_lines\":1,\"pages\":1}}}";
        assert!(validate_jsonl(gap).is_err());
        let scalar_payload = "{\"seq\":0,\"event\":{\"TierSpill\":[1,1]}}";
        assert!(validate_jsonl(scalar_payload).is_err());
        let string_seq = "{\"seq\":\"0\",\"event\":{\"TierSpill\":{\"app_lines\":1,\"pages\":1}}}";
        assert!(validate_jsonl(string_seq).is_err());
        let two_variants = "{\"seq\":0,\"event\":{\"TierSpill\":{\"app_lines\":1,\"pages\":1},\
                            \"ReplayEngaged\":{\"app_lines\":1,\"mode\":\"Window\"}}}";
        assert!(validate_jsonl(two_variants).is_err());
    }

    #[test]
    fn chrome_trace_has_spans_and_instants() {
        let chrome = to_chrome_trace(&sample());
        assert!(chrome.contains("\"ph\":\"X\""));
        assert!(chrome.contains("\"ph\":\"i\""));
        assert!(chrome.contains("\"name\":\"epoch\""));
        assert!(chrome.contains("\"name\":\"migration\""));
        // Valid JSON end to end.
        assert!(serde_json::parse_value(&chrome).is_ok());
    }

    #[test]
    fn exports_are_deterministic() {
        let events = sample();
        assert_eq!(to_jsonl(&events), to_jsonl(&events));
        assert_eq!(to_chrome_trace(&events), to_chrome_trace(&events));
    }

    #[test]
    fn schema_covers_every_variant() {
        let schema = schema_json();
        for (name, _) in EVENT_FIELDS {
            assert!(schema.contains(name), "schema misses {name}");
        }
        assert!(serde_json::parse_value(&schema).is_ok());
    }
}
