//! Crash-consistent results journal for fleet campaigns.
//!
//! The journal is a JSON-lines file: one [`JournalRecord`] per completed (or
//! quarantined) cell. It is append-only: each record is written once, as one
//! line at the end of the file, so a campaign's journal I/O is linear in its
//! cell count. A process killed at any instant can therefore leave only a
//! truncated final line (the write it was in the middle of) — never a
//! damaged middle. [`load_journal`] tolerates exactly that, and
//! [`JournalWriter::open`] repairs it before the first append; corruption
//! anywhere earlier is an error, because it means records that were once
//! written have been lost.
//!
//! Records are written with the vendored serde stack and read back with the
//! hand-rolled [`serde_json::read`] parser. Floats survive the round trip
//! bit-for-bit (shortest-round-trip formatting, correctly-rounded parsing),
//! which is what lets a resumed campaign reproduce the uninterrupted report
//! byte-identically.

// Quarantine, not abort: the fleet driver must turn a failing cell into a
// `failed_cells` entry, so this module propagates errors instead of panicking
// (test modules may unwrap; see clippy.toml).
#![deny(clippy::unwrap_used, clippy::expect_used)]

use dismem_core::CellKey;
use serde::Serialize;
use serde_json::JsonValue;
use std::fmt;
use std::fs::{File, OpenOptions};
use std::io::Write;
use std::path::{Path, PathBuf};

/// Per-cell metrics persisted in the journal: the five-number summary and
/// mean of the cell's Monte Carlo runtime distribution, plus the placement's
/// remote-access ratio.
#[derive(Debug, Clone, PartialEq, Serialize)]
pub struct CellMetrics {
    /// Number of Monte Carlo trials behind the summary.
    pub trials: u32,
    /// Mean trial runtime in seconds.
    pub mean_runtime_s: f64,
    /// Minimum trial runtime in seconds.
    pub min_runtime_s: f64,
    /// First-quartile trial runtime in seconds.
    pub q1_runtime_s: f64,
    /// Median trial runtime in seconds.
    pub median_runtime_s: f64,
    /// Third-quartile trial runtime in seconds (the paper's variability
    /// metric).
    pub q3_runtime_s: f64,
    /// Maximum trial runtime in seconds.
    pub max_runtime_s: f64,
    /// Fraction of demand lines served from the pool tier.
    pub remote_access_ratio: f64,
}

/// One journal line: the outcome of one cell under one spec digest.
#[derive(Debug, Clone, PartialEq, Serialize)]
pub struct JournalRecord {
    /// Hex digest of the campaign spec (grid axes + machine config) the cell
    /// ran under. Records with a foreign digest are never replayed.
    pub digest: String,
    /// The cell's identity.
    pub key: CellKey,
    /// Attempts consumed (1 for a first-try success).
    pub attempts: u32,
    /// `"ok"` or `"failed"` (quarantined after exhausting retries).
    pub status: String,
    /// Metrics for an `"ok"` record; `None` for a quarantined cell.
    pub metrics: Option<CellMetrics>,
    /// Panic or runner error message for a `"failed"` record.
    pub error: Option<String>,
}

impl JournalRecord {
    /// True when the record carries a successful cell result.
    pub fn is_ok(&self) -> bool {
        self.status == "ok"
    }

    /// Parses one journal line back into a record.
    pub fn from_json(value: &JsonValue) -> Result<JournalRecord, String> {
        let digest = value
            .get("digest")
            .and_then(|v| v.as_str())
            .ok_or("missing digest")?
            .to_string();
        let key = parse_key(value.get("key").ok_or("missing key")?)?;
        let attempts = field_u32(value, "attempts", "missing attempts")?;
        let status = value
            .get("status")
            .and_then(|v| v.as_str())
            .ok_or("missing status")?
            .to_string();
        if status != "ok" && status != "failed" {
            return Err(format!("unknown status `{status}`"));
        }
        let metrics = match value.get("metrics") {
            None | Some(JsonValue::Null) => None,
            Some(m) => Some(parse_metrics(m)?),
        };
        let error = match value.get("error") {
            None | Some(JsonValue::Null) => None,
            Some(e) => Some(e.as_str().ok_or("error must be a string")?.to_string()),
        };
        if status == "ok" && metrics.is_none() {
            return Err("ok record without metrics".to_string());
        }
        if status == "failed" && error.is_none() {
            return Err("failed record without error message".to_string());
        }
        Ok(JournalRecord {
            digest,
            key,
            attempts,
            status,
            metrics,
            error,
        })
    }
}

/// Reads an integer field that must fit in a `u32`: an out-of-range value is
/// an error, never truncated into some other valid value.
fn field_u32(value: &JsonValue, name: &str, missing: &str) -> Result<u32, String> {
    let n = value.get(name).and_then(JsonValue::as_u64).ok_or(missing)?;
    u32::try_from(n).map_err(|_| format!("`{name}` = {n} does not fit in 32 bits"))
}

fn parse_key(value: &JsonValue) -> Result<CellKey, String> {
    let field_str = |name: &str| {
        value
            .get(name)
            .and_then(|v| v.as_str())
            .map(str::to_string)
            .ok_or(format!("key missing field `{name}`"))
    };
    Ok(CellKey {
        workload: field_str("workload")?,
        scale: field_str("scale")?,
        policy: field_str("policy")?,
        capacity_permille: field_u32(
            value,
            "capacity_permille",
            "key missing field `capacity_permille`",
        )?,
        link: field_str("link")?,
        seed: value
            .get("seed")
            .and_then(|v| v.as_u64())
            .ok_or("key missing field `seed`")?,
    })
}

fn parse_metrics(value: &JsonValue) -> Result<CellMetrics, String> {
    let field = |name: &str| {
        value
            .get(name)
            .and_then(|v| v.as_f64())
            .ok_or(format!("metrics missing field `{name}`"))
    };
    Ok(CellMetrics {
        trials: field_u32(value, "trials", "metrics missing field `trials`")?,
        mean_runtime_s: field("mean_runtime_s")?,
        min_runtime_s: field("min_runtime_s")?,
        q1_runtime_s: field("q1_runtime_s")?,
        median_runtime_s: field("median_runtime_s")?,
        q3_runtime_s: field("q3_runtime_s")?,
        max_runtime_s: field("max_runtime_s")?,
        remote_access_ratio: field("remote_access_ratio")?,
    })
}

/// Journal failure modes.
#[derive(Debug, Clone, PartialEq)]
pub enum JournalError {
    /// Filesystem error (path + OS message).
    Io(String),
    /// A record before the final line failed to parse: durable history has
    /// been damaged, which resume must not paper over.
    Corrupt {
        /// 1-based line number of the damaged record.
        line: usize,
        /// Parser or validation message.
        message: String,
    },
    /// Two records with the same cell id and the same spec digest.
    DuplicateKey(String),
    /// A shard journal carries records under a different spec digest than the
    /// merge expects.
    DigestMismatch {
        /// Cell id of the offending record.
        id: String,
        /// Digest found in the record.
        found: String,
        /// Digest the merge was asked to enforce.
        expected: String,
    },
}

impl fmt::Display for JournalError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            JournalError::Io(msg) => write!(f, "journal I/O error: {msg}"),
            JournalError::Corrupt { line, message } => {
                write!(f, "journal corrupt at line {line}: {message}")
            }
            JournalError::DuplicateKey(id) => {
                write!(f, "duplicate journal record for cell {id}")
            }
            JournalError::DigestMismatch {
                id,
                found,
                expected,
            } => write!(
                f,
                "cell {id} journaled under digest {found}, expected {expected}"
            ),
        }
    }
}

impl std::error::Error for JournalError {}

/// A parsed journal: the intact records plus whether a torn trailing line was
/// dropped.
#[derive(Debug, Clone)]
pub struct LoadedJournal {
    /// Records in file order.
    pub records: Vec<JournalRecord>,
    /// True when the final line failed to parse and was discarded (the one
    /// damage a process killed mid-append can leave).
    pub torn_tail: bool,
    /// True when the text is non-empty and does not end in `\n`: a line
    /// appended as-is would be glued onto the last one.
    unterminated: bool,
}

/// Reads a journal file. A missing file is an empty journal. The final line
/// may be torn (truncated mid-record) and is then dropped; a malformed line
/// anywhere earlier is [`JournalError::Corrupt`].
pub fn load_journal(path: &Path) -> Result<LoadedJournal, JournalError> {
    let content = match std::fs::read_to_string(path) {
        Ok(c) => c,
        Err(e) if e.kind() == std::io::ErrorKind::NotFound => {
            return Ok(LoadedJournal {
                records: Vec::new(),
                torn_tail: false,
                unterminated: false,
            })
        }
        Err(e) => return Err(JournalError::Io(format!("{}: {e}", path.display()))),
    };
    let lines: Vec<&str> = content
        .lines()
        .filter(|line| !line.trim().is_empty())
        .collect();
    let mut records = Vec::with_capacity(lines.len());
    let mut torn_tail = false;
    for (i, line) in lines.iter().enumerate() {
        let parsed = serde_json::parse_value(line)
            .map_err(|e| e.to_string())
            .and_then(|v| JournalRecord::from_json(&v));
        match parsed {
            Ok(record) => records.push(record),
            // Only the very last line may be torn.
            Err(_) if i + 1 == lines.len() => torn_tail = true,
            Err(message) => {
                return Err(JournalError::Corrupt {
                    line: i + 1,
                    message,
                })
            }
        }
    }
    Ok(LoadedJournal {
        records,
        torn_tail,
        unterminated: !content.is_empty() && !content.ends_with('\n'),
    })
}

/// Appends records to a journal, one line per record.
///
/// The writer holds the journal open in append mode, so every [`append`] is
/// one `write_all` of one serialized line at the end of the file: earlier
/// records are never rewritten, and a process killed mid-append leaves at
/// most a torn final line, which [`load_journal`] drops. Opening a journal
/// whose last line is torn, or lacks its `\n`, first rewrites the intact
/// records once (temp + rename), so the next line cannot be glued onto the
/// damaged one and turn it into corruption before the end.
///
/// Like every journal write, an append is not `fsync`ed: the contract is
/// that a *process* killed anywhere resumes bit-identically, not that a
/// record survives power loss.
///
/// [`append`]: JournalWriter::append
#[derive(Debug)]
pub struct JournalWriter {
    path: PathBuf,
    file: File,
    records: u64,
}

impl JournalWriter {
    /// Opens a journal for appending: loads it as [`load_journal`] does and
    /// repairs a torn or unterminated tail before any append.
    pub fn open(path: &Path) -> Result<JournalWriter, JournalError> {
        JournalWriter::from_loaded(path, &load_journal(path)?)
    }

    /// Opens the journal at `path` for appending, given what
    /// [`load_journal`] read from it, so a caller that already holds the load
    /// does not parse the file twice.
    pub(crate) fn from_loaded(
        path: &Path,
        loaded: &LoadedJournal,
    ) -> Result<JournalWriter, JournalError> {
        if loaded.torn_tail || loaded.unterminated {
            write_atomic(path, &loaded.records)?;
        }
        let file = OpenOptions::new()
            .create(true)
            .append(true)
            .open(path)
            .map_err(|e| JournalError::Io(format!("{}: {e}", path.display())))?;
        Ok(JournalWriter {
            path: path.to_path_buf(),
            file,
            records: loaded.records.len() as u64,
        })
    }

    /// Number of records currently in the journal.
    pub fn len(&self) -> u64 {
        self.records
    }

    /// True when the journal holds no records.
    pub fn is_empty(&self) -> bool {
        self.records == 0
    }

    /// Appends one record: a single `write_all` of its line at the end of
    /// the file. After an error the file may end in a torn line; reopen it
    /// with [`JournalWriter::open`], which repairs that line, before
    /// appending again.
    pub fn append(&mut self, record: &JournalRecord) -> Result<(), JournalError> {
        let mut line = String::new();
        push_line(&mut line, record)?;
        self.file
            .write_all(line.as_bytes())
            .map_err(|e| JournalError::Io(format!("{}: {e}", self.path.display())))?;
        self.records += 1;
        Ok(())
    }
}

fn push_line(out: &mut String, record: &JournalRecord) -> Result<(), JournalError> {
    let line = serde_json::to_string(record)
        .map_err(|e| JournalError::Io(format!("serialize record: {e}")))?;
    out.push_str(&line);
    out.push('\n');
    Ok(())
}

/// Writes `records` as the whole journal at `path`, via a sibling temp file
/// and an atomic rename.
fn write_atomic<'a>(
    path: &Path,
    records: impl IntoIterator<Item = &'a JournalRecord>,
) -> Result<(), JournalError> {
    let mut content = String::new();
    for record in records {
        push_line(&mut content, record)?;
    }
    let mut tmp = path.as_os_str().to_os_string();
    tmp.push(".tmp");
    let tmp = PathBuf::from(tmp);
    std::fs::write(&tmp, content)
        .map_err(|e| JournalError::Io(format!("{}: {e}", tmp.display())))?;
    std::fs::rename(&tmp, path)
        .map_err(|e| JournalError::Io(format!("{} -> {}: {e}", tmp.display(), path.display())))
}

/// Merges shard journals into one canonical journal at `out_path`.
///
/// Every record must carry `expected_digest`; records are sorted by cell id
/// (total order) and a cell id appearing in more than one shard — or twice in
/// one — is [`JournalError::DuplicateKey`]. Torn trailing lines in shard
/// journals are tolerated (the affected cell is simply absent and a resume of
/// the merged journal re-runs it). The merged journal is written whole,
/// through a temp file and a rename, and is exactly what a sequential
/// un-sharded campaign would have journaled, record for record.
pub fn merge_shard_journals(
    shard_paths: &[PathBuf],
    out_path: &Path,
    expected_digest: &str,
) -> Result<u64, JournalError> {
    let mut by_id: Vec<(String, JournalRecord)> = Vec::new();
    for path in shard_paths {
        let loaded = load_journal(path)?;
        for record in loaded.records {
            if record.digest != expected_digest {
                return Err(JournalError::DigestMismatch {
                    id: record.key.id(),
                    found: record.digest,
                    expected: expected_digest.to_string(),
                });
            }
            by_id.push((record.key.id(), record));
        }
    }
    by_id.sort_by(|a, b| a.0.cmp(&b.0));
    for pair in by_id.windows(2) {
        if pair[0].0 == pair[1].0 {
            return Err(JournalError::DuplicateKey(pair[0].0.clone()));
        }
    }
    write_atomic(out_path, by_id.iter().map(|(_, record)| record))?;
    Ok(by_id.len() as u64)
}
