//! Deterministic fault injection for campaign robustness tests.
//!
//! A [`FaultPlan`] lets tests (and the CI smoke example) exercise the three
//! failure modes the crash-consistency contract defends against, without any
//! real crashing or wall-clock machinery:
//!
//! * **kill-after-cell-k** — the driver stops with
//!   [`CampaignError::Interrupted`] once the journal holds `k` records,
//!   simulating a process kill between appends;
//! * **torn final record** — on that injected kill, the journal's last line
//!   is truncated mid-record, simulating a process killed in the middle of
//!   its final append;
//! * **poisoned cells** — named cells panic for their first `n` attempts,
//!   driving the retry/quarantine path (`n = u32::MAX` never heals).
//!
//! [`CampaignError::Interrupted`]: crate::campaign::CampaignError::Interrupted

// Quarantine, not abort: the fleet driver must turn a failing cell into a
// `failed_cells` entry, so this module propagates errors instead of panicking
// (test modules may unwrap; see clippy.toml).
#![deny(clippy::unwrap_used, clippy::expect_used)]

use crate::journal::JournalError;
use std::collections::BTreeMap;
use std::path::Path;

/// A deterministic fault-injection plan. [`FaultPlan::none`] (also `Default`)
/// injects nothing and is what production campaigns run with.
#[derive(Debug, Clone, Default)]
pub struct FaultPlan {
    /// Stop the campaign once this many records are durable in the journal.
    pub kill_after_cells: Option<u64>,
    /// On the injected kill, truncate the journal's final line mid-record.
    pub truncate_final_record: bool,
    /// Cell id → number of attempts that panic before the cell heals
    /// (`u32::MAX` = poisoned forever, ends in quarantine).
    pub poison: BTreeMap<String, u32>,
}

impl FaultPlan {
    /// No faults.
    pub fn none() -> FaultPlan {
        FaultPlan::default()
    }

    /// Kill the campaign after `cells` journal records.
    pub fn kill_after(cells: u64) -> FaultPlan {
        FaultPlan {
            kill_after_cells: Some(cells),
            ..FaultPlan::default()
        }
    }

    /// Additionally truncate the final journal record on the injected kill.
    pub fn with_torn_final_record(mut self) -> FaultPlan {
        self.truncate_final_record = true;
        self
    }

    /// Poison the cell with this id so its first `attempts` attempts panic.
    pub fn with_poison(mut self, cell_id: &str, attempts: u32) -> FaultPlan {
        self.poison.insert(cell_id.to_string(), attempts);
        self
    }

    /// Poison the cell with this id permanently (every attempt panics; the
    /// driver quarantines it after `max_attempts`).
    pub fn with_poison_forever(self, cell_id: &str) -> FaultPlan {
        self.with_poison(cell_id, u32::MAX)
    }

    /// Test hook called by the driver inside its `catch_unwind` scope before
    /// a cell attempt runs: panics if the plan poisons this attempt.
    pub fn poison_check(&self, cell_id: &str, attempt: u32) {
        if let Some(&poisoned_attempts) = self.poison.get(cell_id) {
            if attempt <= poisoned_attempts {
                panic!("fault injection: poisoned cell {cell_id} (attempt {attempt})");
            }
        }
    }

    /// True when the injected kill threshold has been reached.
    pub fn should_kill(&self, journaled_cells: u64) -> bool {
        self.kill_after_cells.is_some_and(|k| journaled_cells >= k)
    }

    /// Applies the torn-final-record corruption to a journal file: the last
    /// line loses its trailing half, exactly the damage a process killed
    /// mid-append leaves behind.
    pub fn apply_truncation(&self, journal_path: &Path) -> Result<(), JournalError> {
        if !self.truncate_final_record {
            return Ok(());
        }
        let content = std::fs::read_to_string(journal_path)
            .map_err(|e| JournalError::Io(format!("{}: {e}", journal_path.display())))?;
        let trimmed = content.trim_end_matches('\n');
        let last_start = trimmed.rfind('\n').map_or(0, |i| i + 1);
        let last_len = trimmed.len() - last_start;
        if last_len == 0 {
            return Ok(());
        }
        // Keep roughly half the record — enough bytes to be visibly a torn
        // JSON prefix, never a valid line.
        let keep = last_start + last_len / 2;
        let torn = &trimmed[..floor_char_boundary(trimmed, keep)];
        std::fs::write(journal_path, torn)
            .map_err(|e| JournalError::Io(format!("{}: {e}", journal_path.display())))
    }
}

fn floor_char_boundary(s: &str, mut index: usize) -> usize {
    while index > 0 && !s.is_char_boundary(index) {
        index -= 1;
    }
    index
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn poison_check_panics_only_while_poisoned() {
        let plan = FaultPlan::none().with_poison("cell-a", 2);
        let hit = std::panic::catch_unwind(|| plan.poison_check("cell-a", 1));
        assert!(hit.is_err());
        let hit = std::panic::catch_unwind(|| plan.poison_check("cell-a", 2));
        assert!(hit.is_err());
        // Third attempt heals; unrelated cells never panic.
        plan.poison_check("cell-a", 3);
        plan.poison_check("cell-b", 1);
    }

    #[test]
    fn kill_threshold() {
        let plan = FaultPlan::kill_after(3);
        assert!(!plan.should_kill(2));
        assert!(plan.should_kill(3));
        assert!(plan.should_kill(4));
        assert!(!FaultPlan::none().should_kill(1_000_000));
    }
}
