//! Phase markers — the `pf_start("tag")` / `pf_stop()` tracing API of the
//! paper's profiler, used to attribute measurements to application kernels.

use serde::{Deserialize, Serialize};

/// Identifier of a profiled phase within one run, in start order.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord, Serialize, Deserialize)]
pub struct PhaseId(pub u32);

impl PhaseId {
    /// Raw index of the phase.
    pub fn index(self) -> usize {
        self.0 as usize
    }
}

/// Metadata about a profiled phase.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct PhaseRecord {
    /// Identifier (position in start order).
    pub id: PhaseId,
    /// Tag passed to `phase_start`, e.g. `"p1-init"` or `"p2-solve"`.
    pub name: String,
}

impl PhaseRecord {
    /// Creates a phase record.
    pub fn new(id: PhaseId, name: impl Into<String>) -> Self {
        Self {
            id,
            name: name.into(),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn phase_record_label() {
        let p = PhaseRecord::new(PhaseId(1), "solve");
        assert_eq!(p.name, "solve");
        assert_eq!(p.id.index(), 1);
    }
}
