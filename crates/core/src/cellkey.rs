//! Stable, content-addressed identity for one campaign cell.
//!
//! A fleet campaign is a cartesian grid of cells — workload × scale × policy ×
//! capacity × link × seed. Crash-consistent resume and shard merging both need
//! a key that (a) is stable across processes, (b) orders totally, and (c)
//! round-trips through the JSON-lines journal byte-for-byte. [`CellKey`] is
//! that key; [`dismem_trace::fnv1a64`] is the digest primitive used to
//! fingerprint the campaign spec so a journal written under one configuration
//! is never silently replayed under another.

use serde::{Deserialize, Serialize};

/// Identity of one campaign cell inside a fleet grid.
///
/// Fields are the axes of the paper's §7 methodology grid. Capacity is stored
/// in permille (0–1000) rather than as an f64 so equality and ordering are
/// exact and the journal representation is unambiguous.
#[derive(Debug, Clone, PartialEq, Eq, PartialOrd, Ord, Serialize, Deserialize)]
pub struct CellKey {
    /// Workload name as registered in `dismem-workloads` (e.g. "BFS").
    pub workload: String,
    /// Input-scale label ("tiny", "x1", "x2", "x4").
    pub scale: String,
    /// Scheduling-policy label ("baseline", "aware").
    pub policy: String,
    /// Local-DRAM capacity fraction in permille of the footprint (0–1000).
    pub capacity_permille: u32,
    /// Link-configuration label (e.g. "upi").
    pub link: String,
    /// Base RNG seed for the cell's Monte Carlo campaign.
    pub seed: u64,
}

impl CellKey {
    /// The human-readable canonical id, also the journal's sort key:
    /// `workload/scale/policy/c<permille>/link/s<seed>`.
    pub fn id(&self) -> String {
        format!(
            "{}/{}/{}/c{}/{}/s{}",
            self.workload, self.scale, self.policy, self.capacity_permille, self.link, self.seed
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn key() -> CellKey {
        CellKey {
            workload: "BFS".to_string(),
            scale: "tiny".to_string(),
            policy: "aware".to_string(),
            capacity_permille: 500,
            link: "upi".to_string(),
            seed: 0xD15C,
        }
    }

    #[test]
    fn id_is_canonical() {
        assert_eq!(key().id(), "BFS/tiny/aware/c500/upi/s53596");
    }

    #[test]
    fn ordering_follows_fields_lexicographically() {
        let a = key();
        let mut b = key();
        b.capacity_permille = 750;
        assert!(a < b);
        let mut c = key();
        c.workload = "XSBench".to_string();
        assert!(a < c);
    }

    #[test]
    fn serializes_with_exact_u64_seed() {
        let mut k = key();
        k.seed = u64::MAX;
        let json = serde_json::to_string(&k).unwrap();
        assert!(json.contains(&format!("\"seed\":{}", u64::MAX)), "{json}");
        let parsed = serde_json::parse_value(&json).unwrap();
        assert_eq!(parsed.get("seed").and_then(|v| v.as_u64()), Some(u64::MAX));
    }
}
