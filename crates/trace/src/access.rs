//! Access kinds and address-granularity constants.

use serde::{Deserialize, Serialize};

/// Size of a virtual memory page in bytes (4 KiB, matching the Linux default
/// used on the paper's testbed — THP is disabled there).
pub const PAGE_SIZE: u64 = 4096;

/// Size of a cache line in bytes.
pub const CACHE_LINE_SIZE: u64 = 64;

/// Whether an access reads or writes memory.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum AccessKind {
    /// A demand load.
    Read,
    /// A demand store (request-for-ownership at the cache level).
    Write,
}

impl AccessKind {
    /// Returns `true` for [`AccessKind::Write`].
    pub fn is_write(self) -> bool {
        matches!(self, AccessKind::Write)
    }
}

/// Number of pages needed to hold `bytes` bytes.
pub fn pages_for(bytes: u64) -> u64 {
    bytes.div_ceil(PAGE_SIZE)
}

/// Number of cache lines needed to hold `bytes` bytes.
pub fn lines_for(bytes: u64) -> u64 {
    bytes.div_ceil(CACHE_LINE_SIZE)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn pages_for_rounds_up() {
        assert_eq!(pages_for(0), 0);
        assert_eq!(pages_for(1), 1);
        assert_eq!(pages_for(PAGE_SIZE), 1);
        assert_eq!(pages_for(PAGE_SIZE + 1), 2);
    }

    #[test]
    fn lines_for_rounds_up() {
        assert_eq!(lines_for(0), 0);
        assert_eq!(lines_for(63), 1);
        assert_eq!(lines_for(64), 1);
        assert_eq!(lines_for(65), 2);
    }

    #[test]
    fn access_kind_predicates() {
        assert!(!AccessKind::Read.is_write());
        assert!(AccessKind::Write.is_write());
    }
}
