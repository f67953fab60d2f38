//! Memory access events and address-granularity constants.

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

/// A single memory access event in the virtual address space.
///
/// Accesses are generated by workloads at element or block granularity and are
/// broken down into cache-line references by the simulator.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct MemAccess {
    /// Starting virtual address of the access.
    pub addr: u64,
    /// Number of bytes touched, starting at `addr`.
    pub bytes: u64,
    /// Read or write.
    pub kind: AccessKind,
}

impl MemAccess {
    /// Creates a read access.
    pub fn read(addr: u64, bytes: u64) -> Self {
        Self {
            addr,
            bytes,
            kind: AccessKind::Read,
        }
    }

    /// Creates a write access.
    pub fn write(addr: u64, bytes: u64) -> Self {
        Self {
            addr,
            bytes,
            kind: AccessKind::Write,
        }
    }

    /// Index of the page containing the first byte of the access.
    pub fn first_page(&self) -> u64 {
        page_of(self.addr)
    }

    /// Index of the cache line containing the first byte of the access.
    pub fn first_line(&self) -> u64 {
        line_of(self.addr)
    }

    /// Iterator over the cache-line indices covered by this access.
    pub fn lines(&self) -> impl Iterator<Item = u64> {
        let first = line_of(self.addr);
        let last = if self.bytes == 0 {
            first
        } else {
            line_of(self.addr + self.bytes - 1)
        };
        first..=last
    }

    /// Number of distinct cache lines covered by this access.
    pub fn line_count(&self) -> u64 {
        if self.bytes == 0 {
            return 0;
        }
        line_of(self.addr + self.bytes - 1) - line_of(self.addr) + 1
    }
}

/// Page index of an address.
pub fn page_of(addr: u64) -> u64 {
    addr / PAGE_SIZE
}

/// Cache-line index of an address.
pub fn line_of(addr: u64) -> u64 {
    addr / CACHE_LINE_SIZE
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
    fn page_and_line_of_zero() {
        assert_eq!(page_of(0), 0);
        assert_eq!(line_of(0), 0);
    }

    #[test]
    fn page_boundaries() {
        assert_eq!(page_of(PAGE_SIZE - 1), 0);
        assert_eq!(page_of(PAGE_SIZE), 1);
    }

    #[test]
    fn line_boundaries() {
        assert_eq!(line_of(CACHE_LINE_SIZE - 1), 0);
        assert_eq!(line_of(CACHE_LINE_SIZE), 1);
    }

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
    fn access_line_iteration_single_line() {
        let a = MemAccess::read(10, 8);
        assert_eq!(a.lines().collect::<Vec<_>>(), vec![0]);
        assert_eq!(a.line_count(), 1);
    }

    #[test]
    fn access_line_iteration_spanning() {
        // 60..188 spans lines 0, 1, 2.
        let a = MemAccess::write(60, 128);
        assert_eq!(a.lines().collect::<Vec<_>>(), vec![0, 1, 2]);
        assert_eq!(a.line_count(), 3);
    }

    #[test]
    fn access_kind_predicates() {
        assert!(!AccessKind::Read.is_write());
        assert!(AccessKind::Write.is_write());
        assert!(MemAccess::write(0, 4).kind.is_write());
    }

    #[test]
    fn zero_byte_access_has_no_lines() {
        let a = MemAccess::read(100, 0);
        assert_eq!(a.line_count(), 0);
    }
}
