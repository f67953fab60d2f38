//! Page-granular virtual address space with tiered placement.
//!
//! Pages are bound to a memory tier on first touch, following the placement
//! policy of the owning allocation. The default first-touch policy fills the
//! node-local tier until its capacity is exhausted and then spills to the
//! memory pool — the Linux behaviour the paper's emulation platform relies on
//! (NUMA balancing and THP disabled). Freed pages return their tier capacity,
//! which is what makes allocation order and early frees effective placement
//! optimizations (the BFS case study).

use dismem_trace::access::pages_for;
use dismem_trace::{AllocationRecord, ObjectHandle, PageHistogram, PlacementPolicy};
use serde::{Deserialize, Serialize};

/// Memory tier a page can be bound to.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum Tier {
    /// Node-local memory.
    Local,
    /// Rack-level memory pool (remote).
    Pool,
}

/// Per-object placement and traffic summary maintained by the address space.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq, Serialize, Deserialize)]
pub struct ObjectPlacement {
    /// Pages of the object currently bound to the local tier.
    pub pages_local: u64,
    /// Pages of the object currently bound to the pool tier.
    pub pages_pool: u64,
    /// DRAM line accesses served from the local tier for this object.
    pub dram_lines_local: u64,
    /// DRAM line accesses served from the pool tier for this object.
    pub dram_lines_pool: u64,
}

impl ObjectPlacement {
    /// Fraction of this object's DRAM accesses that went to the pool.
    pub fn remote_access_ratio(&self) -> f64 {
        let total = self.dram_lines_local + self.dram_lines_pool;
        if total == 0 {
            return 0.0;
        }
        self.dram_lines_pool as f64 / total as f64
    }
}

/// Error raised when no tier can hold a newly touched page.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct OutOfMemory {
    /// Page that could not be placed.
    pub page: u64,
    /// Name of the owning object.
    pub object: String,
}

impl std::fmt::Display for OutOfMemory {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "out of memory: no tier can hold page {} of object '{}'",
            self.page, self.object
        )
    }
}

impl std::error::Error for OutOfMemory {}

/// Error raised by [`AddressSpace::free`] for invalid frees.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum FreeError {
    /// The handle does not name any allocation of this address space.
    UnknownHandle(ObjectHandle),
    /// The object was already freed.
    DoubleFree {
        /// Name of the object being freed twice.
        object: String,
    },
}

impl std::fmt::Display for FreeError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            FreeError::UnknownHandle(h) => write!(f, "free of unknown handle {}", h.0),
            FreeError::DoubleFree { object } => write!(f, "double free of object '{object}'"),
        }
    }
}

impl std::error::Error for FreeError {}

/// Error raised by [`AddressSpace::rebind_page`] when a migration cannot be
/// applied.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum RebindError {
    /// The page is not bound to any tier (never touched, or freed).
    Unbound,
    /// The destination tier has no free capacity.
    NoCapacity,
}

impl std::fmt::Display for RebindError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            RebindError::Unbound => write!(f, "page is not bound to a tier"),
            RebindError::NoCapacity => write!(f, "destination tier is full"),
        }
    }
}

impl std::error::Error for RebindError {}

#[derive(Debug, Clone)]
struct Extent {
    first_page: u64,
    page_count: u64,
}

/// One page of the page table.
#[derive(Debug, Clone, Copy)]
struct PageEntry {
    /// The allocation the page belongs to; `None` for page 0, which no
    /// allocation covers.
    owner: Option<ObjectHandle>,
    /// The tier the page is bound to; `None` before its first touch and
    /// after its object is freed.
    tier: Option<Tier>,
    /// DRAM lines recorded against the page over the run.
    lines: u64,
}

/// The tiered, page-granular address space.
///
/// Pages are handed out densely from 1 and never reused, so the page table
/// is a `Vec` indexed by page number: every DRAM transaction resolves its
/// page's tier and owner with one indexed load. A page beyond the table, or
/// page 0, is unmapped.
#[derive(Debug, Clone)]
pub struct AddressSpace {
    local_capacity_pages: Option<u64>,
    pool_capacity_pages: Option<u64>,
    allocations: Vec<AllocationRecord>,
    extents: Vec<Extent>,
    placements: Vec<ObjectPlacement>,
    /// Pages assigned so far per object (drives interleave patterns).
    assigned_pages: Vec<u64>,
    /// The page table, indexed by page number; its length is the next free
    /// page.
    pages: Vec<PageEntry>,
    local_pages_used: u64,
    pool_pages_used: u64,
    /// Monotone count of local-preferring pages that fell through to the
    /// pool because the local tier was full (capacity spills).
    spilled_pages: u64,
    live_bytes: u64,
    peak_bytes: u64,
}

impl AddressSpace {
    /// Creates an address space with the given tier capacities (in bytes;
    /// `None` = unbounded).
    pub fn new(local_capacity_bytes: Option<u64>, pool_capacity_bytes: Option<u64>) -> Self {
        Self {
            local_capacity_pages: local_capacity_bytes.map(pages_for),
            pool_capacity_pages: pool_capacity_bytes.map(pages_for),
            allocations: Vec::new(),
            extents: Vec::new(),
            placements: Vec::new(),
            assigned_pages: Vec::new(),
            // Page 0 stays unmapped so address 0 is never valid.
            pages: vec![PageEntry {
                owner: None,
                tier: None,
                lines: 0,
            }],
            local_pages_used: 0,
            pool_pages_used: 0,
            spilled_pages: 0,
            live_bytes: 0,
            peak_bytes: 0,
        }
    }

    /// Allocates an object and returns its handle. Pages are *not* bound to a
    /// tier yet; binding happens on first touch.
    pub fn alloc(
        &mut self,
        name: &str,
        site: &str,
        bytes: u64,
        policy: PlacementPolicy,
    ) -> ObjectHandle {
        let handle = ObjectHandle(self.allocations.len() as u32);
        let record =
            AllocationRecord::new(handle, name, site, bytes, self.allocations.len(), policy);
        let pages = pages_for(bytes).max(1);
        self.extents.push(Extent {
            first_page: self.pages.len() as u64,
            page_count: pages,
        });
        let entry = PageEntry {
            owner: Some(handle),
            tier: None,
            lines: 0,
        };
        self.pages.resize(self.pages.len() + pages as usize, entry);
        self.allocations.push(record);
        self.placements.push(ObjectPlacement::default());
        self.assigned_pages.push(0);
        self.live_bytes += bytes;
        self.peak_bytes = self.peak_bytes.max(self.live_bytes);
        handle
    }

    /// Frees an object, releasing its bound pages back to their tiers.
    ///
    /// Invalid frees (unknown handle, double free) are reported as a typed
    /// [`FreeError`] so engines can surface them; the address space itself is
    /// left untouched in that case.
    pub fn free(&mut self, handle: ObjectHandle) -> Result<(), FreeError> {
        let idx = handle.index();
        if idx >= self.allocations.len() {
            return Err(FreeError::UnknownHandle(handle));
        }
        if self.allocations[idx].freed {
            return Err(FreeError::DoubleFree {
                object: self.allocations[idx].name.clone(),
            });
        }
        self.allocations[idx].freed = true;
        self.live_bytes = self.live_bytes.saturating_sub(self.allocations[idx].bytes);
        let extent = &self.extents[idx];
        let range = extent.first_page as usize..(extent.first_page + extent.page_count) as usize;
        for entry in &mut self.pages[range] {
            match entry.tier.take() {
                Some(Tier::Local) => {
                    self.local_pages_used -= 1;
                    self.placements[idx].pages_local -= 1;
                }
                Some(Tier::Pool) => {
                    self.pool_pages_used -= 1;
                    self.placements[idx].pages_pool -= 1;
                }
                None => {}
            }
        }
        Ok(())
    }

    /// Base address of an object's first byte.
    pub fn base_addr(&self, handle: ObjectHandle) -> u64 {
        self.extents[handle.index()].first_page * dismem_trace::PAGE_SIZE
    }

    /// Size (bytes) of an object as requested at allocation.
    pub fn object_bytes(&self, handle: ObjectHandle) -> u64 {
        self.allocations[handle.index()].bytes
    }

    /// Records `lines` DRAM line transactions against `page` and returns the
    /// tier that serves them, binding the page on first touch. The lines
    /// count towards the page's histogram entry and its owner's per-tier
    /// traffic. The single DRAM recording point: every pipeline feeds its
    /// transactions through here.
    ///
    /// A page outside the table, or page 0, is unmapped; a lookup never
    /// grows the table.
    #[inline]
    pub fn record_dram(&mut self, page: u64, lines: u64) -> Result<Tier, OutOfMemory> {
        let unmapped = || OutOfMemory {
            page,
            object: "<unmapped>".to_string(),
        };
        let entry = self.pages.get_mut(page as usize).ok_or_else(unmapped)?;
        let owner = entry.owner.ok_or_else(unmapped)?;
        entry.lines += lines;
        let tier = match entry.tier {
            Some(tier) => tier,
            None => self.place_page(page, owner)?,
        };
        let placement = &mut self.placements[owner.index()];
        match tier {
            Tier::Local => placement.dram_lines_local += lines,
            Tier::Pool => placement.dram_lines_pool += lines,
        }
        Ok(tier)
    }

    /// DRAM lines recorded against each page over the run, in page order
    /// from page 0: the counts the histogram is built from and the tiering
    /// runtime reads its heat from.
    pub(crate) fn page_lines(&self) -> impl ExactSizeIterator<Item = u64> + '_ {
        self.pages.iter().map(|entry| entry.lines)
    }

    /// Tier currently bound to a page number, if any.
    pub fn tier_of_page(&self, page: u64) -> Option<Tier> {
        self.pages.get(page as usize).and_then(|entry| entry.tier)
    }

    /// Iterates over every bound page and its tier, in page order.
    pub fn bound_pages(&self) -> impl Iterator<Item = (u64, Tier)> + '_ {
        self.pages
            .iter()
            .enumerate()
            .filter_map(|(page, entry)| entry.tier.map(|tier| (page as u64, tier)))
    }

    /// Rebinds an already-bound page to another tier — the migration
    /// primitive of the dynamic tiering subsystem, and the only way a page
    /// changes tier after its first touch.
    ///
    /// Keeps every piece of derived state consistent: tier page counts and
    /// the owning object's [`ObjectPlacement`] page counts. Extents, the
    /// page's line count, per-object traffic counters and the first-touch
    /// interleave cursor (`assigned_pages`) are untouched — a migration moves
    /// data, it does not re-run placement. Returns the tier the page was
    /// bound to before.
    pub fn rebind_page(&mut self, page: u64, to: Tier) -> Result<Tier, RebindError> {
        let entry = self
            .pages
            .get(page as usize)
            .copied()
            .ok_or(RebindError::Unbound)?;
        let (Some(from), Some(owner)) = (entry.tier, entry.owner) else {
            return Err(RebindError::Unbound);
        };
        if from == to {
            return Ok(from);
        }
        match to {
            Tier::Local if !self.local_has_room() => return Err(RebindError::NoCapacity),
            Tier::Pool if !self.pool_has_room() => return Err(RebindError::NoCapacity),
            _ => {}
        }
        let placement = &mut self.placements[owner.index()];
        match from {
            Tier::Local => {
                self.local_pages_used -= 1;
                placement.pages_local -= 1;
            }
            Tier::Pool => {
                self.pool_pages_used -= 1;
                placement.pages_pool -= 1;
            }
        }
        match to {
            Tier::Local => {
                self.local_pages_used += 1;
                placement.pages_local += 1;
            }
            Tier::Pool => {
                self.pool_pages_used += 1;
                placement.pages_pool += 1;
            }
        }
        self.pages[page as usize].tier = Some(to);
        Ok(from)
    }

    fn local_has_room(&self) -> bool {
        match self.local_capacity_pages {
            Some(cap) => self.local_pages_used < cap,
            None => true,
        }
    }

    fn pool_has_room(&self) -> bool {
        match self.pool_capacity_pages {
            Some(cap) => self.pool_pages_used < cap,
            None => true,
        }
    }

    /// Binds an unbound page of `owner` on its first touch, following the
    /// owner's placement policy.
    fn place_page(&mut self, page: u64, owner: ObjectHandle) -> Result<Tier, OutOfMemory> {
        let prefer_local = match self.allocations[owner.index()].policy {
            PlacementPolicy::FirstTouch | PlacementPolicy::ForceLocal => true,
            PlacementPolicy::ForceRemote => false,
            PlacementPolicy::Interleave { local, remote } => {
                let idx = self.assigned_pages[owner.index()];
                // Widen before adding: `local + remote` may exceed `u32::MAX`
                // (the constructor only rejects an all-zero ratio).
                let period = local as u64 + remote as u64;
                (idx % period) < local as u64
            }
        };
        let tier = if prefer_local {
            if self.local_has_room() {
                Tier::Local
            } else if self.pool_has_room() {
                self.spilled_pages += 1;
                Tier::Pool
            } else {
                return Err(self.oom(page, owner));
            }
        } else if self.pool_has_room() {
            Tier::Pool
        } else if self.local_has_room() {
            Tier::Local
        } else {
            return Err(self.oom(page, owner));
        };
        match tier {
            Tier::Local => {
                self.local_pages_used += 1;
                self.placements[owner.index()].pages_local += 1;
            }
            Tier::Pool => {
                self.pool_pages_used += 1;
                self.placements[owner.index()].pages_pool += 1;
            }
        }
        self.assigned_pages[owner.index()] += 1;
        self.pages[page as usize].tier = Some(tier);
        Ok(tier)
    }

    fn oom(&self, page: u64, owner: ObjectHandle) -> OutOfMemory {
        OutOfMemory {
            page,
            object: self.allocations[owner.index()].name.clone(),
        }
    }

    /// Allocation records in allocation order.
    pub fn allocations(&self) -> &[AllocationRecord] {
        &self.allocations
    }

    /// Placement summary for one object.
    pub fn placement(&self, handle: ObjectHandle) -> ObjectPlacement {
        self.placements[handle.index()]
    }

    /// Placement summaries for all objects, in allocation order.
    pub fn placements(&self) -> &[ObjectPlacement] {
        &self.placements
    }

    /// Pages currently bound to the local tier.
    pub fn local_pages_used(&self) -> u64 {
        self.local_pages_used
    }

    /// Pages currently bound to the pool tier.
    pub fn pool_pages_used(&self) -> u64 {
        self.pool_pages_used
    }

    /// Monotone count of pages that preferred the local tier but were placed
    /// in the pool because local capacity was exhausted.
    pub fn spilled_pages(&self) -> u64 {
        self.spilled_pages
    }

    /// Peak bytes of live allocations observed so far.
    pub fn peak_footprint_bytes(&self) -> u64 {
        self.peak_bytes
    }

    /// Page-access histogram over all DRAM accesses, built from the page
    /// table's line counts: every page with at least one recorded line.
    pub fn histogram(&self) -> PageHistogram {
        let mut histogram = PageHistogram::new();
        for (page, lines) in self.page_lines().enumerate() {
            if lines > 0 {
                histogram.record(page as u64, lines);
            }
        }
        histogram
    }
}

#[cfg(test)]
#[allow(clippy::disallowed_methods, reason = "tests drive the audited calls")]
mod tests {
    use super::*;
    use dismem_trace::PAGE_SIZE;

    /// Records one DRAM line at byte `offset` of object `h`.
    fn touch(space: &mut AddressSpace, h: ObjectHandle, offset: u64) -> Result<Tier, OutOfMemory> {
        let page = (space.base_addr(h) + offset) / PAGE_SIZE;
        space.record_dram(page, 1)
    }

    #[test]
    fn first_touch_spills_to_pool_when_local_full() {
        // Local capacity: 2 pages.
        let mut space = AddressSpace::new(Some(2 * PAGE_SIZE), None);
        let a = space.alloc("A", "t", 4 * PAGE_SIZE, PlacementPolicy::FirstTouch);
        for p in 0..4 {
            touch(&mut space, a, p * PAGE_SIZE).unwrap();
        }
        assert_eq!(space.local_pages_used(), 2);
        assert_eq!(space.pool_pages_used(), 2);
        let pl = space.placement(a);
        assert_eq!(pl.pages_local, 2);
        assert_eq!(pl.pages_pool, 2);
    }

    #[test]
    fn force_remote_goes_to_pool_even_with_local_room() {
        let mut space = AddressSpace::new(Some(100 * PAGE_SIZE), None);
        let a = space.alloc("A", "t", 2 * PAGE_SIZE, PlacementPolicy::ForceRemote);
        touch(&mut space, a, 0).unwrap();
        touch(&mut space, a, PAGE_SIZE).unwrap();
        assert_eq!(space.local_pages_used(), 0);
        assert_eq!(space.pool_pages_used(), 2);
    }

    #[test]
    fn interleave_alternates_tiers() {
        let mut space = AddressSpace::new(None, None);
        let a = space.alloc("A", "t", 6 * PAGE_SIZE, PlacementPolicy::interleave(1, 2));
        for p in 0..6 {
            touch(&mut space, a, p * PAGE_SIZE).unwrap();
        }
        let pl = space.placement(a);
        assert_eq!(pl.pages_local, 2);
        assert_eq!(pl.pages_pool, 4);
    }

    #[test]
    fn free_releases_local_capacity_for_later_allocations() {
        // The BFS case-study mechanism: freeing an init-time object lets later
        // dynamic allocations land locally.
        let mut space = AddressSpace::new(Some(2 * PAGE_SIZE), None);
        let temp = space.alloc("temp", "init", 2 * PAGE_SIZE, PlacementPolicy::FirstTouch);
        touch(&mut space, temp, 0).unwrap();
        touch(&mut space, temp, PAGE_SIZE).unwrap();
        assert_eq!(space.local_pages_used(), 2);
        space.free(temp).unwrap();
        assert_eq!(space.local_pages_used(), 0);

        let frontier = space.alloc(
            "frontier",
            "bfs",
            2 * PAGE_SIZE,
            PlacementPolicy::FirstTouch,
        );
        touch(&mut space, frontier, 0).unwrap();
        touch(&mut space, frontier, PAGE_SIZE).unwrap();
        let pl = space.placement(frontier);
        assert_eq!(pl.pages_local, 2);
        assert_eq!(pl.pages_pool, 0);
    }

    #[test]
    fn repeated_access_does_not_rebind_pages() {
        let mut space = AddressSpace::new(Some(PAGE_SIZE), None);
        let a = space.alloc("A", "t", 2 * PAGE_SIZE, PlacementPolicy::FirstTouch);
        let t0 = touch(&mut space, a, 0).unwrap();
        let t1 = touch(&mut space, a, PAGE_SIZE).unwrap();
        assert_eq!(t0, Tier::Local);
        assert_eq!(t1, Tier::Pool);
        // Accessing again keeps the original binding and counts traffic.
        assert_eq!(touch(&mut space, a, 0).unwrap(), Tier::Local);
        assert_eq!(touch(&mut space, a, PAGE_SIZE).unwrap(), Tier::Pool);
        let pl = space.placement(a);
        assert_eq!(pl.dram_lines_local, 2);
        assert_eq!(pl.dram_lines_pool, 2);
        assert!((pl.remote_access_ratio() - 0.5).abs() < 1e-12);
    }

    #[test]
    fn oom_when_both_tiers_full() {
        let mut space = AddressSpace::new(Some(PAGE_SIZE), Some(PAGE_SIZE));
        let a = space.alloc("A", "t", 3 * PAGE_SIZE, PlacementPolicy::FirstTouch);
        touch(&mut space, a, 0).unwrap();
        touch(&mut space, a, PAGE_SIZE).unwrap();
        let err = touch(&mut space, a, 2 * PAGE_SIZE).unwrap_err();
        assert_eq!(err.object, "A");
        assert!(err.to_string().contains("out of memory"));
    }

    #[test]
    fn double_free_and_unknown_handle_are_typed_errors() {
        let mut space = AddressSpace::new(None, None);
        let a = space.alloc("A", "t", PAGE_SIZE, PlacementPolicy::FirstTouch);
        touch(&mut space, a, 0).unwrap();
        space.free(a).unwrap();
        let err = space.free(a).unwrap_err();
        assert_eq!(
            err,
            FreeError::DoubleFree {
                object: "A".to_string()
            }
        );
        assert!(err.to_string().contains("double free of object 'A'"));
        // The failed free must not disturb accounting.
        assert_eq!(space.local_pages_used(), 0);
        let unknown = ObjectHandle(42);
        let err = space.free(unknown).unwrap_err();
        assert_eq!(err, FreeError::UnknownHandle(unknown));
        assert!(err.to_string().contains("unknown handle 42"));
    }

    #[test]
    fn rebind_page_migrates_between_tiers_consistently() {
        let mut space = AddressSpace::new(Some(2 * PAGE_SIZE), Some(4 * PAGE_SIZE));
        let a = space.alloc("A", "t", 4 * PAGE_SIZE, PlacementPolicy::FirstTouch);
        for p in 0..4 {
            touch(&mut space, a, p * PAGE_SIZE).unwrap();
        }
        let first_page = space.base_addr(a) / PAGE_SIZE;
        assert_eq!(space.tier_of_page(first_page + 2), Some(Tier::Pool));
        // Local is full: promotion must be refused until a demotion frees room.
        assert_eq!(
            space.rebind_page(first_page + 2, Tier::Local),
            Err(RebindError::NoCapacity)
        );
        assert_eq!(space.rebind_page(first_page, Tier::Pool), Ok(Tier::Local));
        assert_eq!(
            space.rebind_page(first_page + 2, Tier::Local),
            Ok(Tier::Pool)
        );
        assert_eq!(space.tier_of_page(first_page), Some(Tier::Pool));
        assert_eq!(space.tier_of_page(first_page + 2), Some(Tier::Local));
        let pl = space.placement(a);
        assert_eq!(pl.pages_local, 2);
        assert_eq!(pl.pages_pool, 2);
        assert_eq!(space.local_pages_used(), 2);
        assert_eq!(space.pool_pages_used(), 2);
        // Same-tier rebind is a no-op; unbound pages are typed errors.
        assert_eq!(space.rebind_page(first_page, Tier::Pool), Ok(Tier::Pool));
        assert_eq!(
            space.rebind_page(first_page + 100, Tier::Local),
            Err(RebindError::Unbound)
        );
        // Traffic keeps flowing to the migrated page's new tier.
        assert_eq!(touch(&mut space, a, 2 * PAGE_SIZE).unwrap(), Tier::Local);
    }

    #[test]
    fn free_after_partial_rebind_releases_the_right_tiers() {
        let mut space = AddressSpace::new(Some(4 * PAGE_SIZE), None);
        let a = space.alloc("A", "t", 4 * PAGE_SIZE, PlacementPolicy::interleave(1, 1));
        for p in 0..4 {
            touch(&mut space, a, p * PAGE_SIZE).unwrap();
        }
        let first_page = space.base_addr(a) / PAGE_SIZE;
        // Promote one pool page, demote one local page, then free the object.
        space.rebind_page(first_page + 1, Tier::Local).unwrap();
        space.rebind_page(first_page, Tier::Pool).unwrap();
        space.free(a).unwrap();
        assert_eq!(space.local_pages_used(), 0);
        assert_eq!(space.pool_pages_used(), 0);
        let pl = space.placement(a);
        assert_eq!(pl.pages_local, 0);
        assert_eq!(pl.pages_pool, 0);
    }

    #[test]
    fn interleave_period_survives_u32_max_ratio() {
        // `local + remote` overflows u32; the widened period must still place
        // the first `local` pages on the local tier.
        let mut space = AddressSpace::new(None, None);
        let a = space.alloc(
            "A",
            "t",
            4 * PAGE_SIZE,
            PlacementPolicy::interleave(u32::MAX, u32::MAX),
        );
        for p in 0..4 {
            touch(&mut space, a, p * PAGE_SIZE).unwrap();
        }
        let pl = space.placement(a);
        assert_eq!(pl.pages_local, 4);
        assert_eq!(pl.pages_pool, 0);
    }

    #[test]
    fn peak_footprint_tracks_live_bytes() {
        let mut space = AddressSpace::new(None, None);
        let a = space.alloc("A", "t", 1000, PlacementPolicy::FirstTouch);
        let _b = space.alloc("B", "t", 2000, PlacementPolicy::FirstTouch);
        space.free(a).unwrap();
        let _c = space.alloc("C", "t", 500, PlacementPolicy::FirstTouch);
        assert_eq!(space.peak_footprint_bytes(), 3000);
        // 2500 bytes are live, so 600 more set a new peak.
        let _d = space.alloc("D", "t", 600, PlacementPolicy::FirstTouch);
        assert_eq!(space.peak_footprint_bytes(), 3100);
    }

    #[test]
    fn owner_lookup_is_correct_across_objects() {
        let mut space = AddressSpace::new(None, None);
        let a = space.alloc("A", "t", 2 * PAGE_SIZE, PlacementPolicy::FirstTouch);
        let b = space.alloc("B", "t", 2 * PAGE_SIZE, PlacementPolicy::ForceRemote);
        touch(&mut space, a, 0).unwrap();
        touch(&mut space, b, 0).unwrap();
        assert_eq!(space.placement(a).pages_local, 1);
        assert_eq!(space.placement(b).pages_pool, 1);
    }

    #[test]
    fn histogram_counts_dram_accesses() {
        let mut space = AddressSpace::new(None, None);
        let a = space.alloc("A", "t", PAGE_SIZE, PlacementPolicy::FirstTouch);
        for _ in 0..5 {
            touch(&mut space, a, 0).unwrap();
        }
        assert_eq!(space.histogram().total_accesses(), 5);
        assert_eq!(space.histogram().touched_pages(), 1);
    }

    #[test]
    fn access_beyond_the_mapped_pages_is_unmapped_and_never_grows_the_table() {
        let mut space = AddressSpace::new(None, None);
        let a = space.alloc("A", "t", 2 * PAGE_SIZE, PlacementPolicy::FirstTouch);
        let len = space.pages.len();
        assert_eq!(len, 3, "page 0 plus the object's two pages");
        let beyond = space.base_addr(a) / PAGE_SIZE + 2;
        for page in [0, beyond, beyond + 1_000_000] {
            let err = space.record_dram(page, 1).unwrap_err();
            assert_eq!(
                err,
                OutOfMemory {
                    page,
                    object: "<unmapped>".to_string()
                }
            );
        }
        assert_eq!(space.pages.len(), len);
        assert_eq!(space.tier_of_page(beyond), None);
        assert_eq!(space.histogram().touched_pages(), 0);
        assert_eq!(space.bound_pages().count(), 0);
    }

    #[test]
    fn bound_pages_iterate_in_page_order() {
        let mut space = AddressSpace::new(Some(PAGE_SIZE), None);
        let a = space.alloc("A", "t", 3 * PAGE_SIZE, PlacementPolicy::FirstTouch);
        let first = space.base_addr(a) / PAGE_SIZE;
        for offset in [2, 0, 1] {
            touch(&mut space, a, offset * PAGE_SIZE).unwrap();
        }
        let bound: Vec<(u64, Tier)> = space.bound_pages().collect();
        assert_eq!(
            bound,
            vec![
                (first, Tier::Pool),
                (first + 1, Tier::Pool),
                (first + 2, Tier::Local)
            ]
        );
    }
}
