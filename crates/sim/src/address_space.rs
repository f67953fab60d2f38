//! Page-granular virtual address space with tiered placement.
//!
//! Pages are bound to a memory tier on first touch, following the placement
//! policy of the owning allocation. The default first-touch policy fills the
//! node-local tier until its capacity is exhausted and then spills to the
//! memory pool — the Linux behaviour the paper's emulation platform relies on
//! (NUMA balancing and THP disabled). Freed pages return their tier capacity,
//! which is what makes allocation order and early frees effective placement
//! optimizations (the BFS case study).

use crate::tiering::HotnessTracker;
use dismem_trace::access::pages_for;
use dismem_trace::{AllocationRecord, ObjectHandle, PageHistogram, PlacementPolicy};
use serde::{Deserialize, Serialize};
// The page-tier map is consulted on every simulated line access; ordered
// consumers go through sorted snapshots (see `bound_pages`).
#[allow(clippy::disallowed_types, reason = "hot path; iteration is linted")]
use std::collections::HashMap;

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
    handle: ObjectHandle,
}

/// The tiered, page-granular address space.
#[derive(Debug, Clone)]
pub struct AddressSpace {
    local_capacity_pages: Option<u64>,
    pool_capacity_pages: Option<u64>,
    allocations: Vec<AllocationRecord>,
    extents: Vec<Extent>,
    placements: Vec<ObjectPlacement>,
    /// Pages assigned so far per object (drives interleave patterns).
    assigned_pages: Vec<u64>,
    next_page: u64,
    #[allow(clippy::disallowed_types, reason = "hot path; iteration is linted")]
    page_tier: HashMap<u64, (Tier, ObjectHandle)>,
    /// One-entry memo of the last [`AddressSpace::resolve_dram`] result
    /// (page, tier, owner): lines of the same page skip the hash lookup.
    /// Invalidated on free (the only operation that unbinds pages).
    last_resolved: Option<(u64, Tier, ObjectHandle)>,
    local_pages_used: u64,
    pool_pages_used: u64,
    /// Monotone count of local-preferring pages that fell through to the
    /// pool because the local tier was full (capacity spills).
    spilled_pages: u64,
    live_bytes: u64,
    peak_bytes: u64,
    histogram: PageHistogram,
    /// Per-page hotness tracking for the dynamic tiering subsystem; `None`
    /// (the default, and always under the `Static` policy) makes the traffic
    /// recording paths exactly as cheap as before tiering existed.
    hotness: Option<HotnessTracker>,
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
            next_page: 1, // keep page 0 unused so address 0 is never valid
            #[allow(clippy::disallowed_types, reason = "hot path; iteration is linted")]
            page_tier: HashMap::new(),
            last_resolved: None,
            local_pages_used: 0,
            pool_pages_used: 0,
            spilled_pages: 0,
            live_bytes: 0,
            peak_bytes: 0,
            histogram: PageHistogram::new(),
            hotness: None,
        }
    }

    /// Installs (or removes) the hotness tracker that the DRAM traffic
    /// recording feeds. Installed by [`crate::Machine`] when a dynamic
    /// tiering policy is set.
    pub fn set_hotness(&mut self, tracker: Option<HotnessTracker>) {
        self.hotness = tracker;
    }

    /// The installed hotness tracker, if any.
    pub fn hotness(&self) -> Option<&HotnessTracker> {
        self.hotness.as_ref()
    }

    /// Mutable access to the installed hotness tracker, if any.
    pub fn hotness_mut(&mut self) -> Option<&mut HotnessTracker> {
        self.hotness.as_mut()
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
            first_page: self.next_page,
            page_count: pages,
            handle,
        });
        self.next_page += pages;
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
        self.last_resolved = None;
        self.live_bytes = self.live_bytes.saturating_sub(self.allocations[idx].bytes);
        let extent = self.extents[idx].clone();
        for page in extent.first_page..extent.first_page + extent.page_count {
            if let Some((tier, _)) = self.page_tier.remove(&page) {
                match tier {
                    Tier::Local => {
                        self.local_pages_used -= 1;
                        self.placements[idx].pages_local -= 1;
                    }
                    Tier::Pool => {
                        self.pool_pages_used -= 1;
                        self.placements[idx].pages_pool -= 1;
                    }
                }
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

    /// Resolves the tier serving a DRAM access to `addr`, binding the page on
    /// first touch and updating per-page and per-object accounting.
    pub fn dram_access(&mut self, addr: u64) -> Result<Tier, OutOfMemory> {
        let page = addr / dismem_trace::PAGE_SIZE;
        self.histogram.record(page, 1);
        if let Some(h) = &mut self.hotness {
            h.record(page, 1);
        }
        if let Some(&(tier, owner)) = self.page_tier.get(&page) {
            self.bump_object_traffic(owner, tier);
            return Ok(tier);
        }
        let owner = self.owner_of_page(page).ok_or_else(|| OutOfMemory {
            page,
            object: "<unmapped>".to_string(),
        })?;
        let policy = self.allocations[owner.index()].policy;
        let tier = self.place_page(page, owner, policy)?;
        self.bump_object_traffic(owner, tier);
        Ok(tier)
    }

    /// Resolves the tier and owner serving a DRAM access to `addr`, binding
    /// the page on first touch, *without* recording per-page or per-object
    /// traffic (see [`AddressSpace::record_dram_traffic`]).
    ///
    /// This is the bulk-pipeline half of [`AddressSpace::dram_access`]: a
    /// one-entry memo makes repeated resolutions within the same page O(1),
    /// so a batch of contiguous cache lines pays the hash lookup (and, on
    /// first touch, the placement walk) once per page instead of once per
    /// line.
    pub fn resolve_dram(&mut self, addr: u64) -> Result<(Tier, ObjectHandle), OutOfMemory> {
        let page = addr / dismem_trace::PAGE_SIZE;
        if let Some((p, tier, owner)) = self.last_resolved {
            if p == page {
                return Ok((tier, owner));
            }
        }
        let (tier, owner) = if let Some(&(tier, owner)) = self.page_tier.get(&page) {
            (tier, owner)
        } else {
            let owner = self.owner_of_page(page).ok_or_else(|| OutOfMemory {
                page,
                object: "<unmapped>".to_string(),
            })?;
            let policy = self.allocations[owner.index()].policy;
            (self.place_page(page, owner, policy)?, owner)
        };
        self.last_resolved = Some((page, tier, owner));
        Ok((tier, owner))
    }

    /// Records `lines` DRAM line accesses to `page`, served from `tier` on
    /// behalf of `owner`. Together with [`AddressSpace::resolve_dram`] this
    /// is equivalent to `lines` calls of [`AddressSpace::dram_access`] for
    /// addresses within one page, with the bookkeeping batched.
    pub fn record_dram_traffic(&mut self, owner: ObjectHandle, tier: Tier, page: u64, lines: u64) {
        self.histogram.record(page, lines);
        if let Some(h) = &mut self.hotness {
            h.record(page, lines);
        }
        let p = &mut self.placements[owner.index()];
        match tier {
            Tier::Local => p.dram_lines_local += lines,
            Tier::Pool => p.dram_lines_pool += lines,
        }
    }

    /// Tier currently bound to a page number, if any.
    pub fn tier_of_page(&self, page: u64) -> Option<Tier> {
        self.page_tier.get(&page).map(|&(t, _)| t)
    }

    /// Iterates over every bound page and its tier, in no particular order
    /// (callers that need determinism must sort).
    #[allow(
        clippy::disallowed_methods,
        reason = "accessor documented as unordered; the tiering epoch sorts the samples it builds from this"
    )]
    pub fn bound_pages(&self) -> impl Iterator<Item = (u64, Tier)> + '_ {
        self.page_tier
            .iter()
            .map(|(&page, &(tier, _))| (page, tier))
    }

    /// Rebinds an already-bound page to another tier — the migration
    /// primitive of the dynamic tiering subsystem, and the only way a page
    /// changes tier after its first touch.
    ///
    /// Keeps every piece of derived state consistent: tier page counts, the
    /// owning object's [`ObjectPlacement`] page counts, and the resolve memo.
    /// Extents, the page histogram, per-object traffic counters and the
    /// first-touch interleave cursor (`assigned_pages`) are untouched — a
    /// migration moves data, it does not re-run placement. Returns the tier
    /// the page was bound to before.
    pub fn rebind_page(&mut self, page: u64, to: Tier) -> Result<Tier, RebindError> {
        let &(from, owner) = self.page_tier.get(&page).ok_or(RebindError::Unbound)?;
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
        self.page_tier.insert(page, (to, owner));
        self.last_resolved = None;
        Ok(from)
    }

    fn bump_object_traffic(&mut self, owner: ObjectHandle, tier: Tier) {
        let p = &mut self.placements[owner.index()];
        match tier {
            Tier::Local => p.dram_lines_local += 1,
            Tier::Pool => p.dram_lines_pool += 1,
        }
    }

    fn owner_of_page(&self, page: u64) -> Option<ObjectHandle> {
        // Extents are appended in increasing page order, so binary search works.
        let idx = self
            .extents
            .partition_point(|e| e.first_page + e.page_count <= page);
        let extent = self.extents.get(idx)?;
        if page >= extent.first_page && page < extent.first_page + extent.page_count {
            Some(extent.handle)
        } else {
            None
        }
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

    fn place_page(
        &mut self,
        page: u64,
        owner: ObjectHandle,
        policy: PlacementPolicy,
    ) -> Result<Tier, OutOfMemory> {
        let prefer_local = match policy {
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
        self.page_tier.insert(page, (tier, owner));
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

    /// Bytes of currently live allocations.
    pub fn live_bytes(&self) -> u64 {
        self.live_bytes
    }

    /// Page-access histogram over all DRAM accesses.
    pub fn histogram(&self) -> &PageHistogram {
        &self.histogram
    }

    /// Ratio of pool capacity usage to total bound pages — the paper's remote
    /// capacity ratio `R^remote_cap`.
    pub fn remote_capacity_ratio(&self) -> f64 {
        let total = self.local_pages_used + self.pool_pages_used;
        if total == 0 {
            return 0.0;
        }
        self.pool_pages_used as f64 / total as f64
    }
}

#[cfg(test)]
#[allow(clippy::disallowed_methods, reason = "tests drive the audited calls")]
mod tests {
    use super::*;
    use dismem_trace::PAGE_SIZE;

    fn addr_of(space: &AddressSpace, h: ObjectHandle, offset: u64) -> u64 {
        space.base_addr(h) + offset
    }

    #[test]
    fn first_touch_spills_to_pool_when_local_full() {
        // Local capacity: 2 pages.
        let mut space = AddressSpace::new(Some(2 * PAGE_SIZE), None);
        let a = space.alloc("A", "t", 4 * PAGE_SIZE, PlacementPolicy::FirstTouch);
        for p in 0..4 {
            space
                .dram_access(addr_of(&space, a, p * PAGE_SIZE))
                .unwrap();
        }
        assert_eq!(space.local_pages_used(), 2);
        assert_eq!(space.pool_pages_used(), 2);
        let pl = space.placement(a);
        assert_eq!(pl.pages_local, 2);
        assert_eq!(pl.pages_pool, 2);
        assert!((space.remote_capacity_ratio() - 0.5).abs() < 1e-12);
    }

    #[test]
    fn force_remote_goes_to_pool_even_with_local_room() {
        let mut space = AddressSpace::new(Some(100 * PAGE_SIZE), None);
        let a = space.alloc("A", "t", 2 * PAGE_SIZE, PlacementPolicy::ForceRemote);
        space.dram_access(addr_of(&space, a, 0)).unwrap();
        space.dram_access(addr_of(&space, a, PAGE_SIZE)).unwrap();
        assert_eq!(space.local_pages_used(), 0);
        assert_eq!(space.pool_pages_used(), 2);
    }

    #[test]
    fn interleave_alternates_tiers() {
        let mut space = AddressSpace::new(None, None);
        let a = space.alloc("A", "t", 6 * PAGE_SIZE, PlacementPolicy::interleave(1, 2));
        for p in 0..6 {
            space
                .dram_access(addr_of(&space, a, p * PAGE_SIZE))
                .unwrap();
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
        space.dram_access(addr_of(&space, temp, 0)).unwrap();
        space.dram_access(addr_of(&space, temp, PAGE_SIZE)).unwrap();
        assert_eq!(space.local_pages_used(), 2);
        space.free(temp).unwrap();
        assert_eq!(space.local_pages_used(), 0);

        let frontier = space.alloc(
            "frontier",
            "bfs",
            2 * PAGE_SIZE,
            PlacementPolicy::FirstTouch,
        );
        space.dram_access(addr_of(&space, frontier, 0)).unwrap();
        space
            .dram_access(addr_of(&space, frontier, PAGE_SIZE))
            .unwrap();
        let pl = space.placement(frontier);
        assert_eq!(pl.pages_local, 2);
        assert_eq!(pl.pages_pool, 0);
    }

    #[test]
    fn repeated_access_does_not_rebind_pages() {
        let mut space = AddressSpace::new(Some(PAGE_SIZE), None);
        let a = space.alloc("A", "t", 2 * PAGE_SIZE, PlacementPolicy::FirstTouch);
        let t0 = space.dram_access(addr_of(&space, a, 0)).unwrap();
        let t1 = space.dram_access(addr_of(&space, a, PAGE_SIZE)).unwrap();
        assert_eq!(t0, Tier::Local);
        assert_eq!(t1, Tier::Pool);
        // Accessing again keeps the original binding and counts traffic.
        assert_eq!(
            space.dram_access(addr_of(&space, a, 0)).unwrap(),
            Tier::Local
        );
        assert_eq!(
            space.dram_access(addr_of(&space, a, PAGE_SIZE)).unwrap(),
            Tier::Pool
        );
        let pl = space.placement(a);
        assert_eq!(pl.dram_lines_local, 2);
        assert_eq!(pl.dram_lines_pool, 2);
        assert!((pl.remote_access_ratio() - 0.5).abs() < 1e-12);
    }

    #[test]
    fn oom_when_both_tiers_full() {
        let mut space = AddressSpace::new(Some(PAGE_SIZE), Some(PAGE_SIZE));
        let a = space.alloc("A", "t", 3 * PAGE_SIZE, PlacementPolicy::FirstTouch);
        space.dram_access(addr_of(&space, a, 0)).unwrap();
        space.dram_access(addr_of(&space, a, PAGE_SIZE)).unwrap();
        let err = space
            .dram_access(addr_of(&space, a, 2 * PAGE_SIZE))
            .unwrap_err();
        assert_eq!(err.object, "A");
        assert!(err.to_string().contains("out of memory"));
    }

    #[test]
    fn double_free_and_unknown_handle_are_typed_errors() {
        let mut space = AddressSpace::new(None, None);
        let a = space.alloc("A", "t", PAGE_SIZE, PlacementPolicy::FirstTouch);
        space.dram_access(addr_of(&space, a, 0)).unwrap();
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
            space
                .dram_access(addr_of(&space, a, p * PAGE_SIZE))
                .unwrap();
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
        assert_eq!(
            space
                .dram_access(addr_of(&space, a, 2 * PAGE_SIZE))
                .unwrap(),
            Tier::Local
        );
    }

    #[test]
    fn free_after_partial_rebind_releases_the_right_tiers() {
        let mut space = AddressSpace::new(Some(4 * PAGE_SIZE), None);
        let a = space.alloc("A", "t", 4 * PAGE_SIZE, PlacementPolicy::interleave(1, 1));
        for p in 0..4 {
            space
                .dram_access(addr_of(&space, a, p * PAGE_SIZE))
                .unwrap();
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
    fn hotness_tracker_follows_dram_traffic() {
        use crate::tiering::HotnessTracker;
        let mut space = AddressSpace::new(None, None);
        space.set_hotness(Some(HotnessTracker::new(0.5)));
        let a = space.alloc("A", "t", 2 * PAGE_SIZE, PlacementPolicy::FirstTouch);
        let page = space.base_addr(a) / PAGE_SIZE;
        space.dram_access(addr_of(&space, a, 0)).unwrap();
        space.dram_access(addr_of(&space, a, 64)).unwrap();
        let (tier, owner) = space.resolve_dram(addr_of(&space, a, PAGE_SIZE)).unwrap();
        space.record_dram_traffic(owner, tier, page + 1, 5);
        let tracker = space.hotness_mut().unwrap();
        tracker.end_epoch();
        assert_eq!(tracker.heat_of(page), 2.0);
        assert_eq!(tracker.heat_of(page + 1), 5.0);
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
            space
                .dram_access(addr_of(&space, a, p * PAGE_SIZE))
                .unwrap();
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
        assert_eq!(space.live_bytes(), 2500);
    }

    #[test]
    fn owner_lookup_is_correct_across_objects() {
        let mut space = AddressSpace::new(None, None);
        let a = space.alloc("A", "t", 2 * PAGE_SIZE, PlacementPolicy::FirstTouch);
        let b = space.alloc("B", "t", 2 * PAGE_SIZE, PlacementPolicy::ForceRemote);
        space.dram_access(addr_of(&space, a, 0)).unwrap();
        space.dram_access(addr_of(&space, b, 0)).unwrap();
        assert_eq!(space.placement(a).pages_local, 1);
        assert_eq!(space.placement(b).pages_pool, 1);
    }

    #[test]
    fn histogram_counts_dram_accesses() {
        let mut space = AddressSpace::new(None, None);
        let a = space.alloc("A", "t", PAGE_SIZE, PlacementPolicy::FirstTouch);
        for _ in 0..5 {
            space.dram_access(addr_of(&space, a, 0)).unwrap();
        }
        assert_eq!(space.histogram().total_accesses(), 5);
        assert_eq!(space.histogram().touched_pages(), 1);
    }
}
