//! Dynamic tiering: page hotness tracking, promotion/demotion policies and
//! the migration bookkeeping that backs them.
//!
//! The paper's emulation platform pins every page to a tier at first touch
//! (NUMA balancing disabled), and [`crate::AddressSpace`] reproduces exactly
//! that. Real disaggregated deployments, however, migrate pages at runtime:
//! the OS promotes hot pages from the far tier into node-local DRAM
//! (TPP-style hot-page promotion) and demotes cold local pages to the pool
//! under capacity pressure (AutoNUMA-style sampling and rebalancing). This
//! module adds that axis to the simulator:
//!
//! * a [`HotnessTracker`] — an epoch-based, exponentially decayed per-page
//!   DRAM-traffic counter fed from both the per-line and the batched access
//!   pipelines (the feed point is the address space's traffic recording, so
//!   the two pipelines observe bit-identical heat: per-epoch accrual is pure
//!   integer addition, which commutes, and the decayed score is only folded
//!   at epoch boundaries, which both pipelines reach at the same chunk
//!   closes);
//! * [`TieringSpec`] — the tiering policy, one of three:
//!   [`TieringSpec::Static`] (no epochs, no migrations: the pre-tiering
//!   reference behaviour), [`HotPromote`] (threshold promotion of hot pool
//!   pages with capacity-pressure demotion and a ping-pong damper) and
//!   [`PeriodicRebalance`] (sampled top-k hot/cold swap every N epochs). The
//!   spec is serializable, so campaign sweeps and benchmark harnesses name
//!   policies in committed JSON with it.
//!
//! # Epochs and determinism
//!
//! A tiering epoch completes after [`TieringSpec::epoch_lines`] DRAM lines
//! of application traffic, checked when the machine closes a timing chunk.
//! Chunk-close decisions are bit-identical across the per-line, batched and
//! replay pipelines (the workspace property tests enforce this), heat is
//! accumulated in integers, and policy decisions sort their candidates with a
//! total order — so the whole subsystem is deterministic and
//! pipeline-independent: a tiering run produces the same `RunReport` on all
//! three pipelines.
//!
//! # Interaction with the replay engine
//!
//! The cache walk never reads a page's tier: first-touch binding, spills and
//! migrations all happen on the DRAM side, where the machine's sink resolves
//! each page's tier at its current binding, replayed windows included. So a
//! migration epoch leaves the replay engine alone, and for one workload every
//! local capacity and every policy produce the same walk, chunk by chunk.
//! Epochs only ever fire between cache walks (at chunk closes). With the
//! [`TieringSpec::Static`] policy no epoch ever fires and the machine is
//! bit-identical to the pre-tiering simulator.
//!
//! Both contracts — the epoch/chunk-close rule and the tier-blind walk — are
//! part of the workspace-wide invariants documented in `docs/ARCHITECTURE.md`
//! at the repository root and enforced by `tests/properties.rs`.

use crate::address_space::Tier;
use crate::report::TieringReport;
use serde::{Deserialize, Serialize};

/// Heat scores below this are pruned to zero at epoch boundaries, so a page
/// that has gone cold drops out of the tracked set and a re-touched one
/// accrues from zero.
const HEAT_FLOOR: f64 = 1e-3;

/// A page belongs to the epoch's *hot set* when its decayed score is at least
/// this fraction of the epoch's maximum score. Fraction-of-max membership is
/// scale-invariant: an epoch without traffic decays every score (and the
/// maximum) by the same factor, so the hot set — and therefore the dwell
/// clock — only moves when the access pattern actually moves.
const HOT_SET_FRACTION: f64 = 0.5;

/// One epoch's hot-set observation, returned by [`HotnessTracker::end_epoch`]
/// and folded into the run's phase-dwell statistics by the machine.
///
/// The *hot set* is the set of pages whose decayed score is within
/// half (`HOT_SET_FRACTION`) of the epoch's maximum. Each dwell is
/// *anchored* on
/// the hot set observed when it started, and the hot set *shifts* — closing
/// the dwell — once a strict majority of the anchor's pages is no longer hot.
/// Anchoring against the dwell's start (rather than the previous epoch)
/// makes the detector robust to gradual hand-overs: a working set that
/// migrates region by region still registers a shift once most of the
/// original set has gone cold, while epoch-over-epoch comparison would never
/// see the overlap drop. The number of epochs between two shifts is one
/// *phase dwell* — the time a hot working set stays put, which is exactly
/// the window a page migration has to amortize in.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct HotSetDelta {
    /// Pages in the hot set as of the epoch that just completed.
    pub pages: u64,
    /// Whether the hot set moved away from the current dwell's anchor set
    /// (no strict majority of the anchor's pages is still hot). Always `false`
    /// while no dwell is open (no hot set has been observed yet).
    pub shifted: bool,
}

/// Epoch-based per-page hotness tracker with exponential decay.
///
/// State is indexed by page number, like the address space's page table
/// (pages are dense from 1): `record` is O(1) per (page, lines) batch and
/// grows the arrays on demand, and `end_epoch` is O(pages seen so far).
#[derive(Debug, Clone)]
pub struct HotnessTracker {
    decay: f64,
    epochs_completed: u64,
    /// Decayed score per page as of the last completed epoch; 0 for pages
    /// never touched or pruned below `HEAT_FLOOR`.
    scores: Vec<f64>,
    /// DRAM lines recorded per page in the current epoch (integer accrual:
    /// additions commute, so the batched pipeline's per-page bulk recording
    /// and the per-line pipeline's event-by-event recording agree bit for
    /// bit at every epoch boundary).
    lines: Vec<u64>,
    /// Membership flags of the open dwell's anchor hot set (the hot set
    /// observed when the dwell started), kept to detect hot-set shifts.
    anchor: Vec<bool>,
    /// Pages flagged in `anchor`; 0 while no dwell is open.
    anchor_pages: u64,
}

impl HotnessTracker {
    /// Creates a tracker with the given per-epoch decay factor (0–1; the
    /// score of a page that stops being touched halves every epoch at 0.5).
    pub fn new(decay: f64) -> Self {
        assert!(
            (0.0..1.0).contains(&decay),
            "decay must be within [0, 1), got {decay}"
        );
        Self {
            decay,
            epochs_completed: 0,
            scores: Vec::new(),
            lines: Vec::new(),
            anchor: Vec::new(),
            anchor_pages: 0,
        }
    }

    /// Records `lines` DRAM line transactions against `page` in the current
    /// epoch.
    #[inline]
    pub fn record(&mut self, page: u64, lines: u64) {
        let page = page as usize;
        if page >= self.lines.len() {
            self.scores.resize(page + 1, 0.0);
            self.lines.resize(page + 1, 0);
            self.anchor.resize(page + 1, false);
        }
        self.lines[page] += lines;
    }

    /// Completes the current epoch: folds the epoch's integer line counts
    /// into the decayed scores, prunes pages that have gone cold, and reports
    /// the epoch's hot set and whether it shifted (see [`HotSetDelta`]).
    ///
    /// Dwell detection is purely observational — it never changes a score —
    /// and every input (scores, epoch boundaries) is bit-identical across the
    /// per-line, batched and replay pipelines, so the returned delta is too.
    pub fn end_epoch(&mut self) -> HotSetDelta {
        let decay = self.decay;
        let mut max = 0.0f64;
        for (score, lines) in self.scores.iter_mut().zip(&mut self.lines) {
            let folded = *score * decay + *lines as f64;
            *score = if folded >= HEAT_FLOOR { folded } else { 0.0 };
            *lines = 0;
            max = max.max(*score);
        }
        self.epochs_completed += 1;

        let is_hot = |score: f64| max > 0.0 && score >= HOT_SET_FRACTION * max;
        let (mut pages, mut still_hot) = (0u64, 0u64);
        for (&score, &anchored) in self.scores.iter().zip(&self.anchor) {
            if is_hot(score) {
                pages += 1;
                still_hot += u64::from(anchored);
            }
        }
        // No dwell open: the first non-empty hot set becomes the anchor.
        // Otherwise the dwell closes once no strict majority of its anchor is
        // still hot, and the new hot set anchors the next one.
        let shifted = self.anchor_pages > 0 && still_hot * 2 <= self.anchor_pages;
        if self.anchor_pages == 0 || shifted {
            for (anchored, &score) in self.anchor.iter_mut().zip(&self.scores) {
                *anchored = is_hot(score);
            }
            self.anchor_pages = pages;
        }
        HotSetDelta { pages, shifted }
    }

    /// Decayed heat of a page as of the last completed epoch (0 for pages
    /// never touched or already pruned).
    pub fn heat_of(&self, page: u64) -> f64 {
        self.scores.get(page as usize).copied().unwrap_or(0.0)
    }

    /// Number of epochs completed so far.
    pub fn epochs_completed(&self) -> u64 {
        self.epochs_completed
    }

    /// Number of pages currently tracked: those with a nonzero score or
    /// lines recorded in the current epoch.
    pub fn tracked_pages(&self) -> usize {
        self.scores
            .iter()
            .zip(&self.lines)
            .filter(|&(&score, &lines)| score > 0.0 || lines > 0)
            .count()
    }
}

/// One page's heat and current binding, handed to [`TieringSpec::plan`].
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct PageSample {
    /// Virtual page number.
    pub page: u64,
    /// Tier the page is currently bound to.
    pub tier: Tier,
    /// Decayed heat as of the epoch that just completed.
    pub heat: f64,
    /// Whether the page is still inside the ping-pong cooldown window from a
    /// previous migration. An order targeting a cooling page will be refused
    /// by the migration engine, so policies should not plan one — and in
    /// particular should not demote other pages to make room for it.
    pub cooling: bool,
}

/// Tier occupancy at the time a policy plans an epoch.
#[derive(Debug, Clone, Copy)]
pub struct TierOccupancy {
    /// Pages currently bound to the local tier.
    pub local_used: u64,
    /// Local-tier capacity in pages (`None` = unbounded).
    pub local_capacity: Option<u64>,
}

impl TierOccupancy {
    /// Free local pages (`u64::MAX` when unbounded).
    pub fn local_free(&self) -> u64 {
        match self.local_capacity {
            Some(cap) => cap.saturating_sub(self.local_used),
            None => u64::MAX,
        }
    }
}

/// One migration decided by a policy: rebind `page` to `to`.
///
/// Orders are applied in sequence; a policy that needs to make room for a
/// promotion emits the corresponding demotion *before* it.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct MigrationOrder {
    /// Page to migrate.
    pub page: u64,
    /// Destination tier.
    pub to: Tier,
}

/// TPP-style hot-page promotion with capacity-pressure demotion.
///
/// Every epoch, pool pages whose decayed heat reaches `promote_heat` are
/// promoted (hottest first, at most `max_moves_per_epoch`). When the local
/// tier lacks room, the coldest local pages whose heat is at or below
/// `demote_heat` are demoted to make space — promotion never evicts a warm
/// local page. The ping-pong damper (`cooldown_epochs`) suppresses
/// re-migration of recently moved pages.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct HotPromote {
    /// Application DRAM lines per hotness epoch.
    pub epoch_lines: u64,
    /// Heat at which a pool page becomes a promotion candidate.
    pub promote_heat: f64,
    /// Heat at or below which a local page may be demoted under pressure.
    pub demote_heat: f64,
    /// Per-epoch decay factor of the hotness tracker.
    pub decay: f64,
    /// Ping-pong damper: epochs a migrated page must rest.
    pub cooldown_epochs: u64,
    /// Upper bound on promotions per epoch (bounds per-epoch link burst).
    pub max_moves_per_epoch: u64,
}

impl HotPromote {
    /// A promotion-threshold policy with damper defaults: demotion threshold
    /// at a quarter of the promotion threshold, decay 0.5, cooldown 2 epochs,
    /// at most 4096 promotions per epoch.
    pub fn new(epoch_lines: u64, promote_heat: f64) -> Self {
        Self {
            epoch_lines,
            promote_heat,
            demote_heat: promote_heat / 4.0,
            decay: 0.5,
            cooldown_epochs: 2,
            max_moves_per_epoch: 4096,
        }
    }

    /// Plans one epoch's migrations (see [`TieringSpec::plan`]).
    pub fn plan(&self, samples: &[PageSample], occupancy: &TierOccupancy) -> Vec<MigrationOrder> {
        let mut promotions: Vec<u64> = samples
            .iter()
            .filter(|s| s.tier == Tier::Pool && s.heat >= self.promote_heat && !s.cooling)
            .take(self.max_moves_per_epoch as usize)
            .map(|s| s.page)
            .collect();
        if promotions.is_empty() {
            return Vec::new();
        }
        let mut orders = Vec::new();
        let room = occupancy.local_free();
        if (promotions.len() as u64) > room {
            let need = promotions.len() as u64 - room;
            // Coldest local pages first (samples are sorted hottest-first).
            let demotions: Vec<u64> = samples
                .iter()
                .rev()
                .filter(|s| s.tier == Tier::Local && s.heat <= self.demote_heat && !s.cooling)
                .take(need as usize)
                .map(|s| s.page)
                .collect();
            if (demotions.len() as u64) < need {
                // Not enough cold pages to make room: promote only what fits.
                promotions.truncate((room + demotions.len() as u64) as usize);
            }
            orders.extend(demotions.into_iter().map(|page| MigrationOrder {
                page,
                to: Tier::Pool,
            }));
        }
        orders.extend(promotions.into_iter().map(|page| MigrationOrder {
            page,
            to: Tier::Local,
        }));
        orders
    }
}

/// AutoNUMA-style periodic rebalancing: every `period_epochs` epochs, the
/// `top_k` hottest pool pages are compared against the coldest local pages
/// and swapped pairwise whenever the pool page is strictly hotter (free local
/// room is consumed first, without demotions).
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct PeriodicRebalance {
    /// Application DRAM lines per hotness epoch.
    pub epoch_lines: u64,
    /// Rebalance every this many epochs.
    pub period_epochs: u64,
    /// Sampled swap candidates per rebalance.
    pub top_k: u64,
    /// Per-epoch decay factor of the hotness tracker.
    pub decay: f64,
    /// Ping-pong damper: epochs a migrated page must rest.
    pub cooldown_epochs: u64,
}

impl PeriodicRebalance {
    /// A rebalancer with damper defaults (decay 0.5, cooldown 2 epochs).
    pub fn new(epoch_lines: u64, period_epochs: u64, top_k: u64) -> Self {
        Self {
            epoch_lines,
            period_epochs: period_epochs.max(1),
            top_k,
            decay: 0.5,
            cooldown_epochs: 2,
        }
    }

    /// Plans the migrations of epoch `epoch` (see [`TieringSpec::plan`]).
    pub fn plan(
        &self,
        epoch: u64,
        samples: &[PageSample],
        occupancy: &TierOccupancy,
    ) -> Vec<MigrationOrder> {
        if epoch % self.period_epochs.max(1) != 0 {
            return Vec::new();
        }
        let mut orders = Vec::new();
        let mut room = occupancy.local_free();
        let mut cold_local = samples
            .iter()
            .rev()
            .filter(|s| s.tier == Tier::Local && !s.cooling)
            .peekable();
        for hot in samples
            .iter()
            .filter(|s| s.tier == Tier::Pool && s.heat > 0.0 && !s.cooling)
            .take(self.top_k as usize)
        {
            if room > 0 {
                room -= 1;
            } else {
                // Swap with the coldest remaining local page, if the hot pool
                // page is strictly hotter. Samples are sorted, so once a swap
                // stops paying off no later pair can either.
                match cold_local.peek() {
                    Some(cold) if hot.heat > cold.heat => {
                        let cold = cold_local.next().unwrap();
                        orders.push(MigrationOrder {
                            page: cold.page,
                            to: Tier::Pool,
                        });
                    }
                    _ => break,
                }
            }
            orders.push(MigrationOrder {
                page: hot.page,
                to: Tier::Local,
            });
        }
        orders
    }
}

/// A dynamic tiering policy: decides which pages to migrate at each hotness
/// epoch. Serializable, so campaign sweeps, benchmark harnesses and
/// committed JSON results name policies with it.
///
/// Policy decisions are deterministic functions of their inputs: the sample
/// list is sorted hottest-first with the page number as tie-break, so
/// iterating it front-to-back (hot) or back-to-front (cold) is reproducible
/// across runs and pipelines.
///
/// ```
/// use dismem_sim::tiering::HotPromote;
/// use dismem_sim::{Machine, MachineConfig, TieringSpec};
///
/// let spec = TieringSpec::HotPromote(HotPromote::new(4096, 16.0));
/// assert_eq!(spec.label(), "hot-promote");
/// assert_eq!(spec.epoch_lines(), Some(4096));
///
/// // A machine installs the spec directly, and its report names it.
/// let mut machine = Machine::new(MachineConfig::test_config());
/// machine.set_tiering_spec(&spec);
/// assert_eq!(machine.finish().tiering.policy, "hot-promote");
///
/// // The default `Static` spec never fires an epoch: the machine stays
/// // bit-identical to the pre-tiering simulator.
/// assert!(TieringSpec::Static.epoch_lines().is_none());
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub enum TieringSpec {
    /// First-touch pinning forever, exactly the behaviour of the simulator
    /// before the tiering subsystem existed: no hotness tracking, no epochs,
    /// no migrations (the reference, and the default).
    Static,
    /// [`HotPromote`] with the given parameters.
    HotPromote(HotPromote),
    /// [`PeriodicRebalance`] with the given parameters.
    PeriodicRebalance(PeriodicRebalance),
}

impl TieringSpec {
    /// Short label for tables, reports and JSON.
    pub fn label(&self) -> &'static str {
        match self {
            TieringSpec::Static => "static",
            TieringSpec::HotPromote(_) => "hot-promote",
            TieringSpec::PeriodicRebalance(_) => "periodic-rebalance",
        }
    }

    /// Application DRAM lines per hotness epoch, or `None` for
    /// [`TieringSpec::Static`]: no hotness tracking, no epochs, no
    /// migrations.
    pub fn epoch_lines(&self) -> Option<u64> {
        match self {
            TieringSpec::Static => None,
            TieringSpec::HotPromote(p) => Some(p.epoch_lines),
            TieringSpec::PeriodicRebalance(p) => Some(p.epoch_lines),
        }
    }

    /// Per-epoch exponential decay factor for the hotness tracker.
    pub fn decay(&self) -> f64 {
        match self {
            TieringSpec::Static => 0.5,
            TieringSpec::HotPromote(p) => p.decay,
            TieringSpec::PeriodicRebalance(p) => p.decay,
        }
    }

    /// Epochs a migrated page must wait before it may migrate again. Pages
    /// inside the window are flagged [`PageSample::cooling`]; the migration
    /// engine additionally refuses orders against them (counting the refusal
    /// as a damped ping-pong). The policies consult the flag up front, so
    /// they never waste capacity-making demotions on a promotion the damper
    /// would refuse.
    pub fn cooldown_epochs(&self) -> u64 {
        match self {
            TieringSpec::Static => 0,
            TieringSpec::HotPromote(p) => p.cooldown_epochs,
            TieringSpec::PeriodicRebalance(p) => p.cooldown_epochs,
        }
    }

    /// Plans the migrations for the epoch that just completed. `samples`
    /// lists every currently bound page, sorted by descending heat (page
    /// number ascending as tie-break).
    pub fn plan(
        &self,
        epoch: u64,
        samples: &[PageSample],
        occupancy: &TierOccupancy,
    ) -> Vec<MigrationOrder> {
        match self {
            TieringSpec::Static => Vec::new(),
            TieringSpec::HotPromote(p) => p.plan(samples, occupancy),
            TieringSpec::PeriodicRebalance(p) => p.plan(epoch, samples, occupancy),
        }
    }
}

/// Per-machine tiering state: the installed policy, the epoch accumulator,
/// the ping-pong damper history and the run's migration activity. Owned by
/// [`crate::Machine`]; the policy's hotness tracker lives in the address
/// space, next to the traffic recording that feeds it.
pub(crate) struct TieringRuntime {
    pub(crate) spec: TieringSpec,
    /// Application DRAM lines accumulated towards the next epoch.
    pub(crate) epoch_acc: u64,
    /// Index of the current epoch (1-based; incremented when an epoch fires).
    pub(crate) epoch: u64,
    /// Epoch of each page's last applied migration, indexed by page
    /// number (ping-pong damper); 0 means never migrated, since epochs are
    /// 1-based.
    last_migrated: Vec<u64>,
    /// Counters accumulated so far; `policy`, `migrated_pages` and
    /// `migrated_bytes` are filled in when the machine finishes the run.
    pub(crate) report: TieringReport,
}

impl TieringRuntime {
    pub(crate) fn new(spec: TieringSpec) -> Self {
        Self {
            spec,
            epoch_acc: 0,
            epoch: 0,
            last_migrated: Vec::new(),
            report: TieringReport::default(),
        }
    }

    /// Notes that `page` migrated in `epoch` (1-based).
    pub(crate) fn migrated(&mut self, page: u64, epoch: u64) {
        let page = page as usize;
        if page >= self.last_migrated.len() {
            self.last_migrated.resize(page + 1, 0);
        }
        self.last_migrated[page] = epoch;
    }

    /// Whether the damper suppresses a migration of `page` in `epoch`.
    /// Migrations older than the cooldown never damp, so the history needs
    /// no pruning.
    pub(crate) fn damped(&self, page: u64, epoch: u64, cooldown: u64) -> bool {
        cooldown > 0
            && self
                .last_migrated
                .get(page as usize)
                .is_some_and(|&last| last > 0 && epoch - last < cooldown)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample(page: u64, tier: Tier, heat: f64) -> PageSample {
        PageSample {
            page,
            tier,
            heat,
            cooling: false,
        }
    }

    fn occupancy(local_used: u64, local_cap: u64) -> TierOccupancy {
        TierOccupancy {
            local_used,
            local_capacity: Some(local_cap),
        }
    }

    #[test]
    fn tracker_decays_and_prunes() {
        let mut t = HotnessTracker::new(0.5);
        t.record(1, 100);
        t.record(1, 28);
        t.record(2, 2);
        t.end_epoch();
        assert_eq!(t.heat_of(1), 128.0);
        assert_eq!(t.heat_of(2), 2.0);
        // Page 1 untouched for an epoch: halves. Page 2 decays towards the
        // floor and is eventually pruned.
        t.end_epoch();
        assert_eq!(t.heat_of(1), 64.0);
        assert_eq!(t.heat_of(2), 1.0);
        for _ in 0..20 {
            t.end_epoch();
        }
        assert_eq!(t.heat_of(2), 0.0, "cold page must be pruned");
        assert_eq!(t.tracked_pages(), 0, "all pages decay below the floor");
        assert_eq!(t.epochs_completed(), 22);
    }

    #[test]
    fn pruned_page_accrues_from_zero_when_touched_again() {
        let mut t = HotnessTracker::new(0.5);
        t.record(3, 1);
        t.end_epoch();
        assert_eq!(t.heat_of(3), 1.0);
        // Ten idle epochs take the score below the floor: pruned to zero.
        for _ in 0..10 {
            t.end_epoch();
        }
        assert_eq!(t.heat_of(3), 0.0);
        assert_eq!(t.tracked_pages(), 0);
        // Touched again, it starts from zero, with no decayed remainder.
        t.record(3, 5);
        assert_eq!(t.tracked_pages(), 1, "current-epoch lines are tracked");
        t.end_epoch();
        assert_eq!(t.heat_of(3).to_bits(), 5.0f64.to_bits());
        // Pages past the highest one ever recorded read as cold.
        assert_eq!(t.heat_of(4), 0.0);
        assert_eq!(t.heat_of(u64::MAX), 0.0);
    }

    #[test]
    fn tracker_accrual_is_order_independent() {
        let mut a = HotnessTracker::new(0.5);
        let mut b = HotnessTracker::new(0.5);
        // One bulk record vs many singles, interleaved differently.
        a.record(7, 64);
        a.record(9, 3);
        for _ in 0..64 {
            b.record(7, 1);
        }
        b.record(9, 2);
        b.record(9, 1);
        a.end_epoch();
        b.end_epoch();
        assert_eq!(a.heat_of(7).to_bits(), b.heat_of(7).to_bits());
        assert_eq!(a.heat_of(9).to_bits(), b.heat_of(9).to_bits());
    }

    #[test]
    fn hot_set_shift_detection_follows_the_moving_working_set() {
        let mut t = HotnessTracker::new(0.5);
        // Epoch 1: pages 1 and 2 are hot, page 3 is background noise.
        t.record(1, 100);
        t.record(2, 90);
        t.record(3, 10);
        let d = t.end_epoch();
        assert_eq!(d.pages, 2);
        assert!(!d.shifted, "the first hot set is not a shift");
        // Epoch 2: the same set stays hot.
        t.record(1, 100);
        t.record(2, 90);
        assert!(!t.end_epoch().shifted);
        // Epoch 3: the working set moves entirely.
        t.record(7, 500);
        t.record(8, 450);
        let d = t.end_epoch();
        assert!(d.shifted, "a moved working set must register as a shift");
        assert_eq!(d.pages, 2);
    }

    #[test]
    fn idle_epochs_decay_uniformly_without_shifting() {
        let mut t = HotnessTracker::new(0.5);
        t.record(1, 100);
        t.record(2, 90);
        assert!(!t.end_epoch().shifted);
        // Decay-only epochs scale every score (and the maximum) by the same
        // factor, so fraction-of-max membership — and the dwell clock — is
        // unchanged until pruning empties the set.
        let d = t.end_epoch();
        assert!(!d.shifted);
        assert_eq!(d.pages, 2);
    }

    #[test]
    fn static_policy_has_no_epochs() {
        let s = TieringSpec::Static;
        assert_eq!(s.epoch_lines(), None);
        assert_eq!(s.label(), "static");
        assert!(s.plan(1, &[], &occupancy(0, 10)).is_empty());
    }

    #[test]
    fn hot_promote_promotes_into_free_room() {
        let p = HotPromote::new(1000, 10.0);
        let samples = vec![
            sample(5, Tier::Pool, 50.0),
            sample(9, Tier::Pool, 20.0),
            sample(1, Tier::Local, 15.0),
            sample(7, Tier::Pool, 5.0), // below threshold
        ];
        let orders = p.plan(&samples, &occupancy(4, 8));
        assert_eq!(
            orders,
            vec![
                MigrationOrder {
                    page: 5,
                    to: Tier::Local
                },
                MigrationOrder {
                    page: 9,
                    to: Tier::Local
                },
            ]
        );
    }

    #[test]
    fn hot_promote_demotes_cold_pages_under_pressure() {
        let p = HotPromote::new(1000, 10.0);
        let samples = vec![
            sample(5, Tier::Pool, 50.0),
            sample(9, Tier::Pool, 20.0),
            sample(1, Tier::Local, 15.0), // warm: must not be demoted
            sample(2, Tier::Local, 1.0),
            sample(3, Tier::Local, 0.0),
        ];
        // Local full: both promotions need demotions; the coldest local pages
        // go first and the warm page is untouchable.
        let orders = p.plan(&samples, &occupancy(3, 3));
        assert_eq!(orders.len(), 4);
        assert_eq!(
            orders[0],
            MigrationOrder {
                page: 3,
                to: Tier::Pool
            }
        );
        assert_eq!(
            orders[1],
            MigrationOrder {
                page: 2,
                to: Tier::Pool
            }
        );
        assert!(orders[2..].iter().all(|o| o.to == Tier::Local));
    }

    #[test]
    fn hot_promote_trims_promotions_without_demotion_candidates() {
        let p = HotPromote {
            demote_heat: 0.5,
            ..HotPromote::new(1000, 10.0)
        };
        let samples = vec![
            sample(5, Tier::Pool, 50.0),
            sample(9, Tier::Pool, 20.0),
            sample(1, Tier::Local, 15.0),
            sample(2, Tier::Local, 8.0), // warmer than demote_heat
        ];
        let orders = p.plan(&samples, &occupancy(2, 3));
        // One free slot, no demotable page: only the hottest promotion runs.
        assert_eq!(
            orders,
            vec![MigrationOrder {
                page: 5,
                to: Tier::Local
            }]
        );
    }

    #[test]
    fn hot_promote_skips_cooling_pages_and_their_demotions() {
        let p = HotPromote::new(1000, 10.0);
        let hot_but_cooling = PageSample {
            cooling: true,
            ..sample(5, Tier::Pool, 50.0)
        };
        let cold_but_cooling = PageSample {
            cooling: true,
            ..sample(3, Tier::Local, 0.0)
        };
        // The only promotion candidate is cooling: no orders at all — in
        // particular no speculative demotion to make room for it.
        let orders = p.plan(
            &[hot_but_cooling, sample(2, Tier::Local, 0.0)],
            &occupancy(1, 1),
        );
        assert!(orders.is_empty());
        // A cooling local page is not a demotion victim either.
        let orders = p.plan(
            &[
                sample(9, Tier::Pool, 20.0),
                cold_but_cooling,
                sample(2, Tier::Local, 1.0),
            ],
            &occupancy(2, 2),
        );
        assert_eq!(
            orders,
            vec![
                MigrationOrder {
                    page: 2,
                    to: Tier::Pool
                },
                MigrationOrder {
                    page: 9,
                    to: Tier::Local
                },
            ]
        );
    }

    #[test]
    fn hot_promote_respects_move_cap() {
        let p = HotPromote {
            max_moves_per_epoch: 1,
            ..HotPromote::new(1000, 10.0)
        };
        let samples = vec![sample(5, Tier::Pool, 50.0), sample(9, Tier::Pool, 20.0)];
        let orders = p.plan(&samples, &occupancy(0, 8));
        assert_eq!(orders.len(), 1);
        assert_eq!(orders[0].page, 5);
    }

    #[test]
    fn periodic_rebalance_swaps_only_profitable_pairs() {
        let p = PeriodicRebalance::new(1000, 2, 8);
        let samples = vec![
            sample(5, Tier::Pool, 50.0),
            sample(9, Tier::Pool, 20.0),
            sample(1, Tier::Local, 30.0),
            sample(2, Tier::Local, 25.0),
        ];
        // Off-period epoch: nothing.
        assert!(p.plan(1, &samples, &occupancy(2, 2)).is_empty());
        // On-period, local full: page 5 (50) swaps with page 2 (25); page 9
        // (20) is not hotter than page 1 (30), so rebalancing stops.
        let orders = p.plan(2, &samples, &occupancy(2, 2));
        assert_eq!(
            orders,
            vec![
                MigrationOrder {
                    page: 2,
                    to: Tier::Pool
                },
                MigrationOrder {
                    page: 5,
                    to: Tier::Local
                },
            ]
        );
    }

    #[test]
    fn periodic_rebalance_uses_free_room_before_swapping() {
        let p = PeriodicRebalance::new(1000, 1, 8);
        let samples = vec![sample(5, Tier::Pool, 50.0), sample(9, Tier::Pool, 20.0)];
        let orders = p.plan(3, &samples, &occupancy(6, 7));
        // One free slot, no local pages at all to swap with afterwards.
        assert_eq!(
            orders,
            vec![MigrationOrder {
                page: 5,
                to: Tier::Local
            }]
        );
    }

    #[test]
    fn damper_suppresses_recent_migrations() {
        let mut rt = TieringRuntime::new(TieringSpec::Static);
        rt.migrated(7, 5);
        assert!(rt.damped(7, 6, 2));
        assert!(!rt.damped(7, 7, 2));
        assert!(!rt.damped(7, 6, 0), "zero cooldown never damps");
        assert!(!rt.damped(8, 6, 2), "never-migrated page is free to move");
    }

    #[test]
    fn spec_builds_matching_policies() {
        let specs = [
            TieringSpec::Static,
            TieringSpec::HotPromote(HotPromote::new(1000, 8.0)),
            TieringSpec::PeriodicRebalance(PeriodicRebalance::new(1000, 4, 64)),
        ];
        let names: Vec<&str> = specs.iter().map(|s| s.label()).collect();
        assert_eq!(names, ["static", "hot-promote", "periodic-rebalance"]);
        for spec in &specs {
            assert_eq!(
                spec.epoch_lines().is_none(),
                matches!(spec, TieringSpec::Static)
            );
        }
    }

    #[test]
    fn occupancy_free_accounting() {
        let occ = occupancy(3, 8);
        assert_eq!(occ.local_free(), 5);
        let over = occupancy(9, 8);
        assert_eq!(over.local_free(), 0);
    }
}
