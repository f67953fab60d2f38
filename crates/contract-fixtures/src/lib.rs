//! Known-bad fixtures for the contracts that clippy states.
//!
//! A `//~` marker at the end of a line names text that a clippy diagnostic on
//! that line must contain; a `//~^` marker names one on the line above. No
//! unmarked line may draw a diagnostic. CI runs
//! `cargo clippy -p dismem-contract-fixtures` and fails unless clippy rejects
//! the crate with exactly the marked diagnostics (see `docs/ARCHITECTURE.md`
//! §5). The crate is a workspace member outside `default-members`, so the
//! workspace's own build, test and clippy runs never compile it. It must
//! still compile under rustc, so it holds no `unsafe`.

use dismem_sim::{AddressSpace, Tier};
use dismem_trace::{AccessKind, FlightRecorder, MemoryEngine, ObjectHandle, TraceEvent};

#[allow(
    clippy::disallowed_types,
    reason = "the container is justified; iterating it is what the fixture shows"
)]
use std::collections::HashMap;

/// `hash-iteration`: a hash container's order escapes through a `for` loop
/// and through a method.
#[allow(
    clippy::disallowed_types,
    reason = "the container is justified; iterating it is what the fixture shows"
)]
pub fn leak_hash_order(heat: &HashMap<u64, f64>, sink: &mut Vec<u64>) -> Vec<u64> {
    for (page, score) in heat {
        //~^ iteration over unordered hash-based type
        if *score > 1.0 {
            sink.push(*page);
        }
    }
    heat.keys().copied().collect() //~ `std::collections::HashMap::keys`
}

/// `wall-clock`: host time outside the bench crate.
pub fn measure() -> u128 {
    let t0 = std::time::Instant::now(); //~ `std::time::Instant::now`
    t0.elapsed().as_nanos()
}

/// `single-recording-point`: DRAM traffic recorded outside `Machine`'s
/// placement sink.
pub fn sneak_traffic(space: &mut AddressSpace) {
    let _tier = space.record_dram(7, 4); //~ AddressSpace::record_dram`
}

/// `audited-rebind`: a page rebind off the migration-apply path, where the
/// move is neither charged as migration traffic nor counted.
pub fn sneak_promotion(space: &mut AddressSpace) {
    let _ = space.rebind_page(7, Tier::Local); //~ AddressSpace::rebind_page`
}

/// `trace-hygiene`: an emission outside the audited points, and one that a
/// justified allow admits.
pub fn leak_events(rec: &mut FlightRecorder, app_lines: u64) {
    let spill = TraceEvent::TierSpill {
        app_lines,
        pages: 1,
    };
    rec.record_event(spill.clone()); //~ `dismem_trace::FlightRecorder::record_event`
    #[allow(
        clippy::disallowed_methods,
        reason = "models an audited emission site: a justified allow suppresses the lint"
    )]
    rec.record_event(spill);
}

/// `bulk-api`: per-element `access` calls in a loop instead of one
/// `gather_batch`.
pub fn per_element(engine: &mut dyn MemoryEngine, a: ObjectHandle) {
    for i in 0..64u64 {
        engine.access(a, i * 8, 8, AccessKind::Read); //~ `dismem_trace::MemoryEngine::access`
    }
}

/// `panic-policy`: panicking calls under the fleet modules' deny attribute.
pub mod campaign_like {
    #![deny(clippy::unwrap_used, clippy::expect_used)]

    /// Panics instead of quarantining; `unwrap_or` is the sanctioned shape.
    pub fn run_cell(value: Option<f64>, text: Result<String, String>) -> f64 {
        let v = value.unwrap(); //~ used `unwrap()` on an `Option` value
        let journal = text.expect("journal must exist"); //~ used `expect()` on a `Result` value
        v + value.unwrap_or(0.0) + journal.len() as f64
    }
}

/// `allow-syntax`: an allow without a reason.
#[allow(dead_code)] //~ `allow` attribute without specifying a reason
fn unused() {}
