//! The rule scanner: a block/loop-aware pass over the token stream of one
//! file, applying whichever rule families the file's location opts it into.
//!
//! Rules (see `docs/ARCHITECTURE.md`, "Mechanically enforced contracts"):
//!
//! * `bulk-api` — per-element `.access(` calls inside loop bodies in
//!   `crates/workloads` / `crates/lbench` (workloads must use the bulk
//!   access API so the batched and replay fast paths engage).
//! * `single-recording-point` — `record_dram_traffic` / `dram_access` calls,
//!   or direct mutation of `Counters` traffic fields, outside the sanctioned
//!   recording modules (all DRAM traffic flows through one recording point).
//! * `hash-iteration` — iteration over `HashMap` / `HashSet` in
//!   report-affecting crates without an adjacent total-order sort or an
//!   order-insensitive aggregation (`RunReport`s must be bit-identical).
//! * `wall-clock` — `std::time::{Instant, SystemTime}` outside the bench
//!   crate (report-affecting paths must not observe host time).
//! * `unseeded-random` — ambient randomness (`thread_rng`, `from_entropy`,
//!   `rand::random`) anywhere in first-party code.
//! * `unsafe-audit` — every first-party crate root carries
//!   `#![forbid(unsafe_code)]`, no first-party `unsafe`, and vendored
//!   `unsafe` blocks carry a `// SAFETY:` comment.
//! * `replay-reset` — `rebind_page` (the `AddressSpace` placement
//!   mutator) called outside the audited migration path; replayed DRAM
//!   events land on pages, so every applied rebind must pair with
//!   `CacheSim::replay_hard_reset`, which only the audited path guarantees.
//! * `panic-policy` — `.unwrap()` / `.expect()` outside `#[cfg(test)]` in
//!   the fleet-campaign modules (`crates/sched/src/{campaign,journal,fault}.rs`):
//!   the retry/quarantine path must propagate errors, not panic, or a single
//!   bad cell aborts the whole campaign.
//! * `trace-hygiene` — flight-recorder emission (`record_event`, `emit`)
//!   outside the sanctioned emission points (`crates/sim/src/{machine,tiering,
//!   replay}.rs`, `crates/sched/src/{campaign,journal}.rs`): events are part
//!   of the observability contract, so each one must come from an audited
//!   site stamped with a simulated clock, not from arbitrary code.
//! * `allow-syntax` — a `dismem-lint: allow(...)` directive without a
//!   justification; an allow with no reason suppresses nothing.
//!
//! Findings are suppressed by an inline directive on the same line, or on a
//! comment-only line directly above the flagged line:
//!
//! ```text
//! // dismem-lint: allow(<rule>[, <rule>...]) — <non-empty reason>
//! ```

use crate::lexer::{lex, Tok, TokKind};
use crate::report::Finding;
use std::collections::{BTreeMap, BTreeSet};

/// Where a file sits in the workspace, which decides the rules that apply.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct FileClass {
    /// Path relative to the workspace root, `/`-separated.
    pub rel: String,
    /// Crate the file belongs to (`"facade"` for the root package).
    pub crate_name: String,
    /// True for files under `vendor/`.
    pub is_vendor: bool,
    /// True for files under a `tests/` directory.
    pub in_tests: bool,
    /// True for files under a `benches/` directory.
    pub in_benches: bool,
    /// True for files under an `examples/` directory.
    pub in_examples: bool,
    /// True if this is a crate root (`src/lib.rs` / `src/main.rs`).
    pub is_crate_root: bool,
}

/// Classifies a workspace-relative path (`/`-separated).
pub fn classify(rel: &str) -> FileClass {
    let is_vendor = rel.starts_with("vendor/");
    let crate_name = if is_vendor {
        rel.split('/').nth(1).unwrap_or("vendor").to_string()
    } else if let Some(rest) = rel.strip_prefix("crates/") {
        rest.split('/').next().unwrap_or("unknown").to_string()
    } else {
        "facade".to_string()
    };
    FileClass {
        rel: rel.to_string(),
        crate_name,
        is_vendor,
        in_tests: rel.contains("/tests/") || rel.starts_with("tests/"),
        in_benches: rel.contains("/benches/") || rel.starts_with("benches/"),
        in_examples: rel.contains("/examples/") || rel.starts_with("examples/"),
        is_crate_root: !is_vendor
            && (rel == "src/lib.rs"
                || (rel.starts_with("crates/")
                    && (rel.ends_with("/src/lib.rs") || rel.ends_with("/src/main.rs")))),
    }
}

/// Modules allowed to call `record_dram_traffic` / `dram_access`: the single
/// recording point itself and the cache that produces the events.
const RECORDING_SANCTIONED: &[&str] = &[
    "crates/sim/src/address_space.rs",
    "crates/sim/src/cache.rs",
    "crates/sim/src/counters.rs",
];

/// Modules allowed to mutate `Counters` traffic fields directly: the
/// recording core plus `machine.rs`, which owns the open chunk both
/// pipelines fold their tallies into.
const COUNTER_MUTATION_SANCTIONED: &[&str] = &[
    "crates/sim/src/address_space.rs",
    "crates/sim/src/cache.rs",
    "crates/sim/src/counters.rs",
    "crates/sim/src/machine.rs",
];

/// `Counters` fields whose names are distinctive enough to detect mutation
/// through any receiver (`flops` is deliberately absent: the name is shared
/// with unrelated structs).
const COUNTER_FIELDS: &[&str] = &[
    "demand_read_lines",
    "demand_write_lines",
    "l2_demand_misses",
    "l2_lines_in",
    "pf_issued",
    "pf_useful",
    "useless_hwpf",
    "dram_lines_local",
    "dram_lines_pool",
    "demand_dram_lines_local",
    "demand_dram_lines_pool",
    "writeback_lines_local",
    "writeback_lines_pool",
    "link_raw_bytes",
    "migration_lines_local",
    "migration_lines_pool",
];

/// The replay-reset audit list: modules allowed to call `rebind_page` (the
/// `AddressSpace` placement mutator). The binding structure defines it, and
/// `machine.rs`'s migration-apply path is the single caller that pairs every
/// applied rebind with `CacheSim::replay_hard_reset` — a rebind anywhere
/// else would leave engaged replay state pointing at the wrong tier.
const REPLAY_RESET_SANCTIONED: &[&str] = &[
    "crates/sim/src/address_space.rs",
    "crates/sim/src/machine.rs",
];

/// The trace-hygiene audit list: modules allowed to emit flight-recorder
/// events. These are the sites `docs/ARCHITECTURE.md` §7 documents — chunk
/// close / migration apply / replay transitions in the simulator, and the
/// cell lifecycle / journal rejections in the fleet campaign. The `trace`
/// crate itself (where `Recorder` lives) is exempted by crate name instead.
const TRACE_EMISSION_SANCTIONED: &[&str] = &[
    "crates/sim/src/machine.rs",
    "crates/sim/src/tiering.rs",
    "crates/sim/src/replay.rs",
    "crates/sched/src/campaign.rs",
    "crates/sched/src/journal.rs",
];

/// Methods that iterate a hash container in arbitrary order.
const HASH_ITER_METHODS: &[&str] = &[
    "iter",
    "iter_mut",
    "keys",
    "values",
    "values_mut",
    "into_iter",
    "drain",
];

/// Method calls that make an unordered iteration harmless when they appear
/// in the same or the following statement: total-order sorts, or
/// order-insensitive integer aggregations. Only the method-call form
/// (`.name(`) counts — a bare identifier such as a local named `max` does
/// not sanitize anything.
const SANITIZER_METHODS: &[&str] = &[
    "sort",
    "sort_by",
    "sort_by_key",
    "sort_by_cached_key",
    "sort_unstable",
    "sort_unstable_by",
    "sort_unstable_by_key",
    "count",
    "len",
    "sum",
    "min",
    "max",
    "contains",
    "contains_key",
    "all",
    "any",
    "is_empty",
];

/// Collecting into an ordered container also sanitizes.
const SANITIZER_TYPES: &[&str] = &["BTreeMap", "BTreeSet", "BinaryHeap"];

const ASSIGN_OPS: &[&str] = &[
    "=", "+=", "-=", "*=", "/=", "%=", "&=", "|=", "^=", "<<=", ">>=",
];

/// Crates whose code feeds `RunReport`s and therefore must not iterate hash
/// containers in arbitrary order.
const REPORT_AFFECTING_CRATES: &[&str] = &["sim", "sched", "core", "trace"];

/// Files on the fleet campaign's quarantine path. A panic here aborts the
/// whole campaign instead of quarantining one cell, so `.unwrap()` /
/// `.expect()` outside `#[cfg(test)]` are findings: errors must propagate as
/// `Result`s into the retry/quarantine machinery.
const PANIC_POLICY_PATHS: &[&str] = &[
    "crates/sched/src/campaign.rs",
    "crates/sched/src/fault.rs",
    "crates/sched/src/journal.rs",
];

/// Crates that express memory behaviour through [`MemoryEngine`] and must
/// use the bulk access API.
const BULK_API_CRATES: &[&str] = &["workloads", "lbench"];

/// One parsed `dismem-lint: allow(...)` directive.
struct AllowDirective {
    line: u32,
    rules: Vec<String>,
    has_reason: bool,
}

/// Scans one file's source, applying the rules selected by `class`.
pub fn scan_source(class: &FileClass, src: &str) -> Vec<Finding> {
    let lexed = lex(src);
    let mut findings = Vec::new();

    // ------------------------------------------------------------------
    // Allow directives and the comment/code line maps.
    // ------------------------------------------------------------------
    let mut directives: Vec<AllowDirective> = Vec::new();
    for c in &lexed.comments {
        if let Some(d) = parse_allow(c.line, &c.text) {
            if !d.has_reason {
                findings.push(Finding::new(
                    "allow-syntax",
                    &class.rel,
                    d.line,
                    "allow directive without a justification; write \
                     `// dismem-lint: allow(<rule>) — <reason>`",
                ));
            }
            directives.push(d);
        }
    }
    let code_lines: BTreeSet<u32> = lexed.toks.iter().map(|t| t.line).collect();
    // A directive on a comment-only line covers the next line bearing code;
    // a directive sharing a line with code covers that line.
    let mut allowed: BTreeMap<u32, Vec<&str>> = BTreeMap::new();
    for d in &directives {
        if !d.has_reason {
            continue;
        }
        let target = if code_lines.contains(&d.line) {
            Some(d.line)
        } else {
            code_lines.range(d.line + 1..).next().copied()
        };
        if let Some(t) = target {
            allowed
                .entry(t)
                .or_default()
                .extend(d.rules.iter().map(String::as_str));
        }
    }
    let is_allowed = |rule: &str, line: u32| -> bool {
        allowed
            .get(&line)
            .is_some_and(|rules| rules.contains(&rule))
    };

    // ------------------------------------------------------------------
    // Rule applicability for this file.
    // ------------------------------------------------------------------
    let first_party = !class.is_vendor;
    let apply_bulk_api = first_party
        && BULK_API_CRATES.contains(&class.crate_name.as_str())
        && !class.in_tests
        && !class.in_benches;
    let apply_recording_calls = first_party && !RECORDING_SANCTIONED.contains(&class.rel.as_str());
    let apply_counter_mutation = first_party
        && !COUNTER_MUTATION_SANCTIONED.contains(&class.rel.as_str())
        && !class.in_tests
        && !class.in_benches;
    let apply_hash_iteration = first_party
        && REPORT_AFFECTING_CRATES.contains(&class.crate_name.as_str())
        && !class.in_tests
        && !class.in_benches;
    let apply_wall_clock = first_party && class.crate_name != "bench";
    let apply_replay_reset = first_party
        && !REPLAY_RESET_SANCTIONED.contains(&class.rel.as_str())
        && !class.in_tests
        && !class.in_benches;
    let apply_unseeded_random = first_party;
    let apply_panic_policy = first_party && PANIC_POLICY_PATHS.contains(&class.rel.as_str());
    let apply_trace_hygiene = first_party
        && class.crate_name != "trace"
        && !TRACE_EMISSION_SANCTIONED.contains(&class.rel.as_str())
        && !class.in_tests
        && !class.in_benches;

    // Crate roots must forbid unsafe code (checked on raw text so the exact
    // attribute form is enforced).
    if class.is_crate_root && !src.contains("#![forbid(unsafe_code)]") {
        findings.push(Finding::new(
            "unsafe-audit",
            &class.rel,
            1,
            "crate root is missing `#![forbid(unsafe_code)]`",
        ));
    }

    // ------------------------------------------------------------------
    // Hash-typed variable discovery (two shapes): `name: HashMap<...>`
    // declarations (struct fields, params, typed lets) and
    // `let [mut] name = HashMap::new()`-style bindings.
    // ------------------------------------------------------------------
    let toks = &lexed.toks;
    let mut hash_vars: BTreeSet<String> = BTreeSet::new();
    for i in 0..toks.len() {
        if !(toks[i].kind == TokKind::Ident
            && (toks[i].text == "HashMap" || toks[i].text == "HashSet"))
        {
            continue;
        }
        // `name : HashMap`
        if i >= 2 && toks[i - 1].is_punct(":") && toks[i - 2].kind == TokKind::Ident {
            hash_vars.insert(toks[i - 2].text.clone());
        }
        // `let [mut] name ... = HashMap :: ctor`
        if i + 2 < toks.len()
            && toks[i + 1].is_punct("::")
            && toks[i + 2].kind == TokKind::Ident
            && matches!(
                toks[i + 2].text.as_str(),
                "new" | "default" | "with_capacity" | "from" | "from_iter"
            )
        {
            // Walk back to the `let` of the current statement, if any.
            for j in (i.saturating_sub(16)..i).rev() {
                if toks[j].is_punct(";") || toks[j].is_punct("{") || toks[j].is_punct("}") {
                    break;
                }
                if toks[j].is_ident("let") {
                    let name = if toks[j + 1].is_ident("mut") {
                        &toks[j + 2]
                    } else {
                        &toks[j + 1]
                    };
                    if name.kind == TokKind::Ident {
                        hash_vars.insert(name.text.clone());
                    }
                    break;
                }
            }
        }
    }

    // ------------------------------------------------------------------
    // Main block/loop-aware pass.
    // ------------------------------------------------------------------
    struct Frame {
        is_loop: bool,
        is_test: bool,
    }
    let mut stack: Vec<Frame> = Vec::new();
    let mut pending_loop = false;
    let mut pending_test = false;
    // Lines already reported per rule, to deduplicate overlapping detectors.
    let mut seen: BTreeSet<(u32, &'static str)> = BTreeSet::new();
    let push = |findings: &mut Vec<Finding>,
                seen: &mut BTreeSet<(u32, &'static str)>,
                rule: &'static str,
                line: u32,
                msg: String| {
        if !is_allowed(rule, line) && seen.insert((line, rule)) {
            findings.push(Finding::new(rule, &class.rel, line, &msg));
        }
    };

    let mut i = 0usize;
    while i < toks.len() {
        let t = &toks[i];
        let in_loop = stack.iter().any(|f| f.is_loop);
        let in_test = class.in_tests || stack.iter().any(|f| f.is_test);

        // Block tracking.
        if t.is_punct("{") {
            stack.push(Frame {
                is_loop: pending_loop,
                is_test: pending_test,
            });
            pending_loop = false;
            pending_test = false;
            i += 1;
            continue;
        }
        if t.is_punct("}") {
            stack.pop();
            i += 1;
            continue;
        }

        // `#[cfg(test)] ... mod name {` marks a test module.
        if t.is_punct("#")
            && matches_seq(toks, i + 1, &["[", "cfg", "(", "test", ")", "]"])
            && toks[i + 7..].iter().take(8).any(|x| x.is_ident("mod"))
        {
            pending_test = true;
        }

        // Loop headers. `for` only counts in statement position so that
        // `impl Trait for Type` is not mistaken for a loop.
        if t.kind == TokKind::Ident {
            match t.text.as_str() {
                "loop" | "while" => pending_loop = true,
                "for" if for_is_loop(toks, i) => {
                    pending_loop = true;
                    // Rule: iterating a hash container with `for x in &map`.
                    if apply_hash_iteration && !in_test {
                        if let Some(line) = for_header_hash_var(toks, i, &hash_vars) {
                            push(
                                &mut findings,
                                &mut seen,
                                "hash-iteration",
                                line,
                                "for-loop over a HashMap/HashSet iterates in arbitrary \
                                 order on a report-affecting path; iterate a sorted \
                                 snapshot instead (or annotate why order cannot matter)"
                                    .to_string(),
                            );
                        }
                    }
                }
                _ => {}
            }
        }

        // Rule: bulk-api — `.access(` inside a loop body.
        if apply_bulk_api
            && !in_test
            && t.is_punct(".")
            && i + 2 < toks.len()
            && toks[i + 1].is_ident("access")
            && toks[i + 2].is_punct("(")
            && in_loop
        {
            push(
                &mut findings,
                &mut seen,
                "bulk-api",
                toks[i + 1].line,
                "per-element `access` call inside a loop; route the whole run \
                 through `access_range`/`gather_batch`/`strided_batch` so the \
                 batched and replay fast paths engage"
                    .to_string(),
            );
        }

        // Rule: single-recording-point — recording calls outside the core.
        if apply_recording_calls
            && t.kind == TokKind::Ident
            && (t.text == "record_dram_traffic" || t.text == "dram_access")
            && i + 1 < toks.len()
            && toks[i + 1].is_punct("(")
            && !(i > 0 && toks[i - 1].is_ident("fn"))
        {
            push(
                &mut findings,
                &mut seen,
                "single-recording-point",
                t.line,
                format!(
                    "`{}` called outside the sanctioned recording modules; all \
                     DRAM traffic must flow through the single recording point \
                     both pipelines share",
                    t.text
                ),
            );
        }

        // Rule: replay-reset — placement mutation outside the audit list.
        if apply_replay_reset
            && t.kind == TokKind::Ident
            && t.text == "rebind_page"
            && i + 1 < toks.len()
            && toks[i + 1].is_punct("(")
            && !(i > 0 && toks[i - 1].is_ident("fn"))
        {
            push(
                &mut findings,
                &mut seen,
                "replay-reset",
                t.line,
                "`rebind_page` called outside the replay-reset audit list; \
                 rebinding a page invalidates engaged replay state, so \
                 placement may only change on the audited migration path \
                 that hard-resets the replay engine"
                    .to_string(),
            );
        }

        // Rule: trace-hygiene — recorder emission outside the audit list.
        if apply_trace_hygiene
            && !in_test
            && t.kind == TokKind::Ident
            && (t.text == "record_event" || t.text == "emit")
            && i + 1 < toks.len()
            && toks[i + 1].is_punct("(")
            && !(i > 0 && toks[i - 1].is_ident("fn"))
        {
            push(
                &mut findings,
                &mut seen,
                "trace-hygiene",
                t.line,
                format!(
                    "`{}` called outside the sanctioned trace emission points; \
                     flight-recorder events may only be emitted at the audited \
                     chunk-close, migration, replay-transition and campaign \
                     work-queue sites",
                    t.text
                ),
            );
        }

        // Rule: single-recording-point — direct Counters field mutation.
        if apply_counter_mutation
            && !in_test
            && t.is_punct(".")
            && i + 2 < toks.len()
            && toks[i + 1].kind == TokKind::Ident
            && COUNTER_FIELDS.contains(&toks[i + 1].text.as_str())
            && toks[i + 2].kind == TokKind::Punct
            && ASSIGN_OPS.contains(&toks[i + 2].text.as_str())
        {
            push(
                &mut findings,
                &mut seen,
                "single-recording-point",
                toks[i + 1].line,
                format!(
                    "direct mutation of `Counters::{}` outside the recording \
                     core; counters may only accumulate through the shared \
                     recording path",
                    toks[i + 1].text
                ),
            );
        }

        // Rule: hash-iteration — method-call form.
        if apply_hash_iteration
            && !in_test
            && t.kind == TokKind::Ident
            && hash_vars.contains(&t.text)
            && !(i >= 2 && toks[i - 1].is_punct(".") && !toks[i - 2].is_ident("self"))
            && i + 3 < toks.len()
            && toks[i + 1].is_punct(".")
            && toks[i + 2].kind == TokKind::Ident
            && HASH_ITER_METHODS.contains(&toks[i + 2].text.as_str())
            && toks[i + 3].is_punct("(")
            && !iteration_is_sanitized(toks, i + 2)
        {
            push(
                &mut findings,
                &mut seen,
                "hash-iteration",
                t.line,
                format!(
                    "`{}.{}()` iterates a hash container in arbitrary order on a \
                     report-affecting path with no adjacent total-order sort or \
                     order-insensitive aggregation",
                    t.text,
                    toks[i + 2].text
                ),
            );
        }

        // Rule: panic-policy — unwrap/expect on the campaign quarantine path.
        if apply_panic_policy
            && !in_test
            && t.is_punct(".")
            && i + 2 < toks.len()
            && toks[i + 1].kind == TokKind::Ident
            && (toks[i + 1].text == "unwrap" || toks[i + 1].text == "expect")
            && toks[i + 2].is_punct("(")
        {
            push(
                &mut findings,
                &mut seen,
                "panic-policy",
                toks[i + 1].line,
                format!(
                    "`.{}()` on the fleet-campaign quarantine path; a panic \
                     here aborts the whole campaign — propagate the error so \
                     the cell is retried and quarantined instead",
                    toks[i + 1].text
                ),
            );
        }

        // Rule: wall-clock.
        if apply_wall_clock
            && !in_test
            && t.kind == TokKind::Ident
            && (t.text == "Instant" || t.text == "SystemTime")
        {
            push(
                &mut findings,
                &mut seen,
                "wall-clock",
                t.line,
                format!(
                    "`{}` observed outside the bench crate; report-affecting \
                     paths must be deterministic",
                    t.text
                ),
            );
        }

        // Rule: unseeded-random.
        if apply_unseeded_random
            && t.kind == TokKind::Ident
            && (t.text == "thread_rng"
                || t.text == "from_entropy"
                || (t.text == "random"
                    && i >= 2
                    && toks[i - 1].is_punct("::")
                    && toks[i - 2].is_ident("rand")))
        {
            push(
                &mut findings,
                &mut seen,
                "unseeded-random",
                t.line,
                "ambient randomness; every RNG on a report-affecting path must \
                 be seeded explicitly"
                    .to_string(),
            );
        }

        // Rule: unsafe-audit.
        if t.is_ident("unsafe") {
            if class.is_vendor {
                if !safety_comment_nearby(&lexed.comments, t.line) {
                    push(
                        &mut findings,
                        &mut seen,
                        "unsafe-audit",
                        t.line,
                        "vendored `unsafe` without a `// SAFETY:` comment within \
                         the preceding five lines"
                            .to_string(),
                    );
                }
            } else {
                push(
                    &mut findings,
                    &mut seen,
                    "unsafe-audit",
                    t.line,
                    "`unsafe` in first-party code; the workspace forbids unsafe \
                     code outside vendor/"
                        .to_string(),
                );
            }
        }

        i += 1;
    }

    findings
}

/// True if `toks[start..]` begins with exactly the given punct/ident texts.
fn matches_seq(toks: &[Tok], start: usize, texts: &[&str]) -> bool {
    texts
        .iter()
        .enumerate()
        .all(|(k, s)| toks.get(start + k).is_some_and(|t| t.text == *s))
}

/// Heuristic: a `for` keyword starts a loop when it appears in statement
/// position (after `{`, `}`, `;`, `=>`, `else`, a loop label, or at the very
/// start), as opposed to `impl Trait for Type`.
fn for_is_loop(toks: &[Tok], i: usize) -> bool {
    if i == 0 {
        return true;
    }
    let prev = &toks[i - 1];
    if prev.is_punct("{") || prev.is_punct("}") || prev.is_punct(";") || prev.is_punct("=>") {
        return true;
    }
    if prev.is_ident("else") {
        return true;
    }
    // Labelled loop: `'outer: for ...`.
    prev.is_punct(":") && i >= 2 && toks[i - 2].kind == TokKind::Lifetime
}

/// For a `for` at `toks[i]`, returns the line of a hash-typed variable used
/// in the loop header's iterator expression (between `in` and the body `{`).
fn for_header_hash_var(toks: &[Tok], i: usize, hash_vars: &BTreeSet<String>) -> Option<u32> {
    let mut j = i + 1;
    // Find the `in` of this header (bounded: headers are short).
    while j < toks.len() && j < i + 40 && !toks[j].is_ident("in") {
        if toks[j].is_punct("{") || toks[j].is_punct(";") {
            return None;
        }
        j += 1;
    }
    if j >= toks.len() || !toks[j].is_ident("in") {
        return None;
    }
    // Scan the iterator expression for a known hash variable that is not
    // immediately iterated through a method (the method form is detected —
    // and sanitizer-checked — separately).
    for k in j + 1..toks.len().min(j + 40) {
        if toks[k].is_punct("{") || toks[k].is_punct(";") {
            return None;
        }
        if toks[k].kind == TokKind::Ident && hash_vars.contains(&toks[k].text) {
            // `x.name` is a field access on some other struct unless the
            // receiver is `self`; a shared field name must not implicate it.
            let field_of_other =
                k >= 2 && toks[k - 1].is_punct(".") && !toks[k - 2].is_ident("self");
            // `var.method(...)` is handled (and sanitizer-checked) by the
            // method-call detector.
            let called = toks.get(k + 1).is_some_and(|t| t.is_punct("."));
            if !field_of_other && !called {
                return Some(toks[k].line);
            }
        }
    }
    None
}

/// Looks ahead from an iteration method at `toks[m]` for a sanitizer: a
/// sorting or order-insensitive aggregation method call, or a collect into
/// an ordered container, within the same or the following statement.
fn iteration_is_sanitized(toks: &[Tok], m: usize) -> bool {
    let mut semis = 0;
    for k in m..toks.len().min(m + 90) {
        if toks[k].is_punct(";") {
            semis += 1;
            if semis >= 2 {
                return false;
            }
            continue;
        }
        if toks[k].kind == TokKind::Ident && SANITIZER_TYPES.contains(&toks[k].text.as_str()) {
            return true;
        }
        if toks[k].kind == TokKind::Ident
            && SANITIZER_METHODS.contains(&toks[k].text.as_str())
            && k > 0
            && toks[k - 1].is_punct(".")
            && toks
                .get(k + 1)
                .is_some_and(|t| t.is_punct("(") || t.is_punct("::"))
        {
            return true;
        }
    }
    false
}

/// True if a comment containing `SAFETY:` sits on `line` or within the five
/// lines above it.
fn safety_comment_nearby(comments: &[crate::lexer::Comment], line: u32) -> bool {
    comments
        .iter()
        .any(|c| c.text.contains("SAFETY:") && c.line <= line && line - c.line <= 5)
}

/// Parses a `dismem-lint: allow(rule, ...) — reason` directive out of one
/// comment, if present.
fn parse_allow(line: u32, text: &str) -> Option<AllowDirective> {
    let idx = text.find("dismem-lint:")?;
    let rest = &text[idx + "dismem-lint:".len()..];
    let rest = rest.trim_start();
    let rest = rest.strip_prefix("allow")?.trim_start();
    let rest = rest.strip_prefix('(')?;
    let close = rest.find(')')?;
    let rules: Vec<String> = rest[..close]
        .split(',')
        .map(|r| r.trim().to_string())
        .filter(|r| !r.is_empty())
        .collect();
    if rules.is_empty() {
        return None;
    }
    // Whatever follows the closing parenthesis, minus separator punctuation,
    // is the justification; it must not be empty.
    let reason: String = rest[close + 1..]
        .trim_start_matches(|c: char| c.is_whitespace() || c == '—' || c == '-' || c == ':')
        .trim()
        .to_string();
    Some(AllowDirective {
        line,
        rules,
        has_reason: !reason.is_empty(),
    })
}

/// All rule names the scanner can emit, for `--list-rules` and docs.
pub const RULES: &[&str] = &[
    "bulk-api",
    "single-recording-point",
    "replay-reset",
    "hash-iteration",
    "wall-clock",
    "unseeded-random",
    "unsafe-audit",
    "panic-policy",
    "trace-hygiene",
    "allow-syntax",
];
