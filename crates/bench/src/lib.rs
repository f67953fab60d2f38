//! # dismem-bench
//!
//! Shared infrastructure for the experiment harnesses in `benches/`, each a
//! `harness = false` bench target: `paper` regenerates every table and
//! figure of the paper in one pass and prints paper-vs-measured rows, and
//! `throughput` measures the simulator itself.
//!
//! Environment variables:
//!
//! * `DISMEM_QUICK=1` — run the experiments on tiny inputs (seconds instead of
//!   minutes); useful for smoke-testing the harnesses.
//! * `DISMEM_RESULTS_DIR` — where to write the JSON copies of the results
//!   (defaults to `dismem-results` in the cargo target directory; see
//!   [`results_dir`]).
//! * `DISMEM_BASELINE` — the committed `BENCH_throughput.json` the
//!   throughput bench gates against; a relative path is resolved by
//!   [`invocation_path`], as `DISMEM_RESULTS_DIR` is.

#![forbid(unsafe_code)]

pub mod harness;
pub mod paper;

pub use harness::{
    base_config, invocation_path, is_quick, print_table, remeasure, results_dir, workload,
    write_json, Row,
};
