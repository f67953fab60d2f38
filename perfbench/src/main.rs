//! Paper-workload benchmark of the dismem workspace.
//!
//! Runs one named workload, checks its outputs, and prints one JSON result
//! line: the end-to-end metrics, or with `--trace 1` the per-layer metrics
//! measured by wrapping calls into the workspace crates in spans. Normally
//! started through `run.py`, which builds this package and adds the
//! process-level metrics; see `README.md` for the metric list.

mod engine;
mod fleet;
mod inputs;
mod metrics;
mod study;
mod trace;

use metrics::Outcome;
use std::path::PathBuf;

/// Everything a workload needs from the command line.
pub struct Ctx {
    pub seed: u64,
    /// Measurement budget, which sets the number of passes
    /// ([`metrics::pass_count`]).
    pub seconds: f64,
    pub trace: bool,
    /// Threads the run may keep busy.
    pub threads: usize,
    /// Repository root, where the committed artifacts live.
    pub root: PathBuf,
    /// Scratch directory for journals, snapshots and the span file.
    pub work_dir: PathBuf,
}

const USAGE: &str = "usage: dismem-perfbench --workload <study-x1|fleet-warm> \
[--seed N] [--seconds S] [--trace 0|1] [--threads N] [--root DIR] [--work-dir DIR] \
| --list-metrics";

fn parse_args() -> Result<(String, Ctx), String> {
    let mut workload = None;
    let mut ctx = Ctx {
        seed: inputs::DEFAULT_SEED,
        seconds: 35.0,
        trace: false,
        threads: 2,
        root: PathBuf::from("."),
        work_dir: PathBuf::from("perfbench/work"),
    };
    let mut args = std::env::args().skip(1);
    while let Some(flag) = args.next() {
        if flag == "--list-metrics" {
            println!("{}", metrics::catalogue_json());
            std::process::exit(0);
        }
        let value = args.next().ok_or(format!("{flag} needs a value"))?;
        let bad = |e: &dyn std::fmt::Display| format!("{flag} {value}: {e}");
        match flag.as_str() {
            "--workload" => workload = Some(value),
            "--seed" => ctx.seed = value.parse().map_err(|e| bad(&e))?,
            "--seconds" => ctx.seconds = value.parse().map_err(|e| bad(&e))?,
            "--trace" => ctx.trace = value != "0",
            "--threads" => ctx.threads = value.parse().map_err(|e| bad(&e))?,
            "--root" => ctx.root = PathBuf::from(value),
            "--work-dir" => ctx.work_dir = PathBuf::from(value),
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    if ctx.threads == 0 {
        return Err("--threads must be at least 1".into());
    }
    Ok((workload.ok_or("--workload is required")?, ctx))
}

fn main() {
    trace::now_s();
    let (workload, ctx) = parse_args().unwrap_or_else(|e| {
        eprintln!("{e}\n{USAGE}");
        std::process::exit(2);
    });
    // The vendored rayon reads this once, at its first parallel call. The
    // study runs its own workers and keeps rayon serial; the fleet leaves
    // parallelism to the library, as its examples do.
    let rayon_threads = if workload == "study-x1" {
        1
    } else {
        ctx.threads
    };
    std::env::set_var("RAYON_NUM_THREADS", rayon_threads.to_string());
    if let Err(e) = std::fs::create_dir_all(&ctx.work_dir) {
        eprintln!("cannot create {}: {e}", ctx.work_dir.display());
        std::process::exit(2);
    }

    let outcome: Outcome = match workload.as_str() {
        "study-x1" => study::run(&ctx),
        "fleet-warm" => fleet::run(&ctx),
        other => {
            eprintln!("unknown workload {other}\n{USAGE}");
            std::process::exit(2);
        }
    };

    if ctx.trace {
        let path = ctx
            .work_dir
            .join(format!("spans-{workload}-seed{}.json", ctx.seed));
        match trace::write_span_file(&path, &trace::spans()) {
            Ok(()) => eprintln!("spans written to {}", path.display()),
            Err(e) => eprintln!("could not write {}: {e}", path.display()),
        }
    }
    outcome.print(&workload, ctx.trace);
    if !outcome.correct() {
        std::process::exit(1);
    }
}
