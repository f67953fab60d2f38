//! Experiment-harness utilities: profiles, configuration, table printing and
//! JSON result output.

use dismem_sim::MachineConfig;
use dismem_workloads::{InputScale, Workload, WorkloadKind};
use serde::Serialize;
use std::fs;
use std::path::{Path, PathBuf};

/// Whether the quick (smoke-test) profile is active (`DISMEM_QUICK=1`).
pub fn is_quick() -> bool {
    std::env::var("DISMEM_QUICK").map(|v| v == "1" || v.eq_ignore_ascii_case("true")) == Ok(true)
}

/// The machine configuration used for all experiments: the paper's testbed
/// figures with caches scaled to the proxy workloads' footprints.
pub fn base_config() -> MachineConfig {
    MachineConfig::scaled_testbed()
}

/// Instantiates a workload for an experiment, honouring the quick profile.
pub fn workload(kind: WorkloadKind, scale: InputScale) -> Box<dyn Workload> {
    if is_quick() {
        kind.instantiate_tiny()
    } else {
        kind.instantiate(scale)
    }
}

/// Directory where JSON result copies are written; [`write_json`] creates
/// it.
///
/// Anchored at the cargo target directory rather than the process working
/// directory: `cargo bench` runs bench binaries with the crate directory as
/// cwd, which would otherwise scatter `crates/bench/target/`. Resolution
/// order:
///
/// 1. `DISMEM_RESULTS_DIR` — explicit override, used verbatim;
/// 2. `CARGO_TARGET_DIR` — honored at runtime, so redirected target
///    directories receive the results;
/// 3. the target directory the running executable was built into, read
///    from its path at run time, so a binary writes into its own checkout;
/// 4. `target/` under the current directory.
pub fn results_dir() -> PathBuf {
    if let Ok(dir) = std::env::var("DISMEM_RESULTS_DIR") {
        PathBuf::from(dir)
    } else if let Ok(target) = std::env::var("CARGO_TARGET_DIR") {
        PathBuf::from(target).join("dismem-results")
    } else {
        std::env::current_exe()
            .ok()
            .and_then(|exe| target_dir_of(&exe))
            .unwrap_or_else(|| PathBuf::from("target"))
            .join("dismem-results")
    }
}

/// The cargo target directory an executable at `exe` was built into.
///
/// Cargo puts test, bench and example executables in
/// `<target>/<profile>/{deps,examples}/` and binaries in
/// `<target>/<profile>/`, where `<profile>` is `debug` or `release`.
/// Returns `None` when `exe` fits neither layout.
fn target_dir_of(exe: &Path) -> Option<PathBuf> {
    let mut dir = exe.parent()?;
    if matches!(dir.file_name()?.to_str()?, "deps" | "examples") {
        dir = dir.parent()?;
    }
    match dir.file_name()?.to_str()? {
        "debug" | "release" => dir.parent().map(Path::to_path_buf),
        _ => None,
    }
}

/// Writes a serializable result next to the printed table, as
/// `<name>.json` in [`results_dir`].
///
/// A result that cannot be written ends the process with a non-zero exit
/// code, so a harness never passes while leaving an older file in place.
pub fn write_json<T: Serialize>(name: &str, value: &T) {
    match write_json_in(&results_dir(), name, value) {
        Ok(path) => println!("  [results written to {}]", path.display()),
        Err(e) => {
            eprintln!("error: {e}");
            std::process::exit(1);
        }
    }
}

/// Writes `<name>.json` into `dir`, creating `dir` first; returns the path
/// written, or an error naming the path that failed.
fn write_json_in<T: Serialize>(dir: &Path, name: &str, value: &T) -> Result<PathBuf, String> {
    let json = serde_json::to_string_pretty(value)
        .map_err(|e| format!("could not serialize {name}: {e}"))?;
    fs::create_dir_all(dir).map_err(|e| format!("could not create {}: {e}", dir.display()))?;
    let path = dir.join(format!("{name}.json"));
    fs::write(&path, json).map_err(|e| format!("could not write {}: {e}", path.display()))?;
    Ok(path)
}

/// A row of a printed table: a label plus formatted cells.
#[derive(Debug, Clone)]
pub struct Row {
    /// Row label.
    pub label: String,
    /// Cell values, already formatted.
    pub cells: Vec<String>,
}

impl Row {
    /// Creates a row.
    pub fn new(label: impl Into<String>, cells: Vec<String>) -> Self {
        Self {
            label: label.into(),
            cells,
        }
    }
}

/// Prints a titled, column-aligned table with a header row.
pub fn print_table(title: &str, columns: &[&str], rows: &[Row]) {
    println!();
    println!("=== {title} ===");
    let mut widths: Vec<usize> = columns.iter().map(|c| c.len()).collect();
    let mut label_width = 0usize;
    for row in rows {
        label_width = label_width.max(row.label.len());
        for (i, cell) in row.cells.iter().enumerate() {
            if i < widths.len() {
                widths[i] = widths[i].max(cell.len());
            }
        }
    }
    let header: Vec<String> = columns
        .iter()
        .enumerate()
        .map(|(i, c)| format!("{:>width$}", c, width = widths[i]))
        .collect();
    println!("{:<label_width$}  {}", "", header.join("  "));
    for row in rows {
        let cells: Vec<String> = row
            .cells
            .iter()
            .enumerate()
            .map(|(i, c)| format!("{:>width$}", c, width = widths.get(i).copied().unwrap_or(8)))
            .collect();
        println!("{:<label_width$}  {}", row.label, cells.join("  "));
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::Mutex;

    // Environment variables are process-global and the test harness runs
    // tests concurrently; every test that mutates the environment must hold
    // this lock (concurrent setenv/getenv is a data race on glibc).
    static ENV_LOCK: Mutex<()> = Mutex::new(());

    #[test]
    fn quick_profile_detection_and_workload_instantiation() {
        let _env = ENV_LOCK.lock().unwrap();
        // Not set in the test environment by default.
        std::env::remove_var("DISMEM_QUICK");
        assert!(!is_quick());
        std::env::set_var("DISMEM_QUICK", "1");
        assert!(is_quick());
        let quick = workload(WorkloadKind::Hypre, InputScale::X4);
        std::env::remove_var("DISMEM_QUICK");
        let full = workload(WorkloadKind::Hypre, InputScale::X4);
        assert!(quick.expected_footprint_bytes() < full.expected_footprint_bytes());
    }

    #[test]
    fn table_printing_does_not_panic() {
        print_table(
            "demo",
            &["a", "b"],
            &[
                Row::new("row1", vec!["1".into(), "2".into()]),
                Row::new("longer-row", vec!["3".into()]),
            ],
        );
    }

    #[test]
    fn results_dir_resolution_order() {
        let _env = ENV_LOCK.lock().unwrap();
        let tmp = std::env::temp_dir();

        // CARGO_TARGET_DIR is honored at runtime when no explicit override
        // is set.
        std::env::remove_var("DISMEM_RESULTS_DIR");
        std::env::set_var("CARGO_TARGET_DIR", tmp.join("dismem-target"));
        assert_eq!(
            results_dir(),
            tmp.join("dismem-target").join("dismem-results")
        );

        // DISMEM_RESULTS_DIR wins over CARGO_TARGET_DIR.
        std::env::set_var("DISMEM_RESULTS_DIR", tmp.join("dismem-explicit"));
        assert_eq!(results_dir(), tmp.join("dismem-explicit"));

        // Without either, the target directory this test executable was
        // built into is used.
        std::env::remove_var("DISMEM_RESULTS_DIR");
        std::env::remove_var("CARGO_TARGET_DIR");
        let exe = std::env::current_exe().unwrap();
        let target = target_dir_of(&exe).expect("test executables sit in <target>/<profile>/deps");
        assert_eq!(results_dir(), target.join("dismem-results"));
    }

    #[test]
    fn target_dir_follows_cargo_layout() {
        for exe in ["/t/release/deps/x", "/t/debug/examples/x", "/t/release/x"] {
            assert_eq!(
                target_dir_of(Path::new(exe)),
                Some(PathBuf::from("/t")),
                "{exe}"
            );
        }
        for exe in ["/usr/bin/x", "/t/release/deps/sub/x", "/tmp/deps/x", "x"] {
            assert_eq!(target_dir_of(Path::new(exe)), None, "{exe}");
        }
    }

    #[test]
    fn json_writing_below_a_regular_file_fails() {
        let file = std::env::temp_dir().join(format!("dismem-not-a-dir-{}", std::process::id()));
        std::fs::write(&file, b"").unwrap();
        let dir = file.join("results");
        let err = write_json_in(&dir, "harness-selftest", &vec![1, 2, 3]).unwrap_err();
        assert!(err.contains(&dir.display().to_string()), "{err}");
        let _ = std::fs::remove_file(file);
    }

    #[test]
    fn json_writing_creates_file() {
        let _env = ENV_LOCK.lock().unwrap();
        std::env::set_var(
            "DISMEM_RESULTS_DIR",
            std::env::temp_dir().join("dismem-test-results"),
        );
        write_json("harness-selftest", &vec![1, 2, 3]);
        let path = results_dir().join("harness-selftest.json");
        assert!(path.exists());
        let _ = std::fs::remove_file(path);
        std::env::remove_var("DISMEM_RESULTS_DIR");
    }
}
