//! Machine-readable perf records: `BENCH_milp.json` / `BENCH_markov.json`.
//!
//! Every perf-relevant harness (the `milp_scaling` / `markov_scaling`
//! benches, the `table1` / `table2` binaries) appends flat JSON records
//! here so per-kernel perf trajectories can be tracked across PRs without
//! parsing bench stdout. Each file is a JSON array with one record per
//! line:
//!
//! ```json
//! [
//! {"kind":"milp_scaling","edges":40,"kernel":"revised","wall_ms":12.3,...},
//! {"kind":"table1","circuit":"s526","wall_ms":823.1,...}
//! ]
//! ```
//!
//! `BENCH_markov.json` carries two record kinds, written by the
//! `markov_scaling` bench:
//!
//! * `"markov_scaling"` — one record per (instance, solver) pair:
//!   `instance` (str), `capacity` (str), `solver` (`"sparse_iterative"` or
//!   `"dense_oracle"`), `states`, `recurrent_states`, `wall_ms`,
//!   `throughput`, `exact` (0/1), and `refused` (1 when the dense oracle
//!   declined the class — `wall_ms`/`throughput` are then absent);
//! * `"markov_scaling_summary"` — the A/B headline: the largest instance
//!   both solvers completed (`ab_instance`, `ab_recurrent_states`,
//!   `sparse_wall_ms`, `dense_wall_ms`, `speedup`, `agreement_abs_diff`)
//!   and the largest sparse-only solve (`largest_instance`,
//!   `largest_recurrent_states`, `largest_sparse_wall_ms`,
//!   `dense_refused`).
//!
//! No serde in the container, so records are rendered by hand; the
//! format is deliberately flat (string / integer / float fields only).

use std::fmt::Write as _;
use std::fs;
use std::io;
use std::path::{Path, PathBuf};

/// One flat JSON object under construction.
#[derive(Debug, Clone, Default)]
pub struct JsonRecord {
    fields: Vec<(String, String)>,
}

impl JsonRecord {
    /// Starts a record with its `kind` discriminator.
    pub fn new(kind: &str) -> Self {
        JsonRecord::default().str("kind", kind)
    }

    /// Adds a string field (JSON-escaped).
    #[must_use]
    pub fn str(mut self, key: &str, value: &str) -> Self {
        self.fields.push((key.to_string(), escape(value)));
        self
    }

    /// Adds an integer field.
    #[must_use]
    pub fn int(mut self, key: &str, value: u64) -> Self {
        self.fields.push((key.to_string(), value.to_string()));
        self
    }

    /// Adds a float field (non-finite values become `null`).
    #[must_use]
    pub fn num(mut self, key: &str, value: f64) -> Self {
        let rendered = if value.is_finite() {
            format!("{value}")
        } else {
            "null".to_string()
        };
        self.fields.push((key.to_string(), rendered));
        self
    }

    /// Renders the record as a single-line JSON object.
    pub fn render(&self) -> String {
        let mut out = String::from("{");
        for (i, (k, v)) in self.fields.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            let _ = write!(out, "{}:{}", escape(k), v);
        }
        out.push('}');
        out
    }
}

fn escape(s: &str) -> String {
    let mut out = String::with_capacity(s.len() + 2);
    out.push('"');
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\t' => out.push_str("\\t"),
            c if (c as u32) < 0x20 => {
                let _ = write!(out, "\\u{:04x}", c as u32);
            }
            c => out.push(c),
        }
    }
    out.push('"');
    out
}

/// Where records for `file_name` go: the `env_var` override when set, or
/// `file_name` at the nearest workspace root at or above the current
/// directory (`cargo bench` runs in the package directory, so the current
/// directory itself is not the root). Resolved when the program runs, so
/// a build moved or copied after compilation writes into its own
/// checkout. Outside any workspace the current directory is used.
pub fn bench_json_path_named(env_var: &str, file_name: &str) -> PathBuf {
    if let Some(p) = std::env::var_os(env_var) {
        return PathBuf::from(p);
    }
    let cwd = std::env::current_dir().unwrap_or_else(|_| PathBuf::from("."));
    workspace_root_from(&cwd).unwrap_or(cwd).join(file_name)
}

/// The nearest directory at or above `start` whose `Cargo.toml` declares
/// a `[workspace]` table, or `None` when no ancestor does.
fn workspace_root_from(start: &Path) -> Option<PathBuf> {
    start
        .ancestors()
        .find(|dir| {
            fs::read_to_string(dir.join("Cargo.toml"))
                .is_ok_and(|toml| toml.lines().any(|l| l.trim() == "[workspace]"))
        })
        .map(Path::to_path_buf)
}

/// The MILP perf log: `$BENCH_MILP_PATH` or `BENCH_milp.json`.
pub fn bench_json_path() -> PathBuf {
    bench_json_path_named("BENCH_MILP_PATH", "BENCH_milp.json")
}

/// The Markov perf log: `$BENCH_MARKOV_PATH` or `BENCH_markov.json`.
pub fn markov_json_path() -> PathBuf {
    bench_json_path_named("BENCH_MARKOV_PATH", "BENCH_markov.json")
}

/// Appends records to the MILP log ([`bench_json_path`]).
pub fn append(records: &[JsonRecord]) {
    append_to(&bench_json_path(), records);
}

/// Appends records to the Markov log ([`markov_json_path`]).
pub fn append_markov(records: &[JsonRecord]) {
    append_to(&markov_json_path(), records);
}

/// Appends records to the JSON array at `path`, creating it when
/// absent. A file that exists but cannot be read, or does not hold a
/// JSON array, is left untouched and the new records are dropped with a
/// warning: the log's history is worth more than one run's records. The
/// updated array is written to a sibling `.tmp` file and renamed over
/// the log, so an interrupted write never truncates it. I/O errors are
/// reported to stderr, never panicked on — perf logging must not fail a
/// bench run.
///
/// The read-modify-write is **not** atomic: run the perf harnesses
/// sequentially (as `scripts/ci.sh` does); concurrent writers to the
/// same file are last-writer-wins.
pub fn append_to(path: &Path, records: &[JsonRecord]) {
    let mut lines: Vec<String> = match fs::read_to_string(path) {
        Ok(existing) if existing.trim_start().starts_with('[') => existing
            .lines()
            .map(str::trim)
            .filter(|l| l.starts_with('{'))
            .map(|l| l.trim_end_matches(',').to_string())
            .collect(),
        Err(e) if e.kind() == io::ErrorKind::NotFound => Vec::new(),
        Ok(_) => {
            eprintln!(
                "warning: {} does not hold a JSON array; left untouched, records not written",
                path.display()
            );
            return;
        }
        Err(e) => {
            eprintln!(
                "warning: could not read {}: {e}; left untouched, records not written",
                path.display()
            );
            return;
        }
    };
    lines.extend(records.iter().map(JsonRecord::render));
    let body = format!("[\n{}\n]\n", lines.join(",\n"));
    let mut tmp = path.as_os_str().to_owned();
    tmp.push(".tmp");
    let tmp = PathBuf::from(tmp);
    match fs::write(&tmp, body).and_then(|()| fs::rename(&tmp, path)) {
        Ok(()) => println!("perf records appended to {}", path.display()),
        Err(e) => {
            let _ = fs::remove_file(&tmp);
            eprintln!("warning: could not write {}: {e}", path.display());
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn record_renders_flat_json() {
        let r = JsonRecord::new("milp_scaling")
            .int("edges", 40)
            .num("wall_ms", 12.5)
            .num("speedup", f64::INFINITY)
            .str("kernel", "revised \"warm\"");
        assert_eq!(
            r.render(),
            r#"{"kind":"milp_scaling","edges":40,"wall_ms":12.5,"speedup":null,"kernel":"revised \"warm\""}"#
        );
    }

    #[test]
    fn append_round_trips_through_a_temp_file() {
        let dir = std::env::temp_dir().join(format!("bench_log_test_{}", std::process::id()));
        let _ = fs::create_dir_all(&dir);
        let path = dir.join("BENCH_milp.json");
        let _ = fs::remove_file(&path);
        std::env::set_var("BENCH_MILP_PATH", &path);
        append(&[JsonRecord::new("a").int("x", 1)]);
        append(&[JsonRecord::new("b").int("x", 2)]);
        let text = fs::read_to_string(&path).unwrap();
        std::env::remove_var("BENCH_MILP_PATH");
        assert!(text.starts_with("[\n"), "not an array: {text}");
        assert!(text.contains(r#"{"kind":"a","x":1}"#));
        assert!(text.contains(r#"{"kind":"b","x":2}"#));
        assert_eq!(text.matches('{').count(), 2);
    }

    /// A log that is not a JSON array, or not readable as text, keeps
    /// every byte: the records are dropped, the history is not.
    #[test]
    fn append_leaves_a_non_array_file_untouched() {
        let dir = std::env::temp_dir().join(format!("bench_log_keep_{}", std::process::id()));
        fs::create_dir_all(&dir).unwrap();
        let not_array = dir.join("not_array.json");
        fs::write(&not_array, "{\"kind\":\"a\"}\n").unwrap();
        let not_utf8 = dir.join("not_utf8.json");
        fs::write(&not_utf8, [b'[', 0xff, 0xfe, b']']).unwrap();
        for path in [&not_array, &not_utf8] {
            let before = fs::read(path).unwrap();
            append_to(path, &[JsonRecord::new("b").int("x", 2)]);
            assert_eq!(
                fs::read(path).unwrap(),
                before,
                "{} changed",
                path.display()
            );
        }
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn workspace_root_is_the_nearest_workspace_manifest_above_the_start() {
        let root = std::env::temp_dir().join(format!("bench_log_root_{}", std::process::id()));
        let package = root.join("crates").join("bench");
        let src = package.join("src");
        fs::create_dir_all(&src).unwrap();
        fs::write(
            root.join("Cargo.toml"),
            "[workspace]\nmembers = [\"crates/bench\"]\n",
        )
        .unwrap();
        fs::write(package.join("Cargo.toml"), "[package]\nname = \"bench\"\n").unwrap();
        // A package manifest is passed over; the start directory counts.
        assert_eq!(workspace_root_from(&src), Some(root.clone()));
        assert_eq!(workspace_root_from(&package), Some(root.clone()));
        assert_eq!(workspace_root_from(&root), Some(root.clone()));
        // A nested workspace (like a separately built tool) is its own root.
        fs::write(package.join("Cargo.toml"), "[package]\n\n[workspace]\n").unwrap();
        assert_eq!(workspace_root_from(&src), Some(package.clone()));
        fs::remove_dir_all(&root).unwrap();
    }
}
