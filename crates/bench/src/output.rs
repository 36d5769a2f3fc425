//! Table printing, CSV output and CLI output files for the experiment
//! binaries.

use std::fs::{self, File, OpenOptions};
use std::io::{self, BufWriter, Write};
use std::path::PathBuf;

use aqua_telemetry::Telemetry;

/// Prints a fixed-width table to stdout.
pub fn print_table(title: &str, header: &[&str], rows: &[Vec<String>]) {
    println!("\n== {title} ==");
    let mut widths: Vec<usize> = header.iter().map(|h| h.len()).collect();
    for row in rows {
        for (i, cell) in row.iter().enumerate() {
            if i < widths.len() {
                widths[i] = widths[i].max(cell.len());
            }
        }
    }
    let fmt_row = |cells: &[String]| {
        cells
            .iter()
            .enumerate()
            .map(|(i, c)| format!("{:>width$}", c, width = widths.get(i).copied().unwrap_or(8)))
            .collect::<Vec<_>>()
            .join("  ")
    };
    println!(
        "{}",
        fmt_row(&header.iter().map(|s| s.to_string()).collect::<Vec<_>>())
    );
    for row in rows {
        println!("{}", fmt_row(row));
    }
}

/// Writes rows as CSV into `target/experiments/<name>.csv`; returns the path.
///
/// # Panics
///
/// Panics if the experiments directory cannot be created or written.
pub fn write_csv(name: &str, header: &[&str], rows: &[Vec<String>]) -> PathBuf {
    let dir = PathBuf::from("target/experiments");
    fs::create_dir_all(&dir).expect("create target/experiments");
    let path = dir.join(format!("{name}.csv"));
    let mut body = header.join(",") + "\n";
    for row in rows {
        body.push_str(&row.join(","));
        body.push('\n');
    }
    fs::write(&path, body).expect("write experiment CSV");
    println!("wrote {}", path.display());
    path
}

/// [`write_csv`] bracketed by a `bench.csv` wallclock phase on `telemetry`,
/// so CSV serialization shows up in host-time profiles next to
/// `bench.setup`/`bench.run`/`bench.merge`. Identical output to
/// [`write_csv`]; on a disabled hub the phase guard is inert.
///
/// # Panics
///
/// Panics if the experiments directory cannot be created or written.
pub fn write_csv_instrumented(
    telemetry: &Telemetry,
    name: &str,
    header: &[&str],
    rows: &[Vec<String>],
) -> PathBuf {
    let _phase = telemetry.phase("bench.csv");
    write_csv(name, header, rows)
}

/// An output file a command-line flag names, created before the run so an
/// unwritable path fails at once instead of after the simulation. A file
/// that cannot be created, written or flushed ends the process with exit
/// code 2 and one line naming the flag and the path.
pub struct OutputFile {
    flag: &'static str,
    /// The path the flag named.
    pub path: String,
    w: BufWriter<File>,
}

impl OutputFile {
    /// Creates the file of every `(flag, path)` given a path. Each path is
    /// opened without truncation first, so one that cannot be created
    /// exits before any other output loses its previous contents, and the
    /// files that did not exist before this call are removed again.
    pub fn create_all<const N: usize>(
        outputs: [(&'static str, Option<String>); N],
    ) -> [Option<OutputFile>; N] {
        // Nothing at all, not even a dangling symlink, is at these paths.
        let new: Vec<String> = outputs
            .iter()
            .filter_map(|(_, path)| path.clone())
            .filter(|path| fs::symlink_metadata(path).is_err())
            .collect();
        let open = |flag: &str, path: &str, truncate: bool| {
            let file = OpenOptions::new()
                .write(true)
                .create(true)
                .truncate(truncate)
                .open(path);
            file.unwrap_or_else(|e| {
                for path in &new {
                    let _ = fs::remove_file(path);
                }
                eprintln!("cannot create {flag} file {path}: {e}");
                std::process::exit(2);
            })
        };
        for (flag, path) in &outputs {
            if let Some(path) = path {
                open(flag, path, false);
            }
        }
        outputs.map(|(flag, path)| {
            let w = BufWriter::new(open(flag, path.as_deref()?, true));
            Some(OutputFile {
                flag,
                path: path?,
                w,
            })
        })
    }

    /// Writes `body` into the file and flushes it.
    pub fn write(&mut self, body: impl FnOnce(&mut BufWriter<File>) -> io::Result<()>) {
        if let Err(e) = body(&mut self.w).and_then(|()| self.w.flush()) {
            eprintln!("cannot write {} file {}: {e}", self.flag, self.path);
            std::process::exit(2);
        }
    }
}

/// Formats a fraction as a percentage with one decimal.
pub fn pct(x: f64) -> String {
    format!("{:.1}%", x * 100.0)
}

/// Formats a float with two decimals.
pub fn f2(x: f64) -> String {
    format!("{x:.2}")
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn formatting_helpers() {
        assert_eq!(pct(0.021), "2.1%");
        assert_eq!(f2(2.953), "2.95");
    }

    #[test]
    fn csv_roundtrip() {
        let p = write_csv("unit-test", &["a", "b"], &[vec!["1".into(), "2".into()]]);
        let body = std::fs::read_to_string(p).unwrap();
        assert_eq!(body, "a,b\n1,2\n");
    }

    #[test]
    fn instrumented_csv_matches_plain_and_records_a_phase() {
        let hub = Telemetry::new(Default::default());
        let p = write_csv_instrumented(
            &hub,
            "unit-test-instrumented",
            &["a", "b"],
            &[vec!["1".into(), "2".into()]],
        );
        assert_eq!(std::fs::read_to_string(p).unwrap(), "a,b\n1,2\n");
        let summary = hub.summary().unwrap();
        let wall = summary.wallclock.expect("csv phase recorded");
        assert_eq!(wall.phase("bench.csv").map(|s| s.count), Some(1));
    }
}
