//! Output checks: every cell run is checked against invariants that hold
//! for any seed, and, at [`EXPECTED_SEED`], against the reports recorded
//! in `perfbench/expected/`.

use std::collections::BTreeMap;
use std::path::{Path, PathBuf};

use aqua_bench::journal::{report_to_json, CellKey};
use aqua_sim::RunReport;

use crate::cells::{Cell, Workload};

/// The seed whose reports are recorded. Other seeds check invariants only.
pub const EXPECTED_SEED: u64 = 42;

/// Recorded reports of one workload at [`EXPECTED_SEED`], keyed by cell
/// label. Each value is the report as `journal::report_to_json` encodes
/// it: every deterministic field, and no host-time telemetry.
#[derive(Debug)]
pub struct Expected {
    reports: BTreeMap<String, String>,
}

impl Expected {
    /// The file holding `workload`'s recorded reports, relative to the
    /// repository root.
    pub fn path(workload: Workload) -> PathBuf {
        Path::new("perfbench/expected").join(format!("{}.tsv", workload.name()))
    }

    /// Reads the recorded reports: one `label<TAB>report` line per cell.
    pub fn load(workload: Workload) -> Result<Expected, String> {
        let path = Expected::path(workload);
        let text = std::fs::read_to_string(&path)
            .map_err(|e| format!("cannot read expected outputs {}: {e}", path.display()))?;
        let mut reports = BTreeMap::new();
        for (i, line) in text.lines().enumerate() {
            let (label, json) = line.split_once('\t').ok_or_else(|| {
                format!("{}:{}: expected `label<TAB>report`", path.display(), i + 1)
            })?;
            reports.insert(label.to_string(), json.to_string());
        }
        Ok(Expected { reports })
    }

    /// Writes `reports` as the recorded outputs of `workload`.
    pub fn record(workload: Workload, reports: &[(Cell, &RunReport)]) -> std::io::Result<PathBuf> {
        let path = Expected::path(workload);
        let body: String = reports
            .iter()
            .map(|(cell, report)| format!("{}\t{}\n", cell.label(), report_to_json(report)))
            .collect();
        std::fs::write(&path, body)?;
        Ok(path)
    }
}

/// Checks one cell run; `Err` names the first check it fails.
pub fn cell(
    cell: Cell,
    outcome: &Result<RunReport, String>,
    expected: Option<&Expected>,
) -> Result<(), String> {
    let report = outcome.as_ref().map_err(|msg| format!("panicked: {msg}"))?;
    if cell.protects() && (report.oracle.rows_over_trh > 0 || report.oracle.rows_flippable > 0) {
        return Err(format!(
            "oracle: {} rows over T_RH, {} flippable",
            report.oracle.rows_over_trh, report.oracle.rows_flippable
        ));
    }
    if report.integrity_violations > 0 {
        return Err(format!(
            "shadow memory: {} integrity violations",
            report.integrity_violations
        ));
    }
    if let Some(expected) = expected {
        let label = cell.label();
        let want = expected
            .reports
            .get(&label)
            .ok_or_else(|| format!("no expected report for {label}"))?;
        let got = report_to_json(report);
        if &got != want {
            return Err(format!(
                "report differs from the recorded one\n  expected {want}\n  got      {got}"
            ));
        }
    }
    Ok(())
}

/// Checks every run of a workload's cells and remembers which cells failed.
/// Every run of a cell must also reproduce the cell's first report.
pub struct Checker<'a> {
    workload: Workload,
    expected: Option<&'a Expected>,
    /// Each cell's first report, as `report_to_json` encodes it.
    first: Vec<Option<String>>,
    failed: Vec<bool>,
}

impl<'a> Checker<'a> {
    /// A checker for `cells`, indexed as `Workload::cells` orders them.
    pub fn new(workload: Workload, cells: usize, expected: Option<&'a Expected>) -> Checker<'a> {
        Checker {
            workload,
            expected,
            first: vec![None; cells],
            failed: vec![false; cells],
        }
    }

    /// Checks one run of cell `index`.
    pub fn run(&mut self, index: usize, c: Cell, outcome: &Result<RunReport, String>) {
        let verdict = cell(c, outcome, self.expected).and_then(|()| {
            let json = outcome.as_ref().map(report_to_json).unwrap_or_default();
            match &self.first[index] {
                None => {
                    self.first[index] = Some(json);
                    Ok(())
                }
                Some(earlier) if *earlier == json => Ok(()),
                Some(_) => Err("report differs from the cell's first run".to_string()),
            }
        });
        if let Err(why) = verdict {
            self.fail(index, c, &why);
        }
    }

    /// Marks cell `index` failed for `why`.
    pub fn fail(&mut self, index: usize, c: Cell, why: &str) {
        eprintln!("[check] {} {}: {why}", self.workload.name(), c.label());
        self.failed[index] = true;
    }

    /// Cells with at least one failing run.
    pub fn failed(&self) -> usize {
        self.failed.iter().filter(|&&f| f).count()
    }

    /// Digest of every cell's first report, equal across runs whose outputs
    /// are equal.
    pub fn outputs_digest(&self) -> String {
        let parts: Vec<&str> = self.first.iter().flatten().map(String::as_str).collect();
        CellKey::digest(&parts).hex()
    }
}
